"""Hilbert bases of the holomorphy semigroup, with two independent engines.

Hol(v) = {k in N^r : <k, v> >= 0} is an affine semigroup.  Mapping k to
(k, <k, v>) identifies it with the solution monoid of the single slack
equation sum_j v_j k_j - s = 0 over N^(r+1); irreducible elements of Hol
correspond to the componentwise-minimal nonzero solutions, and minimal
solutions of a one-equation linear Diophantine system are bounded in every
coordinate by the largest coefficient on the opposite side.  Hence every
Hilbert-basis coordinate is at most B = max(1, max_j |v_j|), which turns
the computation into a finite problem.

Two engines exploit this independently: the oracle walks the whole box
[0, B]^r in lex order and keeps each member of Hol that no irreducible
found before it divides inside Hol, and the frontier engine grows
candidate solutions of the slack equation one unit step at a time,
pruning anything that dominates a known minimal solution.  They must
agree; every cross-checked basis compares them, and the test suite also
checks the oracle against a brute-force split search on small ranks.
"""

from __future__ import annotations

import itertools
import logging
import operator
from dataclasses import dataclass, field
from typing import Sequence

from .core import (
    INT64_MAX,
    OrdersLike,
    as_order_vector,
    order_of,
    validate_exponent_vector,
)
from .errors import (
    ArithmeticOverflowError,
    CapExceededError,
    IndexOutOfRangeError,
    NoRelationError,
    NonpositivePivotError,
    NotInHolError,
    ZeroElementError,
)
from .intmat import hnf_with_transform, row_lattice_is_unimodular

#: Hard cap on box enumeration size; keeps interactive misuse from hanging.
ENUMERATION_CAP = 10_000_000

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class HilbertBasis:
    """Lex-sorted irreducible elements of Hol for one order profile."""

    elements: tuple[tuple[int, ...], ...]
    source_engine: str
    # count_factorizations' memo: cap -> {(i, remainder): (count, witnesses)}.
    _factor_memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        elems = tuple(tuple(e) for e in self.elements)
        object.__setattr__(self, "elements", elems)
        if self.source_engine not in ("oracle", "frontier"):
            raise ValueError(f"unknown engine tag {self.source_engine!r}")
        for e in elems:
            if not e or min(e) < 0 or not any(e):
                raise ValueError("basis elements must be nonzero with entries >= 0")
        if elems and any(len(e) != len(elems[0]) for e in elems):
            raise ValueError("basis elements must share one rank")
        if list(elems) != sorted(set(elems)):
            raise ValueError("basis elements must be lex-sorted and duplicate-free")

    def __len__(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class FactorizationCount:
    """Number of basis factorizations of one element, with sample witnesses.

    Witnesses are coefficient vectors aligned with the (lex-sorted) basis
    elements; at most two are kept.
    """

    element: tuple[int, ...]
    count: int
    witnesses: tuple[tuple[int, ...], ...]


def _completeness_bound(ent: Sequence[int]) -> int:
    return max(1, max(abs(x) for x in ent))


def _guard_enumeration(r: int, bound: int, ent: Sequence[int]) -> None:
    if (bound + 1) ** r > ENUMERATION_CAP:
        raise CapExceededError(
            f"box ({bound + 1})^{r} exceeds the enumeration cap {ENUMERATION_CAP}"
        )
    # Box coordinates are <= bound, so dot products stay within
    # r * bound * max|v|; refuse anything that could leave 64 bits.
    if r * bound * max(1, max(abs(x) for x in ent)) > INT64_MAX:
        raise ArithmeticOverflowError("box enumeration could overflow 64-bit sums")


def _splits(k: tuple[int, ...], s: int, ent: tuple[int, ...]) -> bool:
    """True iff k = a + b with a, b nonzero members of Hol.

    Enumerates every proper part a <= k; the complement is in Hol exactly
    when 0 <= <a, v> <= <k, v>, by additivity of the order.
    """
    it = itertools.product(*[range(x + 1) for x in k])
    next(it)  # skip the zero part
    for a in it:
        if a == k:
            continue
        t = 0
        for x, w in zip(a, ent):
            t += x * w
        if 0 <= t <= s:
            return True
    return False


def is_irreducible(k: Sequence[int], v: OrdersLike) -> bool:
    """Decide irreducibility of a nonzero member of Hol by full enumeration."""
    ov = as_order_vector(v)
    kk = validate_exponent_vector(k, rank=ov.rank)
    s = order_of(kk, ov)
    if s < 0:
        raise NotInHolError(f"{kk} is not in Hol (order {s})")
    if not any(kk):
        raise ZeroElementError("the identity is neither reducible nor irreducible")
    size = 1
    for x in kk:
        size *= x + 1
        if size > ENUMERATION_CAP:
            raise CapExceededError(
                f"split enumeration below {kk} exceeds {ENUMERATION_CAP} points"
            )
    return not _splits(kk, s, ov.entries)


def hilbert_basis_oracle(v: OrdersLike) -> HilbertBasis:
    """Reference engine: walk the completeness box in lex order, keep the
    members no earlier irreducible divides.

    A nonzero member k of Hol is reducible iff some irreducible h != k
    with h <= k (componentwise) has <h, v> <= <k, v>.  If such an h
    exists, k = h + (k - h) with k - h nonzero and <k - h, v> >= 0, so
    k splits.  Conversely, every nonzero member of Hol is a sum of
    irreducibles (induct on the component sum); if k is reducible, write
    k = h + rest with h irreducible and rest a nonzero member of Hol:
    then h <= k, h != k and <h, v> = <k, v> - <rest, v> <= <k, v>.
    Componentwise h <= k with h != k implies h precedes k in lex order,
    and h lies in the box because k does, so when the walk reaches k
    every such h has already been kept.  The kept list is therefore
    exactly the irreducibles of the box, in lex order.
    """
    ov = as_order_vector(v)
    ent = ov.entries
    r = ov.rank
    bound = _completeness_bound(ent)
    _guard_enumeration(r, bound, ent)

    basis: list[tuple[tuple[int, ...], int]] = []
    box = itertools.product(range(bound + 1), repeat=r)
    next(box)  # skip the identity
    for k in box:
        s = 0
        for x, w in zip(k, ent):
            s += x * w
        if s < 0:
            continue
        for h, hs in basis:
            if hs <= s and all(map(operator.le, h, k)):
                break
        else:
            basis.append((k, s))

    if any(max(h) == bound for h, _ in basis):
        # The bound is tight (e.g. v=(2,-3) has the element (3,2)), so hits
        # are routine; logged for audit per the completeness-bound caveat.
        _log.debug("basis for v=%s touches the completeness bound B=%d", ent, bound)

    return HilbertBasis(tuple(h for h, _ in basis), "oracle")


def _unit(n: int, i: int) -> tuple[int, ...]:
    return tuple(int(j == i) for j in range(n))


def _dominates(x: tuple[int, ...], y: tuple[int, ...]) -> bool:
    return all(a <= b for a, b in zip(x, y))


def hilbert_basis_frontier(v: OrdersLike) -> HilbertBasis:
    """Second engine: completion-style search over the slack equation.

    This is the completion procedure of E. Contejean and H. Devie, "An
    efficient incremental algorithm for solving systems of linear
    Diophantine equations", Information and Computation 113 (1994).

    Coordinates with v_j = 0 contribute exactly their unit vectors and are
    excluded up front.  Over the remaining coordinates plus the slack, the
    search starts from the unit vectors and repeatedly bumps a candidate x
    by one in a direction that moves its defect sum(c_i x_i) toward zero
    (the classical completion restriction, which reaches every minimal
    solution).  Balanced candidates are collected; anything dominating a
    known minimal solution is pruned.  Level-by-level processing keeps the
    minimal set complete before deeper candidates are expanded.
    """
    ov = as_order_vector(v)
    ent = ov.entries
    r = ov.rank
    bound = _completeness_bound(ent)
    _guard_enumeration(r, bound, ent)

    active = [j for j in range(r) if ent[j] != 0]
    units = [_unit(r, j) for j in range(r) if ent[j] == 0]

    coeffs = tuple(ent[j] for j in active) + (-1,)
    n = len(coeffs)
    minimal: list[tuple[int, ...]] = []
    frontier: dict[tuple[int, ...], int] = {}
    for i in range(n):
        frontier[_unit(n, i)] = coeffs[i]

    level = 1
    max_level = n * (bound + 2) + 2  # minimal solutions live far below this
    while frontier:
        if level > max_level:
            raise AssertionError(f"frontier search exceeded level bound for v={ent}")
        for x, d in frontier.items():
            if d == 0 and not any(_dominates(m, x) for m in minimal):
                minimal.append(x)
        nxt: dict[tuple[int, ...], int] = {}
        for x, d in frontier.items():
            if d == 0:
                continue
            for i in range(n):
                c = coeffs[i]
                if c * d < 0:
                    y = x[:i] + (x[i] + 1,) + x[i + 1:]
                    if y in nxt:
                        continue
                    if any(_dominates(m, y) for m in minimal):
                        continue
                    nxt[y] = d + c
        frontier = nxt
        level += 1

    elems = list(units)
    for x in minimal:
        vec = [0] * r
        for idx, j in enumerate(active):
            vec[j] = x[idx]
        elems.append(tuple(vec))
    return HilbertBasis(tuple(sorted(elems)), "frontier")


def count_factorizations(k: Sequence[int], basis: HilbertBasis, cap: int = 2) -> FactorizationCount:
    """Count coefficient vectors c over the basis with sum_h c_h * h = k.

    Depth-first over basis elements in lex order, multiplicities tried
    largest first, stopping once `cap` factorizations are found.  A
    complete basis generates Hol, so a zero count means k is outside Hol
    and raises NotInHolError.  The identity factors once, emptily.

    Each search state (position i, remainder) is memoized on the basis,
    per cap, and shared by every call on that basis.  A state stores its
    count capped at `cap` and the first two of its suffix factorizations
    in depth-first order, never more, so the memo does not grow with
    `cap`.  This is exact: a state's capped count is the capped sum of
    its children's capped counts, and its first two factorizations are
    the first two of its children's, taken in the order the search visits
    them.  The memo is a field of the basis, excluded from comparison,
    hashing and repr, so it is freed with the basis.
    """
    if cap < 2:
        raise ValueError("cap must be >= 2")
    elems = basis.elements
    m = len(elems)
    kk = validate_exponent_vector(k, rank=len(elems[0]) if m else None)
    r = len(kk)

    supports = [[j for j, x in enumerate(h) if x] for h in elems]
    # uncovered[i]: coordinates no element from position i on can reduce.
    uncovered = [tuple(range(r))] * (m + 1)
    for i in range(m - 1, -1, -1):
        uncovered[i] = tuple(j for j in uncovered[i + 1] if not elems[i][j])

    memo = basis._factor_memo.setdefault(cap, {})
    count, witnesses = _factorizations_from(0, kk, elems, supports, uncovered, memo, cap)
    if count == 0:
        raise NotInHolError(f"{kk} is not generated by the basis (not in Hol)")
    return FactorizationCount(kk, count, witnesses)


def _factorizations_from(i, rem, elems, supports, uncovered, memo, cap):
    """(count capped at `cap`, first two witnesses) of `rem` over elems[i:].

    A module-level function rather than a closure: a self-referencing
    closure leaves a reference cycle behind each call, and a memo reachable
    from one would outlive its basis until the cyclic collector runs.
    """
    if not any(rem):
        return 1, ((0,) * (len(elems) - i),)
    for j in uncovered[i]:
        if rem[j]:
            return 0, ()
    key = (i, rem)
    state = memo.get(key)
    if state is not None:
        return state
    h = elems[i]
    cmax = min(rem[j] // h[j] for j in supports[i])
    count = 0
    witnesses: list[tuple[int, ...]] = []
    for c in range(cmax, -1, -1):
        nr = tuple([x - c * y for x, y in zip(rem, h)]) if c else rem
        n, ws = _factorizations_from(i + 1, nr, elems, supports, uncovered, memo, cap)
        if n:
            count += n
            for w in ws[: 2 - len(witnesses)]:
                witnesses.append((c,) + w)
            if count >= cap:
                count = cap
                break
    state = memo[key] = (count, tuple(witnesses))
    return state


def lattice_is_full(basis: HilbertBasis, r: int) -> bool:
    """True iff the basis spans Z^r as a lattice.

    Decided by exact integer Hermite reduction: the row HNF must have r
    pivots, all equal to 1.
    """
    if not basis.elements:
        return False
    return row_lattice_is_unimodular([list(e) for e in basis.elements], r)


def is_factorial(basis: HilbertBasis, r: int) -> bool:
    """Factoriality criterion: exactly r irreducibles."""
    return len(basis.elements) == r


def nonuniqueness_witness(basis: HilbertBasis, r: int) -> tuple[int, ...] | None:
    """Element with two distinct basis factorizations, when |basis| > r.

    Extracts a nonzero integer relation sum_h lam_h * h = 0 from the left
    kernel of the basis matrix and returns the positive part's combination
    w = sum_{lam_h > 0} lam_h * h; the positive and negative parts of the
    relation are then two different coefficient vectors for w.  Returns
    None when |basis| <= r (no relation is forced).
    """
    elems = basis.elements
    m = len(elems)
    if m <= r:
        return None
    _, U, pivots = hnf_with_transform([list(e) for e in elems])
    if len(pivots) >= m:
        raise NoRelationError("no kernel relation despite |basis| > r (internal bug)")
    lam = U[len(pivots)]
    if not any(c > 0 for c in lam) or not any(c < 0 for c in lam):
        # A one-signed relation among nonzero nonnegative vectors is impossible.
        raise NoRelationError("degenerate kernel relation (internal bug)")
    w = [0] * r
    for coef, h in zip(lam, elems):
        if coef > 0:
            for j in range(r):
                w[j] += coef * h[j]
    witness = tuple(w)
    got = count_factorizations(witness, basis, cap=2)
    if got.count != 2:
        raise NoRelationError("kernel witness failed the two-factorization check")
    return witness


def adjoined_irreducibles(v: OrdersLike, pivot: int) -> tuple[tuple[int, ...], ...]:
    """The r elements m_j * e_pivot + e_j, with m_j minimal for membership.

    `pivot` is 1-based and must name a generator of strictly positive
    order; m_j = max(0, ceil(-v_j / v_pivot)) is the least power of the
    pivot that drags the j-th generator into Hol.  Every returned element
    is in Hol and irreducible by construction (asserted).
    """
    ov = as_order_vector(v)
    ent = ov.entries
    r = ov.rank
    if not 1 <= pivot <= r:
        raise IndexOutOfRangeError(f"pivot {pivot} outside 1..{r}")
    p = pivot - 1
    vp = ent[p]
    if vp <= 0:
        raise NonpositivePivotError(f"pivot order must be > 0, got {vp}")
    out = []
    for j in range(r):
        mj = max(0, -(ent[j] // vp))
        vec = [0] * r
        vec[p] += mj
        vec[j] += 1
        elem = tuple(vec)
        assert is_irreducible(elem, ov), elem
        out.append(elem)
    return tuple(out)
