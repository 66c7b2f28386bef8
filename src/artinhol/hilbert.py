"""Hilbert bases of the holomorphy semigroup, with two independent engines.

Hol(v) = {k in N^r : <k, v> >= 0} is an affine semigroup.  Mapping k to
(k, <k, v>) identifies it with the solution monoid of the single slack
equation sum_{v_j > 0} v_j k_j = sum_{v_j < 0} |v_j| k_j + s over
N^(r+1), with coordinates where v_j = 0 left free; irreducible elements
of Hol correspond to the componentwise-minimal nonzero solutions.  For the
minimal solutions of a.x = b.y with positive a and b, Sigma x <= max b
and Sigma y <= max a (J.-L. Lambert, C. R. Acad. Sci. Paris Ser. I 305
(1987) 39-40).  With a the positive orders and b the absolute negative
orders plus the slack's 1, every irreducible h of Hol lies in the
completeness region

    Sigma_{v_j > 0} h_j <= b+ = max(1, max_{v_j < 0} |v_j|),
    Sigma_{v_j < 0} h_j <= b- = max_{v_j > 0} v_j  (0 if no v_j > 0),
    h_j <= 1 where v_j = 0  (an irreducible with h_j >= 1 there is e_j),

which turns the computation into a finite problem.  The region is
downward closed: lowering a coordinate of a point keeps it inside.

Two engines exploit this independently: the oracle walks the region in
lex order and keeps each member of Hol that no irreducible found before
it divides inside Hol, and the frontier engine grows candidate solutions
of the slack equation one unit step at a time, pruning anything that
dominates a known minimal solution.  They must agree; every cross-checked
basis compares them.  A basis of more than r elements is not factorial,
and nonuniqueness_witness reads an element with two factorizations off
two of its irreducibles, by the closed form of the factoriality proof in
conditions.factorial_closed_form.  The brute-force checks the test suite
runs against all of these (the irreducibles of the whole box
[0, max(1, max |v_j|)]^r, a split search deciding irreducibility, the
lattice rank of a basis through a Hermite normal form, the adjoined
irreducibles of a positive pivot) live next to those tests, in
tests/conftest.py.

The orbit map: scaling v leaves Hol(v) unchanged and permuting v permutes
Hol(v), so canonical_order reduces v to a sorted, gcd-free representative
and _carried maps its basis back to v; conditions.orbit_basis gives every
report its basis this way, one basis per representative.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

from .core import OrdersLike, as_order_vector, validate_exponent_vector
from .errors import CapExceededError, NoRelationError, NotInHolError

#: Hard cap on the oracle's region points, the frontier's explored nodes
#: and the bound on a factorization search's steps; keeps interactive
#: misuse from hanging.
ENUMERATION_CAP = 10_000_000

Elements = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class HilbertBasis:
    """Lex-sorted irreducible elements of Hol for one order profile."""

    elements: Elements
    source_engine: str
    # count_factorizations' memo: cap -> {(i, remainder): (count, witnesses)}.
    _factor_memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # count_factorizations' tables, built on its first call: (supports, uncovered).
    _factor_tables: tuple | None = field(default=None, init=False, repr=False, compare=False)

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


def canonical_order(v: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Orbit-canonical form of an order vector under scaling and permutation.

    Returns (c, perm): c is v divided by the gcd of its entries (1 when all
    are zero) and sorted ascending, with c[i] = v[perm[i]] / gcd.  The map
    k -> (k[perm[0]], ..., k[perm[r-1]]) is then a monoid isomorphism from
    Hol(v) onto Hol(c).
    """
    g = math.gcd(*v) or 1
    perm = tuple(sorted(range(len(v)), key=v.__getitem__))
    return tuple(v[i] // g for i in perm), perm


def _carried(elements: Elements, perm: Sequence[int]) -> Elements:
    """Carry basis elements of Hol(c) back to Hol(v), where (c, perm) = canonical_order(v).

    Coordinate i of an element of Hol(c) becomes coordinate perm[i].  The
    map only permutes coordinates, so distinct nonzero nonnegative elements
    stay so, and sorting them again keeps the basis lex-sorted.
    """
    inverse = sorted(range(len(perm)), key=perm.__getitem__)
    return tuple(sorted(tuple([h[i] for i in inverse]) for h in elements))


@dataclass(frozen=True)
class FactorizationCount:
    """Number of basis factorizations of one element, with sample witnesses.

    Witnesses are coefficient vectors aligned with the (lex-sorted) basis
    elements; at most two are kept.
    """

    element: tuple[int, ...]
    count: int
    witnesses: tuple[tuple[int, ...], ...]


class _Region(NamedTuple):
    """The completeness region of Hol(v) (module docstring): the two sum
    limits and how many coordinates have each sign of v_j."""

    plus: int  # b+, the limit on the sum over v_j > 0
    minus: int  # b-, the limit on the sum over v_j < 0
    positive: int
    negative: int
    zero: int

    def points(self) -> int:
        """Exact number of points in the region, the identity included."""
        return (
            math.comb(self.plus + self.positive, self.positive)
            * math.comb(self.minus + self.negative, self.negative)
            * 2**self.zero
        )


def _region(ent: Sequence[int]) -> _Region:
    pos = [x for x in ent if x > 0]
    neg = [-x for x in ent if x < 0]
    return _Region(
        max(1, max(neg, default=0)),
        max(pos, default=0),
        len(pos),
        len(neg),
        len(ent) - len(pos) - len(neg),
    )


def _guard_oracle(region: _Region) -> None:
    # Only the point count needs a guard: OrderVector caps |v_j| at
    # 2^31 - 1, so every order in the region, |<h, v>| <= b+ * b- < 2^62,
    # stays inside 64 bits.
    points = region.points()
    if points > ENUMERATION_CAP:
        raise CapExceededError(
            f"completeness region of {points} points exceeds the enumeration cap "
            f"{ENUMERATION_CAP}"
        )


def hilbert_basis_oracle(v: OrdersLike) -> HilbertBasis:
    """Reference engine: walk the completeness region in lex order, keep
    the members no earlier irreducible divides.

    A nonzero member k of Hol is reducible iff some irreducible h != k
    with h <= k (componentwise) has <h, v> <= <k, v>.  If such an h
    exists, k = h + (k - h) with k - h nonzero and <k - h, v> >= 0, so
    k splits.  Conversely, every nonzero member of Hol is a sum of
    irreducibles (induct on the component sum); if k is reducible, write
    k = h + rest with h irreducible and rest a nonzero member of Hol:
    then h <= k, h != k and <h, v> = <k, v> - <rest, v> <= <k, v>.
    Componentwise h <= k with h != k implies h precedes k in lex order,
    and h lies in the region because k does and the region is downward
    closed, so when the walk reaches k every such h has already been
    kept.  The kept list is therefore exactly the irreducibles of the
    region, in lex order, and by Lambert's bound every irreducible of Hol
    lies in the region.
    """
    ov = as_order_vector(v)
    ent = ov.entries
    region = _region(ent)
    _guard_oracle(region)
    kept = _walk_region(ent, region.plus, region.minus)
    return HilbertBasis(tuple(h for h, _ in kept), "oracle")


def _walk_region(ent: Sequence[int], plus: int, minus: int) -> list[tuple[tuple[int, ...], int]]:
    """Walk the region in lex order; return the points no earlier kept
    point divides inside Hol, each with its order.

    A depth-first walk over prefixes, one coordinate per level, on an
    explicit stack so that the rank is not limited by the recursion
    limit.  A stack entry is a prefix with its order and what its
    coordinates left of the two sum limits; the last coordinate is walked
    in a loop.
    """
    last = len(ent) - 1
    kept: list[tuple[tuple[int, ...], int]] = []
    stack = [((), 0, plus, minus)]
    while stack:
        prefix, s, plus, minus = stack.pop()
        j = len(prefix)
        w = ent[j]
        top = plus if w > 0 else minus if w < 0 else 1
        if j < last:
            for x in range(top, -1, -1):  # pushed in reverse, popped in lex order
                stack.append(
                    (
                        prefix + (x,),
                        s + x * w,
                        plus - x if w > 0 else plus,
                        minus - x if w < 0 else minus,
                    )
                )
            continue
        for x in range(0 if any(prefix) else 1, top + 1):  # skip the identity
            t = s + x * w
            if t < 0:
                if w < 0:
                    break  # the order only falls from here
                continue
            k = prefix + (x,)
            for h, hs in kept:
                if hs <= t and all(map(operator.le, h, k)):
                    break
            else:
                kept.append((k, t))
    return kept


def _unit(n: int, i: int) -> tuple[int, ...]:
    return tuple(int(j == i) for j in range(n))


def _dominates(x: tuple[int, ...], y: tuple[int, ...]) -> bool:
    return all(a <= b for a, b in zip(x, y))


def hilbert_basis_frontier(v: OrdersLike) -> HilbertBasis:
    """Second engine: completion-style search over the slack equation.

    This is the completion procedure of E. Contejean and H. Devie, "An
    efficient incremental algorithm for solving systems of linear
    Diophantine equations", Information and Computation 113 (1994).

    Hol(v) = Hol(v / g) for g = gcd(v), so the search runs on v / g, whose
    region limits, and with them the depth, are up to g times smaller.
    Coordinates with v_j = 0 contribute exactly their unit vectors and are
    excluded up front.  Over the remaining coordinates plus the slack, the
    search starts from the unit vectors and repeatedly bumps a candidate x
    by one in a direction that moves its defect sum(c_i x_i) toward zero
    (the classical completion restriction, which reaches every minimal
    solution).  Balanced candidates are collected; anything dominating a
    known minimal solution is pruned.  Level-by-level processing keeps the
    minimal set complete before deeper candidates are expanded.

    The search ends by level b+ + b- + 1, with b+ and b- the sum limits
    of the completeness region.  A unit vector's defect lies in
    [-b+, b-], and a step from a positive defect subtracts at most b+
    while one from a negative defect adds at most b-, so every defect
    stays in [-b+, b-].  Two candidates on one chain of steps, x below y,
    cannot share a defect: y - x would be a nonzero solution, so y would
    dominate a minimal solution of lower level, already known, and be
    pruned.  So the unbalanced candidates of a chain, one per level, hold
    distinct nonzero defects, of which there are b+ + b-, and a balanced
    one can only follow them.  Exceeding that level is an internal bug
    and raises AssertionError.  Sums never leave [-b+, b-], so the
    guard caps only the nodes explored, at ENUMERATION_CAP.
    """
    ov = as_order_vector(v)
    g = math.gcd(*ov.entries) or 1
    ent = tuple(x // g for x in ov.entries)
    r = ov.rank
    region = _region(ent)

    active = [j for j in range(r) if ent[j] != 0]
    units = [_unit(r, j) for j in range(r) if ent[j] == 0]

    coeffs = tuple(ent[j] for j in active) + (-1,)
    n = len(coeffs)
    minimal: list[tuple[int, ...]] = []
    frontier: dict[tuple[int, ...], int] = {}
    for i in range(n):
        frontier[_unit(n, i)] = coeffs[i]

    level = 1
    max_level = region.plus + region.minus + 1
    explored = n
    while frontier:
        if level > max_level:
            raise AssertionError(f"frontier search exceeded level bound for v={ent}")
        for x, d in frontier.items():
            if d == 0 and not any(_dominates(m, x) for m in minimal):
                minimal.append(x)
        room = ENUMERATION_CAP - explored
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
                    if len(nxt) > room:
                        raise CapExceededError(
                            f"frontier search exceeds the enumeration cap of "
                            f"{ENUMERATION_CAP} nodes"
                        )
        explored += len(nxt)
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
    them.  The memo and the search's tables (each element's support as
    (j, h_j) pairs, and the coordinates no later element can reduce) are
    fields of the basis, excluded from comparison, hashing and repr, so
    the tables are built once per basis and both are freed with it.

    A search that could take more than ENUMERATION_CAP loop iterations
    raises CapExceededError before it starts, naming _search_bound's bound
    on them.  An O(r) product over that bound admits small elements at
    once; the O(m * r) sum is computed only when the product is over the cap.
    """
    if cap < 2:
        raise ValueError("cap must be >= 2")
    elems = basis.elements
    kk = validate_exponent_vector(k, rank=len(elems[0]) if elems else None)
    if elems:
        tables = _factor_tables(basis)
        steps = len(elems)
        for x in kk:  # a plain loop: math.prod over a generator costs 1.6x this
            steps *= x + 1
        steps *= max(kk) + 1
        if steps > ENUMERATION_CAP:
            steps = _search_bound(kk, *tables)
            if steps > ENUMERATION_CAP:
                raise CapExceededError(
                    f"factorization search of {kk} may take {steps} steps, over the "
                    f"enumeration cap {ENUMERATION_CAP}"
                )
        memo = basis._factor_memo.setdefault(cap, {})
        count, witnesses = _factorizations_from(0, kk, *tables, memo, cap)
    else:  # the empty basis generates only the identity
        count, witnesses = (0, ()) if any(kk) else (1, ((),))
    if count == 0:
        raise NotInHolError(f"{kk} is not generated by the basis (not in Hol)")
    return FactorizationCount(kk, count, witnesses)


def _factor_tables(basis: HilbertBasis) -> tuple[tuple, tuple]:
    """(supports, uncovered) of a nonempty basis, built on first use.

    supports[i] holds the nonzero coordinates of element i as (j, h_j)
    pairs; uncovered[i] the coordinates no element from position i on can
    reduce, all of them at i = len(basis).
    """
    tables = basis._factor_tables
    if tables is None:
        elems = basis.elements
        m = len(elems)
        supports = tuple(tuple((j, x) for j, x in enumerate(h) if x) for h in elems)
        uncovered = [tuple(range(len(elems[0])))] * (m + 1)
        for i in range(m - 1, -1, -1):
            uncovered[i] = tuple(j for j in uncovered[i + 1] if not elems[i][j])
        tables = (supports, tuple(uncovered))
        object.__setattr__(basis, "_factor_tables", tables)
    return tables


def _search_bound(k, supports, uncovered):
    """A bound on the loop iterations of _factorizations_from(0, k, ...).

    Let R_i be the coordinates that some element before position i and
    some element from i on can reduce.  The bound is the sum over i of
    prod_{j in R_i} (k_j + 1) * (min_{j in supp h_i} floor(k_j / h_ij) + 1),
    and no term exceeds prod_j (k_j + 1) * (max_j k_j + 1), so
    count_factorizations' product m times that is a bound too.

    Proof.  Each iteration, a multiplicity c >= 1 tried or the step to the
    c = 0 child, belongs to the expansion of one state (i, rem), and a
    state is expanded at most once: every state below it has a larger i or
    a remainder of smaller sum, so it is not reached again before its memo
    entry is stored, and afterwards it is a memo hit.  Remainders start at
    k and only decrease, never below 0.  At position i, rem_j = k_j for
    every j no element before i reduces, and a state with rem_j > 0 for
    some j in uncovered[i] returns unexpanded, so the expanded states at i
    differ only on R_i: at most prod_{j in R_i} (k_j + 1) of them.  Each
    tries c = cmax .. 1 and then the c = 0 child, with cmax <= rem_j / h_ij
    <= k_j / h_ij for every j in the support of h_i.
    """
    steps = 0
    reduced = set()
    for support, done in zip(supports, uncovered):
        states = 1
        for j in reduced.difference(done):
            states *= k[j] + 1
        steps += states * (min(k[j] // x for j, x in support) + 1)
        reduced.update(j for j, _ in support)
    return steps


def _factorizations_from(i, rem, supports, uncovered, memo, cap):
    """(count capped at `cap`, first two witnesses) of `rem` over the
    elements from position i on.

    Multiplicities and remainders are computed over each element's
    support only.  Recurses only on multiplicities c >= 1, which shrink
    `rem`, so the depth does not grow with the basis; the c = 0 successors
    (i+1, rem), (i+2, rem), ... are walked in a loop and folded back in
    reverse.  A module-level function rather than a closure: a
    self-referencing closure leaves a reference cycle behind each call,
    and a memo reachable from one would outlive its basis until the
    cyclic collector runs.
    """
    if not any(rem):
        return 1, ((0,) * (len(supports) - i),)
    chain = []  # (key, count, witnesses) of states awaiting their c = 0 child
    while True:
        for j in uncovered[i]:
            if rem[j]:
                state = (0, ())
                break
        else:
            key = (i, rem)
            state = memo.get(key)
        if state is not None:
            break
        support = supports[i]
        cmax = None  # a plain loop: min() over a generator costs 3x this
        for j, x in support:
            q = rem[j] // x
            if cmax is None or q < cmax:
                cmax = q
        count, witnesses = 0, []
        for c in range(cmax, 0, -1):
            nr = list(rem)
            for j, x in support:
                nr[j] -= c * x
            n, ws = _factorizations_from(i + 1, tuple(nr), supports, uncovered, memo, cap)
            if n:
                count += n
                for w in ws[: 2 - len(witnesses)]:
                    witnesses.append((c,) + w)
                if count >= cap:
                    break
        chain.append((key, count, witnesses))
        if count >= cap:
            state = (0, ())  # capped before c = 0: that child is never searched
            break
        i += 1
    while chain:
        key, count, witnesses = chain.pop()
        n, ws = state
        if n:
            count += n
            for w in ws[: 2 - len(witnesses)]:
                witnesses.append((0,) + w)
        state = memo[key] = (count if count < cap else cap, tuple(witnesses))
    return state


def nonuniqueness_witness(basis: HilbertBasis, r: int) -> tuple[int, ...] | None:
    """Element with two distinct basis factorizations, when |basis| > r.

    Closed form from the proof of conditions.factorial_closed_form.  In a
    Hilbert basis of Hol(v) the unit vectors are exactly the e_j with
    v_j >= 0.  When the basis exceeds r, that proof gives two distinct
    irreducibles x and y which, outside the unit coordinates, are both
    supported on one and the same negative coordinate n:
    ceil(-v_n / v_p) e_p + e_n and ceil(-v_n / v_q) e_q + e_n for two
    positive orders p and q, or, with a single positive order p that
    does not divide v_n and g = gcd(v_p, v_n), ceil(-v_n / v_p) e_p + e_n
    and (-v_n / g) e_p + (v_p / g) e_n.  The componentwise maximum
    w = max(y_n x, x_n y) is y_n x plus units and also x_n y plus units,
    two different factorizations.  y is the first element in lex order
    that shares its n with an earlier one, and x the first of those.
    Returns None when |basis| <= r (no relation is forced), and
    raises NoRelationError when no such pair exists, since the basis is
    then not one of Hol.
    """
    elems = basis.elements
    if len(elems) <= r:
        return None
    units = {h.index(1) for h in elems if sum(h) == 1}
    first: dict[int, tuple[int, ...]] = {}
    for y in elems:
        outside = [j for j, c in enumerate(y) if c and j not in units]
        if len(outside) != 1:
            continue
        n = outside[0]
        x = first.get(n)
        if x is None:
            first[n] = y
        else:
            witness = tuple(max(y[n] * a, x[n] * b) for a, b in zip(x, y))
            break
    else:
        raise NoRelationError(
            "no two irreducibles share a single non-unit coordinate: not a Hilbert basis of Hol"
        )
    if count_factorizations(witness, basis, cap=2).count != 2:
        raise NoRelationError(f"witness {witness} failed the two-factorization check")
    return witness
