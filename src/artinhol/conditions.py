"""Decision procedures for the four holomorphy criteria and the full report.

Condition i is the conjecture itself (every generator holomorphic, so Hol
is everything).  Condition ii asks for factoriality plus, for every ordered
pair k != l, a holomorphic element divisible by f_k but not by f_l.
Condition iii asks for factoriality plus some subset size m < r at which
every m-subset supports a holomorphic positive-power product.  Condition
ii' phrases the question directly on order sums: factoriality plus
holomorphy of the product over every (r-1)-subset.

Every verdict is decided from the order vector alone, by closed forms
derived here: factoriality by factorial_closed_form, the quantified parts
by cond_ii_pair and cond_iii_subset.  The bounded brute-force searches
that validate the quantified closed forms live next to the tests that use
them, in tests/conftest.py; factoriality is checked against the Hilbert
basis size on every cross_checked_basis call.

Generator indices are 1-based everywhere in this module, matching the
subscripts f_1 .. f_r used throughout the domain.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .core import (
    Instance,
    OrdersLike,
    as_order_vector,
    is_admissible,
)
from .errors import (
    EngineMismatchError,
    EqualIndicesError,
    IndexOutOfRangeError,
    InvalidSubsetError,
    RankTooSmallError,
)
from .hilbert import (
    HilbertBasis,
    hilbert_basis_frontier,
    hilbert_basis_oracle,
    is_factorial,
)


@dataclass(frozen=True)
class SubsetSelector:
    """Nonempty, strictly increasing 1-based index subset of {1..r}."""

    indices: tuple[int, ...]

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
        object.__setattr__(self, "indices", idx)
        if not idx:
            raise InvalidSubsetError("subset must be nonempty")
        if any(i < 1 for i in idx):
            raise InvalidSubsetError("subset indices are 1-based")
        if any(a >= b for a, b in zip(idx, idx[1:])):
            raise InvalidSubsetError("subset indices must be strictly increasing")

    def validate_rank(self, r: int) -> None:
        if self.indices[-1] > r:
            raise InvalidSubsetError(f"subset {self.indices} exceeds rank {r}")


@dataclass(frozen=True)
class PairWitness:
    """One row of the condition-ii table: ordered pair and its witness."""

    k: int
    l: int
    witness: tuple[int, ...] | None


@dataclass(frozen=True)
class ConditionReport:
    """Per-instance verdicts for all conditions, plus the basis summary."""

    instance: Instance
    admissible: bool
    admissible_reasons: tuple[str, ...]
    hilbert_size: int
    hilbert_elements: tuple[tuple[int, ...], ...]
    engine_agreement: bool
    factorial: bool
    cond_i: bool
    cond_ii: bool
    cond_ii_pairs: tuple[PairWitness, ...]
    cond_iii: bool
    cond_iii_m: int | None
    cond_ii_prime: bool | None
    cond_ii_prime_failing: tuple[int, ...] | None
    equivalence_ok: bool | None


def cond_i(v: OrdersLike) -> bool:
    """Every generator holomorphic: v_j >= 0 for all j."""
    return all(x >= 0 for x in as_order_vector(v).entries)


def factorial_closed_form(v: OrdersLike) -> bool:
    """Is Hol(v) factorial (a free monoid, |Hilbert basis| = r)?

    Closed form: v is factorial iff it has no negative order, or it has
    exactly one positive order v_p and v_p divides every negative order.

    Proof sketch.  Each unit e_j with v_j >= 0 is irreducible, and for
    every negative n and positive p the element ceil(-v_n / v_p) e_p + e_n
    is irreducible.  With no negative order the units are the whole basis.
    With a negative order and no positive one, no element involving e_n is
    holomorphic, so the basis spans no full lattice.  Two positive orders
    p != q give each negative n two distinct adjoined irreducibles, one
    supported on {p, n} and one on {q, n}, so the basis exceeds r.  With
    exactly one positive order p the basis is the units plus
    m_n e_p + e_n (m_n = -v_n / v_p) exactly when v_p divides every
    negative v_n: then every k in Hol peels off k_n copies of each, leaving
    a multiple of e_p.  Otherwise, with g = gcd(v_p, v_n), the order-zero
    element (-v_n / g) e_p + (v_p / g) e_n is a further irreducible.
    Validated against the Hilbert engines by the test suite and rechecked
    on every cross_checked_basis call.
    """
    ent = as_order_vector(v).entries
    negative = [x for x in ent if x < 0]
    if not negative:
        return True
    positive = [x for x in ent if x > 0]
    return len(positive) == 1 and all(x % positive[0] == 0 for x in negative)


def _ceil_div(a: int, b: int) -> int:
    # b > 0
    return -((-a) // b)


def _check_pair_indices(r: int, k: int, l: int) -> None:
    if not (1 <= k <= r and 1 <= l <= r):
        raise IndexOutOfRangeError(f"indices ({k},{l}) outside 1..{r}")
    if k == l:
        raise EqualIndicesError(f"pair indices must differ, got k=l={k}")


def cond_ii_pair(v: OrdersLike, k: int, l: int) -> tuple[int, ...] | None:
    """Witness a in Hol with a_k >= 1 and a_l = 0, or None (closed form).

    A witness exists iff v_k >= 0 (take e_k) or some p != l has v_p > 0
    (take e_k plus enough copies of e_p to lift the order back to zero).
    The test suite validates this against a brute-force pair search.
    """
    ov = as_order_vector(v)
    ent = ov.entries
    r = ov.rank
    _check_pair_indices(r, k, l)
    vk = ent[k - 1]
    if vk >= 0:
        vec = [0] * r
        vec[k - 1] = 1
        return tuple(vec)
    for p in range(r):
        if p != l - 1 and ent[p] > 0:
            m = _ceil_div(-vk, ent[p])
            vec = [0] * r
            vec[k - 1] = 1
            vec[p] += m
            return tuple(vec)
    return None


def cond_ii(v: OrdersLike) -> tuple[bool, tuple[PairWitness, ...]]:
    """Factorial, and every ordered pair k != l has a witness.

    Returns the verdict and the complete ordered-pair table, (k, l) in
    lexicographic order, whether or not v is factorial.
    """
    ov = as_order_vector(v)
    r = ov.rank
    pairs = tuple(
        PairWitness(k, l, cond_ii_pair(ov, k, l))
        for k in range(1, r + 1)
        for l in range(1, r + 1)
        if k != l
    )
    ok = factorial_closed_form(ov) and all(p.witness is not None for p in pairs)
    return (ok, pairs)


def cond_iii_subset(v: OrdersLike, subset) -> tuple[int, ...] | None:
    """Positive exponents (k_j) for j in M with sum k_j v_j >= 0, or None.

    Closed form: a witness exists iff M contains a positive order or
    consists entirely of zero orders.  The constructive witness puts 1 on
    every index except the first positive pivot p, which absorbs the
    deficit: k_p = max(1, ceil(sum of deficits / v_p)).  Validated against
    a brute-force subset search by the test suite.
    """
    ov = as_order_vector(v)
    ent = ov.entries
    sel = subset if isinstance(subset, SubsetSelector) else SubsetSelector(tuple(subset))
    sel.validate_rank(ov.rank)
    vals = [ent[j - 1] for j in sel.indices]
    if all(x == 0 for x in vals):
        return tuple(1 for _ in vals)
    pivots = [i for i, x in enumerate(vals) if x > 0]
    if not pivots:
        return None
    p = pivots[0]
    deficit = sum(max(0, -x) for i, x in enumerate(vals) if i != p)
    kp = max(1, _ceil_div(deficit, vals[p]))
    return tuple(kp if i == p else 1 for i in range(len(vals)))


def _smallest_universal_m(ent: Sequence[int]) -> int | None:
    """Least m in [1, r-1] at which every m-subset has a witness, or None.

    A size-m subset fails exactly when it avoids all positive orders but
    touches a negative one, which is arrangeable iff m <= q_neg + q_zero
    (and q_neg >= 1).  So with no negative orders m = 1 works; otherwise
    the least valid m is q_neg + q_zero + 1, admissible only if <= r - 1.
    """
    r = len(ent)
    if r < 2:
        return None
    q_neg = sum(1 for x in ent if x < 0)
    q_zero = sum(1 for x in ent if x == 0)
    if q_neg == 0:
        return 1
    m = q_neg + q_zero + 1
    return m if m <= r - 1 else None


def cond_iii(v: OrdersLike) -> tuple[bool, int | None]:
    """Factorial plus the universal subset condition; smallest witness m.

    Returns (False, None) when either part fails; for r = 1 the range
    1 <= m < r is empty and the verdict is False by convention.
    """
    ov = as_order_vector(v)
    if not factorial_closed_form(ov):
        return (False, None)
    m = _smallest_universal_m(ov.entries)
    if m is None:
        return (False, None)
    return (True, m)


def cond_ii_prime(v: OrdersLike) -> tuple[bool, tuple[int, ...] | None]:
    """Factorial plus nonnegative order sums over all (r-1)-subsets.

    Returns the verdict and the lex-first failing subset (1-based), or
    None if every subset passes.  Requires r >= 2.
    """
    ov = as_order_vector(v)
    ent = ov.entries
    r = ov.rank
    if r < 2:
        raise RankTooSmallError("condition ii' needs rank >= 2")
    failing = None
    for combo in itertools.combinations(range(1, r + 1), r - 1):
        if sum(ent[i - 1] for i in combo) < 0:
            failing = combo
            break
    ok = factorial_closed_form(ov) and failing is None
    return (ok, failing)


def cross_checked_basis(v: OrdersLike) -> HilbertBasis:
    """Hilbert basis of Hol(v), computed by both engines and compared.

    The two engines must return identical element sets, and the basis size
    must agree with factorial_closed_form (both are invariant under scaling
    and permuting v); any disagreement is an internal bug and raises
    EngineMismatchError.  Returns the oracle's basis.
    """
    ov = as_order_vector(v)
    b_oracle = hilbert_basis_oracle(ov)
    b_frontier = hilbert_basis_frontier(ov)
    if b_oracle.elements != b_frontier.elements:
        raise EngineMismatchError(
            f"engines disagree for v={ov.entries}: "
            f"{b_oracle.elements} vs {b_frontier.elements}"
        )
    if is_factorial(b_oracle, ov.rank) != factorial_closed_form(ov):
        raise EngineMismatchError(
            f"closed-form factoriality disagrees with the basis for v={ov.entries}: "
            f"{len(b_oracle.elements)} irreducibles at rank {ov.rank}"
        )
    return b_oracle


def check_instance(inst: Instance, basis: HilbertBasis | None = None) -> ConditionReport:
    """Full pipeline: admissibility, Hilbert basis, all conditions.

    `basis` is the instance's already cross-checked Hilbert basis; when it
    is omitted, it is computed here by cross_checked_basis.  The
    equivalence verdict i == ii == iii == ii' is only asserted for
    admissible instances with r >= 2; otherwise it is None.
    """
    ov = inst.orders
    r = inst.rank
    admissible, reasons = is_admissible(inst)
    if basis is None:
        basis = cross_checked_basis(ov)

    ci = cond_i(ov)
    cii, pairs = cond_ii(ov)
    ciii, m = cond_iii(ov)
    if r >= 2:
        cii_prime, failing = cond_ii_prime(ov)
    else:
        cii_prime, failing = None, None

    if admissible and r >= 2:
        equivalence_ok = ci == cii == ciii == cii_prime
    else:
        equivalence_ok = None

    return ConditionReport(
        instance=inst,
        admissible=admissible,
        admissible_reasons=reasons,
        hilbert_size=len(basis.elements),
        hilbert_elements=basis.elements,
        engine_agreement=True,
        factorial=factorial_closed_form(ov),
        cond_i=ci,
        cond_ii=cii,
        cond_ii_pairs=pairs,
        cond_iii=ciii,
        cond_iii_m=m,
        cond_ii_prime=cii_prime,
        cond_ii_prime_failing=failing,
        equivalence_ok=equivalence_ok,
    )
