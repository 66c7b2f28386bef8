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
basis size on every cross_checked_basis call.  check_instance is the one
constructor of a ConditionReport, and orbit_basis the one source of its basis.

Each public function validates its input once and calls the private
helpers, which take an already validated order vector: _profile reads the
signs and decides factoriality in one pass, and _cond_ii, _cond_iii_m and
_cond_ii_prime derive the other verdicts from it, so check_instance and
the public functions share every line of verdict logic.  The pair table is
built row by row, since a row has at most two distinct witnesses, and its
rows are PairWitness named tuples.

Generator indices are 1-based in every public function and report,
matching the subscripts f_1 .. f_r used throughout the domain; the
private helpers index the entries from 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .core import (
    Instance,
    OrdersLike,
    as_order_vector,
    is_admissible,
)
from .errors import (
    ArtinHolError,
    EngineMismatchError,
    EqualIndicesError,
    IndexOutOfRangeError,
    InvalidSubsetError,
    RankTooSmallError,
)
from .hilbert import (
    Elements,
    HilbertBasis,
    _carried,
    canonical_order,
    hilbert_basis_frontier,
    hilbert_basis_oracle,
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


class PairWitness(NamedTuple):
    """One row of the condition-ii table: ordered pair and its witness."""

    k: int
    l: int
    witness: tuple[int, ...] | None


@dataclass(frozen=True)
class ConditionReport:
    """Per-instance verdicts and basis; the properties derive from the fields."""

    instance: Instance
    admissible_reasons: tuple[str, ...]
    hilbert_elements: tuple[tuple[int, ...], ...]
    factorial: bool
    cond_i: bool
    cond_ii: bool
    cond_ii_pairs: tuple[PairWitness, ...]
    cond_iii_m: int | None
    cond_ii_prime: bool | None
    cond_ii_prime_failing: tuple[int, ...] | None

    @property
    def admissible(self) -> bool:
        return not self.admissible_reasons

    @property
    def hilbert_size(self) -> int:
        return len(self.hilbert_elements)

    @property
    def cond_iii(self) -> bool:
        return self.cond_iii_m is not None

    @property
    def equivalence_ok(self) -> bool | None:
        """i == ii == iii == ii', asserted only when admissible with r >= 2."""
        if not self.admissible or self.instance.rank < 2:
            return None
        return self.cond_i == self.cond_ii == self.cond_iii == self.cond_ii_prime


class _Profile(NamedTuple):
    """Signs of validated orders, read in one pass, and the factoriality verdict."""

    ent: tuple[int, ...]
    positive: list[int]  # 0-based indices j with v_j > 0, ascending
    negative: list[int]  # the negative orders
    zeros: int
    factorial: bool


def _profile(ent: tuple[int, ...]) -> _Profile:
    """The one pass over the orders that every verdict starts from.

    Factoriality is the closed form proved in factorial_closed_form.
    """
    positive = []
    negative = []
    for j, x in enumerate(ent):
        if x > 0:
            positive.append(j)
        elif x < 0:
            negative.append(x)
    factorial = not negative or (
        len(positive) == 1 and all(x % ent[positive[0]] == 0 for x in negative)
    )
    return _Profile(ent, positive, negative, len(ent) - len(positive) - len(negative), factorial)


def cond_i(v: OrdersLike) -> bool:
    """Every generator holomorphic: v_j >= 0 for all j."""
    return not _profile(as_order_vector(v).entries).negative


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
    Rechecked against the Hilbert basis size on every cross_checked_basis
    call, and validated against both engines by the test suite; the
    brute-force checks of those engines (irreducibility, lattice rank,
    adjoined irreducibles) live in tests/conftest.py.
    """
    return _profile(as_order_vector(v).entries).factorial


def _ceil_div(a: int, b: int) -> int:
    # b > 0
    return -((-a) // b)


def _check_pair_indices(r: int, k: int, l: int) -> None:
    if not (1 <= k <= r and 1 <= l <= r):
        raise IndexOutOfRangeError(f"indices ({k},{l}) outside 1..{r}")
    if k == l:
        raise EqualIndicesError(f"pair indices must differ, got k=l={k}")


def _pair_row(pr: _Profile, k: int) -> tuple[int, tuple[int, ...] | None, tuple[int, ...] | None]:
    """Row k (0-based) of the pair table as (p, a, b).

    The pair (k, l) is witnessed by b when l = p and by a otherwise.  A
    witness exists iff v_k >= 0 (take e_k) or some p != l has v_p > 0 (take
    e_k plus enough copies of the first such e_p to lift the order back to
    zero), so a row has at most two distinct witnesses: p is the first
    positive index, a lifts with it and b with the second one.
    """
    ent = pr.ent
    vk = ent[k]
    if vk >= 0:
        unit = [0] * len(ent)
        unit[k] = 1
        return (-1, tuple(unit), tuple(unit))
    lifted: list[tuple[int, ...] | None] = []
    for p in pr.positive[:2]:
        vec = [0] * len(ent)
        vec[k] = 1
        vec[p] = _ceil_div(-vk, ent[p])
        lifted.append(tuple(vec))
    lifted += [None, None]
    return (pr.positive[0] if pr.positive else -1, lifted[0], lifted[1])


def cond_ii_pair(v: OrdersLike, k: int, l: int) -> tuple[int, ...] | None:
    """Witness a in Hol with a_k >= 1 and a_l = 0, or None (closed form).

    A witness exists iff v_k >= 0 (take e_k) or some p != l has v_p > 0
    (take e_k plus enough copies of e_p to lift the order back to zero).
    The test suite validates this against a brute-force pair search.
    """
    ov = as_order_vector(v)
    _check_pair_indices(ov.rank, k, l)
    p, a, b = _pair_row(_profile(ov.entries), k - 1)
    return b if l - 1 == p else a


def _cond_ii(pr: _Profile) -> tuple[bool, tuple[PairWitness, ...]]:
    """Verdict of ii and its ordered-pair table, built row by row."""
    r = len(pr.ent)
    pairs = []
    for k in range(r):
        p, a, b = _pair_row(pr, k)
        pairs += [PairWitness(k + 1, l + 1, b if l == p else a) for l in range(r) if l != k]
    ok = pr.factorial and all(w is not None for _, _, w in pairs)
    return (ok, tuple(pairs))


def cond_ii(v: OrdersLike) -> tuple[bool, tuple[PairWitness, ...]]:
    """Factorial, and every ordered pair k != l has a witness.

    Returns the verdict and the complete ordered-pair table, (k, l) in
    lexicographic order, whether or not v is factorial.
    """
    return _cond_ii(_profile(as_order_vector(v).entries))


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


def _cond_iii_m(pr: _Profile) -> int | None:
    """Least m in [1, r-1] at which every m-subset has a witness, if factorial.

    A size-m subset fails exactly when it avoids all positive orders but
    touches a negative one, which is arrangeable iff m <= q_neg + q_zero
    (and q_neg >= 1).  So with no negative orders m = 1 works; otherwise
    the least valid m is q_neg + q_zero + 1, admissible only if <= r - 1.
    None when v is not factorial or no m works (always for r = 1).
    """
    r = len(pr.ent)
    if not pr.factorial or r < 2:
        return None
    if not pr.negative:
        return 1
    m = len(pr.negative) + pr.zeros + 1
    return m if m <= r - 1 else None


def cond_iii(v: OrdersLike) -> tuple[bool, int | None]:
    """Factorial plus the universal subset condition; smallest witness m.

    Returns (False, None) when either part fails; for r = 1 the range
    1 <= m < r is empty and the verdict is False by convention.
    """
    m = _cond_iii_m(_profile(as_order_vector(v).entries))
    return (m is not None, m)


def _cond_ii_prime(pr: _Profile) -> tuple[bool, tuple[int, ...] | None]:
    """Verdict of ii' and the lex-first failing (r-1)-subset (r >= 2).

    The subset leaving out j sums to sum(v) - v_j, and the (r-1)-subsets
    come in lex order as the left-out j runs down from r; so the first
    failing subset leaves out the last j with v_j > sum(v).
    """
    ent = pr.ent
    total = sum(ent)
    failing = None
    for j in range(len(ent) - 1, -1, -1):
        if ent[j] > total:
            failing = tuple(i for i in range(1, len(ent) + 1) if i != j + 1)
            break
    return (pr.factorial and failing is None, failing)


def cond_ii_prime(v: OrdersLike) -> tuple[bool, tuple[int, ...] | None]:
    """Factorial plus nonnegative order sums over all (r-1)-subsets.

    Returns the verdict and the lex-first failing subset (1-based), or
    None if every subset passes.  Requires r >= 2.
    """
    ov = as_order_vector(v)
    if ov.rank < 2:
        raise RankTooSmallError("condition ii' needs rank >= 2")
    return _cond_ii_prime(_profile(ov.entries))


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
    if (len(b_oracle) == ov.rank) != factorial_closed_form(ov):
        raise EngineMismatchError(
            f"closed-form factoriality disagrees with the basis for v={ov.entries}: "
            f"{len(b_oracle.elements)} irreducibles at rank {ov.rank}"
        )
    return b_oracle


def orbit_basis(v: tuple[int, ...], bases: dict[tuple[int, ...], Elements]) -> Elements:
    """Cross-checked basis elements of Hol(v): v's canonical vector's, from the
    caller's dict or computed into it, carried back; a failure names both."""
    canon, perm = canonical_order(v)
    elements = bases.get(canon)
    if elements is None:
        try:
            elements = bases[canon] = cross_checked_basis(canon).elements
        except ArtinHolError as exc:
            if canon == v:
                raise
            raise type(exc)(f"canonical order vector {canon} of order vector {v}: {exc}") from exc
    return _carried(elements, perm)


def check_instance(inst: Instance, bases: dict | None = None) -> ConditionReport:
    """Full pipeline: admissibility, Hilbert basis, all conditions.

    The basis comes from orbit_basis through `bases`, a fresh dict when
    omitted.  Every verdict is decided from the orders alone, all of them
    from one pass over the entries the OrderVector has already validated.
    """
    elements = orbit_basis(inst.orders.entries, {} if bases is None else bases)
    pr = _profile(inst.orders.entries)
    cii, pairs = _cond_ii(pr)
    cii_prime, failing = _cond_ii_prime(pr) if len(pr.ent) >= 2 else (None, None)
    return ConditionReport(
        instance=inst,
        admissible_reasons=is_admissible(inst)[1],
        hilbert_elements=elements,
        factorial=pr.factorial,
        cond_i=not pr.negative,
        cond_ii=cii,
        cond_ii_pairs=pairs,
        cond_iii_m=_cond_iii_m(pr),
        cond_ii_prime=cii_prime,
        cond_ii_prime_failing=failing,
    )
