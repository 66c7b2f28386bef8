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
constructor of a ConditionReport, and orbit_basis the one source of its
basis: cross_checked_basis on the canonical vector, or, in a sweep, the
unit vectors of its orders >= 0 and the types of the sweep's type table
(build_type_table), whose supports alone a sweep runs the engines on.

The orbit map: scaling v leaves Hol(v) unchanged and permuting v permutes
it, so canonical_order reduces v to its sorted, gcd-free canonical vector,
the layout of the type table's sorted-multiset supports, and _carried
maps that vector's basis back to v.

Each public function validates its input once and calls the private
helpers, which take an already validated order vector: _profile reads the
signs and decides factoriality in one pass, and _cond_ii, _cond_iii_m and
_cond_ii_prime derive the other verdicts from it, so check_instance and
the public functions share every line of verdict logic.  A row of the pair
table depends only on a small-int key (r, k, the sign of v_k and the first
two positive indices with their lift multiplicities), so _pair_row builds
each distinct row, a tuple of PairWitness named tuples, once per process
in a cache of core.CACHE_SIZE rows.  A ConditionReport keeps the rows as
they come, one per k; its flat table, the concatenation of the rows, is
derived.

Generator indices are 1-based in every public function and report,
matching the subscripts f_1 .. f_r used throughout the domain; the
private helpers index the entries from 0.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from typing import Iterator, NamedTuple, Sequence

from .core import (
    CACHE_SIZE,
    Instance,
    OrdersLike,
    _int_entries,
    _int_value,
    _setattr,
    _Value,
    as_order_vector,
    is_admissible,
)
from .errors import (
    ArtinHolError,
    CapExceededError,
    EngineMismatchError,
    EqualIndicesError,
    IndexOutOfRangeError,
    InvalidSubsetError,
    RankTooSmallError,
)
from .hilbert import (
    ENUMERATION_CAP,
    Elements,
    HilbertBasis,
    _region,
    hilbert_basis_frontier,
    hilbert_basis_oracle,
)


class SubsetSelector(_Value):
    """Nonempty, strictly increasing 1-based index subset of {1..r}."""

    __slots__ = ("indices",)
    indices: tuple[int, ...]

    def __init__(self, indices: Sequence[int]):
        idx = _int_entries(indices, "subset")
        _setattr(self, "indices", idx)
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


class ConditionReport(_Value):
    """Per-instance verdicts and basis; the properties derive from the fields."""

    __slots__ = (
        "instance",
        "admissible_reasons",
        "hilbert_elements",
        "factorial",
        "cond_i",
        "cond_ii",
        "cond_ii_rows",
        "cond_iii_m",
        "cond_ii_prime",
        "cond_ii_prime_failing",
    )
    instance: Instance
    admissible_reasons: tuple[str, ...]
    hilbert_elements: tuple[tuple[int, ...], ...]
    factorial: bool
    cond_i: bool
    cond_ii: bool
    cond_ii_rows: tuple[tuple[PairWitness, ...], ...]
    cond_iii_m: int | None
    cond_ii_prime: bool | None
    cond_ii_prime_failing: tuple[int, ...] | None

    def __init__(
        self,
        instance: Instance,
        admissible_reasons: tuple[str, ...],
        hilbert_elements: tuple[tuple[int, ...], ...],
        factorial: bool,
        cond_i: bool,
        cond_ii: bool,
        cond_ii_rows: tuple[tuple[PairWitness, ...], ...],
        cond_iii_m: int | None,
        cond_ii_prime: bool | None,
        cond_ii_prime_failing: tuple[int, ...] | None,
    ):
        _setattr(self, "instance", instance)
        _setattr(self, "admissible_reasons", admissible_reasons)
        _setattr(self, "hilbert_elements", hilbert_elements)
        _setattr(self, "factorial", factorial)
        _setattr(self, "cond_i", cond_i)
        _setattr(self, "cond_ii", cond_ii)
        _setattr(self, "cond_ii_rows", cond_ii_rows)
        _setattr(self, "cond_iii_m", cond_iii_m)
        _setattr(self, "cond_ii_prime", cond_ii_prime)
        _setattr(self, "cond_ii_prime_failing", cond_ii_prime_failing)

    @property
    def admissible(self) -> bool:
        return not self.admissible_reasons

    @property
    def cond_ii_pairs(self) -> tuple[PairWitness, ...]:
        """The ordered-pair table, (k, l) in lexicographic order: the rows joined."""
        return tuple(itertools.chain.from_iterable(self.cond_ii_rows))

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
    _int_value(k, "k")
    _int_value(l, "l")
    if not (1 <= k <= r and 1 <= l <= r):
        raise IndexOutOfRangeError(f"indices ({k},{l}) outside 1..{r}")
    if k == l:
        raise EqualIndicesError(f"pair indices must differ, got k=l={k}")


def _row_key(pr: _Profile, k: int) -> tuple[int, ...]:
    """Small-int key of row k (0-based) of the pair table: all the row depends on.

    (r, k, -1) when v_k >= 0; otherwise (r, k) followed by p and
    ceil(-v_k / v_p) for each of the first two positive indices p, so a
    negative v_k with no positive order keys (r, k), apart from v_k >= 0.
    """
    ent = pr.ent
    vk = ent[k]
    if vk >= 0:
        return (len(ent), k, -1)
    key = [len(ent), k]
    for p in pr.positive[:2]:
        key += (p, -(vk // ent[p]))
    return tuple(key)


@functools.lru_cache(maxsize=CACHE_SIZE)
def _pair_row(key: tuple[int, ...]) -> tuple[tuple[PairWitness, ...], bool]:
    """The row of a _row_key: its pairs (k, l), l != k ascending, and whether
    every one of them has a witness.

    The pair (k, l) is witnessed by e_k when v_k >= 0, else by e_k plus
    enough copies of the first positive e_p with p != l to lift the order
    back to zero, and by nothing when there is no such p.  So a row has at
    most two distinct witnesses: a lifts with the first positive index and
    witnesses every pair but one, and b lifts with the second and witnesses
    the pair whose l is the first.
    """
    r, k, *lifts = key
    if lifts == [-1]:
        a = b = tuple(int(j == k) for j in range(r))
        p = -1
    else:
        lifted = [
            tuple(m if j == q else int(j == k) for j in range(r))
            for q, m in zip(lifts[::2], lifts[1::2])
        ]
        a, b = (lifted + [None, None])[:2]
        p = lifts[0] if lifts else -1
    row = tuple(PairWitness(k + 1, l + 1, b if l == p else a) for l in range(r) if l != k)
    return row, all(w is not None for _, _, w in row)


def cond_ii_pair(v: OrdersLike, k: int, l: int) -> tuple[int, ...] | None:
    """Witness a in Hol with a_k >= 1 and a_l = 0, or None (closed form).

    A witness exists iff v_k >= 0 (take e_k) or some p != l has v_p > 0
    (take e_k plus enough copies of e_p to lift the order back to zero).
    The test suite validates this against a brute-force pair search.
    """
    ov = as_order_vector(v)
    _check_pair_indices(ov.rank, k, l)
    row, _ = _pair_row(_row_key(_profile(ov.entries), k - 1))
    return row[l - 1 - (l > k)].witness


def _cond_ii(pr: _Profile) -> tuple[bool, tuple[tuple[PairWitness, ...], ...]]:
    """Verdict of ii and the rows of its ordered-pair table, one per k in
    order, each looked up by its key.  A table of more than
    ENUMERATION_CAP witness entries, r(r-1) witnesses of r entries each
    (r >= 216), is refused before any row is built."""
    r = len(pr.ent)
    entries = r * r * (r - 1)
    if entries > ENUMERATION_CAP:
        raise CapExceededError(
            f"pair table of {entries} witness entries exceeds the enumeration cap "
            f"{ENUMERATION_CAP}"
        )
    rows = [_pair_row(_row_key(pr, k)) for k in range(r)]
    return (pr.factorial and all([full for _, full in rows]), tuple([row for row, _ in rows]))


def cond_ii(v: OrdersLike) -> tuple[bool, tuple[PairWitness, ...]]:
    """Factorial, and every ordered pair k != l has a witness.

    Returns the verdict and the complete ordered-pair table, (k, l) in
    lexicographic order, whether or not v is factorial.
    """
    ok, rows = _cond_ii(_profile(as_order_vector(v).entries))
    return ok, tuple(itertools.chain.from_iterable(rows))


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
    sel = subset if isinstance(subset, SubsetSelector) else SubsetSelector(subset)
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


#: The type table this process expands sweep bases from, under its
#: (bound, width) key: the last one build_type_table built.
_TABLE: dict[tuple[int, int], dict] = {}


def _supports(bound: int, width: int) -> Iterator[tuple[int, ...]]:
    """The type table's supports: the sorted multisets s of 2 to `width`
    nonzero values in [-B, B] inside their own completeness region with
    both signs, 0 < positive entries <= -s[0] and 0 < negative <= s[-1]."""
    values = [*range(-bound, 0), *range(1, bound + 1)]
    for size in range(2, width + 1):
        for s in itertools.combinations_with_replacement(values, size):
            region = _region(s)
            if 0 < region.positive <= region.plus and 0 < region.negative <= region.minus:
                yield s


def build_type_table(bound: int, r: int) -> dict[tuple[int, ...], tuple]:
    """The type table of rank r and order bound B, made this process's
    table, with one cross_checked_basis per support; a failure names the
    support and B.  It maps each support s (_supports) to its types: for
    each irreducible h of Hol(s) with full support, a dict from each value
    x of s to the sorted h_j with s_j = x, once per multiset.

    It is exact by three facts.  Support locality: every split h = a + b in
    N^r has supp(a), supp(b) within S = supp(h), and <a, c> reads c only on
    S, so h is irreducible in Hol(c) iff h restricted to S is irreducible
    in Hol(c restricted to S).  Lambert's region (hilbert module docstring)
    of s, the sorted nonzero c_j on S, where every h_j >= 1: s has one
    entry if none is negative, else at most -s[0] <= B positive and at most
    s[-1] <= B negative ones.  The unit lemma (hilbert._nonzero_part): e_j
    is irreducible for each c_j >= 0, the only one with h_j >= 1 if c_j = 0.
    """
    width = min(r, 2 * bound)
    table = {}
    for s in _supports(bound, width):
        try:
            elements = cross_checked_basis(s).elements
        except ArtinHolError as exc:
            raise type(exc)(f"table support {s} of order bound {bound}: {exc}") from exc
        types = (itertools.groupby(sorted(zip(s, h)), lambda p: p[0]) for h in elements if all(h))
        grouped = dict.fromkeys(tuple((x, tuple(y for _, y in g)) for x, g in t) for t in types)
        table[s] = tuple(map(dict, grouped))
    _TABLE.clear()
    _TABLE[bound, width] = table
    _table_basis.cache_clear()
    return table


@functools.lru_cache(maxsize=CACHE_SIZE)
def _arrangements(hs: tuple[int, ...], n: int) -> tuple[tuple[int, ...], ...]:
    """The distinct tuples of length n holding the positive entries hs, in
    any order, and zeros elsewhere."""
    out = [(0,) * n]
    for h in dict.fromkeys(hs):
        out = [
            tuple(h if j in chosen else y for j, y in enumerate(a))
            for a in out
            for chosen in itertools.combinations([j for j, y in enumerate(a) if not y], hs.count(h))
        ]
    return tuple(out)


@functools.lru_cache(maxsize=CACHE_SIZE)
def _table_basis(c: tuple[int, ...], bound: int) -> Elements:
    """Basis elements of Hol(c), for a canonical vector c with entries in
    [-B, B], expanded from this process's type table of B, which is built
    if missing: e_j for each c_j >= 0, and each type of each sub-multiset
    of c's nonzero values with both signs within c's region, placed on c's
    coordinates in every distinct way.  c is sorted, so each value's
    coordinates form one run, over which the type's entries of that value
    are arranged.  A basis whose size disagrees with factorial_closed_form
    raises EngineMismatchError naming c, and a c outside [-B, B] ValueError.
    """
    r = len(c)
    if max(c[-1], -c[0]) > bound:
        raise ValueError(f"canonical order vector {c} exceeds the order bound {bound}")
    key = (bound, min(r, 2 * bound))
    table = _TABLE[key] if key in _TABLE else build_type_table(bound, r)
    runs = [(x, len(tuple(g))) for x, g in itertools.groupby(c)]
    parts = {True: [()], False: [()]}  # the sub-multisets of each sign, by x < 0
    for x, n in runs:
        if x:  # c's region: at most c[-1] negative values and -c[0] positive ones
            side, cap = parts[x < 0], c[-1] if x < 0 else -c[0]
            side[:] = [p + (x,) * k for p in side for k in range(n + 1) if len(p) + k <= cap]
    elems = [tuple(int(i == j) for i in range(r)) for j, x in enumerate(c) if x >= 0]
    for negative in parts[True][1:]:  # the empty part first on each side
        for positive in parts[False][1:]:
            for t in table.get(negative + positive, ()):
                placed = itertools.product(*[_arrangements(t.get(x, ()), n) for x, n in runs])
                elems += map(tuple, map(itertools.chain.from_iterable, placed))
    elems.sort()
    if (len(elems) == r) != factorial_closed_form(c):
        raise EngineMismatchError(
            f"closed-form factoriality disagrees with the basis expanded from the type "
            f"table for c={c}: {len(elems)} irreducibles at rank {r}"
        )
    return tuple(elems)


def canonical_order(v: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Orbit-canonical form of an order vector under scaling and permutation.

    Returns (c, perm): c is v divided by the gcd of its entries (1 when all
    are zero) and sorted ascending, with c[i] = v[perm[i]] / gcd.  The map
    k -> (k[perm[0]], ..., k[perm[r-1]]) is then a monoid isomorphism from
    Hol(v) onto Hol(c).
    """
    g = math.gcd(*v)
    perm = tuple(sorted(range(len(v)), key=v.__getitem__))
    if g < 2:  # nothing to divide: sort v itself, at C speed
        return tuple(sorted(v)), perm
    return tuple([v[i] // g for i in perm]), perm


def _carried(elements: Elements, perm: Sequence[int]) -> Elements:
    """Carry basis elements of Hol(c) back to Hol(v), where (c, perm) = canonical_order(v).

    Coordinate i of an element of Hol(c) becomes coordinate perm[i].  The
    map only permutes coordinates, so distinct nonzero nonnegative elements
    stay so, and sorting them again keeps the basis lex-sorted.
    """
    return tuple(sorted(map(_carrier(perm), elements)))


@functools.lru_cache(maxsize=CACHE_SIZE)
def _carrier(perm: tuple[int, ...]) -> operator.itemgetter | type[tuple]:
    """The map _carried applies for perm: the itemgetter of its inverse
    permutation, or tuple for one coordinate, where an itemgetter of one
    index would return the entry itself."""
    if len(perm) == 1:
        return tuple
    return operator.itemgetter(*sorted(range(len(perm)), key=perm.__getitem__))


def orbit_basis(
    v: tuple[int, ...], bases: dict | None = None, bound: int | None = None
) -> Elements:
    """Basis elements of Hol(v): its canonical vector's, carried back.

    With `bound`, the order bound of a sweep's box, they are expanded from
    the type table (_table_basis).  Otherwise they are cross-checked into
    `bases`, a fresh dict when None, on a miss; a failure names both
    vectors and is never stored, so the next vector with that canonical
    vector fails again.
    """
    canon, perm = canonical_order(v)
    if bound is not None:
        elements = _table_basis(canon, bound)
    else:
        bases = {} if bases is None else bases
        elements = bases.get(canon)
        if elements is None:
            try:
                elements = bases[canon] = cross_checked_basis(canon).elements
            except ArtinHolError as exc:
                if canon == v:
                    raise
                raise type(exc)(
                    f"canonical order vector {canon} of order vector {v}: {exc}"
                ) from exc
    return _carried(elements, perm)


def check_instance(
    inst: Instance, bound: int | None = None, bases: dict | None = None
) -> ConditionReport:
    """Full pipeline: admissibility, Hilbert basis, all conditions.

    The basis comes from orbit_basis: from the type table of `bound`, the
    order bound of the sweep the instance belongs to, or cross-checked
    into `bases` without it.  Every verdict is decided from the orders
    alone, all of them from one pass over the entries the OrderVector has
    already validated.  The pair table comes first, so a rank whose table
    is over the cap is refused before the basis is built.
    """
    pr = _profile(inst.orders.entries)
    cii, rows = _cond_ii(pr)
    elements = orbit_basis(inst.orders.entries, bases, bound)
    cii_prime, failing = _cond_ii_prime(pr) if len(pr.ent) >= 2 else (None, None)
    return ConditionReport(
        instance=inst,
        admissible_reasons=is_admissible(inst)[1],
        hilbert_elements=elements,
        factorial=pr.factorial,
        cond_i=not pr.negative,
        cond_ii=cii,
        cond_ii_rows=rows,
        cond_iii_m=_cond_iii_m(pr),
        cond_ii_prime=cii_prime,
        cond_ii_prime_failing=failing,
    )
