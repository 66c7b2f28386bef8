"""Hilbert bases of the holomorphy semigroup: two engines, factorization counting.

Hol(v) = {k in N^r : <k, v> >= 0} is an affine semigroup.  Both engines
first reduce v once, through _nonzero_part and _embed: Hol(v) = Hol(v / g)
for g = gcd(v), and each zero order v_j contributes exactly its unit
vector e_j (the unit lemma, proved in _nonzero_part), so the engines
search only the nonzero orders c of v / g.  Mapping k to (k, <k, c>)
identifies Hol(c) with the solution monoid of the single slack equation
sum_{c_j > 0} c_j k_j = sum_{c_j < 0} |c_j| k_j + s over N^(r'+1);
irreducible elements of Hol(c) correspond to the componentwise-minimal
nonzero solutions.  For the minimal solutions of a.x = b.y with positive
a and b, Sigma x <= max b and Sigma y <= max a (J.-L. Lambert, C. R.
Acad. Sci. Paris Ser. I 305 (1987) 39-40).  With a the positive orders
and b the absolute negative orders plus the slack's 1, every irreducible
h of Hol(c) lies in the completeness region

    Sigma_{c_j > 0} h_j <= b+ = max(1, max_{c_j < 0} |c_j|),
    Sigma_{c_j < 0} h_j <= b- = max_{c_j > 0} c_j  (0 if no c_j > 0),

which turns the computation into a finite problem.  The region is
downward closed: lowering a coordinate of a point keeps it inside.

Two engines exploit this independently: the oracle walks the region in
lex order and keeps each member of Hol that no irreducible found before
it divides inside Hol, and the frontier engine grows candidate solutions
of the slack equation one unit step at a time, pruning anything that
dominates a known minimal solution, which it looks up in an index of
those solutions by coordinate value.  They must agree; every cross-checked
basis compares them.  A basis of more than r elements is not factorial,
and nonuniqueness_witness reads an element with two factorizations off
two of its irreducibles, by the closed form of the factoriality proof in
conditions.factorial_closed_form.

count_factorizations searches the basis depth first with each remainder
packed into one int: a field of w bits per coordinate, the low w - 1
holding the value and the top one a guard that every remainder has set.
The guard makes one subtraction an exact division test for every
coordinate at once.  With every value and every basis entry below
2^(w-1), subtracting an element leaves each field in [1, 2^w), so no
borrow crosses into the next field, and a field keeps its guard iff the
element's entry there is at most the remainder's.  One more field, past
the r coordinates and of its own width, as no field lies above it, holds
the remainder's order <rem, c> under the reduced orders c the basis
carries (all 0 for a basis built without orders), and each element its
own order, which is >= 0: the same subtraction refuses a multiplicity
that would leave the order negative, and the same dead mask a positive
order once no later element has a positive order.  Neither remainder has
a factorization, as a sum of elements of order >= 0 has order >= 0, and
0 when every element has order 0; so the search keeps its counts and
witnesses and visits a subset of its states without the order field
(count_factorizations proves both).  The search's guard
counts the work it does as it runs: each state it memoizes costs one of
_STATE_CAP states and the multiplicities it tries there, plus the step
past them, steps of ENUMERATION_CAP, and the first state either cap
cannot pay for raises CapExceededError.  A per-basis threshold t keeps
every search whose largest entry is at most t within both caps.  The
searches at or under t with the default cap share one memo on the
basis, and every other search keeps a private one, dropped when it
returns.  The shared
memo never exceeds _STATE_CAP entries, however many searches fill it: it
keeps only states (i, rem) that are not dead, whose rem is at most k <= t
in each coordinate and 0 in each coordinate no element from position i on
has, and whose order field is <rem, c>, fixed by those coordinates; the
threshold's own second condition bounds their number,
sum_i (t + 1)^(r - |uncovered_i|) <= m (t + 1)^r <= _STATE_CAP.

The brute-force checks the test suite runs against all of these (the
irreducibles of the whole box [0, max(1, max |v_j|)]^r, a split search
deciding irreducibility, the lattice rank of a basis through a Hermite
normal form, the adjoined irreducibles of a positive pivot, every
factorization of an element) live next to those tests, in
tests/conftest.py.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Iterable, NamedTuple, Sequence

from .core import (
    OrdersLike,
    _int_entries,
    _int_value,
    _setattr,
    _Value,
    as_order_vector,
    validate_exponent_vector,
)
from .errors import CapExceededError, LengthMismatchError, NoRelationError, NotInHolError

#: Hard cap on the oracle's region points, the frontier's explored nodes
#: and the steps a factorization search takes; keeps interactive misuse
#: from hanging.
ENUMERATION_CAP = 10_000_000

#: Cap on the states one factorization search memoizes, at about 100
#: bytes each, or 200 where a state keeps two factorizations: 100-200 MB.
#: A search refused at it takes about 1 s and 107 MB (factorize --orders
#: 2,-1 --element 1000000,0); one refused at ENUMERATION_CAP's steps 1 to
#: 4 s, up to 5.5 s on a loaded host (2 vCPUs, Python 3.11).
_STATE_CAP = ENUMERATION_CAP // 10

Elements = tuple[tuple[int, ...], ...]


class HilbertBasis(_Value):
    """Lex-sorted irreducible elements of Hol for one order profile.

    orders, when given, are the orders v of that profile: every element
    must have <h, v> >= 0, and count_factorizations prunes its searches by
    the gcd-reduced orders c = v / gcd(v), which _orders holds (None
    without them).  _factor_tables holds count_factorizations' tables and
    shared memo, built on its first call.  As private slots they are no
    fields, so they take no part in comparison, hashing, repr or pickling:
    a basis unpickled or rebuilt by _replace searches without orders.
    """

    __slots__ = ("elements", "source_engine", "_orders", "_factor_tables")
    elements: Elements
    source_engine: str
    _orders: tuple[int, ...] | None
    _factor_tables: _FactorTables | None

    def __init__(
        self,
        elements: Iterable[Sequence[int]],
        source_engine: str,
        *,
        orders: OrdersLike | None = None,
    ):
        elems = tuple(tuple(e) for e in elements)
        _setattr(self, "elements", elems)
        _setattr(self, "source_engine", source_engine)
        _setattr(self, "_orders", None)
        _setattr(self, "_factor_tables", None)
        entries = itertools.chain.from_iterable
        if not set(map(type, entries(elems))) <= {int}:
            _int_entries(entries(elems), "basis element")  # names the first non-int
        if source_engine not in ("oracle", "frontier"):
            raise ValueError(f"unknown engine tag {source_engine!r}")
        for e in elems:
            if not e or min(e) < 0 or not any(e):
                raise ValueError("basis elements must be nonzero with entries >= 0")
        if elems and any(len(e) != len(elems[0]) for e in elems):
            raise ValueError("basis elements must share one rank")
        # strictly increasing: lex-sorted with no element repeated
        if not all(map(operator.lt, elems, elems[1:])):
            raise ValueError("basis elements must be lex-sorted and duplicate-free")
        if orders is not None:
            r, at, c = _nonzero_part(orders)
            if elems and r != len(elems[0]):
                raise LengthMismatchError(
                    f"orders of rank {r} given for a basis of rank {len(elems[0])}"
                )
            reduced = _spread(r, at, c)
            for h in elems:
                if sum(map(operator.mul, h, reduced)) < 0:
                    raise ValueError(f"basis element {h} is outside Hol of the orders")
            _setattr(self, "_orders", reduced)

    def __len__(self) -> int:
        return len(self.elements)


class FactorizationCount(NamedTuple):
    """Number of basis factorizations of one element, with sample witnesses.

    Witnesses are coefficient vectors aligned with the (lex-sorted) basis
    elements; at most two are kept.  A plain record: it checks nothing, and
    as a tuple it compares equal to a tuple of the same fields.
    """

    element: tuple[int, ...]
    count: int
    witnesses: tuple[tuple[int, ...], ...]


def _nonzero_part(v: OrdersLike) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """(r, at, c) for the order vector v of rank r: at lists the positions
    of its nonzero orders, and c those orders divided by g = gcd(v).

    Both engines search Hol(c) and hand what they find to _embed, which
    yields the irreducibles of Hol(v).  Hol(v) = Hol(v / g), since
    <k, v> = g <k, v / g>.  The unit lemma: for v_j = 0, e_j is
    irreducible, having entry sum 1, and it is the only irreducible with
    h_j >= 1.  Any h != e_j with h_j >= 1 splits as e_j + (h - e_j),
    where h - e_j is nonzero and stays in Hol because
    <h - e_j, v> = <h, v>.  Every other irreducible is 0 at every zero
    order, so it is the embedding of an element of Hol(c); and an element
    of Hol(c) is irreducible exactly when its embedding is irreducible in
    Hol(v), since the parts of any split are 0 wherever their sum is.
    """
    ent = as_order_vector(v).entries
    g = math.gcd(*ent) or 1
    at = tuple(j for j, x in enumerate(ent) if x)
    return len(ent), at, tuple(ent[j] // g for j in at)


def _embed(
    found: Iterable[Sequence[int]], r: int, at: Sequence[int], c: Sequence[int], engine: str
) -> HilbertBasis:
    """The basis of Hol(v) for (r, at, c) = _nonzero_part(v), from the
    irreducibles `found` of Hol(c): each carried to rank r by _spread, and
    e_j added for each zero order.  The basis carries v's reduced orders,
    c carried to rank r, for count_factorizations to prune by."""
    elems = [_unit(r, j) for j in set(range(r)).difference(at)]
    elems.extend(_spread(r, at, x) for x in found)
    return HilbertBasis(tuple(sorted(elems)), engine, orders=_spread(r, at, c))


def _spread(r: int, at: Sequence[int], xs: Sequence[int]) -> tuple[int, ...]:
    """xs carried to rank r: entry i at position at[i], 0 elsewhere, and
    any entries past len(at) dropped."""
    out = [0] * r
    for j, x in zip(at, xs):
        out[j] = x
    return tuple(out)


class _Region(NamedTuple):
    """The completeness region of Hol(c) for nonzero orders c (module
    docstring): the two sum limits and how many orders have each sign."""

    plus: int  # b+, the limit on the sum over c_j > 0
    minus: int  # b-, the limit on the sum over c_j < 0
    positive: int
    negative: int

    def points(self) -> int:
        """Exact number of points in the region, the identity included."""
        return (
            math.comb(self.plus + self.positive, self.positive)
            * math.comb(self.minus + self.negative, self.negative)
        )


def _region(ent: Sequence[int]) -> _Region:
    pos = [x for x in ent if x > 0]
    neg = [-x for x in ent if x < 0]
    return _Region(max(1, max(neg, default=0)), max(pos, default=0), len(pos), len(neg))


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

    The walk runs over the nonzero orders c of v / gcd(v)
    (_nonzero_part), so the guard counts exactly the points walked.
    """
    r, at, ent = _nonzero_part(v)
    region = _region(ent)
    _guard_oracle(region)
    kept = _walk_region(ent, region.plus, region.minus)
    return _embed((h for h, _ in kept), r, at, ent, "oracle")


def _walk_region(ent: Sequence[int], plus: int, minus: int) -> list[tuple[tuple[int, ...], int]]:
    """Walk the region of the nonzero orders `ent` in lex order; return
    the points no earlier kept point divides inside Hol, each with its
    order.

    A depth-first walk over prefixes, one coordinate per level, on an
    explicit stack so that the rank is not limited by the recursion
    limit.  A stack entry is a prefix with its order and what its
    coordinates left of the two sum limits; the last coordinate is walked
    in a loop.
    """
    last = len(ent) - 1
    kept: list[tuple[tuple[int, ...], int]] = []
    stack = [((), 0, plus, minus)] if ent else []  # no orders: only the identity
    while stack:
        prefix, s, plus, minus = stack.pop()
        j = len(prefix)
        w = ent[j]
        top = plus if w > 0 else minus
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
    return (0,) * i + (1,) + (0,) * (n - i - 1)


def hilbert_basis_frontier(v: OrdersLike) -> HilbertBasis:
    """Second engine: completion-style search over the slack equation.

    This is the completion procedure of E. Contejean and H. Devie, "An
    efficient incremental algorithm for solving systems of linear
    Diophantine equations", Information and Computation 113 (1994).

    The search runs on the nonzero orders c of v / gcd(v) (_nonzero_part),
    whose region limits, and with them the depth, are up to gcd(v) times
    smaller than v's.  Over those coordinates plus the slack, the search
    starts from the unit vectors and repeatedly bumps a candidate x
    by one in a direction that moves its defect sum(c_i x_i) toward zero
    (the classical completion restriction, which reaches every minimal
    solution): a coordinate of positive coefficient from a negative
    defect, one of negative coefficient from a positive defect.  Balanced
    candidates are the minimal solutions; a candidate dominating a known
    minimal solution is pruned.  A candidate's level is its coordinate
    sum, and a level's minimal solutions are all collected before its
    candidates are expanded, so each candidate is made after every
    minimal solution of lower level is known, and tested against them.
    Two facts follow, and keep each test to a few of those solutions:

    - y = x + e_i need only be tested against the minimal m with
      m_i = y_i, which by_entry[i][y_i] lists.  Proof: no minimal
      solution of lower level than x lies below x, and one of x's own
      level below x would be x, which is unbalanced; so m <= y does not
      put m below x, which forces m_i > x_i, that is m_i = y_i.
    - A balanced candidate is minimal without a second test.  Proof: it
      was tested against every minimal solution of lower level when it
      was made, and one of its own level below it would be itself.

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
    r, at, ent = _nonzero_part(v)
    region = _region(ent)
    coeffs = ent + (-1,)
    n = len(coeffs)
    up = [i for i in range(n) if coeffs[i] > 0]  # the steps from a negative defect
    down = [i for i in range(n) if coeffs[i] < 0]  # and from a positive one
    minimal: list[tuple[int, ...]] = []
    # by_entry[i][t]: the minimal solutions m with m_i = t > 0
    by_entry: list[dict[int, list[tuple[int, ...]]]] = [{} for _ in range(n)]
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
            if d == 0:
                minimal.append(x)
                for i, t in enumerate(x):
                    if t:
                        by_entry[i].setdefault(t, []).append(x)
        room = ENUMERATION_CAP - explored
        nxt: dict[tuple[int, ...], int] = {}
        for x, d in frontier.items():
            if d == 0:
                continue
            for i in up if d < 0 else down:
                t = x[i] + 1
                y = x[:i] + (t,) + x[i + 1:]
                if y in nxt:
                    continue
                for m in by_entry[i].get(t, ()):
                    if all(map(operator.le, m, y)):
                        break
                else:
                    nxt[y] = d + coeffs[i]
                    if len(nxt) > room:
                        raise CapExceededError(
                            f"frontier search exceeds the enumeration cap of "
                            f"{ENUMERATION_CAP} nodes"
                        )
        explored += len(nxt)
        frontier = nxt
        level += 1
    return _embed(minimal, r, at, ent, "frontier")


def count_factorizations(k: Sequence[int], basis: HilbertBasis, cap: int = 2) -> FactorizationCount:
    """Count coefficient vectors c over the basis with sum_h c_h * h = k.

    Depth-first over basis elements in lex order, multiplicities tried
    largest first, stopping once `cap` factorizations are found, so the
    witnesses are the (at most two) lex-largest factorizations.  A
    complete basis generates Hol, so a zero count means k is outside Hol
    and raises NotInHolError.  The identity factors once, emptily.

    A search state is a position i and the remainder rem still to factor,
    packed into one int (module docstring): w >= bit_length(max(max k,
    largest basis entry)) + 1 bits per coordinate and, past them as field
    r, u >= bit_length(max(<k, c>, largest element order)) + 1 bits for
    its order <rem, c> under the basis's reduced orders c (all 0 for a
    basis without orders; the widths are chosen below), each field holding
    its value + 2^(width - 1), so that its top bit is a guard.  With G the
    mask of the guards and H[i] element i with its order <h_i, c> appended,
    packed without them, element i divides rem and leaves an order >= 0
    iff (rem - H[i]) & G == G, rem is zero iff rem == G, and a field that
    every element from i on has 0 in is nonzero, so that the state has no
    factorization, iff (rem ^ G) & dead[i].
    Subtracting H[i] while the guards hold gives the children
    rem - c * h_i, c = 1 .. cmax.  A position whose element does not
    divide rem has only the c = 0 child: it is stepped over, with no
    multiplicity tried and no witnesses folded, and its memo entry is its
    successor's own.

    The order field is exact, and it changes no result.  k is packed as
    sum_j k_j * place_j, place_j = 2^(w j) + c_j 2^(w r): its coordinates
    with <k, c> as field r, the top one, which has no field above it to
    borrow into and so its own width.  The fields below it hold less than
    2^(w r) in all, so the sum is negative iff <k, c> is, and then k is
    outside Hol, refused before any search.  Otherwise field r of k and of
    every element lies in [0, 2^(u-1)): element orders are >= 0, as the
    basis's constructor checks.  Subtracting H[i] takes field r from
    <rem, c> to <rem - h_i, c>, by linearity, and the guard admits it only
    if that is >= 0, so field r never leaves [0, 2^(u-1)).  A remainder of
    negative order is no sum of elements of order >= 0, and one of positive
    order is no sum of elements of order 0, which is what dead[i] tests on
    field r.  So each multiplicity the order field refuses, and each state
    its dead mask ends, has count 0 without it: the search tries the same
    children in the same order, less some of count 0, reaches the cap at
    the same child, and returns the same capped count and witnesses.  It
    visits and stores a subset of the states it would visit and store
    without the field, with at most as many multiplicities each, and the
    field is a function of the coordinates, so it charges at most what
    the search without the field charges (below), and the threshold holds
    as it is.  Without orders field r is
    0 throughout and dead from position 0 on, and the search is the one
    without the field.

    Each state is memoized in one dict per position keyed by the packed
    remainder.  A state stores its count capped at `cap` and the first two
    of its suffix factorizations in depth-first order, never more, so an
    entry does not grow with `cap`.  This is exact: a state's capped count
    is the capped sum of its children's capped counts, and its first two
    factorizations are the first two of its children's, taken in the order
    the search visits them.  A factorization travels as cons cells
    (i, c, tail) of its nonzero multiplicities and becomes a coefficient
    tuple only when the search returns.

    Every search whose max k is at most the basis's threshold t (below)
    packs at the one pair of widths w0 = bit_length(max(t, largest basis
    entry)) + 1 and u0 = bit_length(max(t * P, largest element order)) + 1,
    with P the sum of the positive c_j, so that u0 holds the order of every
    k <= t, at most t * P; and those with the default cap 2 share one
    memo.  The tables (_FactorTables) hold that packing, the places and
    that memo; they are a private slot of the basis, outside comparison,
    hashing, repr and pickling, so they are built once per basis and freed
    with it.  So the common call, at or under t, only validates, reads the
    places, the packing and (cap 2) the shared memo from the tables, packs
    k with its order in one sum of products and searches: it works out no
    width and packs no elements.  Only a search above t takes <k, c>, works
    out its widths, and packs at them where w0 is too narrow for max k or
    u0 for <k, c>.  An element of negative order is refused before any
    search, at or above t.  A search above t or with any
    other cap runs on a private memo, dropped when it returns.  Either way
    the at most two witness cells are decoded into coefficient tuples once
    the search returns.  Keeping one shared memo per cap would not be
    bounded, since a caller may use any number of caps.  The bound: a state
    (i, rem) enters a memo only once it has passed the dead test, so i < m
    (at position m every coordinate is uncovered, and a nonzero rem is dead
    there), and rem_j = 0 for every j in uncovered_i, the coordinates no
    element from i on has; and remainders only decrease, so rem <= k
    componentwise; field r is <rem, c>, fixed by the coordinates.  Under the
    threshold every rem_j is then at most t, so the shared memo holds at
    most sum_{i < m} (t + 1)^(r - |uncovered_i|) <= m (t + 1)^r entries,
    which the threshold's second condition keeps within _STATE_CAP, whatever
    searches stored them.  A private memo holds the states its search was
    charged, at most _STATE_CAP (below).  So between calls a basis holds
    at most _STATE_CAP memo entries, and during one at most twice that.

    The search charges its work as it runs (_count_from): each state it
    visits, which stores one memo entry, one of _STATE_CAP states, and
    cmax + 1 steps of ENUMERATION_CAP, one per child it may descend to:
    the multiplicities cmax .. 1 and the c = 0 step.  The first state either cap cannot pay for
    raises CapExceededError naming that cap, before its frame is pushed,
    and the memo is dropped with the search.  A state is visited at most
    once: its entry is stored when its frame is popped, and until then no
    descent reaches it, as every state the visit leads to has a larger
    position or a remainder of smaller sum.  Every state visited has
    i < m and rem <= k, and cmax <= max k, as every element is nonzero.
    So a search charges at most m * (max k + 1)^r states and
    m * (max k + 1)^(r + 1) steps, and the basis's threshold, the largest
    t with m * (t + 1)^(r + 1) <= ENUMERATION_CAP and
    m * (t + 1)^r <= _STATE_CAP, leaves every search at or under it within
    both caps: the shared memo never sees a refusal.
    """
    if _int_value(cap, "cap") < 2:
        raise ValueError("cap must be >= 2")
    elems = basis.elements
    kk = validate_exponent_vector(k, rank=len(elems[0]) if elems else None)
    if elems:
        tables = basis._factor_tables or _factor_tables(basis)
        top = max(kk)
        if top <= tables.threshold:
            place, (guards, packed, dead) = tables.place, tables.packing
            memo = tables.memo if cap == 2 else [{} for _ in elems]
        else:
            c = tables.orders
            w = max(top.bit_length() + 1, tables.width)
            ow = max(sum(map(operator.mul, kk, c)).bit_length() + 1, tables.order_width)
            if w == tables.width and ow == tables.order_width:
                place, (guards, packed, dead) = tables.place, tables.packing
            else:
                place = _places(c, w)
                guards, packed, dead = _pack_tables(_with_orders(elems, c), w, ow)
            memo = [{} for _ in elems]
        start = sum(map(operator.mul, kk, place))  # k packed with <k, c>, negative iff that is
        if start < 0:
            count, cells = _NONE
        else:
            try:
                count, cells = _count_from(0, start | guards, packed, dead, guards, memo, cap)
            except CapExceededError as exc:
                raise CapExceededError(f"factorization search of {kk} {exc}") from None
    else:  # the empty basis generates only the identity
        count, cells = _NONE if any(kk) else _EMPTY
    if count == 0:
        raise NotInHolError(f"{kk} is not generated by the basis (not in Hol)")
    witnesses = []
    for cell in cells:  # cons cells (i, c, tail) to coefficient tuples
        coeffs = [0] * len(elems)
        while cell is not None:
            i, c, cell = cell
            coeffs[i] = c
        witnesses.append(tuple(coeffs))
    return FactorizationCount(kk, count, tuple(witnesses))


class _FactorTables(NamedTuple):
    """count_factorizations' tables for one nonempty basis.

    Every packing holds r + 1 fields: the r coordinates, then the order
    under the basis's reduced orders c, zeros for a basis without orders;
    the order field is then always 0 and dead from position 0 on, and the
    search is the one without it.
    """

    threshold: int  # the largest t admitted at once, see count_factorizations
    width: int  # the coordinate field width w0 of every search at or under it
    order_width: int  # the order field width u0 of those searches
    orders: tuple  # the reduced orders c, all 0 for a basis without orders
    place: tuple  # 2^(w0 j) + c_j 2^(w0 r) per coordinate j: k packed with <k, c>
    packing: tuple  # (G, H, dead) at w0 and u0 of the elements with their orders
    memo: list  # the memo those searches share when they use the default cap


def _factor_tables(basis: HilbertBasis) -> _FactorTables:
    """The tables of a nonempty basis, built on its first search."""
    tables = basis._factor_tables
    if tables is None:
        elems = basis.elements
        m, r = len(elems), len(elems[0])
        c = basis._orders or (0,) * r

        def fits(s):  # whether t = s - 1 keeps both bounds within their caps
            return m * s ** (r + 1) <= ENUMERATION_CAP and m * s**r <= _STATE_CAP

        # an s that fits is at most the root below, which the float misses
        # by far less than 1: start one above it and count down
        s = int((ENUMERATION_CAP / m) ** (1 / (r + 1))) + 1
        while not fits(s):
            s -= 1
        extended = _with_orders(elems, c)
        w = max(s - 1, *map(max, elems)).bit_length() + 1
        # every k <= t has order at most t * (the sum of the positive c_j)
        most = (s - 1) * sum(x for x in c if x > 0)
        ow = max(most, *(h[-1] for h in extended)).bit_length() + 1
        tables = _FactorTables(
            s - 1, w, ow, c, _places(c, w), _pack_tables(extended, w, ow), [{} for _ in elems]
        )
        _setattr(basis, "_factor_tables", tables)
    return tables


def _with_orders(elems: Elements, c: Sequence[int]) -> Elements:
    """Each element with its order <h, c> appended as one more coordinate."""
    return tuple(h + (sum(map(operator.mul, h, c)),) for h in elems)


def _places(c: Sequence[int], w: int) -> tuple[int, ...]:
    """2^(w j) + c_j 2^(w r) for each coordinate j of the rank-r orders c,
    so that sum_j k_j place_j packs k, each coordinate in a w-bit field,
    with <k, c> appended as its last field, from bit w r on, and is
    negative exactly when <k, c> is."""
    r = len(c)
    return tuple((1 << w * j) + (x << w * r) for j, x in enumerate(c))


def _pack(xs: Sequence[int], w: int) -> int:
    """xs packed into one int, x_j in the w-bit field at bit w * j.  Only
    the nonzero x_j are shifted into place, so a unit vector costs one
    shift, however long it is."""
    n = at = 0
    for x in xs:
        if x:
            n |= x << at
        at += w
    return n


def _pack_tables(elems: Elements, w: int, last: int | None = None) -> tuple[int, tuple, tuple]:
    """(G, H, dead) at field width w, the last field at width `last` where
    it is given: the guard mask, the packed elements and, per position
    i <= m, the mask of the value bits of the fields no element from i on
    has.  The last field is the top one, so its width moves no other
    field, and _pack puts it at bit w * (n - 1) whatever its width.

    Every entry is below 2^(w-1), the last below 2^(last-1), so G - H[i]
    keeps exactly the guards of the fields where element i is 0, and a
    set of guards Z becomes the value bits below them as Z - (Z >> (w - 1)),
    with the last guard shifted by last - 1 instead: dead[i] is dead[i + 1]
    cut to those fields, a few O(r) int operations per position.
    """
    n = len(elems[0])
    last = w if last is None else last
    low = _pack([1 << w - 1] * (n - 1), w)
    top = 1 << w * (n - 1) + last - 1
    guards = low | top
    packed = tuple(_pack(h, w) for h in elems)
    dead = [guards - (low >> w - 1) - (top >> last - 1)]  # at position m, every field
    for h in reversed(packed):
        zero = (guards - h) & guards
        dead.append(dead[-1] & (zero - ((zero & low) >> w - 1) - ((zero & top) >> last - 1)))
    return guards, packed, tuple(reversed(dead))


def _count_from(i, rem, packed, dead, guards, memo, cap):
    """(count capped at `cap`, first two witnesses as cons cells) of the
    packed remainder `rem` over the elements from position i on.

    One loop over one explicit stack, so no recursion limit bounds the
    basis or the multiplicities.  A frame (at, top, h, c, child, count,
    witnesses) is a state (at, top) being visited, h = h_at packed,
    searching its child (at + 1, child = top - c * h), with what the
    children before it gave; the frame being visited is kept in locals and
    the frames below it on the stack.  On the way down a dead, zero or
    memoized state resolves at once, and any other is pushed with
    c = cmax (0 where h_at does not divide top).  On the way up a child of
    count 0 moves its frame on to c - 1 at once; any other resolved state
    is folded into the frame below, which moves on to c - 1, or, after
    c = 0, at the cap or at a dead child, stores its own state and is
    popped; one whose count is still 0 after c = 0, a position stepped
    over included, stores its c = 0 child's state.  A dead child ends its
    frame because every later one is dead too: child only grows as c
    falls, so a field that is nonzero where no element from at + 1 on
    has it stays nonzero.

    cmax is found by doubling, then halving, the multiple d * h tried:
    d never exceeds the multiplicity c already found, or 1, so each field
    of d * h is at most top's, below 2^(w-1), and subtracting d * h tests
    it as exactly as subtracting h does (the module docstring).  Each push
    is charged one state of _STATE_CAP and c + 1 steps of ENUMERATION_CAP,
    both read when the search starts.  The search for cmax stops at the
    steps left, so even a multiplicity of 10^11 costs no more than the
    cap, and a push either cap cannot pay for raises CapExceededError
    naming that cap.
    """
    steps, states = ENUMERATION_CAP, _STATE_CAP  # what is left of each
    stack = []  # the frames below the one being visited, as tuples
    at, c = None, 0  # no frame yet: the one being visited lives in the locals
    while True:
        if (rem ^ guards) & dead[i]:
            state = _DEAD
        elif rem == guards:
            state = _EMPTY
        else:
            state = memo[i].get(rem)
            if state is None:
                if not states:
                    raise CapExceededError(f"kept more than {_STATE_CAP} states, the state cap")
                if at is not None:
                    stack.append((at, top, h, c, child, count, witnesses))
                at, top, h, c, child, count, witnesses = i, rem, packed[i], 0, rem, 0, ()
                d, dh = 1, h
                while c + d <= steps and (child - dh) & guards == guards:
                    child -= dh
                    c += d
                    d, dh = c, c * h
                while d > 1:
                    d >>= 1
                    dh = d * h
                    if c + d <= steps and (child - dh) & guards == guards:
                        child -= dh
                        c += d
                if c == steps:  # c + 1 steps, one more than are left
                    raise CapExceededError(
                        f"took more than {ENUMERATION_CAP} steps, the enumeration cap"
                    )
                steps -= c + 1
                states -= 1
                i, rem = i + 1, child
                continue
        if c and state is not _DEAD and not state[0]:  # a child of count 0: on to c - 1
            child += h
            c -= 1
            rem = child
            continue
        if at is None:  # the first state resolved at once
            return state
        while True:  # fold the resolved state into the frames it completes
            if c or count:
                n, cells = state
                if n:
                    count += n
                    for cell in cells[: 2 - len(witnesses)]:
                        witnesses += ((at, c, cell) if c else cell,)
                if c and count < cap and state is not _DEAD:
                    child += h
                    c -= 1
                    i, rem = at + 1, child
                    break
                state = (count if count < cap else cap, witnesses) if count else _NONE
            elif state is _DEAD:  # stored, it would end the frames of a live state
                state = _NONE
            memo[at][top] = state
            if not stack:
                return state
            at, top, h, c, child, count, witnesses = stack.pop()


_EMPTY = (1, (None,))  # the zero remainder: one factorization, all multiplicities 0
_NONE = (0, ())
# _NONE for a dead state, built at run time: the compiler would make a
# second (0, ()) literal the same object, which _count_from must tell apart
_DEAD = tuple([0, ()])


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
    then not one of Hol.  Raises ValueError when r < 1, and
    LengthMismatchError when r is not the rank of a nonempty basis.
    """
    elems = basis.elements
    if _int_value(r, "rank r") < 1:
        raise ValueError(f"rank r must be >= 1, got {r}")
    if elems and r != len(elems[0]):
        raise LengthMismatchError(f"rank {r} given for a basis of rank {len(elems[0])}")
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
