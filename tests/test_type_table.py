"""The type table every sweep takes its bases from (conditions.build_type_table).

The gates: the expansion equals cross_checked_basis on every canonical
vector of each acceptance sweep box and of S5 B=2, and the frontier on
every canonical vector of S7 B=2; dropping any one type fails the first
gate, naming a vector.  The two facts the table rests on, support
locality and Lambert's region of the support, are checked against the
brute-force split search of tests/conftest.py, and the table never has
more supports than its box has canonical vectors.
"""

from __future__ import annotations

import functools
import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from artinhol import Instance, check_instance, conditions
from artinhol.conditions import build_type_table, canonical_order, cross_checked_basis
from artinhol.errors import EngineMismatchError
from artinhol.hilbert import hilbert_basis_frontier
from artinhol.sweep import enumerate_order_vectors
from conftest import SWEEP_FAMILIES, dot, is_irreducible

#: (r, B) of every acceptance sweep box, and S5 B=2, of rank 7.
BOXES = sorted({(len(degrees), bound) for degrees, bound in SWEEP_FAMILIES} | {(7, 2)})


@functools.lru_cache(maxsize=None)
def _reference(r: int, bound: int) -> tuple:
    """Each canonical vector of the box [-B, B]^r, sorted, with its
    cross-checked basis elements."""
    canon = sorted({canonical_order(v)[0] for v in enumerate_order_vectors(r, bound)})
    return tuple((c, cross_checked_basis(c).elements) for c in canon)


@pytest.fixture(autouse=True)
def _no_table_left_behind():
    # A test that installs a changed table leaves neither it nor its
    # expansions to the next test.
    yield
    conditions._TABLE.clear()
    conditions._table_basis.cache_clear()


def _assert_expansion_matches(r: int, bound: int) -> None:
    """The gate: every canonical vector's basis, expanded from this
    process's table, is its cross-checked basis; a failure names it."""
    conditions._table_basis.cache_clear()
    for c, elements in _reference(r, bound):
        assert conditions._table_basis(c, bound) == elements, f"expansion differs at c={c}"


@pytest.mark.parametrize("r, bound", BOXES)
def test_expansion_equals_the_cross_checked_basis(r, bound):
    build_type_table(bound, r)
    _assert_expansion_matches(r, bound)


def test_expansion_equals_the_frontier_on_s7_b2():
    # S7 has 15 characters; the canonical vectors of [-2, 2]^15 are its
    # sorted, gcd-free multisets.
    build_type_table(2, 15)
    box = itertools.combinations_with_replacement(range(-2, 3), 15)
    canon = [c for c in box if canonical_order(c)[0] == c]
    assert len(canon) == 3741
    for c in canon:
        assert conditions._table_basis(c, 2) == hilbert_basis_frontier(c).elements, f"c={c}"


@pytest.mark.parametrize(
    "bound, r, supports, types",
    [(1, 1, 0, 0), (1, 7, 1, 1), (2, 1, 0, 0), (2, 3, 10, 7), (2, 7, 14, 7), (3, 7, 168, 38)],
)
def test_table_sizes(bound, r, supports, types):
    # Each support gets one cross-check; a rank 1 table has none.
    table = build_type_table(bound, r)
    assert (len(table), sum(map(len, table.values()))) == (supports, types)


def test_dropping_any_type_fails_the_gate_naming_a_vector():
    table = build_type_table(2, 7)
    dropped = 0
    for s, types in table.items():
        for i in range(len(types)):
            conditions._TABLE[2, 4] = {**table, s: types[:i] + types[i + 1 :]}
            with pytest.raises((AssertionError, EngineMismatchError), match=r"c=\(-?\d"):
                _assert_expansion_matches(7, 2)
            dropped += 1
    assert dropped == 7


def test_a_process_without_the_table_builds_it():
    # As a spawned pool worker would: the first expansion builds the table.
    conditions._TABLE.clear()
    conditions._table_basis.cache_clear()
    inst = Instance((1, 1, 2), (2, -1, -2))
    assert check_instance(inst, 2) == check_instance(inst)
    assert list(conditions._TABLE) == [(2, 3)]


@pytest.mark.parametrize(
    "r, bounds",
    [(2, range(1, 41)), (3, range(1, 7)), (4, range(1, 4)), (5, (1, 2)), (7, (1, 2)),
     (1, range(1, 41))],
)
def test_the_table_has_no_more_supports_than_the_box_has_canonical_vectors(r, bounds):
    for bound in bounds:
        supports = sum(1 for _ in conditions._supports(bound, min(r, 2 * bound)))
        canon = {canonical_order(v)[0] for v in enumerate_order_vectors(r, bound)}
        assert supports <= len(canon), (r, bound, supports, len(canon))


@st.composite
def members(draw):
    """An order vector of rank 1-4 with entries in [-3, 3], and a nonzero
    member of its Hol in [0, 3]^r."""
    r = draw(st.integers(1, 4))
    c = tuple(draw(st.integers(-3, 3)) for _ in range(r))
    h = tuple(draw(st.integers(0, 3)) for _ in range(r))
    assume(any(h) and dot(h, c) >= 0)
    return c, h


@settings(max_examples=300, deadline=None)
@given(members())
def test_support_locality_and_support_size(member):
    c, h = member
    support = [j for j, x in enumerate(h) if x]
    irreducible = is_irreducible(h, c)
    assert irreducible == is_irreducible([h[j] for j in support], [c[j] for j in support])
    if irreducible:
        # Lambert's region of the support: with no negative order on it, h
        # is a unit vector; else it has at most max(-c_j) positive and at
        # most max(c_j) negative coordinates, both over the support, and
        # its sorted orders are a support of the type table.
        orders = sorted(c[j] for j in support)
        if orders[0] >= 0:
            assert sum(h) == 1
        else:
            assert sum(x > 0 for x in orders) <= -orders[0]
            assert sum(x < 0 for x in orders) <= orders[-1]
            bound = max(map(abs, c))
            assert tuple(orders) in set(conditions._supports(bound, len(orders)))


def test_an_order_outside_the_bound_is_refused():
    # The table of B holds no type of a larger order: a basis expanded
    # from it would be silently short.
    with pytest.raises(ValueError, match=r"\(-2, 3\) exceeds the order bound 1"):
        check_instance(Instance((1, 1), (3, -2)), 1)
