"""The type table every sweep takes its bases from (conditions.build_type_table).

The gates: the expansion equals cross_checked_basis on every canonical
vector of each acceptance sweep box and of S5 B=2, and dropping any one
type fails that gate, naming a vector.  The two facts the table rests on,
support locality and the support-size bound, are checked against the
brute-force split search of tests/conftest.py, and the table never has
more supports than its box has canonical vectors, for r >= 2.
"""

from __future__ import annotations

import functools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from artinhol import Instance, check_instance, conditions
from artinhol.conditions import build_type_table, cross_checked_basis
from artinhol.errors import EngineMismatchError
from artinhol.hilbert import canonical_order
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


@pytest.mark.parametrize(
    "bound, r, supports, types",
    [(1, 1, 1, 1), (1, 7, 2, 2), (2, 1, 2, 2), (2, 3, 18, 9), (2, 7, 27, 9), (3, 7, 364, 41)],
)
def test_table_sizes(bound, r, supports, types):
    # The supports have at most min(r, 2B) values, and no more than B of
    # either sign; each gets one cross-check.
    table = build_type_table(bound, r)
    assert (len(table), sum(map(len, table.values()))) == (supports, types)
    width = min(r, 2 * bound)
    assert all(len(s) <= width and sum(x < 0 for x in s) <= bound for s in table)


def test_dropping_any_type_fails_the_gate_naming_a_vector():
    table = build_type_table(2, 7)
    dropped = 0
    for s, types in table.items():
        for i in range(len(types)):
            conditions._TABLE[2, 4] = {**table, s: types[:i] + types[i + 1 :]}
            with pytest.raises((AssertionError, EngineMismatchError), match=r"c=\(-?\d"):
                _assert_expansion_matches(7, 2)
            dropped += 1
    assert dropped == 9


def test_a_process_without_the_table_builds_it():
    # As a spawned pool worker would: the first expansion builds the table.
    conditions._TABLE.clear()
    conditions._table_basis.cache_clear()
    inst = Instance((1, 1, 2), (2, -1, -2))
    assert check_instance(inst, 2) == check_instance(inst)
    assert list(conditions._TABLE) == [(2, 3)]


@pytest.mark.parametrize(
    "r, bounds", [(2, range(1, 41)), (3, range(1, 7)), (4, range(1, 4)), (5, (1, 2)), (7, (1, 2))]
)
def test_the_table_has_no_more_supports_than_the_box_has_canonical_vectors(r, bounds):
    # At r = 1 it has more: the B positive singletons, against the box's
    # 3 canonical vectors (-1,), (0,) and (1,).
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
        bound = max(map(abs, c))
        orders = [c[j] for j in support]
        assert sum(x > 0 for x in orders) <= bound >= sum(x < 0 for x in orders)
        if min(orders) >= 0:
            assert sum(h) == 1


def test_an_order_outside_the_bound_is_refused():
    # The table of B holds no type of a larger order: a basis expanded
    # from it would be silently short.
    with pytest.raises(ValueError, match=r"\(-2, 3\) exceeds the order bound 1"):
        check_instance(Instance((1, 1), (3, -2)), 1)
