"""Conditions i/ii/iii/ii': closed forms vs search oracles, full reports."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artinhol import (
    Instance,
    SubsetSelector,
    check_instance,
    cond_i,
    cond_ii,
    cond_ii_pair,
    cond_ii_prime,
    cond_iii,
    cond_iii_subset,
    factorial_closed_form,
    hilbert_basis_frontier,
    hilbert_basis_oracle,
    is_member_hol,
)
from artinhol.errors import (
    EqualIndicesError,
    IndexOutOfRangeError,
    InvalidSubsetError,
    RankTooSmallError,
)
from conftest import cond_ii_pair_search, cond_iii_subset_search


class TestCondI:
    def test_examples(self):
        assert cond_i((0, 2, 1)) is True
        assert cond_i((1, -1)) is False
        assert cond_i((0, 0)) is True


class TestFactorialClosedForm:
    def test_matches_oracle_basis_size(self):
        boxes = [(2, 3), (3, 2), (4, 2)]
        for r, bound in boxes:
            for v in itertools.product(range(-bound, bound + 1), repeat=r):
                factorial = len(hilbert_basis_oracle(v).elements) == r
                assert factorial_closed_form(v) is factorial, v

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 5).flatmap(
            lambda r: st.lists(st.integers(-6, 6), min_size=r, max_size=r)
        )
    )
    def test_matches_frontier_basis_size(self, v):
        factorial = len(hilbert_basis_frontier(v).elements) == len(v)
        assert factorial_closed_form(v) is factorial


class TestCondIIPair:
    def test_examples(self):
        assert cond_ii_pair((1, -1), 1, 2) == (1, 0)
        assert cond_ii_pair((1, -1), 2, 1) is None
        assert cond_ii_pair_search((1, -1), 2, 1) is None
        assert cond_ii_pair((-2, 3, 0), 1, 3) == (1, 1, 0)

    def test_witness_validity(self):
        for v in itertools.product(range(-3, 4), repeat=2):
            for k, l in [(1, 2), (2, 1)]:
                w = cond_ii_pair(v, k, l)
                if w is not None:
                    assert w[k - 1] >= 1
                    assert w[l - 1] == 0
                    assert is_member_hol(w, v)

    def test_closed_form_matches_search_r2(self):
        for v in itertools.product(range(-3, 4), repeat=2):
            for k, l in [(1, 2), (2, 1)]:
                closed = cond_ii_pair(v, k, l)
                searched = cond_ii_pair_search(v, k, l)
                assert (closed is None) == (searched is None)

    def test_index_errors(self):
        with pytest.raises(IndexOutOfRangeError):
            cond_ii_pair((1, -1), 0, 2)
        with pytest.raises(IndexOutOfRangeError):
            cond_ii_pair((1, -1), 1, 3)
        with pytest.raises(EqualIndicesError):
            cond_ii_pair((1, -1), 1, 1)


class TestCondII:
    def test_examples(self):
        assert cond_ii((0, 0))[0] is True
        assert cond_ii((1, -1))[0] is False
        assert cond_ii((2, -3))[0] is False

    def test_pair_table_matches_report(self):
        for v in itertools.product(range(-2, 3), repeat=3):
            ok, pairs = cond_ii(v)
            rep = check_instance(Instance.of((1, 1, 2), v))
            assert (ok, pairs) == (rep.cond_ii, rep.cond_ii_pairs), v


class TestCondIIISubset:
    def test_examples(self):
        w = cond_iii_subset((2, 3, -1), (1, 3))
        assert w == (1, 1)
        assert 1 * 2 + 1 * (-1) == 1  # order of the witness product
        assert cond_iii_subset((1, -1), (2,)) is None
        assert cond_iii_subset((0, 0, -1), (1, 2)) == (1, 1)

    def test_search_example_box(self):
        assert cond_iii_subset_search((2, 3, -1), (1, 3), bound=4) is not None

    def test_witness_validity(self):
        for v in itertools.product(range(-2, 3), repeat=3):
            for size in (1, 2):
                for m_set in itertools.combinations(range(1, 4), size):
                    w = cond_iii_subset(v, m_set)
                    if w is not None:
                        assert all(c >= 1 for c in w)
                        assert (
                            sum(c * v[j - 1] for c, j in zip(w, m_set)) >= 0
                        )

    def test_closed_form_matches_search_r3(self):
        for v in itertools.product(range(-2, 3), repeat=3):
            for size in (1, 2):
                for m_set in itertools.combinations(range(1, 4), size):
                    closed = cond_iii_subset(v, m_set)
                    searched = cond_iii_subset_search(v, m_set)
                    assert (closed is None) == (searched is None)

    def test_subset_validation(self):
        with pytest.raises(InvalidSubsetError):
            SubsetSelector(())
        with pytest.raises(InvalidSubsetError):
            SubsetSelector((2, 1))
        with pytest.raises(InvalidSubsetError):
            SubsetSelector((1, 1))
        with pytest.raises(InvalidSubsetError):
            cond_iii_subset((1, -1), (1, 3))


class TestCondIII:
    def test_examples(self):
        assert cond_iii((0, 1, 0)) == (True, 1)
        assert cond_iii((1, -1)) == (False, None)
        # quantifier part holds at m=2 but the basis is not factorial
        assert cond_iii((2, 3, -1)) == (False, None)

    def test_smallest_m_matches_enumeration(self):
        # recompute the least universal m by enumerating subsets with the
        # (already search-validated) subset decision
        for v in itertools.product(range(-2, 3), repeat=3):
            basis = hilbert_basis_oracle(v)
            got_ok, got_m = cond_iii(v)
            best = None
            for m in range(1, 3):
                if all(
                    cond_iii_subset_search(v, M) is not None
                    for M in itertools.combinations(range(1, 4), m)
                ):
                    best = m
                    break
            expected_ok = (len(basis.elements) == 3) and best is not None
            assert got_ok is expected_ok
            assert got_m == (best if expected_ok else None)

    def test_rank_one_convention(self):
        assert cond_iii((3,)) == (False, None)


class TestCondIIPrime:
    def test_examples(self):
        assert cond_ii_prime((1, -1)) == (False, (2,))
        assert cond_ii_prime((0, 0, 0)) == (True, None)
        assert cond_ii_prime((1, -1, 0)) == (
            False,
            (2, 3),
        )

    def test_rank_too_small(self):
        with pytest.raises(RankTooSmallError):
            cond_ii_prime((1,))


class TestCheckInstance:
    def test_motivating_example(self):
        rep = check_instance(Instance.of((1, 1), (1, -1)))
        assert rep.admissible
        assert rep.factorial is True
        assert rep.cond_i is False
        assert rep.cond_ii is False
        assert rep.cond_iii is False
        assert rep.cond_ii_prime is False
        assert rep.equivalence_ok is True
        assert rep.hilbert_elements == ((1, 0), (1, 1))
        assert len(rep.cond_ii_pairs) == 2  # complete ordered-pair table

    def test_all_true_example(self):
        rep = check_instance(Instance.of((1, 1, 2), (0, 0, 0)))
        assert rep.cond_i and rep.cond_ii and rep.cond_iii and rep.cond_ii_prime
        assert rep.equivalence_ok is True

    def test_inadmissible_example(self):
        rep = check_instance(Instance.of((1, 1), (0, -1)))
        assert rep.admissible is False
        assert rep.equivalence_ok is None
        assert rep.hilbert_size == 1  # basis still computed and recorded

    def test_rank_one_report(self):
        rep = check_instance(Instance.of((1,), (2,)))
        assert rep.cond_ii_prime is None
        assert rep.cond_iii is False
        assert rep.equivalence_ok is None
        assert rep.cond_ii_pairs == ()

    def test_cond_i_forces_unit_basis(self):
        for v in itertools.product(range(0, 3), repeat=3):
            rep = check_instance(Instance.of((1, 1, 1), v))
            assert rep.cond_i and rep.factorial
            assert all(sum(e) == 1 for e in rep.hilbert_elements)

    def test_pair_table_is_complete(self):
        rep = check_instance(Instance.of((1, 1, 2), (1, -1, 0)))
        assert [(p.k, p.l) for p in rep.cond_ii_pairs] == [
            (k, l)
            for k in range(1, 4)
            for l in range(1, 4)
            if k != l
        ]

    def test_permutation_equivariance_of_verdicts(self):
        rng = random.Random(13)
        for _ in range(40):
            r = rng.randint(2, 4)
            d = tuple(rng.randint(1, 3) for _ in range(r))
            v = tuple(rng.randint(-3, 3) for _ in range(r))
            perm = list(range(r))
            rng.shuffle(perm)
            rep = check_instance(Instance.of(d, v))
            rep_p = check_instance(
                Instance.of(
                    tuple(d[perm[j]] for j in range(r)),
                    tuple(v[perm[j]] for j in range(r)),
                )
            )
            assert rep.admissible == rep_p.admissible
            assert rep.factorial == rep_p.factorial
            assert rep.hilbert_size == rep_p.hilbert_size
            assert rep.cond_i == rep_p.cond_i
            assert rep.cond_ii == rep_p.cond_ii
            assert rep.cond_iii == rep_p.cond_iii
            assert rep.cond_iii_m == rep_p.cond_iii_m
            assert rep.cond_ii_prime == rep_p.cond_ii_prime
            assert rep.equivalence_ok == rep_p.equivalence_ok
