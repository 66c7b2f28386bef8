"""Conditions i/ii/iii/ii': closed forms vs search oracles, full reports."""

from __future__ import annotations

import itertools
import pickle
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artinhol import (
    Instance,
    PairWitness,
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
from artinhol import conditions, serialize
from artinhol.conditions import canonical_order
from artinhol.core import CACHE_SIZE
from artinhol.errors import (
    CapExceededError,
    EqualIndicesError,
    IndexOutOfRangeError,
    InvalidSubsetError,
    RankTooSmallError,
)
from conftest import (
    cond_ii_pair_search,
    cond_iii_subset_search,
    ii_prime_failing_search,
    report_document,
)


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

    @pytest.mark.parametrize(
        "k, l, bad",
        [(True, 2, "k"), (1, 2.0, "l"), (1.0, 2, "k"), ("1", 2, "k"), (2, False, "l")],
    )
    def test_indices_must_be_ints(self, k, l, bad):
        value = {"k": k, "l": l}[bad]
        with pytest.raises(TypeError, match=re.escape(f"{bad} must be an int, got {value!r}")):
            cond_ii_pair((1, -1), k, l)


class TestCondII:
    def test_examples(self):
        assert cond_ii((0, 0))[0] is True
        assert cond_ii((1, -1))[0] is False
        assert cond_ii((2, -3))[0] is False

    def test_a_table_over_the_cap_is_refused(self, monkeypatch):
        # r(r-1) witnesses of r entries: 216^2 * 215 = 10,031,040 is the
        # first over the cap; at a cap of 18 = 3^2 * 2 rank 3 is the last
        # rank allowed.
        with pytest.raises(CapExceededError) as err:
            cond_ii((0,) * 215 + (-1,))
        assert str(err.value) == (
            "pair table of 10031040 witness entries exceeds the enumeration cap 10000000"
        )
        monkeypatch.setattr(conditions, "ENUMERATION_CAP", 18)
        assert len(cond_ii((0, 0, -1))[1]) == 6
        with pytest.raises(CapExceededError, match="^pair table of 48 witness entries exceeds"):
            check_instance(Instance((1,) * 4, (0, 0, 0, -1)))

    def test_pair_table_matches_report(self):
        for v in itertools.product(range(-2, 3), repeat=3):
            ok, pairs = cond_ii(v)
            rep = check_instance(Instance((1, 1, 2), v))
            assert (ok, pairs) == (rep.cond_ii, rep.cond_ii_pairs), v

    def test_pair_table_matches_search_r3(self):
        for v in itertools.product(range(-2, 3), repeat=3):
            for k, l, w in cond_ii(v)[1]:
                assert (w is None) == (cond_ii_pair_search(v, k, l) is None), (v, k, l)

    def test_pair_table_rows(self):
        # every row of a rank <= 5 table, against the single-pair closed form
        rng = random.Random(7)
        vectors = [tuple(rng.randint(-4, 4) for _ in range(r)) for r in (4, 5) for _ in range(60)]
        for v in vectors:
            pairs = cond_ii(v)[1]
            r = len(v)
            assert [(k, l) for k, l, _ in pairs] == [
                (k, l) for k in range(1, r + 1) for l in range(1, r + 1) if k != l
            ]
            for k, l, w in pairs:
                assert w == cond_ii_pair(v, k, l), (v, k, l)
                if w is not None:
                    assert w[k - 1] >= 1 and w[l - 1] == 0 and is_member_hol(w, v)

    def test_pair_witness_is_a_named_tuple(self):
        pw = PairWitness(1, 2, (1, 0))
        assert repr(pw) == "PairWitness(k=1, l=2, witness=(1, 0))"
        assert (pw.k, pw.l, pw.witness) == (1, 2, (1, 0))
        assert pickle.loads(pickle.dumps(pw)) == pw
        assert hash(pw) == hash(PairWitness(1, 2, (1, 0)))
        assert type(cond_ii((1, -1))[1][0]) is PairWitness


def _fresh_pair_table(v):
    """The pair table of v built pair by pair from the closed form, with no cache."""
    r = len(v)
    table = []
    for k in range(r):
        for l in range(r):
            if l == k:
                continue
            w = None
            if v[k] >= 0:
                w = tuple(int(j == k) for j in range(r))
            else:
                lifts = [p for p in range(r) if v[p] > 0 and p != l]
                if lifts:
                    p = lifts[0]
                    m = (-v[k] + v[p] - 1) // v[p]
                    w = tuple(1 if j == k else m if j == p else 0 for j in range(r))
            table.append(PairWitness(k + 1, l + 1, w))
    return table


def _interleaved(*boxes):
    """Vectors of the boxes in turn, one from each, until all are spent."""
    for vs in itertools.zip_longest(*boxes):
        yield from (v for v in vs if v is not None)


class TestInternedPairTable:
    """The pair table's rows and their text are cached per process, keyed by
    value; a row of one vector or rank must never be served for another."""

    CACHES = (
        conditions._pair_row,
        serialize._instance_texts,
        serialize._vector_text,
        serialize._pairs_text,
        serialize._reasons_text,
    )

    def test_table_and_text_match_a_fresh_build(self):
        for cache in self.CACHES:
            cache.cache_clear()
        boxes = [itertools.product(range(-3, 4), repeat=r) for r in range(1, 5)]
        boxes += [
            itertools.product(range(-1, 2), repeat=7),
            itertools.product(range(-2, 3), repeat=5),
        ]
        bases = {}
        seen = 0
        for v in _interleaved(*boxes):
            table = _fresh_pair_table(v)
            ok = factorial_closed_form(v) and all(w is not None for _, _, w in table)
            assert cond_ii(v) == (ok, tuple(table)), v
            for k, l, w in table:
                assert cond_ii_pair(v, k, l) == w, (v, k, l)
            # the basis plays no part in the table or its text
            bases[canonical_order(v)[0]] = ()
            rep = check_instance(Instance((1,) * len(v), v), bases=bases)
            assert (rep.cond_ii, list(rep.cond_ii_pairs)) == (ok, table), v
            # the report keeps the table as r rows of r - 1 pairs, row i
            # holding k = i + 1; rank 1 has one empty row
            r = len(v)
            assert len(rep.cond_ii_rows) == r, v
            for i, row in enumerate(rep.cond_ii_rows):
                assert len(row) == r - 1, v
                assert all(k == i + 1 for k, _, _ in row), v
            assert rep.cond_ii_pairs == cond_ii(v)[1], v
            text = serialize.render_report_json(rep)
            assert text == serialize.canonical_json(report_document(rep)), v
            seen += 1
        assert seen == 7 + 7**2 + 7**3 + 7**4 + 3**7 + 5**5
        assert conditions._pair_row.cache_info().hits > 0
        # a row's text is served from the cache: the same str object again
        row = rep.cond_ii_rows[0]
        assert serialize._pairs_text(row) is serialize._pairs_text(row)

    def test_negative_row_without_positive_order_is_its_own_row(self):
        # Row 1 of (0, -1) and of (-1, -1) share r and k; only the sign of
        # v_1 tells them apart, and only the first has a witness.
        for _ in range(2):
            assert cond_ii((0, -1))[1][0] == PairWitness(1, 2, (1, 0))
            assert cond_ii((-1, -1))[1][0] == PairWitness(1, 2, None)
            assert cond_ii_pair((-1, -1), 1, 2) is None
            assert cond_ii_pair((0, -1), 1, 2) == (1, 0)

    def test_caches_stay_within_their_bounds(self):
        rng = random.Random(14)
        bases = {}
        for _ in range(5000):
            r = rng.randint(2, 11)
            v = tuple(rng.randint(-(10**6), 10**6) for _ in range(r))
            bases[canonical_order(v)[0]] = ()
            serialize.render_report_json(check_instance(Instance((1,) * r, v), bases=bases))
        for cache in self.CACHES:
            if cache is serialize._pairs_text:
                continue
            info = cache.cache_info()
            assert info.currsize <= info.maxsize, cache
        # the row texts, cached by row object, drop the oldest once full
        assert len(serialize._ROW_TEXTS) == CACHE_SIZE
        # more distinct rows than it holds went through the row cache
        info = conditions._pair_row.cache_info()
        assert info.misses > info.maxsize == info.currsize


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
        with pytest.raises(InvalidSubsetError, match="^subset indices are 1-based$"):
            SubsetSelector((0, 1))
        with pytest.raises(InvalidSubsetError):
            cond_iii_subset((1, -1), (1, 3))

    @pytest.mark.parametrize(
        "indices, bad",
        [((1.9, 2.5), 1.9), ((1, 2.0), 2.0), (("1", "2"), "1"), ((1, True), True), ((False,), False)],
    )
    def test_subset_indices_must_be_ints(self, indices, bad):
        message = f"subset entries must be ints, got {bad!r}"
        with pytest.raises(TypeError, match=re.escape(message)):
            SubsetSelector(indices)
        with pytest.raises(TypeError, match=re.escape(message)):
            cond_iii_subset((1, -1, 2), indices)

    def test_a_non_sequence_argument_is_named(self):
        with pytest.raises(TypeError, match=r"^order vector must be a sequence of ints, got 5$"):
            cond_i(5)
        with pytest.raises(TypeError, match=r"^subset must be a sequence of ints, got 5$"):
            cond_iii_subset((1, -1), 5)


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

    def test_failing_subset_matches_search(self):
        for r in range(2, 6):
            for v in itertools.product(range(-2, 3), repeat=r):
                assert cond_ii_prime(v)[1] == ii_prime_failing_search(v), v


class TestCheckInstance:
    def test_motivating_example(self):
        rep = check_instance(Instance((1, 1), (1, -1)))
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
        rep = check_instance(Instance((1, 1, 2), (0, 0, 0)))
        assert rep.cond_i and rep.cond_ii and rep.cond_iii and rep.cond_ii_prime
        assert rep.equivalence_ok is True

    def test_inadmissible_example(self):
        rep = check_instance(Instance((1, 1), (0, -1)))
        assert rep.admissible is False
        assert rep.equivalence_ok is None
        assert rep.hilbert_size == 1  # basis still computed and recorded

    def test_rank_one_report(self):
        rep = check_instance(Instance((1,), (2,)))
        assert rep.cond_ii_prime is None
        assert rep.cond_iii is False
        assert rep.equivalence_ok is None
        assert rep.cond_ii_pairs == ()

    def test_cond_i_forces_unit_basis(self):
        for v in itertools.product(range(0, 3), repeat=3):
            rep = check_instance(Instance((1, 1, 1), v))
            assert rep.cond_i and rep.factorial
            assert all(sum(e) == 1 for e in rep.hilbert_elements)

    def test_pair_table_is_complete(self):
        rep = check_instance(Instance((1, 1, 2), (1, -1, 0)))
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
            rep = check_instance(Instance(d, v))
            rep_p = check_instance(
                Instance(
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
