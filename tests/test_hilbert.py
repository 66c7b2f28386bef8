"""Hilbert engines: both basis algorithms, factorization counting and
non-uniqueness witnesses, with the brute-force irreducibility, lattice and
adjoined-irreducibles checks and the full-scan frontier from conftest they
are tested against, and the Hermite reduction behind the lattice check."""

from __future__ import annotations

import gc
import itertools
import pickle
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Matrix
from sympy.matrices.normalforms import (
    hermite_normal_form as sympy_hnf,
    smith_normal_form,
)

from artinhol import (
    FactorizationCount,
    HilbertBasis,
    count_factorizations,
    factorial_closed_form,
    hilbert_basis_frontier,
    hilbert_basis_oracle,
    is_member_hol,
    nonuniqueness_witness,
)
from artinhol import conditions, hilbert
from artinhol.conditions import cross_checked_basis
from artinhol.errors import (
    CapExceededError,
    LengthMismatchError,
    NoRelationError,
    NotInHolError,
)
from conftest import (
    adjoined_irreducibles,
    brute_count_factorizations,
    brute_factorizations,
    brute_hilbert_basis,
    dot,
    full_scan_frontier,
    hnf_with_transform,
    is_irreducible,
    lattice_is_full,
    row_lattice_is_unimodular,
    shared_memo,
    spy_searches,
)


def _obeys_region(h, v) -> bool:
    """Lambert's three limits on an irreducible h of Hol(v), from v alone."""
    plus = max([1] + [-w for w in v if w < 0])
    minus = max([0] + [w for w in v if w > 0])
    return (
        sum(x for x, w in zip(h, v) if w > 0) <= plus
        and sum(x for x, w in zip(h, v) if w < 0) <= minus
        and all(x <= 1 for x, w in zip(h, v) if w == 0)
    )


class TestIsIrreducible:
    def test_derived_examples(self):
        # (1,1) at v=(1,-1): only split is (1,0)+(0,1), and (0,1) leaves Hol
        assert is_irreducible((1, 1), (1, -1)) is True
        # (2,1) = (1,0)+(1,1), both in Hol
        assert is_irreducible((2, 1), (1, -1)) is False
        assert is_irreducible((3, 2), (2, -3)) is True

    def test_against_brute_force(self):
        v = (2, -3)
        base = set(brute_hilbert_basis(v, 6))
        for k in itertools.product(range(4), repeat=2):
            if any(k) and dot(k, v) >= 0:
                assert is_irreducible(k, v) is (k in base)

    def test_errors(self):
        with pytest.raises(NotInHolError):
            is_irreducible((0, 1), (1, -1))
        with pytest.raises(ValueError, match="identity"):
            is_irreducible((0, 0), (1, -1))


class TestOracleEngine:
    def test_known_values(self):
        assert hilbert_basis_oracle((1, 1)).elements == ((0, 1), (1, 0))
        assert hilbert_basis_oracle((1, -1)).elements == ((1, 0), (1, 1))
        assert hilbert_basis_oracle((2, -3)).elements == ((1, 0), (2, 1), (3, 2))
        assert hilbert_basis_oracle((0, -1)).elements == ((1, 0),)

    def test_matches_brute_force(self):
        # rank 4 brings vectors with two zero orders and with a common factor
        for v in itertools.chain(
            itertools.product(range(-3, 4), repeat=2),
            itertools.product(range(-2, 3), repeat=3),
            itertools.product(range(-2, 3), repeat=4),
        ):
            expect = brute_hilbert_basis(v, max(1, max(abs(x) for x in v)))
            assert list(hilbert_basis_oracle(v).elements) == expect, v
            assert list(hilbert_basis_frontier(v).elements) == expect, v

    def test_completeness_bound_is_not_truncating(self):
        # enlarging the enumeration box past B must not add basis elements
        for v in itertools.product(range(-3, 4), repeat=2):
            bound = max(1, max(abs(x) for x in v))
            assert brute_hilbert_basis(v, bound + 2) == brute_hilbert_basis(v, bound)

    def test_engine_tag(self):
        assert hilbert_basis_oracle((1, -1)).source_engine == "oracle"

    def test_enumeration_cap(self):
        # coprime orders, so dividing by the gcd leaves the region over the cap
        with pytest.raises(CapExceededError):
            hilbert_basis_oracle((10**6, -(10**6), 10**6 - 1))


class TestFrontierEngine:
    def test_known_values(self):
        assert hilbert_basis_frontier((1, -1)).elements == ((1, 0), (1, 1))
        assert hilbert_basis_frontier((1, -1, 0)).elements == (
            (0, 0, 1),
            (1, 0, 0),
            (1, 1, 0),
        )
        assert (
            hilbert_basis_frontier((3, -2)).elements
            == hilbert_basis_oracle((3, -2)).elements
        )

    def test_common_factor_is_divided_out(self):
        # Hol(v) = Hol(v / gcd(v)); undivided, the frontier would run about
        # 2e6 levels and the oracle's region would exceed the cap
        v = (10**6, -(10**6), 10**6)
        expect = hilbert_basis_oracle((1, -1, 1)).elements
        assert hilbert_basis_frontier(v).elements == expect
        assert hilbert_basis_oracle(v).elements == expect

    def test_all_zero_orders(self):
        assert hilbert_basis_frontier((0, 0, 0)).elements == (
            (0, 0, 1),
            (0, 1, 0),
            (1, 0, 0),
        )

    def test_rank_one(self):
        assert hilbert_basis_frontier((4,)).elements == ((1,),)
        assert hilbert_basis_frontier((-2,)).elements == ()
        assert hilbert_basis_oracle((-2,)).elements == ()

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 5).flatmap(
            lambda r: st.lists(st.integers(-6, 6), min_size=r, max_size=r)
        )
    )
    def test_engines_agree(self, v):
        a = hilbert_basis_oracle(v)
        b = hilbert_basis_frontier(v)
        assert a.elements == b.elements
        assert all(_obeys_region(h, v) for h in b.elements)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(-25, 25), min_size=2, max_size=3))
    def test_engines_agree_on_deep_searches(self, v):
        # orders up to 25 make b+ + b-, and with it the depth, up to 50
        assert hilbert_basis_frontier(v).elements == hilbert_basis_oracle(v).elements

    @pytest.mark.parametrize(
        "v, size", [((40, -63, 17, -29), 684), ((1,) * 150 + (-1,), 300)]
    )
    def test_deep_and_wide_searches(self, v, size):
        # a deep search (b+ + b- = 103) and a wide one (300 elements at rank 151)
        basis = hilbert_basis_frontier(v)
        assert len(basis) == size
        assert basis.elements == hilbert_basis_oracle(v).elements

    def test_explores_the_nodes_of_the_full_scan(self, monkeypatch):
        # The cap is consulted as each node past the unit vectors is added,
        # so a search that adds one passes at a cap of its node count N and
        # is refused at N - 1; the indexed pruning must prune exactly what
        # a scan of every minimal solution prunes.
        rng = random.Random(18)
        vectors = list(itertools.product(range(-3, 4), repeat=3)) + [
            tuple(rng.randint(-6, 6) for _ in range(rng.randint(4, 6)))
            for _ in range(100)
        ]
        deeper = 0
        for v in vectors:
            basis, nodes = full_scan_frontier(v)
            monkeypatch.setattr(hilbert, "ENUMERATION_CAP", nodes)
            assert hilbert_basis_frontier(v).elements == basis, v
            if nodes > sum(1 for x in v if x) + 1:  # past the unit vectors
                deeper += 1
                monkeypatch.setattr(hilbert, "ENUMERATION_CAP", nodes - 1)
                with pytest.raises(CapExceededError):
                    hilbert_basis_frontier(v)
        assert deeper == 373


class TestCompletenessRegion:
    """Both engines rely on Lambert's region; the brute-force basis does not."""

    def test_brute_force_bases_obey_the_limits(self):
        # the independent reference searches the whole box [0, B]^r
        for v in itertools.chain(
            itertools.product(range(-3, 4), repeat=2),
            itertools.product(range(-2, 3), repeat=3),
        ):
            for h in brute_hilbert_basis(v, max(1, max(abs(x) for x in v))):
                assert _obeys_region(h, v), (v, h)

    def test_engine_bases_obey_the_limits(self):
        for v in itertools.chain(
            itertools.product(range(-6, 7), repeat=2),
            itertools.product(range(-4, 5), repeat=3),
            itertools.product(range(-2, 3), repeat=4),
            TestBasisLaws.VECTORS,
        ):
            for h in hilbert_basis_frontier(v).elements:
                assert _obeys_region(h, v), (v, h)

    def test_points_count_the_region_exactly(self):
        # the engines search the region of the reduced vector c
        for v in itertools.chain(
            itertools.product(range(-3, 4), repeat=2),
            itertools.product(range(-2, 3), repeat=3),
        ):
            _, _, c = hilbert._nonzero_part(v)
            top = max([1] + [abs(x) for x in c])
            inside = sum(
                1
                for k in itertools.product(range(top + 1), repeat=len(c))
                if _obeys_region(k, c)
            )
            assert hilbert._region(c).points() == inside, v

    def test_region_far_inside_the_old_box(self):
        # the box [0, 25]^5 has 26^5 (about 11.9M) points, over the cap
        v = (3, -25, 2, -1, 1)
        assert 26**5 > hilbert.ENUMERATION_CAP
        assert hilbert._region(v).points() == 32_760
        basis = cross_checked_basis(v)
        assert len(basis) == 92
        assert all(_obeys_region(h, v) for h in basis.elements)

    def test_rank_is_not_bound_by_the_recursion_limit(self):
        # a one-point region (the identity) over 1500 nonzero orders, so the
        # walk runs deeper than the recursion limit
        v = (-1,) * 1500 + (0,)
        unit = (0,) * 1500 + (1,)
        assert hilbert._region(v).points() == 1
        assert hilbert_basis_oracle(v).elements == (unit,)
        assert hilbert_basis_frontier(v).elements == (unit,)

    def test_oracle_guard_counts_the_region(self):
        with pytest.raises(CapExceededError, match=r"region of 251503253001 points"):
            hilbert_basis_oracle((1000, -1000, 999, -998))

    def test_frontier_guard_caps_explored_nodes(self, monkeypatch):
        # (2, -3) explores 11 nodes: 3 unit vectors, then 2, 3, 2 and 1
        monkeypatch.setattr(hilbert, "ENUMERATION_CAP", 10)
        with pytest.raises(CapExceededError, match="cap of 10 nodes"):
            hilbert_basis_frontier((2, -3))
        monkeypatch.setattr(hilbert, "ENUMERATION_CAP", 11)
        assert hilbert_basis_frontier((2, -3)).elements == ((1, 0), (2, 1), (3, 2))


class TestCarriedBack:
    """conditions._carried maps the basis of a canonical vector back to the vector's."""

    @pytest.mark.parametrize(
        "v",
        [(3,), (0,), (-2,), (3, -2), (-2, 3), (0, -5), (2, -1, 2, -1), (1, 1, -1), (-3, 0, 3, 0)],
    )
    def test_matches_the_vector_s_own_basis(self, v):
        canon, perm = conditions.canonical_order(v)
        elements = hilbert_basis_oracle(canon).elements
        carried = conditions._carried(elements, perm)
        assert carried == hilbert_basis_oracle(v).elements
        # coordinate i of an element of Hol(canon) becomes coordinate perm[i]
        moved = []
        for h in elements:
            g = [None] * len(v)
            for i, x in enumerate(h):
                g[perm[i]] = x
            moved.append(tuple(g))
        assert carried == tuple(sorted(moved))

    def test_rank_one_keeps_its_tuples(self):
        assert conditions._carried(((1,),), (0,)) == ((1,),)
        assert conditions._carried((), (0,)) == ()

    def test_one_carrier_per_permutation(self):
        # a sweep carries many vectors through one permutation; its
        # itemgetter is built once, in a bounded cache
        carrier = conditions._carrier((1, 3, 0, 2))
        assert conditions._carrier(tuple([1, 3, 0, 2])) is carrier
        assert carrier((10, 11, 12, 13)) == (12, 10, 13, 11)

    def test_tied_entries_are_carried_in_order(self):
        # ties sort stably: (2, -1, 2, -1) has perm (1, 3, 0, 2)
        canon, perm = conditions.canonical_order((2, -1, 2, -1))
        assert (canon, perm) == ((-1, -1, 2, 2), (1, 3, 0, 2))
        assert conditions._carried(((0, 1, 0, 1), (2, 0, 1, 0)), perm) == (
            (0, 0, 1, 1),
            (1, 2, 0, 0),
        )


class TestBasisLaws:
    VECTORS = [
        (1, -1),
        (2, -3),
        (3, -2),
        (0, 0),
        (1, 1, -1),
        (1, -1, 0),
        (2, -1, -1),
        (-2, 3, 0),
        (1, 2, -3),
    ]

    def test_soundness(self):
        for v in self.VECTORS:
            for h in hilbert_basis_oracle(v).elements:
                assert is_member_hol(h, v)
                assert is_irreducible(h, v)

    def test_coordinate_bound(self):
        for v in self.VECTORS:
            bound = max(1, max(abs(x) for x in v))
            for h in hilbert_basis_oracle(v).elements:
                assert max(h) <= bound

    def test_unit_vector_law(self):
        for v in self.VECTORS:
            r = len(v)
            elems = set(hilbert_basis_oracle(v).elements)
            for j in range(r):
                e = tuple(int(i == j) for i in range(r))
                assert (e in elems) is (v[j] >= 0)

    def test_generation_on_box(self):
        for v in self.VECTORS:
            basis = hilbert_basis_oracle(v)
            r = len(v)
            for k in itertools.product(range(4), repeat=r):
                if dot(k, v) >= 0:
                    assert count_factorizations(k, basis).count >= 1

    def test_scaling_invariance(self):
        for v in self.VECTORS:
            base = hilbert_basis_oracle(v).elements
            for c in (2, 3):
                scaled = tuple(c * x for x in v)
                assert hilbert_basis_oracle(scaled).elements == base
                assert hilbert_basis_frontier(scaled).elements == base

    def test_permutation_equivariance(self):
        rng = random.Random(7)
        for v in self.VECTORS:
            r = len(v)
            perm = list(range(r))
            rng.shuffle(perm)
            pv = tuple(v[perm[j]] for j in range(r))
            base = hilbert_basis_oracle(v).elements
            expected = sorted(
                tuple(h[perm[j]] for j in range(r)) for h in base
            )
            assert list(hilbert_basis_oracle(pv).elements) == expected


    @pytest.mark.parametrize("elements", [((1.5, 0),), ((0, True), (1, 0)), (("1", 0),)])
    def test_entries_must_be_ints(self, elements):
        with pytest.raises(TypeError, match="basis element entries must be ints"):
            HilbertBasis(elements, "oracle")
        assert HilbertBasis(((1, 0),), "frontier").elements == ((1, 0),)

    @pytest.mark.parametrize(
        "elements, engine, message",
        [
            (((1, 0),), "lattice", "unknown engine tag 'lattice'"),
            (((1, 0), (0, 0)), "oracle", "basis elements must be nonzero with entries >= 0"),
            (((2, -1),), "frontier", "basis elements must be nonzero with entries >= 0"),
            (((0, 1), (1, 0, 0)), "oracle", "basis elements must share one rank"),
            (((1, 0), (0, 1)), "oracle", "basis elements must be lex-sorted and duplicate-free"),
            (((0, 1), (0, 1)), "oracle", "basis elements must be lex-sorted and duplicate-free"),
        ],
    )
    def test_malformed_bases_are_refused(self, elements, engine, message):
        with pytest.raises(ValueError) as err:
            HilbertBasis(elements, engine)
        assert str(err.value) == message


class TestCountFactorizations:
    def test_unique_example(self):
        basis = hilbert_basis_oracle((1, -1))
        fc = count_factorizations((3, 2), basis)
        assert fc.count == 1
        # 1*(1,0) + 2*(1,1)
        assert fc.witnesses == ((1, 2),)
        assert brute_count_factorizations((3, 2), basis.elements) == 1

    def test_double_example(self):
        basis = hilbert_basis_oracle((2, -3))
        fc = count_factorizations((4, 2), basis)
        assert fc.count == 2
        assert len(fc.witnesses) == 2
        for w in fc.witnesses:
            total = [0, 0]
            for c, h in zip(w, basis.elements):
                total[0] += c * h[0]
                total[1] += c * h[1]
            assert tuple(total) == (4, 2)
        assert brute_count_factorizations((4, 2), basis.elements) == 2

    def test_identity_counts_once(self):
        for v in [(1, -1), (2, -3), (0, 0)]:
            fc = count_factorizations((0, 0), hilbert_basis_oracle(v))
            assert fc.count == 1
            assert fc.witnesses[0] == (0,) * len(fc.witnesses[0])

    def test_not_in_hol(self):
        with pytest.raises(NotInHolError):
            count_factorizations((0, 1), hilbert_basis_oracle((1, -1)))

    def test_cap_validation(self):
        with pytest.raises(ValueError):
            count_factorizations((0, 0), hilbert_basis_oracle((1, -1)), cap=1)

    @pytest.mark.parametrize("cap", [2.5, 2.0, True, "2", None])
    def test_cap_must_be_an_int(self, cap):
        basis = hilbert_basis_oracle((2, -3))
        with pytest.raises(TypeError, match=f"cap must be an int, got {cap!r}$"):
            count_factorizations((8, 4), basis, cap=cap)
        assert shared_memo(basis) == []

    def test_search_over_the_bound_is_refused_before_it_starts(self):
        # Over (1, 0), (1, 1) the element (N, N) takes about N^2 / 2 steps
        # and the bound is (N + 1) + (N + 1)^2.
        basis = hilbert_basis_oracle((1, -1))
        with pytest.raises(
            CapExceededError,
            match=r"of \(10000, 10000\) may take 100030002 steps, over the enumeration cap",
        ):
            count_factorizations((10000, 10000), basis)
        assert not any(shared_memo(basis))
        # 200 is over the threshold, 169, and the bound, 40602, admits it
        assert count_factorizations((200, 200), basis).count == 1

    def test_search_bound_sums_states_times_steps_per_position(self):
        # Over (1, 0), (1, 1): one state of (1, 0) taking k_1 + 1 steps,
        # then up to k_1 + 1 states of (1, 1), each taking min(k) + 1.
        elements = hilbert_basis_oracle((1, -1)).elements
        assert hilbert._search_bound((20, 20), elements) == (1 + 21, 21 + 21 * 21)
        assert hilbert._search_bound((20, 5), elements) == (1 + 21, 21 + 21 * 6)

    def test_search_that_may_keep_too_many_states_is_refused_before_it_starts(
        self, monkeypatch
    ):
        # Over (1, 0), (1, 1) the element (N, 0) takes 2N + 2 steps, well
        # under the enumeration cap, but may keep N + 2 states, one memo
        # entry each.
        basis = hilbert_basis_oracle((1, -1))
        calls = spy_searches(monkeypatch)
        with pytest.raises(CapExceededError) as err:
            count_factorizations((1000000, 0), basis)
        assert str(err.value) == (
            "factorization search of (1000000, 0) may keep 1000002 states, "
            "over the state cap 1000000"
        )
        assert calls == [] and not any(shared_memo(basis))
        # over the threshold, 169: a private memo
        assert count_factorizations((100000, 0), basis).count == 1
        memo = calls[0][5]
        assert all(call[5] is memo for call in calls) and memo is not shared_memo(basis)
        assert sum(map(len, memo)) == 100001

    def test_threshold_keeps_the_states_within_their_cap(self):
        # m = 2, r = 6: the steps alone would admit t = 8, as
        # 2 * 9^7 <= ENUMERATION_CAP, but 2 * 9^6 > ENUMERATION_CAP // 10.
        basis = HilbertBasis(((0, 0, 0, 0, 0, 1), (1, 1, 1, 1, 1, 0)), "oracle")
        assert hilbert._factor_tables(basis).threshold == 7

    def test_guard_asks_the_bound_only_above_the_threshold(self, monkeypatch):
        # Over (1, 0), (1, 1): m = 2, r = 2, and the threshold is 169, the
        # largest t with 2 * (t + 1)^3 <= ENUMERATION_CAP < 2 * 171^3.
        basis = hilbert_basis_oracle((1, -1))
        bound, asked = hilbert._search_bound, []

        def refuse(k, elements):
            raise AssertionError(f"bound asked for {k}")

        def spy(k, elements):
            asked.append(k)
            return bound(k, elements)

        monkeypatch.setattr(hilbert, "_search_bound", refuse)
        assert count_factorizations((169, 169), basis).count == 1
        assert hilbert._factor_tables(basis).threshold == 169
        # above it the bound decides, and admits both
        monkeypatch.setattr(hilbert, "_search_bound", spy)
        assert count_factorizations((170, 0), basis).count == 1
        assert count_factorizations((170, 170), basis).count == 1
        assert asked == [(170, 0), (170, 170)]

    @pytest.mark.parametrize(
        "v, k",
        [
            ((1, -1), (20, 20)),
            ((-1, 38), (5, 5)),
            ((10, -1, 10), (5, 3, 5)),
            ((3, -5, 2, -1), (6, 3, 3, 5)),
        ],
    )
    def test_cold_search_stays_within_its_bound(self, v, k, monkeypatch):
        # An iteration is a descent to a child, a multiplicity c >= 1 tried
        # or the c = 0 step out of a visited state, which leaves one memo
        # entry; each descent makes one dead test, as the first state
        # does.  The last three searches step over many positions whose
        # element does not divide.
        calls = spy_searches(monkeypatch)
        basis = hilbert_basis_oracle(v)
        count_factorizations(k, basis, cap=10**6)
        [(_, _, _, dead, _, memo, _)] = calls  # a cap other than 2: a private memo
        assert not any(shared_memo(basis))
        states, steps = hilbert._search_bound(k, basis.elements)
        assert sum(map(len, memo)) <= states
        iterations = dead.lookups - 1
        assert sum(map(len, memo)) < iterations <= steps

    def test_result_is_a_plain_record(self):
        # (4, 2) over (1, 0), (2, 1), (3, 2): (1, 0) + (3, 2) and 2 * (2, 1)
        fc = count_factorizations((4, 2), hilbert_basis_oracle((2, -3)))
        assert FactorizationCount._fields == ("element", "count", "witnesses")
        assert fc == FactorizationCount((4, 2), 2, ((1, 0, 1), (0, 2, 0)))
        assert fc == FactorizationCount(witnesses=((1, 0, 1), (0, 2, 0)), count=2, element=(4, 2))
        assert fc == ((4, 2), 2, ((1, 0, 1), (0, 2, 0)))
        assert (fc.element, fc.count, fc.witnesses) == tuple(fc)
        with pytest.raises(AttributeError):
            fc.count = 1
        assert repr(fc) == (
            "FactorizationCount(element=(4, 2), count=2, witnesses=((1, 0, 1), (0, 2, 0)))"
        )

    def test_cap_saturates(self):
        basis = hilbert_basis_oracle((1, 1))
        # (2,2) factors as units in exactly one way... use a redundant basis
        rich = HilbertBasis(((0, 1), (1, 0), (1, 1)), "oracle")
        fc = count_factorizations((2, 2), rich, cap=2)
        assert fc.count == 2
        assert brute_count_factorizations((2, 2), rich.elements) >= 2
        assert count_factorizations((2, 2), basis).count == 1


class TestFactorizationMemo:
    """count_factorizations memoizes its search states on the basis."""

    @staticmethod
    def _outcome(k, basis, cap):
        try:
            fc = count_factorizations(k, basis, cap=cap)
        except NotInHolError:
            return None
        return fc.element, fc.count, fc.witnesses

    def test_shared_memo_matches_cold_bases(self):
        rng, order = random.Random(11), random.Random(12)
        # Bounds keep the brute-force count, which tries every coefficient
        # vector, to a fraction of a second per basis.
        for r, bound in ((2, 5), (3, 3), (4, 2)):
            drawn = 0
            while drawn < 5:
                v = tuple(rng.randint(-bound, bound) for _ in range(r))
                if min(v) >= 0 or max(v) <= 0:
                    continue  # one-signed bases are units or empty
                drawn += 1
                warm = hilbert_basis_oracle(v)
                box = list(itertools.product(range(4), repeat=r))
                brute = {k: brute_count_factorizations(k, warm.elements) for k in box}
                calls = [(k, cap) for k in box for cap in (2, 3, 5)]
                order.shuffle(calls)
                for k, cap in calls:
                    cold = HilbertBasis(warm.elements, warm.source_engine)
                    got = self._outcome(k, warm, cap)
                    assert got == self._outcome(k, cold, cap), (v, k, cap)
                    assert (got[1] if got else 0) == min(brute[k], cap), (v, k, cap)
                    assert not got or len(got[2]) == min(got[1], 2)

    def test_positions_stepped_over_keep_an_entry(self):
        # Over (1, 0), (2, 1), (3, 2), in the 9-bit fields of the threshold
        # 148 with guards 1 << 8 | 1 << 17, no element after the first
        # divides (1, 0), (2, 0) or (3, 0).  A visit leaves an entry also
        # where it only steps over a position, so no state is walked twice,
        # as _search_bound's proof requires.
        basis = hilbert_basis_oracle((2, -3))
        assert count_factorizations((3, 0), basis).witnesses == ((3, 0, 0),)
        memo = shared_memo(basis)
        rem = {k: hilbert._pack(k, 9) | 1 << 8 | 1 << 17 for k in ((1, 0), (2, 0), (3, 0))}
        assert memo[0] == {rem[3, 0]: (1, ((0, 3, None),))}  # a cons cell: 3 * h_0
        assert memo[1] == memo[2] == dict.fromkeys(rem.values(), (0, ()))

    def test_counts_and_witnesses_match_every_factorization(self):
        # brute_factorizations lists every factorization, so the count must
        # be min(#factorizations, cap) and the witnesses the two lex-largest.
        # Entries of 8, 15, 16 and 40 need wider fields than the box
        # [0, 3]^r: one warm basis serves several widths, in shuffled order.
        rng, order = random.Random(21), random.Random(22)
        for r, bound in ((2, 5), (3, 3), (4, 2)):
            drawn = 0
            while drawn < 3:
                v = tuple(rng.randint(-bound, bound) for _ in range(r))
                if min(v) >= 0 or max(v) <= 0:
                    continue  # one-signed bases are units or empty
                drawn += 1
                warm = hilbert_basis_oracle(v)
                ks = list(itertools.product(range(4), repeat=r))
                for big in (8, 15, 16, 40):
                    for _ in range(2):
                        k = [rng.randint(0, 1) for _ in range(r)]
                        k[rng.randrange(r)] = big
                        ks.append(tuple(k))
                every = {k: brute_factorizations(k, warm.elements)[::-1] for k in ks}
                calls = [(k, cap) for k in ks for cap in (2, 3, 5)]
                order.shuffle(calls)
                for k, cap in calls:
                    found = every[k]
                    want = (k, min(len(found), cap), tuple(found[:2])) if found else None
                    assert self._outcome(k, warm, cap) == want, (v, k, cap)
                    cold = HilbertBasis(warm.elements, warm.source_engine)
                    assert self._outcome(k, cold, cap) == want, (v, k, cap)

    def test_huge_cap_keeps_two_witnesses(self, monkeypatch):
        rich = HilbertBasis(((0, 1), (1, 0), (1, 1)), "oracle")
        calls = spy_searches(monkeypatch)
        fc = count_factorizations((20, 20), rich, cap=10**6)
        assert fc.count == brute_count_factorizations((20, 20), rich.elements) == 21
        assert fc.witnesses == ((20, 20, 0), (19, 19, 1))  # largest multiplicities first
        memo = calls[0][5]  # a cap other than 2: a private memo
        assert not any(shared_memo(rich))
        assert max(len(ws) for seen in memo for _, ws in seen.values()) == 2

    def test_memo_dies_with_its_basis(self):
        gc.collect()
        gc.disable()
        try:
            basis = hilbert_basis_oracle((3, -2, 2))
            for k in itertools.product(range(4), repeat=3):
                if dot(k, (3, -2, 2)) >= 0:
                    for cap in (2, 3):  # the shared memo, then a private one
                        count_factorizations(k, basis, cap=cap)
            assert any(shared_memo(basis))
            ref = weakref.ref(basis)
            del basis
            assert ref() is None
            assert gc.collect() == 0  # the searches left no reference cycles
        finally:
            gc.enable()

    def test_warm_basis_equals_a_fresh_one(self):
        warm = hilbert_basis_oracle((2, -3, 1))
        for k in itertools.product(range(4), repeat=3):
            if dot(k, (2, -3, 1)) >= 0:
                count_factorizations(k, warm)
        fresh = hilbert_basis_oracle((2, -3, 1))
        assert any(shared_memo(warm)) and shared_memo(fresh) == []
        assert warm._factor_tables is not None and fresh._factor_tables is None
        assert warm == fresh and hash(warm) == hash(fresh)
        assert repr(warm) == repr(fresh)
        back = pickle.loads(pickle.dumps(warm))
        assert back == fresh and hash(back) == hash(fresh)
        assert back._factor_tables is None  # the tables are not pickled
        assert self._outcome((3, 2, 1), back, 2) == self._outcome((3, 2, 1), fresh, 2)

    def test_tables_are_built_once_per_basis(self, monkeypatch):
        basis = hilbert_basis_oracle((2, -3))
        assert basis._factor_tables is None
        count_factorizations((4, 2), basis)
        tables = basis._factor_tables
        # (1, 0), (2, 1), (3, 2): 148 is the largest t with
        # 3 * (t + 1)^3 <= ENUMERATION_CAP, and 9 bits hold 148 and its guard
        assert tables[:2] == (148, 9)
        # guards 0x20100, the elements packed, and a dead mask only past the
        # last element, where no element has coordinate 0 or 1
        assert tables.packing == (0x20100, (0x001, 0x202, 0x403), (0, 0, 0, 0x1FEFF))
        packing, memo = tables.packing, tables.memo
        pack, widths = hilbert._pack_tables, []

        def spy(elems, w):
            widths.append(w)
            return pack(elems, w)

        monkeypatch.setattr(hilbert, "_pack_tables", spy)
        for k in [*itertools.product(range(5), repeat=2), (256, 0)]:
            for cap in (2, 3):
                if dot(k, (2, -3)) >= 0:
                    count_factorizations(k, basis, cap=cap)
        assert widths == [10, 10]  # only (256, 0), over 148 and 9 bits, packs anew
        assert basis._factor_tables is tables
        assert tables.packing is packing and tables.memo is memo
        assert HilbertBasis(basis.elements, "oracle")._factor_tables is None

    def test_dead_masks_cover_the_fields_no_later_element_has(self):
        # dead[i] holds the value bits, and only those, of every coordinate
        # that no element from position i on has, at any width that holds
        # the entries.
        rng = random.Random(31)
        for _ in range(200):
            r = rng.randint(1, 5)
            v = tuple(rng.randint(-4, 4) for _ in range(r))
            elems = hilbert_basis_oracle(v).elements
            if not elems:
                continue
            for w in range(max(map(max, elems)).bit_length() + 1, 12):
                low = (1 << w - 1) - 1
                dead = hilbert._pack_tables(elems, w)[2]
                assert len(dead) == len(elems) + 1
                for i, mask in enumerate(dead):
                    fields = [low if not any(h[j] for h in elems[i:]) else 0 for j in range(r)]
                    assert mask == hilbert._pack(fields, w), (v, w, i)

    def test_packing_shifts_only_the_nonzero_fields_and_equals_the_field_loop(self):
        # The loop _pack replaced shifted every field into a growing int.
        def field_loop(xs, w):
            n = 0
            for x in reversed(xs):
                n = n << w | x
            return n

        rng = random.Random(62)
        for _ in range(300):
            r, w = rng.randint(1, 40), rng.randint(2, 20)
            elems = sorted({
                tuple(rng.choice((0, 0, rng.randrange(1 << w - 1))) for _ in range(r))
                for _ in range(rng.randint(1, 8))
            } - {(0,) * r})
            if not elems:
                continue
            guards, packed, _ = hilbert._pack_tables(elems, w)
            assert guards == field_loop([1 << w - 1] * r, w)
            assert packed == tuple(field_loop(h, w) for h in elems)
        # the units of 2,000 zero orders: one shift each
        units = hilbert_basis_oracle((0,) * 2000).elements
        shifts = []

        class Counted(int):
            def __lshift__(self, other):
                shifts.append(other)
                return int(self) << other

        hilbert._pack([Counted(x) for x in units[7]], 2)
        assert shifts == [2 * (2000 - 8)]

    @pytest.mark.parametrize("v, t", [((3, -2, 2), 6), ((2, -3), 17), ((1, -1, 2, -2), 3)])
    def test_shared_memo_stays_within_its_bound(self, v, t, monkeypatch):
        # With the caps cut to 20,000 steps and 2,000 states the thresholds
        # are small enough to factor every member of [0, t]^r.  A stored
        # state (i, rem) has rem <= t and rem_j = 0 wherever no element
        # from i on has coordinate j, which bounds the shared memo by
        # sum_i (t + 1)^(r - |uncovered_i|) <= m (t + 1)^r <= _STATE_CAP.
        monkeypatch.setattr(hilbert, "ENUMERATION_CAP", 20_000)
        monkeypatch.setattr(hilbert, "_STATE_CAP", 2_000)
        basis, r = hilbert_basis_oracle(v), len(v)
        for k in itertools.product(range(t + 1), repeat=r):
            if dot(k, v) >= 0:
                count_factorizations(k, basis)
        assert basis._factor_tables.threshold == t
        elems = basis.elements
        bound = 0
        for i in range(len(elems)):
            covered = {j for h in elems[i:] for j in range(r) if h[j]}
            bound += (t + 1) ** len(covered)
        assert sum(map(len, shared_memo(basis))) <= bound <= len(elems) * (t + 1) ** r <= 2_000

    def test_searches_off_the_shared_path_leave_its_memo_alone(self, monkeypatch):
        # A default-cap search at or under the threshold, 169, asks no bound
        # and packs no elements: it searches the shared memo with the
        # tables' packing.  Searches above the threshold, each keeping about
        # 10,000 states, ask the bound and pack at 15 bits, and they and a
        # cap other than 2 search private memos: none of them stays on the
        # basis once it returns.
        basis = hilbert_basis_oracle((1, -1))
        assert count_factorizations((100, 100), basis).count == 1
        tables = basis._factor_tables
        memo = shared_memo(basis)
        calls, bounds, widths = spy_searches(monkeypatch), [], []
        bound, pack = hilbert._search_bound, hilbert._pack_tables
        monkeypatch.setattr(
            hilbert, "_search_bound", lambda k, elems: bounds.append(k) or bound(k, elems)
        )
        monkeypatch.setattr(
            hilbert, "_pack_tables", lambda elems, w: widths.append(w) or pack(elems, w)
        )
        assert count_factorizations((169, 20), basis).count == 1
        [(_, _, packed, dead, guards, searched, cap)] = calls
        assert searched is memo and cap == 2 and (bounds, widths) == ([], [])
        assert (guards, packed, tuple(dead)) == tables.packing and packed is tables.packing[1]
        before = [dict(seen) for seen in memo]
        for y in range(6):
            assert count_factorizations((10000, y), basis).count == 1
        assert count_factorizations((100, 100), basis, cap=3).count == 1
        assert bounds == [(10000, y) for y in range(6)] and widths == [15] * 6
        private = [call[5] for call in calls[1:]]
        assert len(private) == 7 and len(set(map(id, private))) == 7
        assert all(seen is not memo for seen in private)
        assert basis._factor_tables is tables and shared_memo(basis) is memo
        assert memo == before

    def test_empty_basis_factors_only_the_identity(self):
        basis = hilbert_basis_oracle((-2, -1))
        assert len(basis) == 0
        fc = count_factorizations((0, 0), basis)
        assert (fc.count, fc.witnesses) == (1, ((),))
        with pytest.raises(NotInHolError):
            count_factorizations((0, 1), basis)
        assert basis._factor_tables is None and shared_memo(basis) == []

    def test_unit_basis_past_the_recursion_limit_factors_once(self):
        # 1,100 zero orders: the basis is the unit vectors, lex-sorted from
        # e_1099 down to e_0, and the search descends through every one.
        basis = hilbert_basis_oracle((0,) * 1100)
        fc = count_factorizations((1,) * 1100, basis)
        assert (fc.count, fc.witnesses) == (1, ((1,) * 1100,))

    def test_depth_does_not_grow_with_the_basis(self):
        # (1000, -1001) has 1001 irreducibles (1, 0), (2, 1), ..., (1001, 1000),
        # and the search steps over most of them, past the recursion limit.
        basis = hilbert_basis_oracle((1000, -1001))
        assert len(basis) == 1001
        for k in ((1, 0), (2, 1), (5, 0), (3, 2)):
            fc = count_factorizations(k, basis, cap=10**6)
            assert fc.count == brute_count_factorizations(k, basis.elements), k


class TestLattice:
    def test_examples(self):
        assert lattice_is_full(HilbertBasis(((1, 0), (1, 1)), "oracle"), 2) is True
        assert lattice_is_full(HilbertBasis(((1, 0),), "oracle"), 2) is False
        assert (
            lattice_is_full(HilbertBasis(((1, 0), (2, 1), (3, 2)), "oracle"), 2)
            is True
        )

    def test_against_smith_normal_form(self):
        # independent oracle: rows span Z^n iff the SNF has n unit invariants
        rng = random.Random(2024)
        for _ in range(60):
            m = rng.randint(1, 5)
            n = rng.randint(1, 4)
            rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
            if not any(any(row) for row in rows):
                continue
            snf = smith_normal_form(Matrix(rows))
            diag = [snf[i, i] for i in range(min(m, n))]
            full = m >= n and all(abs(d) == 1 for d in diag[:n]) and len(diag) >= n
            assert row_lattice_is_unimodular(rows, n) is full

    def test_hnf_transform_properties(self):
        rng = random.Random(99)
        for _ in range(80):
            m = rng.randint(1, 5)
            n = rng.randint(1, 4)
            rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
            H, U, pivots = hnf_with_transform(rows)
            # U @ A == H, exactly
            for i in range(m):
                for j in range(n):
                    assert sum(U[i][t] * rows[t][j] for t in range(m)) == H[i][j]
            # unimodularity of U
            assert abs(Matrix(U).det()) == 1
            # echelon: rows after the pivots vanish, pivots positive and
            # entries above them reduced
            for i in range(len(pivots), m):
                assert not any(H[i])
            for i, col in enumerate(pivots):
                p = H[i][col]
                assert p > 0
                for t in range(i):
                    assert 0 <= H[t][col] < p
            assert len(pivots) == Matrix(rows).rank()
            # canonical form is invariant under row shuffling
            shuffled = rows[:]
            rng.shuffle(shuffled)
            H2, _, _ = hnf_with_transform(shuffled)
            assert H2[: len(pivots)] == H[: len(pivots)]
            # sympy reduces the same lattice (other convention); running our
            # canonicalizer over its output must reproduce our form
            if any(any(row) for row in rows):
                theirs = [
                    [int(x) for x in r]
                    for r in sympy_hnf(Matrix(rows).T).T.tolist()
                ]
                H3, _, piv3 = hnf_with_transform(theirs)
                assert piv3 == pivots
                assert H3[: len(pivots)] == H[: len(pivots)]

    def test_kernel_rows_annihilate(self):
        rows = [[1, 0], [2, 1], [3, 2], [1, 1]]
        _, U, pivots = hnf_with_transform(rows)
        kernel = U[len(pivots):]
        assert len(kernel) == len(rows) - len(pivots) == 2
        for lam in kernel:
            assert all(
                sum(lam[i] * rows[i][j] for i in range(len(rows))) == 0
                for j in range(2)
            )


class TestFactorial:
    def test_examples(self):
        # factorial means exactly r irreducibles
        for v, factorial in (((1, -1), True), ((2, -3), False), ((0, 0, 0), True)):
            assert (len(hilbert_basis_oracle(v)) == len(v)) is factorial
            assert factorial_closed_form(v) is factorial


class TestNonuniquenessWitness:
    def test_known_relation(self):
        basis = HilbertBasis(((1, 0), (2, 1), (3, 2)), "oracle")
        w = nonuniqueness_witness(basis, 2)
        assert w == (4, 2)
        assert count_factorizations(w, basis).count == 2

    def test_not_applicable(self):
        assert nonuniqueness_witness(HilbertBasis(((1, 0), (1, 1)), "oracle"), 2) is None

    def test_three_generators(self):
        basis = hilbert_basis_oracle((1, 1, -1))
        assert len(basis.elements) > 3
        w = nonuniqueness_witness(basis, 3)
        assert w is not None
        assert count_factorizations(w, basis, cap=2).count == 2

    def test_every_nonfactorial_box_vector(self):
        seen = 0
        for r, bound in ((2, 5), (3, 3), (4, 2), (5, 1)):
            for v in itertools.product(range(-bound, bound + 1), repeat=r):
                if factorial_closed_form(v):
                    continue
                seen += 1
                basis = hilbert_basis_oracle(v)
                w = nonuniqueness_witness(basis, r)
                if len(basis) < r:  # a negative order and no positive one
                    assert w is None, v
                    continue
                assert is_member_hol(w, v), (v, w)
                fc = count_factorizations(w, basis, cap=2)
                assert fc.count == 2 and len(set(fc.witnesses)) == 2, (v, w)
                for coeffs in fc.witnesses:
                    product = [0] * r
                    for c, h in zip(coeffs, basis.elements):
                        product = [a + c * b for a, b in zip(product, h)]
                    assert tuple(product) == w, (v, w, coeffs)
        assert seen == 829

    def test_rank_must_match_the_basis(self):
        # (2, -3) is not factorial: its 3 elements have rank 2
        basis = hilbert_basis_oracle((2, -3))
        for r in (1, 5):
            with pytest.raises(LengthMismatchError, match=f"rank {r} given for a basis of rank 2"):
                nonuniqueness_witness(basis, r)
        assert nonuniqueness_witness(HilbertBasis((), "oracle"), 5) is None

    @pytest.mark.parametrize("r", [0, -1])
    def test_rank_must_be_at_least_one(self, r):
        for basis in (hilbert_basis_oracle((2, -3)), HilbertBasis((), "oracle")):
            with pytest.raises(ValueError) as err:
                nonuniqueness_witness(basis, r)
            assert str(err.value) == f"rank r must be >= 1, got {r}"

    @pytest.mark.parametrize("r", [True, 2.0, "2", None])
    def test_rank_must_be_an_int(self, r):
        for basis in (hilbert_basis_oracle((2, -3)), HilbertBasis((), "oracle")):
            with pytest.raises(TypeError, match=f"rank r must be an int, got {r!r}$"):
                nonuniqueness_witness(basis, r)

    def test_no_shared_coordinate_is_not_a_hol_basis(self):
        # (1,1) is no unit, yet it has no coordinate outside the units
        with pytest.raises(NoRelationError):
            nonuniqueness_witness(HilbertBasis(((0, 1), (1, 0), (1, 1)), "oracle"), 2)


class TestAdjoinedIrreducibles:
    def test_examples(self):
        assert adjoined_irreducibles((1, -1), 1) == ((1, 0), (1, 1))
        assert adjoined_irreducibles((2, -3), 1) == ((1, 0), (2, 1))
        assert adjoined_irreducibles((1, 0, -2), 1) == (
            (1, 0, 0),
            (0, 1, 0),
            (2, 0, 1),
        )

    def test_pivot_must_be_positive(self):
        with pytest.raises(ValueError, match="pivot order must be > 0"):
            adjoined_irreducibles((0, -1), 1)
        with pytest.raises(ValueError, match="pivot order must be > 0"):
            adjoined_irreducibles((1, -1), 2)

    def test_adjoined_set_law(self):
        # every adjoined element irreducible; equals the basis when factorial
        for v in itertools.product(range(-2, 3), repeat=3):
            basis = hilbert_basis_oracle(v)
            for k0 in range(3):
                if v[k0] > 0:
                    adjoined = adjoined_irreducibles(v, k0 + 1)
                    for h in adjoined:
                        assert is_irreducible(h, v)
                    if len(basis) == 3:
                        assert sorted(adjoined) == list(basis.elements)
