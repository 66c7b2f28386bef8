"""Hilbert engines: both basis algorithms, factorization counting and
non-uniqueness witnesses, with the brute-force irreducibility, lattice and
adjoined-irreducibles checks from conftest they are tested against, and
the Hermite reduction behind the lattice check."""

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
    HilbertBasis,
    count_factorizations,
    factorial_closed_form,
    hilbert_basis_frontier,
    hilbert_basis_oracle,
    is_member_hol,
    nonuniqueness_witness,
)
from artinhol import hilbert
from artinhol.conditions import cross_checked_basis
from artinhol.errors import CapExceededError, NoRelationError, NotInHolError
from conftest import (
    adjoined_irreducibles,
    brute_count_factorizations,
    brute_hilbert_basis,
    dot,
    hnf_with_transform,
    is_irreducible,
    lattice_is_full,
    row_lattice_is_unimodular,
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
        for v in itertools.chain(
            itertools.product(range(-3, 4), repeat=2),
            itertools.product(range(-2, 3), repeat=3),
        ):
            expect = brute_hilbert_basis(v, max(1, max(abs(x) for x in v)))
            assert list(hilbert_basis_oracle(v).elements) == expect

    def test_completeness_bound_is_not_truncating(self):
        # enlarging the enumeration box past B must not add basis elements
        for v in itertools.product(range(-3, 4), repeat=2):
            bound = max(1, max(abs(x) for x in v))
            assert brute_hilbert_basis(v, bound + 2) == brute_hilbert_basis(v, bound)

    def test_engine_tag(self):
        assert hilbert_basis_oracle((1, -1)).source_engine == "oracle"

    def test_enumeration_cap(self):
        with pytest.raises(CapExceededError):
            hilbert_basis_oracle((10**6, -(10**6), 10**6))


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
        # Hol(v) = Hol(v / gcd(v)); undivided, this search runs about 2e6 levels
        assert (
            hilbert_basis_frontier((10**6, -(10**6), 10**6)).elements
            == hilbert_basis_oracle((1, -1, 1)).elements
        )

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
        for v in itertools.chain(
            itertools.product(range(-3, 4), repeat=2),
            itertools.product(range(-2, 3), repeat=3),
        ):
            top = max(1, max(abs(x) for x in v))
            inside = sum(
                1
                for k in itertools.product(range(top + 1), repeat=len(v))
                if _obeys_region(k, v)
            )
            assert hilbert._region(v).points() == inside, v

    def test_region_far_inside_the_old_box(self):
        # the box [0, 25]^5 has 26^5 (about 11.9M) points, over the cap
        v = (3, -25, 2, -1, 1)
        assert 26**5 > hilbert.ENUMERATION_CAP
        assert hilbert._region(v).points() == 32_760
        basis = cross_checked_basis(v)
        assert len(basis) == 92
        assert all(_obeys_region(h, v) for h in basis.elements)

    def test_rank_is_not_bound_by_the_recursion_limit(self):
        # a two-point region at rank 1501, deeper than the recursion limit
        v = (-1,) * 1500 + (0,)
        unit = (0,) * 1500 + (1,)
        assert hilbert._region(v).points() == 2
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

    def test_search_over_the_bound_is_refused_before_it_starts(self):
        # Over (1, 0), (1, 1) the element (N, N) takes about N^2 / 2 steps
        # and the bound is (N + 1) + (N + 1)^2.
        basis = hilbert_basis_oracle((1, -1))
        with pytest.raises(
            CapExceededError,
            match=r"of \(10000, 10000\) may take 100030002 steps, over the enumeration cap",
        ):
            count_factorizations((10000, 10000), basis)
        assert basis._factor_memo == {}
        # the product bound 2 * 201^3 is over the cap; the sum is 40602
        assert count_factorizations((200, 200), basis).count == 1

    def test_search_bound_sums_states_times_steps_per_position(self):
        # Over (1, 0), (1, 1): one state of (1, 0) taking k_1 + 1 steps,
        # then up to k_1 + 1 states of (1, 1), each taking min(k) + 1.
        tables = hilbert._factor_tables(hilbert_basis_oracle((1, -1)))
        assert hilbert._search_bound((20, 20), *tables) == 21 + 21 * 21
        assert hilbert._search_bound((20, 5), *tables) == 21 + 21 * 6

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

    def test_huge_cap_keeps_two_witnesses(self):
        rich = HilbertBasis(((0, 1), (1, 0), (1, 1)), "oracle")
        fc = count_factorizations((20, 20), rich, cap=10**6)
        assert fc.count == brute_count_factorizations((20, 20), rich.elements) == 21
        assert fc.witnesses == ((20, 20, 0), (19, 19, 1))  # largest multiplicities first
        states = rich._factor_memo[10**6].values()
        assert max(len(ws) for _, ws in states) == 2

    def test_memo_dies_with_its_basis(self):
        gc.collect()
        gc.disable()
        try:
            basis = hilbert_basis_oracle((3, -2, 2))
            for k in itertools.product(range(4), repeat=3):
                if dot(k, (3, -2, 2)) >= 0:
                    count_factorizations(k, basis, cap=3)
            assert basis._factor_memo[3] and basis._factor_tables
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
        assert warm._factor_memo and not fresh._factor_memo
        assert warm._factor_tables is not None and fresh._factor_tables is None
        assert warm == fresh and hash(warm) == hash(fresh)
        assert repr(warm) == repr(fresh)
        back = pickle.loads(pickle.dumps(warm))
        assert back == fresh and hash(back) == hash(fresh)
        assert self._outcome((3, 2, 1), back, 2) == self._outcome((3, 2, 1), fresh, 2)

    def test_tables_are_built_once_per_basis(self):
        basis = hilbert_basis_oracle((2, -3))
        assert basis._factor_tables is None
        count_factorizations((4, 2), basis)
        tables = basis._factor_tables
        # supports as (j, h_j) pairs; uncovered[i]: coordinates that no
        # element from position i on can reduce
        assert tables == (
            (((0, 1),), ((0, 2), (1, 1)), ((0, 3), (1, 2))),
            ((), (), (), (0, 1)),
        )
        for k in itertools.product(range(5), repeat=2):
            for cap in (2, 3):
                if dot(k, (2, -3)) >= 0:
                    count_factorizations(k, basis, cap=cap)
        assert basis._factor_tables is tables
        assert HilbertBasis(basis.elements, "oracle")._factor_tables is None

    def test_empty_basis_factors_only_the_identity(self):
        basis = hilbert_basis_oracle((-2, -1))
        assert len(basis) == 0
        fc = count_factorizations((0, 0), basis)
        assert (fc.count, fc.witnesses) == (1, ((),))
        with pytest.raises(NotInHolError):
            count_factorizations((0, 1), basis)
        assert basis._factor_tables is None and not basis._factor_memo

    def test_depth_does_not_grow_with_the_basis(self):
        # (1000, -1001) has 1001 irreducibles (1, 0), (2, 1), ..., (1001, 1000);
        # a search that recursed once per basis position overflowed the stack.
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
