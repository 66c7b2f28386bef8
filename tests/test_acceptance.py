"""Acceptance gate: every shipped criterion, at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion.  The sweep families are computed once per session and shared.
"""

from __future__ import annotations

import itertools
import json
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from artinhol import (
    DegreeVector,
    HilbertBasis,
    Instance,
    SweepPlan,
    catalog_groups,
    check_instance,
    cond_ii_pair,
    cond_iii_subset,
    count_factorizations,
    enumerate_order_vectors,
    hilbert_basis_frontier,
    hilbert_basis_oracle,
    is_member_hol,
    lattice_is_full,
    nonuniqueness_witness,
    run_sweep,
    sweep_reports,
)
from artinhol.serialize import exit_code_for_report, sweep_record_line
from conftest import cond_ii_pair_search, cond_iii_subset_search, dot

GOLDEN = Path(__file__).parent / "golden"

SWEEP_FAMILIES = [
    ((1, 1), 2),
    ((1, 1), 3),
    ((1, 1, 2), 2),
    ((1, 1, 2), 3),
    ((1, 1, 1, 3), 2),
    ((1, 1, 1, 1, 2), 2),
    ((1, 1, 2, 3, 3), 2),
]


def _passed(n: int, name: str) -> None:
    print(f"[ACCEPTANCE] criterion {n} ({name}): PASS")


@pytest.fixture(scope="session")
def swept_families():
    """All acceptance sweep families, with their total wall time."""
    out = []
    t0 = time.perf_counter()
    for degrees, bound in SWEEP_FAMILIES:
        plan = SweepPlan(DegreeVector(degrees), bound, worker_count=2)
        out.append((degrees, bound, sweep_reports(plan)))
    return out, time.perf_counter() - t0


def test_criterion_1_engine_cross_validation():
    t0 = time.perf_counter()
    for v in itertools.product(range(-3, 4), repeat=2):
        assert (
            hilbert_basis_oracle(v).elements == hilbert_basis_frontier(v).elements
        ), v
    for v in itertools.product(range(-2, 3), repeat=3):
        assert (
            hilbert_basis_oracle(v).elements == hilbert_basis_frontier(v).elements
        ), v
    rng = random.Random(20260809)
    for r in (4, 5):
        for _ in range(250):
            v = tuple(rng.randint(-3, 3) for _ in range(r))
            assert (
                hilbert_basis_oracle(v).elements
                == hilbert_basis_frontier(v).elements
            ), v
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"cross-validation took {elapsed:.1f}s (budget 120s)"
    _passed(1, "engine cross-validation")


def test_criterion_2_structural_laws_on_sweeps(swept_families):
    families, _ = swept_families
    for degrees, bound, reports in families:
        r = len(degrees)
        for rep in reports:
            if not rep.admissible:
                continue
            v = rep.instance.orders.entries
            elems = rep.hilbert_elements
            assert len(elems) >= r, (degrees, v)
            basis = HilbertBasis(elems, "oracle")
            assert lattice_is_full(basis, r), (degrees, v)
            coord_bound = max(1, max(abs(x) for x in v))
            eset = set(elems)
            for j in range(r):
                e = tuple(int(i == j) for i in range(r))
                assert (e in eset) is (v[j] >= 0), (degrees, v, j)
            for h in elems:
                assert max(h) <= coord_bound, (degrees, v, h)
    _passed(2, "size/rank/unit/coordinate laws on admissible instances")


def test_criterion_3_equivalence_verification_sweeps(swept_families):
    families, elapsed = swept_families
    total_admissible = 0
    for degrees, bound, reports in families:
        r = len(degrees)
        counterexamples = [
            rep.instance.orders.entries
            for rep in reports
            if rep.equivalence_ok is False
        ]
        assert counterexamples == [], (degrees, bound, counterexamples)
        for rep in reports:
            if rep.admissible and r >= 2:
                assert rep.equivalence_ok is True, rep.instance
                total_admissible += 1
    # deterministic family sizes: 15+28+69+184+333+1708+1647
    assert total_admissible == 3984
    assert elapsed < 600.0, f"sweeps took {elapsed:.1f}s (budget 600s)"
    _passed(3, f"criteria equivalence on {total_admissible} admissible instances")


def test_criterion_4_factoriality_coherence(swept_families):
    families, _ = swept_families
    unique_checked = witness_checked = 0
    for degrees, bound, reports in families:
        r = len(degrees)
        for rep in reports:
            basis = HilbertBasis(rep.hilbert_elements, "oracle")
            v = rep.instance.orders.entries
            if rep.hilbert_size == r:
                for k in itertools.product(range(4), repeat=r):
                    if dot(k, v) >= 0:
                        fc = count_factorizations(k, basis, cap=2)
                        assert fc.count == 1, (degrees, v, k)
                unique_checked += 1
            elif rep.hilbert_size > r:
                w = nonuniqueness_witness(basis, r)
                assert w is not None, (degrees, v)
                fc = count_factorizations(w, basis, cap=2)
                assert fc.count == 2, (degrees, v, w)
                witness_checked += 1
    assert unique_checked > 500 and witness_checked > 500
    _passed(
        4,
        f"factoriality coherence ({unique_checked} unique, {witness_checked} witnessed)",
    )


def test_criterion_5_closed_forms_vs_search():
    boxes = [
        (2, itertools.product(range(-3, 4), repeat=2)),
        (3, itertools.product(range(-2, 3), repeat=3)),
    ]
    for r, box in boxes:
        for v in box:
            for k in range(1, r + 1):
                for l in range(1, r + 1):
                    if k == l:
                        continue
                    closed = cond_ii_pair(v, k, l)
                    searched = cond_ii_pair_search(v, k, l)
                    assert (closed is None) == (searched is None), (v, k, l)
                    if closed is not None:
                        assert closed[k - 1] >= 1 and closed[l - 1] == 0
                        assert is_member_hol(closed, v)
            for size in range(1, r + 1):
                for m_set in itertools.combinations(range(1, r + 1), size):
                    closed = cond_iii_subset(v, m_set)
                    searched = cond_iii_subset_search(v, m_set)
                    assert (closed is None) == (searched is None), (v, m_set)
                    if closed is not None:
                        assert all(c >= 1 for c in closed)
                        assert sum(c * v[j - 1] for c, j in zip(closed, m_set)) >= 0
    _passed(5, "closed forms agree with brute-force search")


def test_criterion_6_known_value_spot_checks():
    assert hilbert_basis_oracle((1, -1)).elements == ((1, 0), (1, 1))
    assert hilbert_basis_oracle((2, -3)).elements == ((1, 0), (2, 1), (3, 2))
    rep = check_instance(Instance.of((1, 1), (1, -1)))
    assert rep.factorial is True
    assert rep.cond_i is False
    assert rep.cond_ii is False
    assert rep.cond_iii is False
    assert rep.cond_ii_prime is False
    assert rep.equivalence_ok is True
    _passed(6, "known-value spot checks (factorial does not imply condition i)")


def test_criterion_7_invariance():
    rng = random.Random(417)
    for _ in range(200):
        r = rng.randint(2, 5)
        v = tuple(rng.randint(-3, 3) for _ in range(r))
        d = tuple(rng.randint(1, 3) for _ in range(r))
        base = hilbert_basis_oracle(v).elements
        for c in (2, 3):
            scaled = tuple(c * x for x in v)
            assert hilbert_basis_oracle(scaled).elements == base, (v, c)
            assert hilbert_basis_frontier(scaled).elements == base, (v, c)
        perm = list(range(r))
        rng.shuffle(perm)
        pv = tuple(v[perm[j]] for j in range(r))
        pd = tuple(d[perm[j]] for j in range(r))
        expected = sorted(tuple(h[perm[j]] for j in range(r)) for h in base)
        assert list(hilbert_basis_oracle(pv).elements) == expected, (v, perm)
        rep = check_instance(Instance.of(d, v))
        rep_p = check_instance(Instance.of(pd, pv))
        for attr in (
            "admissible",
            "factorial",
            "hilbert_size",
            "cond_i",
            "cond_ii",
            "cond_iii",
            "cond_iii_m",
            "cond_ii_prime",
            "equivalence_ok",
        ):
            assert getattr(rep, attr) == getattr(rep_p, attr), (v, d, perm, attr)
    _passed(7, "scaling invariance and permutation equivariance")


def test_criterion_8_catalog():
    groups = catalog_groups()
    assert len(groups) == 12
    for entry in groups:
        degrees = entry.degrees.entries
        assert sum(x * x for x in degrees) == entry.order, entry.name
        for x in degrees:
            assert entry.order % x == 0, entry.name
    _passed(8, "catalog sum-of-squares and divisibility checks")


def test_criterion_9_determinism_and_interfaces(tmp_path):
    # repeated sweeps with different worker counts: byte-identical JSONL
    out1 = tmp_path / "w1.jsonl"
    out4 = tmp_path / "w4.jsonl"
    s1 = run_sweep(SweepPlan(DegreeVector((1, 1, 2)), 2, worker_count=1, out_path=out1))
    s4 = run_sweep(SweepPlan(DegreeVector((1, 1, 2)), 2, worker_count=4, out_path=out4))
    assert out1.read_bytes() == out4.read_bytes()
    assert s1 == s4

    # golden JSON reports are stable byte for byte
    pinned = [
        (["check", "--degrees", "1,1", "--orders", "1,-1", "--json"], "check_d11_v1m1.json"),
        (["hilbert", "--orders", "2,-3", "--json"], "hilbert_v2m3.json"),
        (["check", "--degrees", "1,1,2", "--orders", "0,0,0", "--json"], "check_d112_v000.json"),
    ]
    for args, golden_name in pinned:
        res = subprocess.run(
            [sys.executable, "-m", "artinhol", *args],
            capture_output=True,
            text=True,
        )
        assert res.returncode == 0
        assert res.stdout == (GOLDEN / golden_name).read_text(), golden_name

    # exit-code contract on crafted inputs
    ok = subprocess.run(
        [sys.executable, "-m", "artinhol", "check", "--degrees", "1,1", "--orders", "0,0"],
        capture_output=True,
    )
    assert ok.returncode == 0
    bad = subprocess.run(
        [sys.executable, "-m", "artinhol", "check", "--degrees", "1,1", "--orders", "1"],
        capture_output=True,
    )
    assert bad.returncode == 2
    garbled = subprocess.run(
        [sys.executable, "-m", "artinhol", "hilbert", "--orders", "a,b"],
        capture_output=True,
    )
    assert garbled.returncode == 2
    # the exit-1 branch is unreachable through the real pipeline (the four
    # criteria provably agree); the mapping itself is pinned synthetically
    import dataclasses

    rep = check_instance(Instance.of((1, 1), (1, -1)))
    assert exit_code_for_report(dataclasses.replace(rep, equivalence_ok=False)) == 1
    _passed(9, "determinism, golden bytes, exit codes")


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("degrees, bound", [((1, 1, 2), 3), ((1, 1, 1, 3), 2)])
def test_cached_sweep_matches_uncached_reports(tmp_path, degrees, bound, workers):
    # run_sweep computes one basis per canonical vector; the reference runs
    # check_instance, and with it both engines, on every vector of the box
    out = tmp_path / "cached.jsonl"
    run_sweep(SweepPlan(DegreeVector(degrees), bound, worker_count=workers, out_path=out))
    expected = "".join(
        sweep_record_line(check_instance(Instance.of(degrees, v)))
        for v in enumerate_order_vectors(len(degrees), bound)
    )
    assert out.read_bytes() == expected.encode("utf-8")
