"""Tests of the benchmark's own logic: spans, metrics, checks and inputs.

Run from the root of a checkout::

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import basis_factor  # noqa: E402
import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, load_spans, percentile, self_times  # noqa: E402


def span(sid, parent, start, end, name="x", pid=1, **attrs):
    return dict(name=name, id=sid, parent=parent, start=start, end=end, pid=pid, **attrs)


# --- trace arithmetic -------------------------------------------------------


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    spans = [
        span(1, None, 0.0, 10.0),
        span(2, 1, 1.0, 3.0),
        span(3, 1, 2.0, 5.0),  # overlaps span 2: [1, 5] is covered once
        span(4, 1, 9.0, 12.0),  # only [9, 10] lies inside the parent
        span(5, 2, 1.5, 2.5),  # a grandchild does not count for span 1
    ]
    selfs = self_times(spans)
    assert selfs[(1, 1)] == pytest.approx(10.0 - 4.0 - 1.0)
    assert selfs[(1, 2)] == pytest.approx(2.0 - 1.0)
    assert selfs[(1, 3)] == pytest.approx(3.0)
    assert selfs[(1, 5)] == pytest.approx(1.0)


def test_self_time_keeps_processes_apart():
    spans = [span(1, None, 0.0, 4.0, pid=1), span(2, 1, 0.0, 4.0, pid=2)]
    assert self_times(spans)[(1, 1)] == pytest.approx(4.0)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_tracer_nests_spans_and_flushes_each_root(tmp_path):
    tracer = Tracer(tmp_path)
    inner = tracer.wrap("inner", lambda x: x + 1, lambda args, res: {"arg": args[0]})
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    assert outer(3) == 8
    # The root ended, so everything is on disk already.
    assert tracer.spans == []
    spans = load_spans(tmp_path)
    by_name = {s["name"]: s for s in spans}
    assert by_name["inner"]["parent"] == by_name["outer"]["id"]
    assert by_name["outer"]["parent"] is None
    assert by_name["inner"]["arg"] == 3
    assert {s["pid"] for s in spans} == {os.getpid()}
    tracer.close()


def test_a_call_that_raises_records_no_span(tmp_path):
    tracer = Tracer(tmp_path)

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap("boom", boom)()
    tracer.close()
    assert load_spans(tmp_path) == []


# --- per-layer metrics ------------------------------------------------------


def test_layer_metrics_from_spans():
    spans = [
        span(1, None, 0.0, 10.0, "sweep.run"),
        span(2, 1, 0.0, 6.0, "sweep.compute"),
        span(3, 2, 0.0, 0.5, "sweep.enumerate"),
        span(4, 2, 1.0, 4.0, "conditions.check"),
        span(5, 4, 1.0, 2.0, "hilbert.oracle", v=[2, -3], size=3),
        span(6, 4, 2.0, 2.5, "hilbert.frontier", v=[2, -3], size=3),
        span(7, 2, 4.0, 6.0, "conditions.check"),
        span(8, 7, 4.0, 5.0, "hilbert.oracle", v=[-6, 4], size=3),
        span(9, 7, 5.0, 5.5, "hilbert.frontier", v=[-6, 4], size=3),
        span(10, 1, 6.0, 7.0, "serialize.render"),
        span(11, 1, 8.0, 9.0, "sweep.summarize"),
    ]
    m = layers.pass_metrics(spans)
    assert m["hilbert.oracle_s"] == pytest.approx(2.0)
    assert m["hilbert.frontier_s"] == pytest.approx(1.0)
    # (2,-3) and (-6,4) share the canonical form (-3, 2).
    assert m["hilbert.distinct_canonical_frac"] == 0.5
    assert m["hilbert.oracle_box_points"] == 4**2 + 7**2
    assert m["hilbert.basis_size_max"] == 3
    assert m["hilbert.basis_elems_total"] == 6
    assert m["conditions.check_s"] == pytest.approx(5.0)
    assert m["conditions.verdict_self_s"] == pytest.approx(5.0 - 2.0 - 1.0)
    assert m["sweep.write_s"] == pytest.approx(10.0 - 6.0 - 1.0 - 1.0)
    assert m["sweep.enumerate_s"] == pytest.approx(0.5)
    assert m["sweep.summarize_s"] == pytest.approx(1.0)
    assert m["hilbert.factorize_calls"] == 0


def test_combine_layers_takes_medians_and_requires_exact_values_to_repeat():
    passes = [
        {"hilbert.oracle_s": 1.0, "hilbert.basis_size_max": 5},
        {"hilbert.oracle_s": 3.0, "hilbert.basis_size_max": 5},
        {"hilbert.oracle_s": 2.0, "hilbert.basis_size_max": 5},
    ]
    pooled = {"hilbert.oracle": [0.001, 0.002, 0.003]}
    out, problems = layers.combine(passes, pooled)
    assert problems == []
    assert out["hilbert.oracle_s"] == 2.0
    assert out["hilbert.basis_size_max"] == 5
    assert out["hilbert.oracle_p50_us"] == pytest.approx(2000.0)
    assert out["conditions.check_p99_us"] == 0.0
    passes[1]["hilbert.basis_size_max"] = 6
    _, problems = layers.combine(passes, pooled)
    assert len(problems) == 1


def test_end_to_end_metrics_are_medians_over_passes():
    result = {
        "wall": [2.0, 4.0, 3.0],
        "cpu": [1.0, 9.0, 2.0],
        "rss": [10.0, 30.0, 20.0],
        "setup": [0.1, 0.3, 0.2, 0.4, 0.5],
        "items": 300,
    }
    m = run.end_to_end(result)
    assert m == {
        "wall_s": 3.0,
        "items_per_s": 100.0,
        "cpu_s": 2.0,
        "peak_rss_mb": 20.0,
        "setup_s": 0.3,
    }
    assert set(m) == set(run.END_TO_END)


def test_metric_tables_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


# --- correctness checks -----------------------------------------------------


def sweep_doc(orders, ok=True, extra=None):
    doc = {
        "schema_version": "1",
        "instance": {"r": 2, "degrees": [1, 1], "orders": orders},
        "admissible": {"ok": ok, "reasons": []},
        "hilbert": {"size": 2, "elements": [[0, 1], [1, 0]], "engine_agreement": True},
        "conditions": {
            "i": True,
            "ii": {"ok": True, "pairs": []},
            "iii": {"ok": True, "m": 1},
            "ii_prime": {"ok": True, "failing_subset": None},
        },
        "factorial": True,
        "equivalence_ok": True,
    }
    doc.update(extra or {})
    return doc


SUMMARY = {
    "schema_version": "1",
    "total": 2,
    "admissible": 2,
    "inadmissible": 0,
    "cond_i_true": 2,
    "cond_i_false": 0,
    "factorial_not_i": 0,
    "hilbert_histogram": {"2": 2},
    "counterexamples": [],
}


def reference_for(docs, summary=SUMMARY):
    return checks.summary_projection(summary), [checks.record_projection(d) for d in docs]


def as_text(docs, summary=SUMMARY):
    return "".join(json.dumps(d) + "\n" for d in docs), json.dumps(summary)


def test_identical_artifacts_match_the_reference():
    docs = [sweep_doc([0, 1]), sweep_doc([1, 1])]
    assert checks.compare_sweep(*as_text(docs), reference_for(docs)) == []


def test_schema_changes_outside_the_verdicts_are_ignored():
    docs = [sweep_doc([0, 1]), sweep_doc([1, 1])]
    ref = reference_for(docs)
    for d in docs:
        d["schema_version"] = "2"
        d["hilbert"]["engine_agreement"] = None
        d["engine_timing"] = {"oracle_us": 5}
    summary = dict(SUMMARY, schema_version="2", cache_hits=7)
    assert checks.compare_sweep(*as_text(docs, summary), ref) == []


def test_each_changed_missing_or_extra_record_is_one_problem():
    docs = [sweep_doc([0, 1]), sweep_doc([1, 1])]
    ref = reference_for(docs)
    changed = [sweep_doc([0, 1]), sweep_doc([1, 1])]
    changed[1]["conditions"]["iii"]["m"] = 2
    assert len(checks.compare_sweep(*as_text(changed), ref)) == 1
    assert len(checks.compare_sweep(*as_text(docs[:1]), ref)) == 1
    assert len(checks.compare_sweep(*as_text(docs + docs[:1]), ref)) == 1


def test_counterexamples_fail_the_sweep():
    docs = [sweep_doc([0, 1]), sweep_doc([1, 1])]
    bad = dict(SUMMARY, counterexamples=[[1, 1]])
    problems = checks.compare_sweep(*as_text(docs, bad), reference_for(docs))
    assert problems and "counterexamples" in problems[0]


def test_unreadable_artifacts_fail_every_reference_record():
    docs = [sweep_doc([0, 1]), sweep_doc([1, 1])]
    problems = checks.compare_sweep("{not json\n", json.dumps(SUMMARY), reference_for(docs))
    assert len(problems) == 2


def test_stored_references_hold_the_known_sweep_counts():
    summary, records = checks.load_reference("sweep-s4-b2")
    assert (summary["total"], summary["admissible"]) == (3125, 1647)
    assert len(records) == 3125 and summary["counterexamples"] == []
    summary, records = checks.load_reference("sweep-s5-b1-serial")
    assert summary["total"] == len(records) == 2187


# --- processes --------------------------------------------------------------


def test_peak_rss_of_one_pass_does_not_carry_into_the_next(tmp_path):
    big = workloads.run_process([sys.executable, "-c", "b = bytearray(80 * 2**20)"], tmp_path)
    small = workloads.run_process([sys.executable, "-c", "pass"], tmp_path)
    assert big.returncode == small.returncode == 0
    assert big.peak_rss_mb > 80
    assert small.peak_rss_mb < 40


def test_run_process_reports_the_exit_code_and_output(tmp_path):
    proc = workloads.run_process(
        [sys.executable, "-c", "import sys; print('hi'); sys.exit(3)"], tmp_path
    )
    assert proc.returncode == 3
    assert proc.stdout == "hi\n"
    assert proc.wall_s > 0 and proc.cpu_s >= 0


def test_benchmark_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "basis-factor", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


# --- basis-factor inputs and checks ----------------------------------------


def test_generator_is_deterministic_mixed_sign_and_canonically_distinct():
    vectors, stats = basis_factor.generate(7)
    again, _ = basis_factor.generate(7)
    other, _ = basis_factor.generate(8)
    assert vectors == again
    assert vectors != other
    assert all(basis_factor.mixed_sign(v) for v in vectors)
    canon = [basis_factor.canonical(v) for v in vectors]
    assert len(set(canon)) == len(canon)
    assert stats["repeat_share"] == 0
    assert stats["vectors"] == len(vectors)
    assert {len(v) for v in vectors} == {2, 3, 4}


def test_canonical_form_ignores_scaling_and_order():
    assert basis_factor.canonical((4, -6)) == basis_factor.canonical((-3, 2)) == (-3, 2)
    assert basis_factor.canonical((0, 0)) == (0, 0)


@pytest.mark.parametrize("seed", [2, 3])
def test_a_small_pass_on_other_seeds_has_no_failures(monkeypatch, seed):
    monkeypatch.setattr(basis_factor, "SAMPLED_STRATA", ((2, 40, 15), (3, 10, 15)))
    monkeypatch.setattr(basis_factor, "CENSUS_STRATA", ((4, 1),))
    result = basis_factor.run_pass(seed)
    assert result["failed"] == 0, result["first_problem"]
    assert result["factorize_calls"] > 0
    assert 0 < result["nonfactorial_share"] < 1


class BrokenLayers(basis_factor.Layers):
    def __init__(self, **broken):
        super().__init__()
        for name, fn in broken.items():
            setattr(self, name, fn)


def test_check_vector_catches_engine_disagreement():
    from artinhol.hilbert import HilbertBasis

    layers = BrokenLayers(frontier=lambda v: HilbertBasis(((1, 0),), "frontier"))
    problems, _, _ = basis_factor.check_vector((2, -3), layers)
    assert "engines disagree" in problems


def test_check_vector_catches_a_wrong_factorization():
    from artinhol.hilbert import FactorizationCount

    def wrong(k, basis, cap=2):
        return FactorizationCount(tuple(k), 1, ((0,) * len(basis.elements),))

    problems, _, _ = basis_factor.check_vector((2, -3), BrokenLayers(factorize=wrong))
    assert any("multiply back" in p for p in problems)


def test_check_vector_catches_a_missing_witness():
    problems, factorial, _ = basis_factor.check_vector(
        (2, -3), BrokenLayers(witness=lambda basis, r: None)
    )
    assert not factorial
    assert any("witness" in p for p in problems)


def test_closed_form_factoriality():
    assert basis_factor.closed_form_factorial((2, -4, 0))
    assert not basis_factor.closed_form_factorial((2, -3))
    assert not basis_factor.closed_form_factorial((1, 1, -1))
    assert basis_factor.closed_form_factorial((1, 0, 2))


def test_each_pass_is_scaled_by_the_mean_probe_sample(monkeypatch):
    monkeypatch.setattr(run, "probe_loop", lambda: 2 * run.PROBE_REF_S)
    [(result, slowdown)] = run.timed_loop(0, lambda: "pass")
    assert result == "pass"
    assert slowdown == pytest.approx(2.0)


def test_the_probe_samples_every_cpu_of_the_pass_until_it_ends():
    with run.SpeedProbe() as probe:
        time.sleep(3 * run.PROBE_INTERVAL_S)
    cpus = len(os.sched_getaffinity(0))
    assert len(probe.samples) >= 2 * cpus
    assert probe.slowdown > 0
    assert all(not t.is_alive() for t in probe._threads)
