"""Smoke test for the benchmark's traced sweep run.

bench/traced_sweep.py replaces package functions by name with span-recording
wrappers (sweep.check_instance, serialize.sweep_record_line,
sweep.enumerate_order_vectors, sweep.Pool called with one positional
argument, and the engines looked up as globals of artinhol.conditions).
This guards those names: renaming one breaks the traced run or silently
drops its spans.  A sweep walks its box without calling
enumerate_order_vectors, so the traced run records no sweep.enumerate
span; the name stays public and wrappable.  It also shows that the
verdicts of a two-worker sweep of three chunks are computed, and its
records rendered, in the workers, and its bases in the parent; with fewer
than two usable CPUs the sweep runs serially and this fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from artinhol.hilbert import canonical_order
from conftest import child_env

ROOT = Path(__file__).resolve().parent.parent


def test_traced_two_worker_sweep_records_engine_and_check_spans(tmp_path):
    trace_dir = tmp_path / "trace"
    trace_dir.mkdir()
    out = tmp_path / "records.jsonl"
    res = subprocess.run(
        [
            sys.executable,
            str(ROOT / "bench" / "traced_sweep.py"),
            str(trace_dir),
            "sweep",
            "--degrees", "1,1,2,2,3,3",
            "--order-bound", "1",
            "--workers", "2",
            "--out", str(out),
        ],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=120,
    )
    assert res.returncode == 0, res.stderr
    assert out.read_text().count("\n") == 729
    per_process = [
        [json.loads(line) for line in path.read_text().splitlines()]
        for path in trace_dir.glob("spans-*.jsonl")
    ]
    names = [span["name"] for spans in per_process for span in spans]
    canon = {
        canonical_order(json.loads(line)["instance"]["orders"])[0]
        for line in out.read_text().splitlines()
    }
    assert len(canon) < 729
    # the parent, which holds the sweep.run span, computes every basis of
    # the sweep, once per canonical vector, and again under the
    # serialize.parse span as it reads the file back; it writes and merges
    # but checks no instance
    (parent,) = [spans for spans in per_process if any(s["name"] == "sweep.run" for s in spans)]
    assert all(span["name"] != "conditions.check" for span in parent)
    (parse,) = [span["id"] for span in parent if span["name"] == "serialize.parse"]
    for engine in ("hilbert.oracle", "hilbert.frontier"):
        spans = [span for span in parent if span["name"] == engine]
        for read_back in (False, True):
            met = [tuple(s["v"]) for s in spans if (s["parent"] == parse) == read_back]
            assert sorted(met) == sorted(canon)
    # one verdict span and at least one render span per record: the sweep
    # must keep calling sweep.check_instance and serialize.sweep_record_line
    assert names.count("conditions.check") == 729
    assert names.count("serialize.render") >= 729
    # the cached rows and texts must not hide a layer: the workers record
    # every verdict and every record's render span themselves, and run no
    # engine, so the engine counts depend on the input alone
    workers = [spans for spans in per_process if spans is not parent]
    worker_names = [span["name"] for spans in workers for span in spans]
    assert worker_names.count("conditions.check") == 729
    assert worker_names.count("serialize.render") == 729
    assert "hilbert.oracle" not in worker_names
    assert "hilbert.frontier" not in worker_names
