"""Smoke test for the benchmark's traced sweep run.

bench/traced_sweep.py replaces package functions by name with span-recording
wrappers (sweep.check_instance, serialize.sweep_record_line,
sweep.enumerate_order_vectors, sweep.Pool called with one positional
argument, and the engines looked up as globals of artinhol.conditions).
This guards those names: renaming one breaks the traced run or silently
drops its spans.  It also shows that the parent walks the box once, under
one sweep.enumerate span, and that the verdicts of a two-worker sweep of
three chunks are computed, and its records rendered, in the workers, and
its type table in the parent, the engines running once per table support;
with fewer than two usable CPUs the sweep runs serially and this fails.
A one-worker sweep walks its box and builds its table the same way,
outside every check.

The traced run replaces sweep.Pool with the stdlib multiprocessing.Pool,
whose initializer installs the wrappers in each worker; so the pool a
traced sweep times is not the one a sweep ships, and sweep.write_s under
`--trace 1` includes the stdlib pool's handler threads.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from artinhol import conditions
from artinhol.conditions import canonical_order
from conftest import child_env

ROOT = Path(__file__).resolve().parent.parent


def _traced_sweep(tmp_path, workers):
    """Spans of a traced sweep of 729 records in three chunks, one list per
    process, the parent's first, and the canonical vectors of its file."""
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
            "--workers", str(workers),
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
    # the parent holds the sweep.run span
    per_process.sort(key=lambda spans: all(s["name"] != "sweep.run" for s in spans))
    canon = {
        canonical_order(json.loads(line)["instance"]["orders"])[0]
        for line in out.read_text().splitlines()
    }
    assert len(canon) < 729
    return per_process, canon


def _assert_the_parent_runs_every_engine_call(parent, canon):
    # The parent builds the sweep's type table, one engine call each per
    # support and outside any check, and runs the engines again under the
    # serialize.parse span, once per canonical vector, as it reads the
    # file back.
    by_id = {span["id"]: span for span in parent}

    def ancestors(span):
        while span["parent"] is not None:
            span = by_id[span["parent"]]
            yield span["name"]

    (parse,) = [span["id"] for span in parent if span["name"] == "serialize.parse"]
    supports = list(conditions.build_type_table(1, 6))
    assert len(supports) < len(canon)
    for engine in ("hilbert.oracle", "hilbert.frontier"):
        spans = [span for span in parent if span["name"] == engine]
        assert all("conditions.check" not in ancestors(span) for span in spans)
        swept = [tuple(s["v"]) for s in spans if s["parent"] != parse]
        assert swept == supports
        assert sorted(tuple(s["v"]) for s in spans if s["parent"] == parse) == sorted(canon)


def _assert_the_parent_enumerates_the_box_once(parent, workers):
    # The task stream walks the box through sweep.enumerate_order_vectors,
    # in the parent, inside the sweep.run span.
    (run,) = [span["id"] for span in parent if span["name"] == "sweep.run"]
    (walk,) = [span for span in parent if span["name"] == "sweep.enumerate"]
    assert walk["parent"] == run
    assert all(span["name"] != "sweep.enumerate" for spans in workers for span in spans)


def test_traced_two_worker_sweep_records_engine_and_check_spans(tmp_path):
    (parent, *workers), canon = _traced_sweep(tmp_path, 2)
    assert workers
    _assert_the_parent_runs_every_engine_call(parent, canon)
    _assert_the_parent_enumerates_the_box_once(parent, workers)
    # the parent writes and merges but checks no instance
    assert all(span["name"] != "conditions.check" for span in parent)
    # one verdict span and one render span per record, in the workers: the
    # sweep must keep calling sweep.check_instance and
    # serialize.sweep_record_line, and the cached rows and texts must not
    # hide a layer.  The workers run no engine, so the engine counts
    # depend on the input alone.
    worker_names = [span["name"] for spans in workers for span in spans]
    assert worker_names.count("conditions.check") == 729
    assert worker_names.count("serialize.render") == 729
    assert "hilbert.oracle" not in worker_names
    assert "hilbert.frontier" not in worker_names


def test_traced_one_worker_sweep_records_engine_and_check_spans(tmp_path):
    # One process checks every record and runs every engine call, the
    # engines in the table build, outside the checks, as with a pool.
    (parent, *workers), canon = _traced_sweep(tmp_path, 1)
    assert not workers
    _assert_the_parent_runs_every_engine_call(parent, canon)
    _assert_the_parent_enumerates_the_box_once(parent, workers)
    names = [span["name"] for span in parent]
    assert names.count("conditions.check") == 729
    assert names.count("serialize.render") >= 729
