"""Benchmark for artinhol: exhaustive CLI sweeps and factorization traffic.

Usage, from the root of a checkout::

    python3 bench/run.py --workload sweep-s4-b2 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seconds 30

Workloads (BENCHMARK.json says why each is here):

* ``sweep-s4-b2``: ``artinhol sweep --group S4 --order-bound 2 --workers 2``.
* ``sweep-s5-b1-serial``: ``artinhol sweep --group S5 --order-bound 1 --workers 1``.
* ``basis-factor``: the library workload in ``basis_factor.py``.

A pass is one fresh process running the workload body, started under a
fresh parent (``launch.py``) that measures exactly that pass's process
tree.  Passes repeat in a closed loop, one at a time, until ``--seconds``
have gone by, and each metric is the median over the passes.  Set-up time
is measured separately, several times per run, also as a median.

Times are reported at a reference host speed.  On a shared host the speed
at which Python runs drifts by tens of percent within seconds and over
minutes, far more than the changes the benchmark must resolve, and a
median over one run cannot remove a drift slower than the run.  So every
pass (and the block of set-up runs) is pinned to fixed CPUs, one per
worker, and a probe samples a fixed pure-Python loop on those CPUs while
the pass runs; each time is divided by the probe's slowdown (see
``SpeedProbe``).  The raw medians and the slowdown are printed alongside.

With ``--trace 1`` the run spends half of ``--seconds`` on untraced passes
and half on traced ones and reports the per-layer metrics of ``layers.py``
instead of the end-to-end ones; the untraced half is the base of
``trace.overhead_frac`` and ``sweep.resident_growth_mb``.  A per-layer
metric of a layer that a workload never calls reads 0.

Every pass is checked: a nonzero exit, a failed library check, a record
that differs semantically from the stored reference, a nonempty
``counterexamples`` list, or sweep artifacts that differ in bytes from the
run's first pass all count as failed items.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

#: Set-up runs per benchmark run, after one untimed warm-up.
SETUP_RUNS = 11
#: The speed probe: rounds of its loop, the loop's CPU time at the
#: reference speed, and the pause between samples.
PROBE_ROUNDS = 3
PROBE_REF_S = 0.001
PROBE_INTERVAL_S = 0.05

END_TO_END = {
    "wall_s": "s",
    "items_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def probe_loop() -> float:
    """CPU seconds this thread takes for a fixed pure-Python loop.

    The loop does what the package does most: iterate a small box, take
    dot products of int tuples and build tuples.
    """
    start = time.thread_time()
    acc = 0
    for _ in range(PROBE_ROUNDS):
        for k in itertools.product(range(4), repeat=4):
            s = 0
            for x, w in zip(k, (3, -2, 5, -7)):
                s += x * w
            if s >= 0:
                acc += len(tuple(y + 1 for y in k))
    return time.thread_time() - start


class SpeedProbe:
    """Samples how fast the host runs Python while a pass runs.

    One thread of this process per CPU the pass is pinned to, itself
    pinned to that CPU, runs ``probe_loop`` every ``PROBE_INTERVAL_S``.
    The slowdown is the mean sample over ``PROBE_REF_S``: a pass's time
    adds up the speed over its whole interval, bursts included.  Thread
    CPU time is sampled, so time a probe waits for its CPU does not count.
    """

    def __enter__(self) -> "SpeedProbe":
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._threads = [
            threading.Thread(target=self._sample, args=(cpu,), daemon=True)
            for cpu in sorted(os.sched_getaffinity(0))
        ]
        for t in self._threads:
            t.start()
        return self

    def _sample(self, cpu: int) -> None:
        os.sched_setaffinity(0, {cpu})  # on Linux this pins the calling thread
        while True:
            self.samples.append(probe_loop())
            if self._stop.wait(PROBE_INTERVAL_S):
                return

    def __exit__(self, *exc) -> None:
        self._stop.set()
        for t in self._threads:
            t.join()

    @property
    def slowdown(self) -> float:
        return statistics.fmean(self.samples) / PROBE_REF_S


def timed_loop(seconds: float, body) -> list[tuple[object, float]]:
    """Call ``body()`` one pass at a time until ``seconds`` have passed.

    Returns each result with the slowdown the probe saw during it.
    """
    results = []
    start = time.perf_counter()
    while not results or time.perf_counter() - start < seconds:
        with SpeedProbe() as probe:
            result = body()
        results.append((result, probe.slowdown))
    return results


def measure_setup(argv: list[str], work: Path) -> tuple[list[float], list[float], float]:
    """Set-up times at reference speed, their peak RSS, and the slowdown.

    One untimed warm-up run first compiles the bytecode.
    """
    from workloads import run_process

    run_process(argv, work)
    with SpeedProbe() as probe:
        runs = [run_process(argv, work) for _ in range(SETUP_RUNS)]
    for proc in runs:
        if proc.returncode != 0:
            raise RuntimeError(f"set-up run failed: {proc.stderr.strip()[-300:]}")
    slowdown = probe.slowdown
    return [p.wall_s / slowdown for p in runs], [p.peak_rss_mb for p in runs], slowdown


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def measure(workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """One benchmark run of one workload: set-up, passes, checks, metrics."""
    from layers import UNITS, combine
    from workloads import Sweep

    runner = workload.open(work, seed)
    setup, setup_rss, setup_slowdown = measure_setup(runner.setup_argv, work)
    untraced = timed_loop(seconds / 2 if trace else seconds, lambda: runner.run_pass(None))
    traced = []
    if trace:
        counter = itertools.count()

        def traced_pass():
            trace_dir = work / "trace" / str(next(counter))
            trace_dir.mkdir(parents=True)
            try:
                return runner.run_pass(trace_dir)
            finally:
                shutil.rmtree(trace_dir)

        traced = timed_loop(seconds / 2, traced_pass)

    every = untraced + traced
    result = {
        "items": runner.items,
        "attempted": runner.items * len(every),
        "failed": sum(p.failed for p, _ in every),
        "problems": [msg for p, _ in every for msg in p.problems][:5],
        "wall": [p.wall_s / k for p, k in untraced],
        "cpu": [p.cpu_s / k for p, k in untraced],
        "rss": [p.peak_rss_mb for p, _ in untraced],
        "setup": setup,
        "raw_wall": [p.wall_s for p, _ in untraced],
        "slowdown": [k for _, k in untraced] + [setup_slowdown],
        "inputs": runner.inputs,
    }
    if trace:
        passes, pooled = [], {}
        for p, k in traced:
            if p.layers is None:
                continue
            passes.append(
                {m: v / k if UNITS.get(m) == "s" else v for m, v in p.layers.items()}
            )
            for name, durations in p.durations.items():
                pooled.setdefault(name, []).extend(d / k for d in durations)
        values, problems = combine(passes, pooled) if passes else ({}, ["no traced pass"])
        result["failed"] += len(problems)
        result["problems"] += problems
        if isinstance(workload, Sweep):
            values["sweep.resident_growth_mb"] = statistics.median(
                result["rss"]
            ) - statistics.median(setup_rss)
        traced_walls = [p.wall_s / k for p, k in traced if p.layers is not None]
        if traced_walls:
            values["trace.overhead_frac"] = (
                statistics.median(traced_walls) / statistics.median(result["wall"]) - 1
            )
        result["layers"] = {m: values.get(m, 0.0) for m in UNITS}
    return result


def samples(result: dict) -> dict[str, list[float]]:
    """Each end-to-end metric's values: one per pass, or per set-up run."""
    return {
        "wall_s": result["wall"],
        "items_per_s": [result["items"] / w for w in result["wall"]],
        "cpu_s": result["cpu"],
        "peak_rss_mb": result["rss"],
        "setup_s": result["setup"],
    }


def end_to_end(result: dict) -> dict[str, float]:
    return {metric: statistics.median(v) for metric, v in samples(result).items()}


def environment(workers: int) -> dict:
    git_rev = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
            )
            git_rev = proc.stdout.strip() or None
        except FileNotFoundError:  # no git on this host
            pass
    src_digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src_digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        src_digest.update(path.read_bytes())
    nproc = len(os.sched_getaffinity(0))
    return {
        "git_rev": git_rev,
        "src_sha256": src_digest.hexdigest(),
        "python": sys.version.split()[0],
        "nproc": nproc,
        "workers": workers,
        "oversubscribed": workers > nproc,
        "loadavg_start": list(os.getloadavg()),
    }


def describe(name: str, result: dict) -> list[str]:
    """Human-readable lines: each metric with its unit, quartiles and count."""
    from layers import UNITS

    lines = [f"workload {name}: {len(result['wall'])} untraced passes"]
    for metric, values in samples(result).items():
        q1, q2, q3 = quartiles(values)
        lines.append(
            f"  {metric:<12} median {q2:.6g} {END_TO_END[metric]}"
            f"  (q1 {q1:.6g}, q3 {q3:.6g}, n {len(values)})"
        )
    lines.append(
        f"  raw wall_s median {statistics.median(result['raw_wall']):.6g} s;"
        f" host slowdown median {statistics.median(result['slowdown']):.4g}"
    )
    lines.append(
        f"  failed_frac  {result['failed'] / result['attempted']:.6g}"
        f"  ({result['failed']} of {result['attempted']} items)"
    )
    lines.extend(f"  failure: {p}" for p in result["problems"])
    inputs = result["inputs"]
    if inputs:
        keep = ("vectors", "drawn", "rejected_sign", "rejected_repeat", "repeat_share",
                "nonfactorial_share", "factorize_calls")
        lines.append("  inputs: " + json.dumps({k: inputs[k] for k in keep}))
    for metric, value in result.get("layers", {}).items():
        lines.append(f"  {metric:<34} {value:.6g} {UNITS[metric]}")
    return lines


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    env = environment(workload.workers)
    if env["oversubscribed"]:
        print(f"warning: {workload.workers} workers exceed nproc={env['nproc']}",
              file=sys.stderr)
    # Children inherit the pinning: the pass runs where the probe samples.
    allowed = sorted(os.sched_getaffinity(0))
    env["cpus"] = allowed[-workload.workers:]
    work = ROOT / ".bench_work" / str(os.getpid())
    work.mkdir(parents=True)
    try:
        os.sched_setaffinity(0, env["cpus"])
        result = measure(workload, seed, seconds, trace, work)
    finally:
        os.sched_setaffinity(0, allowed)
        shutil.rmtree(work)
        if not any(work.parent.iterdir()):
            work.parent.rmdir()
    env["loadavg_end"] = list(os.getloadavg())
    return result, env


def main(argv=None) -> int:
    if not (SRC / "artinhol" / "__init__.py").is_file():
        print(f"error: no artinhol sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH))
    from layers import UNITS
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description="artinhol benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics: dict[str, dict] = {}
    for name in names:
        result, env = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print("env " + json.dumps(env, sort_keys=True))
        for line in describe(name, result):
            print(line)
        attempted += result["attempted"]
        failed += result["failed"]
        values = result["layers"] if args.trace else end_to_end(result)
        units = UNITS if args.trace else END_TO_END
        prefix = f"{name}." if args.workload == "all" else ""
        for metric, unit in units.items():
            metrics[prefix + metric] = {"value": values[metric], "unit": unit}
    print(json.dumps(
        {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
