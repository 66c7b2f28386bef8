"""The benchmark's workloads: what one pass runs and how it is checked.

A workload's ``open(work, seed)`` returns a runner for one benchmark run.
The runner knows the set-up command, the number of items in a pass, and
how to run and check one pass, traced or not.  Every pass is a fresh
process started through ``launch.py``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

from basis_factor import generate
from checks import compare_sweep, digest_files, load_reference
from layers import pass_metrics
from tracer import load_spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"


@dataclass
class ProcResult:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int
    stdout: str
    stderr: str


def run_process(argv: list[str], work: Path) -> ProcResult:
    """Run one command to completion under ``launch.py`` and measure it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out_path, err_path = work / "stdout.txt", work / "stderr.txt"
    launcher = [sys.executable, str(BENCH / "launch.py"), str(out_path), str(err_path), "--"]
    done = subprocess.run(
        launcher + argv, cwd=ROOT, env=env, capture_output=True, text=True, check=True
    )
    m = json.loads(done.stdout)
    return ProcResult(
        wall_s=m["wall_s"],
        cpu_s=m["cpu_s"],
        peak_rss_mb=m["peak_rss_mb"],
        returncode=m["returncode"],
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )


@dataclass
class PassResult:
    """One pass: its measurements, its failed items and, if traced, its layers."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    failed: int
    problems: list[str]
    layers: dict[str, float] | None = None
    durations: dict[str, list[float]] = field(default_factory=dict)


def _exit_problem(proc: ProcResult) -> str:
    return f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"


def _durations(spans: list[dict]) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for s in spans:
        out.setdefault(s["name"], []).append(s["end"] - s["start"])
    return out


@dataclass(frozen=True)
class Sweep:
    """``artinhol sweep`` over a catalog group's order box; the seed is unused."""

    name: str
    group: str
    bound: int
    workers: int

    def open(self, work: Path, seed: int) -> "SweepRunner":
        return SweepRunner(self, work)

    def cli_args(self, out_dir: Path, box: list[str] | None = None) -> list[str]:
        """Arguments of ``artinhol`` for this sweep, writing under ``out_dir``."""
        if box is None:
            box = ["--group", self.group, "--order-bound", str(self.bound)]
        return [
            "sweep", *box,
            "--workers", str(self.workers),
            "--out", str(out_dir / "records.jsonl"),
            "--summary-json", str(out_dir / "summary.json"),
            "--csv", str(out_dir / "histogram.csv"),
        ]


class SweepRunner:
    def __init__(self, sweep: Sweep, work: Path):
        self.sweep = sweep
        self.work = work
        self.reference = load_reference(sweep.name)
        self.items = len(self.reference[1])
        self.out_dir = work / "out"
        self.out_dir.mkdir()
        (work / "setup").mkdir()
        self.artifacts = [
            self.out_dir / name for name in ("records.jsonl", "summary.json", "histogram.csv")
        ]
        # Set-up is the same command on the trivial box: start, import, pool.
        self.setup_argv = [sys.executable, "-m", "artinhol"] + sweep.cli_args(
            work / "setup", ["--degrees", "1", "--order-bound", "1"]
        )
        self.first_digest: str | None = None
        self.first_failed = 0
        self.inputs: dict = {}  # the sweep's input is its box

    def _check(self, proc: ProcResult) -> tuple[int, list[str]]:
        """Failed items of one pass.

        The first good pass is compared with the reference; every later
        pass must reproduce its bytes, so it inherits that verdict.
        """
        if proc.returncode != 0:
            return self.items, [_exit_problem(proc)]
        digest = digest_files(self.artifacts)
        if self.first_digest is None:
            self.first_digest = digest
            texts = [a.read_text(encoding="utf-8") for a in self.artifacts[:2]]
            problems = compare_sweep(texts[0], texts[1], self.reference)
            self.first_failed = len(problems)
            return self.first_failed, problems[:5]
        if digest != self.first_digest:
            return self.items, ["artifacts differ in bytes from the first pass"]
        return self.first_failed, []

    def run_pass(self, trace_dir: Path | None) -> PassResult:
        if trace_dir is None:
            argv = [sys.executable, "-m", "artinhol"]
        else:
            argv = [sys.executable, str(BENCH / "traced_sweep.py"), str(trace_dir)]
        proc = run_process(argv + self.sweep.cli_args(self.out_dir), self.work)
        failed, problems = self._check(proc)
        result = PassResult(proc.wall_s, proc.cpu_s, proc.peak_rss_mb, failed, problems)
        if trace_dir is not None and proc.returncode == 0:
            spans = load_spans(trace_dir)
            values = pass_metrics(spans)
            summary = json.loads(self.artifacts[1].read_text(encoding="utf-8"))
            values["core.admissible_frac"] = summary["admissible"] / summary["total"]
            values["serialize.bytes_out"] = sum(a.stat().st_size for a in self.artifacts)
            values["serialize.bytes_per_record"] = (
                self.artifacts[0].stat().st_size / summary["total"]
            )
            result.layers = values
            result.durations = _durations(spans)
            # The read-back is the benchmark's, not part of the sweep.
            result.wall_s -= values["serialize.parse_s"]
        return result


@dataclass(frozen=True)
class BasisFactor:
    """The library workload of ``basis_factor.py``; the seed makes its inputs."""

    name: str = "basis-factor"
    workers: int = 1

    def open(self, work: Path, seed: int) -> "BasisFactorRunner":
        return BasisFactorRunner(work, seed)


class BasisFactorRunner:
    def __init__(self, work: Path, seed: int):
        self.work = work
        self.script = [sys.executable, str(BENCH / "basis_factor.py"), "--seed", str(seed)]
        # Set-up is interpreter start, import and input generation.
        self.setup_argv = self.script + ["--setup-only"]
        self.items = len(generate(seed)[0])
        self.inputs: dict = {}

    def run_pass(self, trace_dir: Path | None) -> PassResult:
        extra = [] if trace_dir is None else ["--trace-dir", str(trace_dir)]
        proc = run_process(self.script + extra, self.work)
        if proc.returncode != 0:
            return PassResult(
                proc.wall_s, proc.cpu_s, proc.peak_rss_mb, self.items, [_exit_problem(proc)]
            )
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        self.inputs = report
        problems = [report["first_problem"]] if report["first_problem"] else []
        result = PassResult(
            report["wall_s"], proc.cpu_s, proc.peak_rss_mb, report["failed"], problems
        )
        if trace_dir is not None:
            spans = load_spans(trace_dir)
            result.layers = pass_metrics(spans)
            result.durations = _durations(spans)
        return result


WORKLOADS = {
    w.name: w
    for w in (
        Sweep("sweep-s4-b2", group="S4", bound=2, workers=2),
        Sweep("sweep-s5-b1-serial", group="S5", bound=1, workers=1),
        BasisFactor(),
    )
}
