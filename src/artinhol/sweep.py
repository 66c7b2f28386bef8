"""Exhaustive instance sweeps over order-vector boxes, with deterministic output.

A sweep fixes a degree vector and enumerates every order vector in the box
[-B, B]^r in lexicographic order, runs the full condition report on each,
streams one JSON line per instance to the output file, and aggregates a
summary.  Inadmissible instances are recorded with their reasons but never
asserted against.

A sweep runs in two phases, through the orbit map of the hilbert module.
Phase 1 indexes the box, one array entry per vector naming its canonical
vector, and computes one cross-checked Hilbert basis per canonical vector,
split across processes when asked.  Phase 2 cuts the box's enumeration
into contiguous chunks of CHUNK_SIZE records; each task carries one
chunk's range and a dict of the canonical basis elements it needs, which
the worker passes to check_instance for every vector of its chunk, then
renders the records and tallies them.  The parent only writes each
chunk's records and merges its tally, in chunk order, so the output bytes
do not depend on the worker count.  With one worker the same chunk
function runs in this process, and sweep_reports walks the same chunk
reports.
"""

from __future__ import annotations

import itertools
import os
import time
from array import array
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from multiprocessing import Pool
from pathlib import Path
from typing import Iterable, Iterator

from . import serialize
from .conditions import ConditionReport, check_instance, orbit_basis
from .core import DegreeVector, Instance, OrderVector
from .errors import CapExceededError, MixedPlansError
from .hilbert import Elements, canonical_order

INSTANCE_CAP = 10_000_000

#: Records per phase-2 task, a contiguous run of the enumeration.
CHUNK_SIZE = 256


@dataclass(frozen=True)
class SweepPlan:
    """One sweep: degrees, box radius, flags, parallelism, output path."""

    degrees: DegreeVector
    order_bound: int
    require_dedekind: bool = True
    require_trivial_nonneg: bool = False
    worker_count: int = 1
    out_path: str | Path | None = None
    group: str | None = None

    def __post_init__(self):
        if not isinstance(self.degrees, DegreeVector):
            raise TypeError(f"degrees must be a DegreeVector, got {self.degrees!r}")
        for name in ("order_bound", "worker_count"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise TypeError(f"{name} must be an int, got {value!r}")
            if value < 1:
                raise ValueError(f"{name.replace('_', ' ')} must be >= 1")


@dataclass(frozen=True)
class SweepSummary:
    """Aggregate counts for one sweep.

    Condition statistics and the size histogram cover admissible instances
    only; inadmissible ones are counted but not asserted against.  Wall
    time is informational and excluded from equality.
    """

    total: int
    admissible: int
    cond_i_true: int
    factorial_not_i: int
    hilbert_histogram: tuple[tuple[int, int], ...]
    counterexamples: tuple[tuple[int, ...], ...]
    wall_time_s: float = field(default=0.0, compare=False)

    @property
    def inadmissible(self) -> int:
        return self.total - self.admissible

    @property
    def cond_i_false(self) -> int:
        return self.admissible - self.cond_i_true


def enumerate_order_vectors(r: int, bound: int) -> Iterator[OrderVector]:
    """All (2B+1)^r order vectors in the box, lexicographically.

    Raises CapExceededError up front if r * (2B+1)^r exceeds INSTANCE_CAP.
    """
    return map(OrderVector, _box(r, bound))


def _box(r: int, bound: int) -> Iterator[tuple[int, ...]]:
    """Entries of the vectors of enumerate_order_vectors(r, bound), with its
    checks made up front and no OrderVector built."""
    if r < 1 or bound < 1:
        raise ValueError("need r >= 1 and bound >= 1")
    size = (2 * bound + 1) ** r
    if r * size > INSTANCE_CAP:
        raise CapExceededError(f"sweep of r*{size} entries exceeds cap {INSTANCE_CAP}")
    return itertools.product(range(-bound, bound + 1), repeat=r)


def _box_slice(r: int, bound: int, lo: int, hi: int) -> Iterator[tuple[int, ...]]:
    """Entries of the vectors lo .. hi-1 of enumerate_order_vectors(r, bound).

    Index i written in base 2B+1, most significant digit first, is the
    i-th vector of the box in lex order, so a slice costs O(r) per vector
    wherever it starts; skipping into the product would cost O(lo).
    """
    n = 2 * bound + 1
    places = [n ** (r - 1 - j) for j in range(r)]
    for i in range(lo, hi):
        yield tuple(i // p % n - bound for p in places)


def _canonical_basis(item: tuple[tuple[int, ...], tuple[int, ...]]) -> Elements:
    # Reached from the first vector swept to it, so a failure names that one too.
    canon, swept = item
    bases: dict = {}
    orbit_basis(swept, bases)
    return bases[canon]


def _index(plan: SweepPlan) -> tuple[list[tuple[tuple[int, ...], tuple[int, ...]]], array]:
    """Walk the box once, for phase 1.

    Returns each canonical vector with the first vector swept to it, in
    order of first appearance, and `owner`: entry i is the position in
    that list of the canonical vector of the box's vector i, four bytes
    per vector (4 MB for the 823,543 vectors of S5 B=3).
    """
    # canonical vector -> (its position, the first vector swept to it)
    first: dict[tuple[int, ...], tuple[int, tuple[int, ...]]] = {}
    owner = array("I")
    for v in _box(plan.degrees.rank, plan.order_bound):
        k, _ = first.setdefault(canonical_order(v)[0], (len(first), v))
        owner.append(k)
    return [(canon, v) for canon, (_, v) in first.items()], owner


@contextmanager
def _chunk_tasks(plan: SweepPlan):
    """Compute the plan's canonical bases; yield the map and the phase-2 tasks.

    The map is the ordered imap of one Pool when more than one worker is
    asked for and the box has more than one canonical vector, else the
    builtin map.  Each task is (plan, lo, hi, bases) for one chunk,
    carrying only the bases its records need.
    """
    todo, owner = _index(plan)
    n = min(plan.worker_count, len(todo))
    size = len(owner)
    with (Pool(n) if n > 1 else nullcontext()) as pool:
        mapper = map if pool is None else pool.imap
        bases = list(mapper(_canonical_basis, todo))
        yield mapper, (
            (plan, lo, hi, {todo[k][0]: bases[k] for k in set(owner[lo:hi])})
            for lo in range(0, size, CHUNK_SIZE)
            for hi in [min(lo + CHUNK_SIZE, size)]
        )


def _chunk_reports(
    plan: SweepPlan, lo: int, hi: int, bases: dict[tuple[int, ...], Elements]
) -> Iterator[ConditionReport]:
    """Reports of the vectors lo .. hi-1 of the box, in enumeration order."""
    for v in _box_slice(plan.degrees.rank, plan.order_bound, lo, hi):
        inst = Instance.of(
            plan.degrees,
            v,
            require_dedekind=plan.require_dedekind,
            require_trivial_nonneg=plan.require_trivial_nonneg,
            group=plan.group,
        )
        yield check_instance(inst, bases)


def _run_chunk(task) -> tuple[list[str] | None, _Tally]:
    """One phase-2 task: the chunk's record lines (None without an output
    file) and its tally."""
    plan, lo, hi, bases = task
    lines = None if plan.out_path is None else []
    tally = _Tally()
    for rep in _chunk_reports(plan, lo, hi, bases):
        if lines is not None:
            lines.append(serialize.sweep_record_line(rep))
        tally.add(rep)
    return lines, tally


def sweep_reports(plan: SweepPlan) -> list[ConditionReport]:
    """Run the plan's instances and return reports in enumeration order.

    Phase 2 runs in this process, through the same chunk reports as a sweep.
    """
    with _chunk_tasks(plan) as (_, tasks):
        return [rep for task in tasks for rep in _chunk_reports(*task)]


class _Tally:
    """Running aggregate of one plan's reports, folded one at a time or
    merged from the tallies of consecutive parts."""

    def __init__(self):
        self.key = None
        # The stored counts of a SweepSummary, by field name.
        self.counts = Counter(total=0, admissible=0, cond_i_true=0, factorial_not_i=0)
        self.histogram: Counter[int] = Counter()
        self.counterexamples: list[tuple[int, ...]] = []

    def _check_key(self, key) -> None:
        if self.key is None:
            self.key = key
        elif self.key != key:
            raise MixedPlansError(f"record {key} does not match plan {self.key}")

    def add(self, rep: ConditionReport) -> None:
        inst = rep.instance
        self._check_key(
            (inst.rank, inst.degrees.entries, inst.require_dedekind, inst.require_trivial_nonneg)
        )
        counts = self.counts
        counts["total"] += 1
        if rep.admissible:
            counts["admissible"] += 1
            if rep.cond_i:
                counts["cond_i_true"] += 1
            elif rep.factorial:
                counts["factorial_not_i"] += 1
            self.histogram[rep.hilbert_size] += 1
        if rep.equivalence_ok is False:
            self.counterexamples.append(inst.orders.entries)

    def merge(self, part: _Tally) -> None:
        """Fold in the tally of the records that follow the ones folded so far."""
        if part.key is None:
            return
        self._check_key(part.key)
        self.counts.update(part.counts)
        self.histogram.update(part.histogram)
        self.counterexamples += part.counterexamples

    def summary(self) -> SweepSummary:
        return SweepSummary(
            **self.counts,
            hilbert_histogram=tuple(sorted(self.histogram.items())),
            counterexamples=tuple(self.counterexamples),
        )


def summarize(records: Iterable[ConditionReport]) -> SweepSummary:
    """Aggregate a record stream from a single plan into a SweepSummary.

    Raises MixedPlansError if records disagree on rank, degrees, or flags.
    """
    tally = _Tally()
    for rep in records:
        tally.add(rep)
    return tally.summary()


@contextmanager
def _replacing(path: str | Path | None):
    """Text file for `path` that replaces it only once the block succeeds.

    Text goes to a temp file in the same directory, renamed over `path`
    at the end; on any exception the temp file is removed and an existing
    file at `path` is left untouched, so a failed sweep never leaves a
    truncated output file.  Parent directories are created.  An existing
    directory at `path` is refused here, before the block runs.  Yields
    None when `path` is None.
    """
    if path is None:
        yield None
        return
    path = Path(path)
    if path.is_dir():
        raise IsADirectoryError(f"output path {str(path)!r} is a directory")
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def run_sweep(plan: SweepPlan) -> SweepSummary:
    """Execute the plan: write each chunk's records in order and merge its tally."""
    t0 = time.perf_counter()
    tally = _Tally()
    with _replacing(plan.out_path) as fh, _chunk_tasks(plan) as (mapper, tasks):
        for lines, part in mapper(_run_chunk, tasks):
            if fh is not None:
                fh.writelines(lines)
            tally.merge(part)
    return replace(tally.summary(), wall_time_s=time.perf_counter() - t0)
