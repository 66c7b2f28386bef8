"""Exhaustive instance sweeps over order-vector boxes, with deterministic output.

A sweep fixes a degree vector and enumerates every order vector in the box
[-B, B]^r in lexicographic order, runs the full condition report on each,
streams one JSON line per instance to the output file, and aggregates a
summary.  Inadmissible instances are recorded with their reasons but never
asserted against.  A SweepPlan makes every check a sweep needs, the box's
size against INSTANCE_CAP included, when it is built.

A sweep walks its box once, through enumerate_order_vectors: _chunk_tasks
cuts that walk into contiguous chunks of CHUNK_SIZE vectors, and a task is
the plan, one chunk's vectors, each with its (canon, perm) from
canonical_basis, and the canonical bases they need.  The stream
canonicalizes each vector once and cross-checks each canonical basis once
per sweep, in this process, at the first vector of the box swept to it,
so the engines run once per canonical vector, in the same order for any
worker count, and a failure names that vector.  The check carries the
basis back through the pair the vector came with.  The process that
checks a chunk renders its records and runs summarize on the reports;
the parent only writes each chunk's records and adds its summary, in
chunk order, so the output bytes do not depend on the worker count.
The worker count only chooses the mapper: with one worker, or a box of
one chunk, the builtin map runs the chunks in this process,
sweep_reports walks the same stream, and multiprocessing is never
imported: Pool imports it when it is called.
"""

from __future__ import annotations

import itertools
import os
from collections import Counter
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from . import serialize
from .conditions import ConditionReport, canonical_basis, check_instance
from .core import DegreeVector, Instance, _int_value, _setattr, _Value, check_flags
from .errors import CapExceededError, MixedPlansError
from .hilbert import Elements

INSTANCE_CAP = 10_000_000

#: Records per task, a contiguous run of the enumeration.
CHUNK_SIZE = 256


class SweepPlan(_Value):
    """One sweep: degrees (a DegreeVector, or a sequence of ints converted
    to one), box radius, flags, parallelism, output path."""

    __slots__ = (
        "degrees",
        "order_bound",
        "require_dedekind",
        "require_trivial_nonneg",
        "worker_count",
        "out_path",
        "group",
    )
    degrees: DegreeVector
    order_bound: int
    require_dedekind: bool
    require_trivial_nonneg: bool
    worker_count: int
    out_path: str | Path | None
    group: str | None

    def __init__(
        self,
        degrees: DegreeVector | Sequence[int],
        order_bound: int,
        require_dedekind: bool = True,
        require_trivial_nonneg: bool = False,
        worker_count: int = 1,
        out_path: str | Path | None = None,
        group: str | None = None,
    ):
        if not isinstance(degrees, DegreeVector):
            try:
                degrees = DegreeVector(degrees)
            except TypeError as err:
                raise TypeError(
                    f"degrees must be a DegreeVector or a sequence of ints, got {degrees!r}"
                ) from err
        _setattr(self, "degrees", degrees)
        _setattr(self, "order_bound", order_bound)
        _setattr(self, "require_dedekind", require_dedekind)
        _setattr(self, "require_trivial_nonneg", require_trivial_nonneg)
        _setattr(self, "worker_count", worker_count)
        _setattr(self, "out_path", out_path)
        _setattr(self, "group", group)
        for name in ("order_bound", "worker_count"):
            if _int_value(getattr(self, name), name) < 1:
                raise ValueError(f"{name.replace('_', ' ')} must be >= 1")
        check_flags(self, "group")
        _box_size(self.degrees.rank, self.order_bound)


class SweepSummary(_Value):
    """Aggregate counts for one sweep.

    Condition statistics and the size histogram cover admissible instances
    only; inadmissible ones are counted but not asserted against.  The sum
    of two summaries is the summary of the first one's records followed by
    the second one's.
    """

    __slots__ = (
        "total", "cond_i_true", "factorial_not_i", "hilbert_histogram", "counterexamples"
    )
    total: int
    cond_i_true: int
    factorial_not_i: int
    hilbert_histogram: tuple[tuple[int, int], ...]
    counterexamples: tuple[tuple[int, ...], ...]

    def __init__(
        self,
        total: int,
        cond_i_true: int,
        factorial_not_i: int,
        hilbert_histogram: tuple[tuple[int, int], ...],
        counterexamples: tuple[tuple[int, ...], ...],
    ):
        _setattr(self, "total", total)
        _setattr(self, "cond_i_true", cond_i_true)
        _setattr(self, "factorial_not_i", factorial_not_i)
        _setattr(self, "hilbert_histogram", hilbert_histogram)
        _setattr(self, "counterexamples", counterexamples)

    def __add__(self, other: SweepSummary) -> SweepSummary:
        histogram = Counter(dict(self.hilbert_histogram))
        histogram.update(dict(other.hilbert_histogram))
        return SweepSummary(
            total=self.total + other.total,
            cond_i_true=self.cond_i_true + other.cond_i_true,
            factorial_not_i=self.factorial_not_i + other.factorial_not_i,
            hilbert_histogram=tuple(sorted(histogram.items())),
            counterexamples=self.counterexamples + other.counterexamples,
        )

    @property
    def admissible(self) -> int:
        """The histogram's total, which counts exactly the admissible records."""
        return sum(n for _, n in self.hilbert_histogram)

    @property
    def inadmissible(self) -> int:
        return self.total - self.admissible

    @property
    def cond_i_false(self) -> int:
        return self.admissible - self.cond_i_true


def _box_size(r: int, bound: int) -> int:
    """(2B+1)^r, the number of vectors in the box [-B, B]^r; raises
    CapExceededError if r * (2B+1)^r exceeds INSTANCE_CAP."""
    size = (2 * bound + 1) ** r
    if r * size > INSTANCE_CAP:
        raise CapExceededError(
            f"sweep of {r} x {size} = {r * size} entries exceeds cap {INSTANCE_CAP}"
        )
    return size


def enumerate_order_vectors(r: int, bound: int) -> Iterator[tuple[int, ...]]:
    """All (2B+1)^r order vectors in the box, as tuples, lexicographically;
    r or B not an int or below 1, and a box over INSTANCE_CAP, raise up front."""
    if min(_int_value(r, "r"), _int_value(bound, "bound")) < 1:
        raise ValueError("need r >= 1 and bound >= 1")
    _box_size(r, bound)
    return itertools.product(range(-bound, bound + 1), repeat=r)


def _chunk_tasks(plan: SweepPlan) -> Iterator[tuple]:
    """The plan's tasks, in enumeration order: (plan, the next CHUNK_SIZE
    vectors of enumerate_order_vectors' box, each paired with its
    canonical_basis (canon, perm), the canonical bases those vectors
    need), each basis computed at the first vector swept to it.  A
    canonical vector or a permutation is one object throughout the sweep,
    the key of `needed` included, so a pickled task holds it once."""
    box = enumerate_order_vectors(plan.degrees.rank, plan.order_bound)
    bases: dict[tuple[int, ...], Elements] = {}
    interned: dict[tuple[int, ...], tuple[int, ...]] = {}
    while chunk := list(itertools.islice(box, CHUNK_SIZE)):
        vectors = []
        needed = {}
        for v in chunk:
            canon, perm = canonical_basis(v, bases)
            canon = interned.setdefault(canon, canon)
            perm = interned.setdefault(perm, perm)
            needed[canon] = bases[canon]
            vectors.append((v, (canon, perm)))
        yield plan, vectors, needed


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform
    has one, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def Pool(processes: int):
    """multiprocessing.Pool(processes), imported only when a sweep starts a
    pool, so a serial sweep never loads multiprocessing."""
    import multiprocessing

    return multiprocessing.Pool(processes)


def _chunk_reports(
    plan: SweepPlan,
    vectors: list[tuple[tuple[int, ...], tuple]],
    bases: dict[tuple[int, ...], Elements],
) -> Iterator[ConditionReport]:
    """Reports of one chunk's vectors, in order, their bases from `bases`
    through the (canon, perm) each vector comes with."""
    for v, canonical in vectors:
        inst = Instance(
            plan.degrees,
            v,
            require_dedekind=plan.require_dedekind,
            require_trivial_nonneg=plan.require_trivial_nonneg,
            group=plan.group,
        )
        yield check_instance(inst, bases, canonical)


def _run_chunk(task) -> tuple[list[str] | None, SweepSummary]:
    """One task of _chunk_tasks: the chunk's record lines (None
    without an output file) and its summary."""
    plan = task[0]
    reports = list(_chunk_reports(*task))
    lines = None
    if plan.out_path is not None:
        lines = [serialize.sweep_record_line(rep) for rep in reports]
    return lines, summarize(reports)


def sweep_reports(plan: SweepPlan) -> list[ConditionReport]:
    """Run the plan's instances in this process and return reports in
    enumeration order, through the same tasks as a sweep."""
    return [rep for task in _chunk_tasks(plan) for rep in _chunk_reports(*task)]


def summarize(records: Iterable[ConditionReport]) -> SweepSummary:
    """Aggregate a record stream from a single plan into a SweepSummary.

    Raises MixedPlansError if records disagree on rank, degrees, or flags.
    """
    plan = None
    # The stored counts of a SweepSummary, by field name.
    counts = Counter(total=0, cond_i_true=0, factorial_not_i=0)
    histogram: Counter[int] = Counter()
    counterexamples: list[tuple[int, ...]] = []
    for rep in records:
        inst = rep.instance
        key = (inst.rank, inst.degrees.entries, inst.require_dedekind, inst.require_trivial_nonneg)
        if plan is None:
            plan = key
        elif plan != key:
            raise MixedPlansError(f"record {key} does not match plan {plan}")
        counts["total"] += 1
        if rep.admissible:
            if rep.cond_i:
                counts["cond_i_true"] += 1
            elif rep.factorial:
                counts["factorial_not_i"] += 1
            histogram[rep.hilbert_size] += 1
        if rep.equivalence_ok is False:
            counterexamples.append(inst.orders.entries)
    return SweepSummary(
        **counts,
        hilbert_histogram=tuple(sorted(histogram.items())),
        counterexamples=tuple(counterexamples),
    )


def _output_file(path: str | Path) -> Path:
    """The file that output to `path` replaces: `path` with its symlinks
    resolved.  An existing directory or other file that is not a regular
    file there is refused, and so is a name ending in a path separator,
    which realpath would strip but open() refuses.  The check stats
    `path` itself, following its links as open() would: realpath reads a
    link like /dev/stdout on a pipe as a name that does not exist."""
    name, given = str(path), Path(path)
    if name[-1:] in (os.sep, os.altsep):
        raise IsADirectoryError(f"output path {name!r} ends in a path separator")
    if given.is_dir():
        raise IsADirectoryError(f"output path {name!r} is a directory")
    if given.exists() and not given.is_file():
        raise OSError(f"output path {name!r} is not a regular file")
    return Path(os.path.realpath(path))


@contextmanager
def _replacing(path: str | Path | None):
    """Text file for `path` that replaces it only once the block succeeds.

    Text goes to a temp file in the same directory, renamed over `path`
    at the end; on any exception the temp file is removed and an existing
    file at `path` is left untouched, so a failed sweep never leaves a
    truncated output file.  Symlinks are resolved first, so the file a link
    names is replaced, not the link.  _output_file refuses a `path` that
    cannot be replaced, before parent directories are created and before
    the block runs.  Yields None when `path` is None.
    """
    if path is None:
        yield None
        return
    path = _output_file(path)
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
    """Execute the plan: write each chunk's records and add its summary,
    in chunk order.  The chunks run through the imap of one Pool of n
    processes, n the least of the workers, the chunks and the usable
    CPUs, if n > 1; else through the builtin map, in this process.

    When a chunk fails in a pool, or writing its records does, the pool
    is sent no further task and finishes the tasks it has before it is
    torn down: a worker terminated while it sends a result would leave the
    result queue's lock held, and the teardown would wait on it forever.
    """
    summary = summarize(())
    with _replacing(plan.out_path) as fh:
        chunks = -(-_box_size(plan.degrees.rank, plan.order_bound) // CHUNK_SIZE)
        n = min(plan.worker_count, chunks, _usable_cpus())
        failed = []
        tasks = itertools.takewhile(lambda _: not failed, _chunk_tasks(plan))
        with Pool(n) if n > 1 else nullcontext() as pool:
            try:
                for lines, part in (pool.imap if n > 1 else map)(_run_chunk, tasks):
                    if fh is not None:
                        fh.writelines(lines)
                    summary += part
            except Exception:
                if n > 1:
                    failed.append(True)
                    pool.close()
                    pool.join()
                raise
    return summary
