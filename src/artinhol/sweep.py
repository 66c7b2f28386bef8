"""Exhaustive instance sweeps over order-vector boxes, with deterministic output.

A sweep fixes a degree vector and enumerates every order vector in the box
[-B, B]^r in lexicographic order, runs the full condition report on each,
streams one JSON line per instance to the output file, and aggregates a
summary.  Inadmissible instances are recorded with their reasons but never
asserted against.

Hol(v) is invariant under positive scaling of v and equivariant under
permutations of its coordinates, so a sweep runs in two phases.  Phase 1
computes one cross-checked Hilbert basis per orbit-canonical order vector
(see canonical_order), split across processes when asked.  Phase 2 cuts
the box's enumeration into contiguous chunks of CHUNK_SIZE records; each
task carries one chunk's range and the canonical basis elements it needs,
and the worker carries them back to every vector of its chunk, derives
the verdicts, renders the records and tallies them.  The parent only
writes each chunk's records and merges its tally, in chunk order, so the
output bytes do not depend on the worker count.  With one worker the same
chunk function runs in this process, and sweep_reports walks the same
chunk reports.
"""

from __future__ import annotations

import itertools
import math
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from multiprocessing import Pool
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .conditions import ConditionReport, check_instance, cross_checked_basis
from .core import DegreeVector, Instance, OrderVector
from .errors import ArtinHolError, CapExceededError, MixedPlansError

INSTANCE_CAP = 10_000_000

#: Records per phase-2 task, a contiguous run of the enumeration.
CHUNK_SIZE = 256

Elements = tuple[tuple[int, ...], ...]


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
        if self.order_bound < 1:
            raise ValueError("order bound must be >= 1")
        if self.worker_count < 1:
            raise ValueError("worker count must be >= 1")


@dataclass(frozen=True)
class SweepSummary:
    """Aggregate counts for one sweep.

    Condition statistics and the size histogram cover admissible instances
    only; inadmissible ones are counted but not asserted against.  Wall
    time is informational and excluded from equality.
    """

    total: int
    admissible: int
    inadmissible: int
    cond_i_true: int
    cond_i_false: int
    factorial_not_i: int
    hilbert_histogram: tuple[tuple[int, int], ...]
    counterexamples: tuple[tuple[int, ...], ...]
    wall_time_s: float = field(default=0.0, compare=False)


def enumerate_order_vectors(r: int, bound: int) -> Iterator[OrderVector]:
    """Yield all (2B+1)^r order vectors in the box, lexicographically.

    Raises CapExceededError up front if r * (2B+1)^r exceeds INSTANCE_CAP.
    """
    for entries in _box(r, bound):
        yield OrderVector(entries)


def _box(r: int, bound: int) -> Iterator[tuple[int, ...]]:
    """Entries of the vectors of enumerate_order_vectors(r, bound), with its
    checks made up front and no OrderVector built."""
    if r < 1 or bound < 1:
        raise ValueError("need r >= 1 and bound >= 1")
    size = (2 * bound + 1) ** r
    if r * size > INSTANCE_CAP:
        raise CapExceededError(f"sweep of r*{size} entries exceeds cap {INSTANCE_CAP}")
    return itertools.product(range(-bound, bound + 1), repeat=r)


def canonical_order(v: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Orbit-canonical form of an order vector under scaling and permutation.

    Returns (c, perm): c is v divided by the gcd of its entries (1 when all
    are zero) and sorted ascending, with c[i] = v[perm[i]] / gcd.  The map
    k -> (k[perm[0]], ..., k[perm[r-1]]) is then a monoid isomorphism from
    Hol(v) onto Hol(c).
    """
    g = math.gcd(*v) or 1
    perm = tuple(sorted(range(len(v)), key=v.__getitem__))
    return tuple(v[i] // g for i in perm), perm


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


def _carried(elements: Elements, perm: Sequence[int]) -> Elements:
    """Carry basis elements of Hol(c) back to Hol(v), where (c, perm) = canonical_order(v).

    Coordinate i of an element of Hol(c) becomes coordinate perm[i].  The
    map only permutes coordinates, so distinct nonzero nonnegative elements
    stay so, and sorting them again keeps the basis lex-sorted.
    """
    inverse = sorted(range(len(perm)), key=perm.__getitem__)
    return tuple(sorted(tuple([h[i] for i in inverse]) for h in elements))


def _canonical_basis(item: tuple[tuple[int, ...], tuple[int, ...]]) -> Elements:
    canon, swept = item
    try:
        return cross_checked_basis(canon).elements
    except ArtinHolError as exc:
        # The canonical vector is sorted and gcd-reduced, so it need not be
        # the vector the user swept; name that one too.
        raise type(exc)(
            f"canonical order vector {canon} of swept order vector {swept}: {exc}"
        ) from exc


def _index(
    plan: SweepPlan,
) -> tuple[list[tuple[tuple[int, ...], tuple[int, ...]]], list[set[int]]]:
    """Walk the box once, for phase 1.

    Returns each canonical vector with the first vector swept to it, in
    order of first appearance, and for each chunk the positions in that
    list of the canonical vectors its records need.  Positions keep the
    index small: about 28 MB for the 823,543 vectors of S5 B=3.
    """
    position: dict[tuple[int, ...], int] = {}
    todo: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    needs: list[set[int]] = []
    for i, v in enumerate(_box(plan.degrees.rank, plan.order_bound)):
        canon = canonical_order(v)[0]
        k = position.setdefault(canon, len(todo))
        if k == len(todo):
            todo.append((canon, v))
        if i % CHUNK_SIZE == 0:
            needs.append(set())
        needs[-1].add(k)
    return todo, needs


@contextmanager
def _mapper(n: int):
    """The builtin map for one process, else the ordered imap of one Pool(n)."""
    if n == 1:
        yield map
    else:
        with Pool(n) as pool:
            yield pool.imap


@contextmanager
def _chunk_tasks(plan: SweepPlan):
    """Compute the plan's canonical bases; yield the map and the phase-2 tasks.

    The bases are computed through the map the sweep keeps for phase 2,
    which runs in a pool when more than one worker is asked for and the
    box has more than one canonical vector.  Each task is (plan, lo, hi,
    bases) for one chunk, carrying only the bases its records need.
    """
    todo, needs = _index(plan)
    size = (2 * plan.order_bound + 1) ** plan.degrees.rank
    with _mapper(min(plan.worker_count, len(todo))) as mapper:
        bases = list(mapper(_canonical_basis, todo))
        yield mapper, (
            (plan, lo, min(lo + CHUNK_SIZE, size), {todo[k][0]: bases[k] for k in need})
            for lo, need in zip(range(0, size, CHUNK_SIZE), needs)
        )


def _chunk_reports(
    plan: SweepPlan, lo: int, hi: int, bases: dict[tuple[int, ...], Elements]
) -> Iterator[ConditionReport]:
    """Reports of the vectors lo .. hi-1 of the box, in enumeration order."""
    for v in _box_slice(plan.degrees.rank, plan.order_bound, lo, hi):
        canon, perm = canonical_order(v)
        inst = Instance.of(
            plan.degrees,
            v,
            require_dedekind=plan.require_dedekind,
            require_trivial_nonneg=plan.require_trivial_nonneg,
            group=plan.group,
        )
        yield check_instance(inst, _carried(bases[canon], perm))


def _run_chunk(task) -> tuple[list[str] | None, _Tally]:
    """One phase-2 task: the chunk's record lines (None without an output
    file) and its tally."""
    from . import serialize  # serialize imports this module

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
        self.total = self.admissible = 0
        self.ci_true = self.ci_false = self.factorial_not_i = 0
        self.histogram: dict[int, int] = {}
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
        self.total += 1
        if rep.admissible:
            self.admissible += 1
            if rep.cond_i:
                self.ci_true += 1
            else:
                self.ci_false += 1
            if rep.factorial and not rep.cond_i:
                self.factorial_not_i += 1
            self.histogram[rep.hilbert_size] = self.histogram.get(rep.hilbert_size, 0) + 1
        if rep.equivalence_ok is False:
            self.counterexamples.append(inst.orders.entries)

    def merge(self, part: _Tally) -> None:
        """Fold in the tally of the records that follow the ones folded so far."""
        if part.key is None:
            return
        self._check_key(part.key)
        self.total += part.total
        self.admissible += part.admissible
        self.ci_true += part.ci_true
        self.ci_false += part.ci_false
        self.factorial_not_i += part.factorial_not_i
        for size, n in part.histogram.items():
            self.histogram[size] = self.histogram.get(size, 0) + n
        self.counterexamples += part.counterexamples

    def summary(self) -> SweepSummary:
        return SweepSummary(
            total=self.total,
            admissible=self.admissible,
            inadmissible=self.total - self.admissible,
            cond_i_true=self.ci_true,
            cond_i_false=self.ci_false,
            factorial_not_i=self.factorial_not_i,
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
    truncated output file.  Parent directories are created.  Yields None
    when `path` is None.
    """
    if path is None:
        yield None
        return
    path = Path(path)
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
