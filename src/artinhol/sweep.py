"""Exhaustive instance sweeps over order-vector boxes, with deterministic output.

A sweep fixes a degree vector and enumerates every order vector in the box
[-B, B]^r in lexicographic order, runs the full condition report on each,
streams one JSON line per instance to the output file, and aggregates a
summary.  Inadmissible instances are recorded with their reasons but never
asserted against.

Hol(v) is invariant under positive scaling of v and equivariant under
permutations of its coordinates, so a sweep runs in two phases.  Phase 1
computes one cross-checked Hilbert basis per orbit-canonical order vector
(see canonical_order), split across processes when asked.  Phase 2 walks
the box in enumeration order, carries each canonical basis back to its
vector and derives the verdicts; records are written by a single writer,
so output bytes do not depend on the worker count.
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
from .hilbert import HilbertBasis

INSTANCE_CAP = 10_000_000


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
    if r < 1 or bound < 1:
        raise ValueError("need r >= 1 and bound >= 1")
    size = (2 * bound + 1) ** r
    if r * size > INSTANCE_CAP:
        raise CapExceededError(f"sweep of r*{size} entries exceeds cap {INSTANCE_CAP}")
    for entries in itertools.product(range(-bound, bound + 1), repeat=r):
        yield OrderVector(entries)


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


def basis_from_canonical(basis: HilbertBasis, perm: Sequence[int]) -> HilbertBasis:
    """Carry a Hilbert basis of Hol(c) back to Hol(v), where (c, perm) = canonical_order(v)."""
    elems = []
    for h in basis.elements:
        k = [0] * len(perm)
        for x, j in zip(h, perm):
            k[j] = x
        elems.append(tuple(k))
    return HilbertBasis(tuple(sorted(elems)), basis.source_engine)


def _canonical_basis(item: tuple[tuple[int, ...], tuple[int, ...]]) -> HilbertBasis:
    canon, swept = item
    try:
        return cross_checked_basis(canon)
    except ArtinHolError as exc:
        # The canonical vector may lie outside the box; name the one swept.
        raise type(exc)(
            f"canonical order vector {canon} of swept order vector {swept}: {exc}"
        ) from exc


def _reports(plan: SweepPlan) -> Iterator[ConditionReport]:
    """Yield the plan's reports in enumeration order, one basis per orbit."""
    r = plan.degrees.rank
    vectors = list(enumerate_order_vectors(r, plan.order_bound))
    keys = [canonical_order(v.entries) for v in vectors]
    first_swept: dict[tuple[int, ...], tuple[int, ...]] = {}
    for v, (canon, _) in zip(vectors, keys):
        first_swept.setdefault(canon, v.entries)
    todo = list(first_swept.items())
    n = min(plan.worker_count, len(todo))
    if n == 1:
        computed = [_canonical_basis(item) for item in todo]
    else:
        with Pool(n) as pool:
            computed = pool.map(_canonical_basis, todo, chunksize=1)
    bases = dict(zip(first_swept, computed))
    for v, (canon, perm) in zip(vectors, keys):
        inst = Instance.of(
            plan.degrees,
            v,
            require_dedekind=plan.require_dedekind,
            require_trivial_nonneg=plan.require_trivial_nonneg,
            group=plan.group,
        )
        yield check_instance(inst, basis_from_canonical(bases[canon], perm))


def sweep_reports(plan: SweepPlan) -> list[ConditionReport]:
    """Run the plan's instances and return reports in enumeration order."""
    return list(_reports(plan))


class _Tally:
    """Running aggregate of one plan's reports, folded one at a time."""

    def __init__(self):
        self.key = None
        self.total = self.admissible = 0
        self.ci_true = self.ci_false = self.factorial_not_i = 0
        self.histogram: dict[int, int] = {}
        self.counterexamples: list[tuple[int, ...]] = []

    def add(self, rep: ConditionReport) -> None:
        inst = rep.instance
        this_key = (
            inst.rank,
            inst.degrees.entries,
            inst.require_dedekind,
            inst.require_trivial_nonneg,
        )
        if self.key is None:
            self.key = this_key
        elif self.key != this_key:
            raise MixedPlansError(f"record {this_key} does not match plan {self.key}")
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
    """Execute the plan, streaming each record to the writer and the summary."""
    from .serialize import sweep_record_line

    t0 = time.perf_counter()
    tally = _Tally()
    with _replacing(plan.out_path) as fh:
        for rep in _reports(plan):
            if fh is not None:
                fh.write(sweep_record_line(rep))
            tally.add(rep)
    return replace(tally.summary(), wall_time_s=time.perf_counter() - t0)
