"""Sweep machinery: enumeration, aggregation, determinism, partitioning."""

from __future__ import annotations

import ast
import collections
import gc
import itertools
import math
import multiprocessing.pool
import os
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artinhol import (
    DegreeVector,
    Instance,
    SweepPlan,
    check_instance,
    enumerate_order_vectors,
    run_sweep,
    summarize,
    sweep_reports,
)
from artinhol import cli, conditions, core, sweep
from artinhol.errors import (
    ArtinHolError,
    CapExceededError,
    EngineMismatchError,
    MixedPlansError,
    WorkerDiedError,
)
from artinhol.conditions import _carried, canonical_order
from artinhol.hilbert import HilbertBasis, hilbert_basis_oracle
from artinhol.serialize import (
    read_sweep_records,
    render_summary_csv,
    render_summary_json,
    sweep_record_line,
)
from artinhol.sweep import CHUNK_SIZE, _chunk_reports, _chunk_tasks
from conftest import SWEEP_FAMILIES, child_env


class TestEnumerate:
    def test_rank_one(self):
        got = list(enumerate_order_vectors(1, 1))
        assert got == [(-1,), (0,), (1,)]
        assert {type(v) for v in got} == {tuple}

    def test_rank_two_order(self):
        got = list(enumerate_order_vectors(2, 1))
        assert len(got) == 9
        assert got[0] == (-1, -1)
        assert got[-1] == (1, 1)
        assert got == sorted(got)
        assert len(set(got)) == 9

    def test_rank_three_count(self):
        assert sum(1 for _ in enumerate_order_vectors(3, 2)) == 125

    def test_cap(self):
        with pytest.raises(CapExceededError):
            list(enumerate_order_vectors(10, 3))

    @pytest.mark.parametrize("r, bound", [(0, 1), (1, 0)])
    def test_empty_box_is_refused(self, r, bound):
        with pytest.raises(ValueError) as err:
            enumerate_order_vectors(r, bound)
        assert str(err.value) == "need r >= 1 and bound >= 1"

    @pytest.mark.parametrize(
        "r, bound, message",
        [
            (True, 1, "r must be an int, got True"),
            (2, True, "bound must be an int, got True"),
            (0, True, "bound must be an int, got True"),
        ],
    )
    def test_a_bool_is_refused_as_the_plan_refuses_it(self, r, bound, message):
        # Both arguments are checked before either is compared with 1.
        with pytest.raises(TypeError) as err:
            enumerate_order_vectors(r, bound)
        assert str(err.value) == message

    def test_sweep_refuses_an_oversized_box_up_front(self):
        message = "sweep of 10 x 282475249 = 2824752490 entries exceeds cap 10000000"
        with pytest.raises(CapExceededError) as err:
            SweepPlan(DegreeVector((1,) * 10), 3)
        assert str(err.value) == message
        plan = SweepPlan(DegreeVector((1,) * 10), 1)
        with pytest.raises(CapExceededError, match="exceeds cap"):
            plan._replace(order_bound=3)

    def test_a_rank_past_12_is_refused_before_its_box_size_is_built(self, capsys):
        # 13 * 3^13 is over the cap, so a rank of 13 or more is refused at
        # once for every B, its size named as a power: 3^10000 has 4,772
        # digits, more than int-to-str converts by default.
        message = "sweep of 10000 x 3^10000 entries exceeds cap 10000000"
        with pytest.raises(CapExceededError) as err:
            SweepPlan(DegreeVector((1,) * 10_000), 1)
        assert str(err.value) == message
        start = time.perf_counter()
        assert cli.main(["sweep", "--degrees", ",".join(["1"] * 10_000), "--order-bound", "1"]) == 2
        assert time.perf_counter() - start < 5
        assert capsys.readouterr().err == f"error: {message}\n"
        with pytest.raises(CapExceededError, match=r"^sweep of 13 x 3\^13 entries exceeds"):
            enumerate_order_vectors(13, 1)
        assert sweep._box_size(12, 1) == 3**12

    def test_a_side_too_large_to_print_is_named_by_its_bit_length(self):
        # 2 * 10**5000 + 1 has 5,001 digits, more than int-to-str converts
        # by default, so the message names its bit length instead.
        bits = (2 * 10**5000 + 1).bit_length()
        with pytest.raises(CapExceededError) as err:
            SweepPlan((1,), 10**5000)
        assert str(err.value) == (
            f"sweep of 1 x (2B+1)^1 entries, 2B+1 of {bits} bits, exceeds cap 10000000"
        )
        with pytest.raises(CapExceededError, match=r"^sweep of 13 x \(2B\+1\)\^13 entries, 2B\+1 "):
            enumerate_order_vectors(13, 5_000_000)

    def test_oversized_box_starts_no_pool_and_leaves_no_file(self, tmp_path, monkeypatch):
        # The plan refuses the box when it is built, so no sweep starts.
        def fail(what):
            def call(arg):
                raise AssertionError(f"{what} {arg}")

            return call

        for name in ("hilbert_basis_oracle", "hilbert_basis_frontier"):
            monkeypatch.setattr(conditions, name, fail(f"{name} ran on"))
        monkeypatch.setattr(sweep, "Pool", fail("a pool started of size"))
        monkeypatch.setattr(sweep, "_usable_cpus", lambda: 2)
        out = tmp_path / "records.jsonl"
        with pytest.raises(CapExceededError):
            run_sweep(SweepPlan(DegreeVector((1,) * 10), 3, worker_count=2, out_path=out))
        assert list(tmp_path.iterdir()) == []

    def test_cap_message_names_rank_and_product(self, capsys):
        message = "sweep of 7 x 4782969 = 33480783 entries exceeds cap 10000000"
        with pytest.raises(CapExceededError) as err:
            list(enumerate_order_vectors(7, 4))
        assert str(err.value) == message
        assert cli.main(["sweep", "--group", "S5", "--order-bound", "4"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


class TestRunSweep:
    def test_hand_enumerated_b1(self, tmp_path):
        out = tmp_path / "b1.jsonl"
        plan = SweepPlan(DegreeVector((1, 1)), 1, out_path=out)
        summary = run_sweep(plan)
        assert summary.total == 9
        assert summary.admissible == 6
        assert summary.inadmissible == 3
        assert summary.counterexamples == ()
        assert out.read_text().count("\n") == 9

    def test_b2_contains_factorial_not_i(self):
        summary = run_sweep(SweepPlan(DegreeVector((1, 1)), 2))
        assert summary.counterexamples == ()
        assert summary.factorial_not_i >= 1  # v=(1,-1) among others

    def test_r3_family(self):
        summary = run_sweep(SweepPlan(DegreeVector((1, 1, 2)), 2))
        assert summary.total == 125
        assert summary.counterexamples == ()

    def test_partition_soundness(self):
        reports = sweep_reports(SweepPlan(DegreeVector((1, 1)), 2))
        vs = [r.instance.orders.entries for r in reports]
        assert len(vs) == len(set(vs)) == 25
        summary = summarize(reports)
        # inadmissible is derived from total and admissible, so this holds
        # by construction; the counts themselves are checked against the
        # reports.
        assert summary.total == summary.admissible + summary.inadmissible
        assert summary.admissible == sum(r.admissible for r in reports)
        assert summary.cond_i_false == sum(r.admissible and not r.cond_i for r in reports)

    def test_monotone_admissible_set(self):
        def admissible_set(bound):
            return {
                r.instance.orders.entries
                for r in sweep_reports(SweepPlan(DegreeVector((1, 1)), bound))
                if r.admissible
            }

        assert admissible_set(1) <= admissible_set(2)

    @pytest.mark.parametrize("flags", [(True, False), (False, True)])
    @pytest.mark.parametrize("degrees, bound", SWEEP_FAMILIES)
    def test_summary_does_not_depend_on_the_record_file(self, tmp_path, degrees, bound, flags):
        # Without an output file no record is rendered; the summary must
        # not notice.
        plan = SweepPlan(
            DegreeVector(degrees),
            bound,
            require_dedekind=flags[0],
            require_trivial_nonneg=flags[1],
            worker_count=2,
        )
        bare = run_sweep(plan)
        written = run_sweep(plan._replace(out_path=tmp_path / "records.jsonl"))
        assert render_summary_json(bare) == render_summary_json(written)
        assert render_summary_csv(bare) == render_summary_csv(written)

    def test_worker_determinism(self, tmp_path):
        out1 = tmp_path / "w1.jsonl"
        out2 = tmp_path / "w2.jsonl"
        s1 = run_sweep(SweepPlan(DegreeVector((1, 1, 2)), 1, worker_count=1, out_path=out1))
        s2 = run_sweep(SweepPlan(DegreeVector((1, 1, 2)), 1, worker_count=2, out_path=out2))
        assert out1.read_bytes() == out2.read_bytes()
        assert s1 == s2

    def test_no_more_workers_than_chunks(self, tmp_path, monkeypatch):
        # more usable CPUs than workers, so only the chunks bound the pool
        started = _logged_pool(monkeypatch, cpus=64)
        plan = SweepPlan(DegreeVector((1, 1, 2)), 4, worker_count=8)
        out1 = tmp_path / "w1.jsonl"
        out8 = tmp_path / "w8.jsonl"
        run_sweep(plan._replace(worker_count=1, out_path=out1))
        assert started == []
        # a box of one chunk runs in this process whatever the workers
        run_sweep(plan._replace(order_bound=1))
        assert started == []
        # 729 records: two full chunks and a partial one
        run_sweep(plan._replace(out_path=out8))
        assert started == [3]
        assert out8.read_bytes() == out1.read_bytes()

    def test_pool_is_capped_at_the_usable_cpus(self, monkeypatch):
        started = []

        class FakePool:
            """Records its size and starts no process; its imap is map."""

            imap = staticmethod(map)

            def __init__(self, n):
                started.append(n)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

        monkeypatch.setattr(sweep, "Pool", FakePool)
        plan = SweepPlan(DegreeVector((1, 1, 2, 2)), 3, worker_count=100_000)
        assert sum(1 for _ in _chunk_tasks(plan)) == 10  # 2,401 records
        serial = run_sweep(plan._replace(worker_count=1))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5})
        assert run_sweep(plan) == serial
        assert started == [3]
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
        run_sweep(plan)
        assert started == [3, 10]
        # where the platform has no affinity set, the machine's CPU count
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        run_sweep(plan)
        assert started == [3, 10, 5]
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert run_sweep(plan) == serial
        assert started == [3, 10, 5]
        # where the platform cannot fork, every sweep runs serially
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        monkeypatch.delattr(os, "fork")
        assert run_sweep(plan) == serial
        assert started == [3, 10, 5]


@st.composite
def order_vectors(draw):
    """Rank 1-5, entries in [-6, 6], with all-zero, tied and scaled cases forced."""
    r = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["any", "zero", "ties", "scaled"]))
    if kind == "zero":
        return (0,) * r
    if kind == "ties":
        values = st.sampled_from(draw(st.lists(st.integers(-6, 6), min_size=1, max_size=2)))
        return tuple(draw(values) for _ in range(r))
    if kind == "scaled":
        factor = draw(st.integers(2, 3))
        return tuple(factor * draw(st.integers(-2, 2)) for _ in range(r))
    return tuple(draw(st.integers(-6, 6)) for _ in range(r))


class TestCanonicalOrder:
    def test_examples(self):
        assert canonical_order((4, -2, 0)) == ((-1, 0, 2), (1, 2, 0))
        assert canonical_order((0, 0)) == ((0, 0), (0, 1))
        assert canonical_order((3, 3, -3)) == ((-1, 1, 1), (2, 0, 1))

    @settings(max_examples=100, deadline=None)
    @given(order_vectors())
    def test_basis_carried_back_from_canonical_form(self, v):
        canon, perm = canonical_order(v)
        assert sorted(perm) == list(range(len(v)))
        assert list(canon) == sorted(canon)
        carried = _carried(hilbert_basis_oracle(canon).elements, perm)
        assert carried == hilbert_basis_oracle(v).elements


def _log_engine_calls(log_path):
    """Make both engines append one line per call to log_path: the calling
    process's pid, the engine and the vector."""

    def logged(name, fn):
        def call(v):
            with open(log_path, "a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()} {name} {v.entries}\n")
            return fn(v)

        return call

    for name in ("hilbert_basis_oracle", "hilbert_basis_frontier"):
        setattr(conditions, name, logged(name, getattr(conditions, name)))


def _logged_pool(monkeypatch, cpus=2):
    """Record the size of each pool a sweep starts, and start it as
    sweep.Pool."""
    pool, started = sweep.Pool, []

    def logged(n):
        started.append(n)
        return pool(n)

    monkeypatch.setattr(sweep, "Pool", logged)
    monkeypatch.setattr(sweep, "_usable_cpus", lambda: cpus)
    return started


class TestBasisCache:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_each_engine_runs_once_per_table_support(self, tmp_path, monkeypatch, workers):
        # This process builds the sweep's type table before any chunk runs,
        # one cross-check per support, and the checks only expand from it;
        # forked workers inherit the logging engines, so the log shows
        # which process made each call.
        log = tmp_path / "calls.log"
        engines = ("hilbert_basis_oracle", "hilbert_basis_frontier")
        for name in engines:
            monkeypatch.setattr(conditions, name, getattr(conditions, name))
        _log_engine_calls(log)
        started = _logged_pool(monkeypatch)
        # 729 records, three chunks
        summary = run_sweep(SweepPlan(DegreeVector((1, 1, 2)), 4, worker_count=workers))
        assert summary.total == 729
        assert started == ([2] if workers == 2 else [])
        calls = log.read_text().splitlines()
        table = conditions.build_type_table(4, 3)
        assert calls == [f"{os.getpid()} {name} {s}" for s in table for name in engines]
        canon = {canonical_order(v)[0] for v in enumerate_order_vectors(3, 4)}
        assert len(table) == 76 < len(canon) == 122

    @pytest.mark.parametrize("workers", [1, 2])
    def test_each_vector_is_canonicalized_once(self, tmp_path, monkeypatch, workers):
        # A task ships plain vectors; the process that checks a vector
        # canonicalizes it once, inside its check: this process for one
        # worker, a pool worker for two.  Forked workers inherit the
        # patches, so each log line carries the pid of the process that
        # wrote it and whether a check made the call.
        log = tmp_path / "calls.log"
        checked = tmp_path / "checked.log"
        in_check = []

        def logged(v):
            caller = "check" if in_check else "stream"
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()} {caller} {v}\n")
            return canonical_order(v)

        real = sweep.check_instance

        def check(inst, *args, **kwargs):
            with open(checked, "a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()} {inst.orders.entries}\n")
            in_check.append(inst)
            try:
                return real(inst, *args, **kwargs)
            finally:
                in_check.pop()

        monkeypatch.setattr(conditions, "canonical_order", logged)
        monkeypatch.setattr(sweep, "check_instance", check)
        started = _logged_pool(monkeypatch)
        # 625 records, three chunks
        run_sweep(SweepPlan(DegreeVector((1, 1, 2, 2)), 2, worker_count=workers))
        assert started == ([2] if workers == 2 else [])
        box = sorted(str(v) for v in enumerate_order_vectors(4, 2))
        checks = checked.read_text().splitlines()
        assert sorted(line.split(" ", 1)[1] for line in checks) == box
        assert sorted(line.replace(" check ", " ") for line in log.read_text().splitlines()) == (
            sorted(checks)
        )
        checkers = {line.split(" ", 1)[0] for line in checks}
        assert (str(os.getpid()) in checkers) == (workers == 1)

    def test_every_worker_count_is_handed_the_same_tasks(self, monkeypatch):
        # The worker count only chooses the mapper: the stream runs in this
        # process, and each pool worker walks its own copy of it, so
        # wrapping it here records what _run_chunk is handed.
        stream = sweep._chunk_tasks
        handed = {}

        def recorded(plan):
            for task in stream(plan):
                handed.setdefault(plan.worker_count, []).append(task[1:])
                yield task

        monkeypatch.setattr(sweep, "_chunk_tasks", recorded)
        started = _logged_pool(monkeypatch)
        # 729 records, three chunks
        plan = SweepPlan(DegreeVector((1, 1, 2)), 4)
        summaries = [run_sweep(plan._replace(worker_count=n)) for n in (1, 2)]
        assert started == [2]
        assert summaries[0] == summaries[1]
        assert len(handed[1]) == 3
        assert handed[1] == handed[2]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_sweep_does_not_inherit_an_earlier_sweeps_bases(
        self, tmp_path, monkeypatch, workers
    ):
        # A sweep with a patched cross-check, which doubles every type of
        # its table and so keeps every basis size, must leave no table and
        # no basis to the next sweep.
        cross_checked = conditions.cross_checked_basis

        def doubled(s):
            elements = cross_checked(s).elements
            rows = (tuple(2 * x for x in h) if all(h) else h for h in elements)
            return HilbertBasis(sorted(rows), "oracle")

        _logged_pool(monkeypatch)
        plan = SweepPlan(DegreeVector((1, 1, 2)), 4, worker_count=workers)
        paths = [tmp_path / f"{name}.jsonl" for name in ("before", "patched", "after")]
        run_sweep(plan._replace(out_path=paths[0]))
        with monkeypatch.context() as patch:
            patch.setattr(conditions, "cross_checked_basis", doubled)
            run_sweep(plan._replace(out_path=paths[1]))
        run_sweep(plan._replace(out_path=paths[2]))
        before, patched, after = (path.read_bytes() for path in paths)
        assert patched != before
        assert after == before

    def test_explicit_basis_matches_uncached_report(self):
        inst = Instance((1, 2, 1), (2, -1, -2))
        canon, _ = canonical_order(inst.orders.entries)
        bases = {canon: conditions.cross_checked_basis(canon).elements}
        assert check_instance(inst, bases=bases) == check_instance(inst)
        assert list(bases) == [canon]

    def test_reading_a_file_runs_each_engine_once_per_canonical_vector(
        self, tmp_path, monkeypatch
    ):
        out = tmp_path / "records.jsonl"
        run_sweep(SweepPlan(DegreeVector((1, 1, 2)), 2, out_path=out))
        log = tmp_path / "calls.log"
        for name in ("hilbert_basis_oracle", "hilbert_basis_frontier"):
            monkeypatch.setattr(conditions, name, getattr(conditions, name))
        _log_engine_calls(log)
        reports = read_sweep_records(out)
        assert len(reports) == 125
        canon = {canonical_order(r.instance.orders.entries)[0] for r in reports}
        engines = ("hilbert_basis_oracle", "hilbert_basis_frontier")
        expect = sorted(f"{os.getpid()} {name} {c}" for c in canon for name in engines)
        assert sorted(log.read_text().splitlines()) == expect

    def test_basis_failure_names_the_table_support(self, monkeypatch):
        frontier = conditions.hilbert_basis_frontier

        def wrong_for_minus_one_one(v):
            basis = frontier(v)
            if v.entries == (-1, 1):
                return HilbertBasis(basis.elements[:-1], "frontier")
            return basis

        monkeypatch.setattr(conditions, "hilbert_basis_frontier", wrong_for_minus_one_one)
        with pytest.raises(EngineMismatchError) as err:
            run_sweep(SweepPlan(DegreeVector((1, 1)), 2))
        assert str(err.value).startswith(
            "table support (-1, 1) of order bound 2: engines disagree for v=(-1, 1): "
        )

    def test_wrong_closed_form_factoriality_is_caught(self, monkeypatch):
        closed_form = conditions.factorial_closed_form
        monkeypatch.setattr(
            conditions, "factorial_closed_form", lambda v: not closed_form(v)
        )
        with pytest.raises(EngineMismatchError, match="closed-form factoriality"):
            conditions.cross_checked_basis((2, -3))
        with pytest.raises(EngineMismatchError) as err:
            run_sweep(SweepPlan(DegreeVector((1, 1)), 2))
        # (-2, 1) is the table's first support
        assert str(err.value) == (
            "table support (-2, 1) of order bound 2: closed-form factoriality disagrees "
            "with the basis for v=(-2, 1): 2 irreducibles at rank 2"
        )

    def test_an_expanded_basis_is_checked_against_the_closed_form(self, monkeypatch):
        # The expansion reads the closed form off conditions._profile, which
        # is wrong here only for (-1, 1) once a type table is built: the
        # table's cross-check of its one support, (-1, 1), runs before and
        # succeeds, and the expansion's check names c.
        profile = conditions._profile

        def wrong(ent):
            pr = profile(ent)
            if ent == (-1, 1) and conditions._TABLE:
                return pr._replace(factorial=not pr.factorial)
            return pr

        conditions._TABLE.clear()
        monkeypatch.setattr(conditions, "_profile", wrong)
        with pytest.raises(EngineMismatchError) as err:
            run_sweep(SweepPlan(DegreeVector((1, 1)), 1))
        assert str(err.value) == (
            "closed-form factoriality disagrees with the basis expanded from the type "
            "table for c=(-1, 1): 2 irreducibles at rank 2"
        )


class TestAtomicOutput:
    def _fail_at(self, monkeypatch, k):
        real = sweep.check_instance
        calls = []

        def failing(inst, *args):
            calls.append(inst)
            if len(calls) == k:
                raise RuntimeError(f"instance {k} failed")
            return real(inst, *args)

        monkeypatch.setattr(sweep, "check_instance", failing)

    def test_failed_sweep_keeps_the_existing_file(self, tmp_path, monkeypatch):
        out = tmp_path / "records.jsonl"
        out.write_text("previous sweep\n")
        self._fail_at(monkeypatch, 5)
        with pytest.raises(RuntimeError, match="instance 5 failed"):
            run_sweep(SweepPlan(DegreeVector((1, 1)), 1, out_path=out))
        assert out.read_text() == "previous sweep\n"
        assert [p.name for p in tmp_path.iterdir()] == ["records.jsonl"]

    def test_failed_sweep_creates_no_file(self, tmp_path, monkeypatch):
        out = tmp_path / "records.jsonl"
        self._fail_at(monkeypatch, 5)
        with pytest.raises(RuntimeError):
            run_sweep(SweepPlan(DegreeVector((1, 1)), 1, out_path=out))
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("name", ["records.jsonl", "new/records.jsonl"])
    def test_output_path_ending_in_a_separator_is_refused(self, name, tmp_path):
        # realpath strips the separator, but open() refuses such a name: an
        # existing file of that name stays as it was, and no file or
        # directory is made for an absent one.
        out = tmp_path / "records.jsonl"
        out.write_bytes(b"previous sweep\n")
        path = f"{tmp_path / name}{os.sep}"
        with pytest.raises(IsADirectoryError) as err:
            run_sweep(SweepPlan(DegreeVector((1, 1)), 1, out_path=path))
        assert str(err.value) == f"output path {path!r} ends in a path separator"
        assert out.read_bytes() == b"previous sweep\n"
        assert list(tmp_path.iterdir()) == [out]

    def test_successful_sweep_replaces_the_file(self, tmp_path):
        out = tmp_path / "records.jsonl"
        out.write_text("previous sweep\n")
        run_sweep(SweepPlan(DegreeVector((1, 1)), 1, out_path=out))
        assert out.read_text().count("\n") == 9
        assert [p.name for p in tmp_path.iterdir()] == ["records.jsonl"]


class TestChunkedPhaseTwo:
    def _artifacts(self, tmp_path, capsys, degrees, bound, workers):
        paths = [tmp_path / f"w{workers}.{ext}" for ext in ("jsonl", "json", "csv")]
        argv = [
            "sweep",
            "--degrees", ",".join(map(str, degrees)),
            "--order-bound", str(bound),
            "--workers", str(workers),
        ]
        for flag, path in zip(("--out", "--summary-json", "--csv"), paths):
            argv += [flag, str(path)]
        assert cli.main(argv) == 0
        capsys.readouterr()
        return [path.read_bytes() for path in paths]

    # (1, 1, 2) at B=4 has 729 records: two full chunks and a partial one.
    @pytest.mark.parametrize("degrees, bound", [*SWEEP_FAMILIES, ((1, 1, 2), 4)])
    def test_artifacts_do_not_depend_on_worker_count(self, tmp_path, capsys, degrees, bound):
        one = self._artifacts(tmp_path, capsys, degrees, bound, 1)
        for workers in (2, 4):
            assert self._artifacts(tmp_path, capsys, degrees, bound, workers) == one

    def test_reports_render_to_the_sweep_records(self, tmp_path):
        out = tmp_path / "records.jsonl"
        plan = SweepPlan(DegreeVector((1, 1, 2)), 4, worker_count=2, out_path=out)
        run_sweep(plan)
        lines = "".join(sweep_record_line(rep) for rep in sweep_reports(plan))
        assert out.read_text() == lines

    @pytest.mark.parametrize("r, bound", [(1, 1), (1, 2), (3, 2), (4, 1), (3, 4)])
    def test_box_slices_follow_the_enumeration(self, r, bound):
        # The one task stream cuts the box into consecutive slices of
        # CHUNK_SIZE plain vectors, the last one partial at (3, 4), and
        # ships each with the plan and nothing else; the reports follow
        # the slices.
        box = list(enumerate_order_vectors(r, bound))
        plan = SweepPlan(DegreeVector((1,) * r), bound)
        tasks = list(_chunk_tasks(plan))
        assert all(len(task) == 2 and task[0] is plan for task in tasks)
        assert [vectors for _, vectors in tasks] == [
            box[lo : lo + CHUNK_SIZE] for lo in range(0, len(box), CHUNK_SIZE)
        ]
        assert [rep.instance.orders.entries for rep in sweep_reports(plan)] == box

    def test_a_table_failure_writes_nothing_and_starts_no_pool(self, tmp_path, monkeypatch):
        # (-1, -1, 3) is a support of the B=4 table of rank 3, whose
        # canonical vector is record 277 of the box, in the second chunk.
        # The table is built before any chunk runs, so every worker count
        # fails before a pool starts, and no file is left behind.
        frontier = conditions.hilbert_basis_frontier

        def wrong_for_late_vector(v):
            basis = frontier(v)
            if v.entries == (-1, -1, 3):
                return HilbertBasis(basis.elements[:-1], "frontier")
            return basis

        monkeypatch.setattr(conditions, "hilbert_basis_frontier", wrong_for_late_vector)
        started = _logged_pool(monkeypatch, cpus=4)
        elements = hilbert_basis_oracle((-1, -1, 3)).elements
        out = tmp_path / "records.jsonl"
        for workers in (1, 2, 4):
            with pytest.raises(EngineMismatchError) as err:
                run_sweep(SweepPlan(DegreeVector((1, 1, 2)), 4, worker_count=workers, out_path=out))
            assert str(err.value) == (
                "table support (-1, -1, 3) of order bound 4: "
                f"engines disagree for v=(-1, -1, 3): {elements} vs {elements[:-1]}"
            )
            assert list(tmp_path.iterdir()) == []
        assert started == []

    @pytest.mark.parametrize("existing", [False, True])
    def test_failure_in_a_worker_propagates_and_writes_nothing(
        self, tmp_path, monkeypatch, existing
    ):
        out = tmp_path / "records.jsonl"
        if existing:
            out.write_text("previous sweep\n")
        real = sweep.check_instance

        # Forked workers inherit the patch; (1, 0, -1) is record 444, in
        # the second chunk.
        def failing(inst, *args):
            if inst.orders.entries == (1, 0, -1):
                raise RuntimeError(f"check failed in process {os.getpid()}")
            return real(inst, *args)

        monkeypatch.setattr(sweep, "check_instance", failing)
        with pytest.raises(RuntimeError, match="check failed in process") as err:
            run_sweep(SweepPlan(DegreeVector((1, 1, 2)), 4, worker_count=2, out_path=out))
        assert f"process {os.getpid()}" not in str(err.value)
        # the worker's traceback is the cause of the exception raised here
        assert ", in failing\n" in str(err.value.__cause__)
        if existing:
            assert out.read_text() == "previous sweep\n"
            assert [p.name for p in tmp_path.iterdir()] == ["records.jsonl"]
        else:
            assert list(tmp_path.iterdir()) == []

    def test_a_failed_pool_is_sent_no_more_tasks_and_finishes_before_teardown(
        self, monkeypatch
    ):
        # Terminating a worker while it sends a result can leave the result
        # queue locked and hang the teardown; after a failure the pool gets
        # no further task, is closed and joined, and only then torn down,
        # with every worker exited by itself.
        calls = []

        class RecordingPool(multiprocessing.pool.Pool):
            def close(self):
                calls.append("close")
                super().close()

            def join(self):
                calls.append("join")
                super().join()

            def terminate(self):
                calls.append(("terminate", {p.exitcode for p in self._pool}))
                super().terminate()

        monkeypatch.setattr(sweep, "Pool", RecordingPool)
        monkeypatch.setattr(sweep, "_usable_cpus", lambda: 2)
        pulled = []
        tasks = sweep._chunk_tasks

        def counted(plan):
            for task in tasks(plan):
                pulled.append(len(pulled))
                yield task

        monkeypatch.setattr(sweep, "_chunk_tasks", counted)
        real = sweep.check_instance

        def failing(inst, *args):  # (-3, -3, 3, -3, 3) is record 300, in the second chunk
            if inst.orders.entries == (-3, -3, 3, -3, 3):
                raise RuntimeError("check failed")
            return real(inst, *args)

        monkeypatch.setattr(sweep, "check_instance", failing)
        plan = SweepPlan(DegreeVector((1,) * 5), 3, worker_count=2)
        with pytest.raises(RuntimeError, match="check failed"):
            run_sweep(plan)
        assert calls == ["close", "join", ("terminate", {0})]
        assert len(pulled) < 66 // 2  # of 7^5 = 16,807 records, 66 chunks


#: A child process runs PATCH, then the CLI's two-worker sweep of (1, 1, 2)
#: at B=4 (729 records in three chunks, (1, 0, -1) the 444th, in the second)
#: into argv[1], and prints, after the CLI's output, its exit code or the
#: exception, then the first child it has started that is still running,
#: or exited but not waited for, or [] if there is none.
_POOLED_SWEEP = """\
import os, sys
from artinhol import cli, sweep
sweep._usable_cpus = lambda: 2
real_check, real_add = sweep.check_instance, sweep.SweepSummary.__add__
real_run = sweep._run_chunk
PATCH
argv = ["sweep", "--degrees", "1,1,2", "--order-bound", "4", "--workers", "2", "--out", sys.argv[1]]
try:
    print(cli.main(argv))
except BaseException as exc:
    print(f"{type(exc).__name__}: {exc}")
try:
    print(os.waitpid(-1, os.WNOHANG))
except ChildProcessError:
    print([])
"""

_POOL_OUTCOMES = {
    "success": ("", "0", ""),
    "exception in a worker": (
        """
def check(inst, *args):
    if inst.orders.entries == (1, 0, -1):
        raise RuntimeError("check failed")
    return real_check(inst, *args)
sweep.check_instance = check
""",
        "RuntimeError: check failed",
        "",
    ),
    "dead worker": (
        """
def check(inst, *args):
    if inst.orders.entries == (1, 0, -1):
        os._exit(3)
    return real_check(inst, *args)
sweep.check_instance = check
""",
        "2",
        "error: worker process exited with code 3 in the chunk that starts at v=(-1, -3, 0)\n",
    ),
    # The file limit is passed while the second chunk's records are written.
    "OSError from the writer": (
        """
import resource, signal
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
resource.setrlimit(resource.RLIMIT_FSIZE, (200_000, 200_000))
""",
        "2",
        "error: [Errno 27] File too large\n",
    ),
    "KeyboardInterrupt after the first chunk": (
        """
added = []
def add(self, other):
    added.append(other)
    if len(added) == 2:
        raise KeyboardInterrupt
    return real_add(self, other)
sweep.SweepSummary.__add__ = add
""",
        "130",
        "interrupted\n",
    ),
    # The worker's pickle of its result fails; the pool raises its error.
    "result that cannot be pickled": (
        """
class Unpicklable:
    def __reduce__(self):
        raise TypeError("cannot pickle this result")
def run(task):
    lines, part = real_run(task)
    return (lines, Unpicklable()) if (1, 0, -1) in task[1] else (lines, part)
sweep._run_chunk = run
""",
        "TypeError: cannot pickle this result",
        "",
    ),
}


def _recorded_pids(monkeypatch) -> list[int]:
    """The pids of the pool workers started from now on, in the order
    forked."""
    start, pids = sweep.Pool._start, []

    def recorded(self, *args):
        pid, results = start(self, *args)
        pids.append(pid)
        return pid, results

    monkeypatch.setattr(sweep.Pool, "_start", recorded)
    return pids


class TestPoolOutcomes:
    # Each sweep runs in a child process with a timeout, so a pool that
    # hangs fails its test in seconds.
    @pytest.mark.parametrize("outcome", list(_POOL_OUTCOMES))
    def test_every_worker_exits_and_no_temp_file_remains(self, tmp_path, outcome):
        patch, result, stderr = _POOL_OUTCOMES[outcome]
        out = tmp_path / "records.jsonl"
        res = subprocess.run(
            [sys.executable, "-c", _POOLED_SWEEP.replace("PATCH", patch), str(out)],
            capture_output=True,
            text=True,
            env=child_env(),
            timeout=60,
        )
        assert res.returncode == 0, res.stderr
        assert res.stdout.splitlines()[-2:] == [result, "[]"]
        # A worker that returned into the caller's code would print again.
        assert res.stdout.splitlines().count(result) == 1
        assert res.stdout.count("wall time:") == (outcome == "success")
        assert res.stderr == stderr
        if outcome == "success":
            assert [p.name for p in tmp_path.iterdir()] == ["records.jsonl"]
            assert out.read_text().count("\n") == 729
        else:
            assert list(tmp_path.iterdir()) == []

    def test_tasks_and_results_larger_than_a_pipe_pass_through(self):
        # No task crosses a pipe: each worker walks its own copy of the
        # 1 MB tasks, and its 1 MB results, more than its pipe holds, pass
        # through as the pool reads them in task order.
        script = (
            "from artinhol import sweep\n"
            "def padded(task):\n"
            "    return task[0], 'x' * len(task[1])\n"
            "tasks = [(i, 'y' * 2**20) for i in range(8)]\n"
            "with sweep.Pool(2) as pool:\n"
            "    results = list(pool.imap(padded, tasks))\n"
            "assert results == [(i, 'x' * 2**20) for i in range(8)]\n"
        )
        res = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=child_env(),
            timeout=60,
        )
        assert res.returncode == 0, res.stderr

    def test_a_caller_that_fails_while_a_worker_is_blocked_writing_finishes(self):
        # The caller raises on task 0 while worker 1 is blocked writing a
        # 2 MB result into its full pipe: close() lets that write fail, so
        # the worker exits by itself and join() returns.
        script = (
            "import os, time\n"
            "from artinhol import sweep\n"
            "def padded(task):\n"
            "    return 'x' * 2**21\n"
            "with sweep.Pool(2) as pool:\n"
            "    try:\n"
            "        for result in pool.imap(padded, range(4)):\n"
            "            time.sleep(0.2)\n"
            "            raise RuntimeError('caller failed')\n"
            "    except RuntimeError:\n"
            "        pool.close()\n"
            "        pool.join()\n"
            "        assert sorted(pool._exitcodes.values()) == [0, 0], pool._exitcodes\n"
            "try:\n"
            "    print(os.waitpid(-1, os.WNOHANG))\n"
            "except ChildProcessError:\n"
            "    print([])\n"
        )
        res = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=child_env(),
            timeout=60,
        )
        assert res.returncode == 0, res.stderr
        assert res.stdout == "[]\n"

    def test_tasks_need_not_pickle_and_task_j_runs_in_worker_j_mod_n(self, monkeypatch):
        # Each worker walks its own copy of the tasks, so neither the
        # tasks nor func, lambdas local to this test, are pickled; and
        # task j is worker j % n's.
        pids = _recorded_pids(monkeypatch)
        tasks = [lambda j=j: j for j in range(8)]
        with sweep.Pool(3) as pool:
            ran = list(pool.imap(lambda task: (task(), os.getpid()), tasks))
        assert len(set(pids)) == 3 and os.getpid() not in pids
        assert ran == [(j, pids[j % 3]) for j in range(8)]

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    @pytest.mark.parametrize("fails", [False, True], ids=["success", "failure"])
    def test_a_pool_leaves_no_fd_open_and_no_worker_unwaited(self, monkeypatch, fails):
        # The pool's pipe ends are raw fds, which no finalizer closes, and
        # its workers are this process's children: after either outcome
        # every fd it opened is closed and every worker has been waited for.
        pids = _recorded_pids(monkeypatch)
        monkeypatch.setattr(sweep, "_usable_cpus", lambda: 2)
        real = sweep.check_instance

        def failing(inst, *args):  # (1, 0, -1) is record 444, in the second chunk
            if fails and inst.orders.entries == (1, 0, -1):
                raise RuntimeError("check failed")
            return real(inst, *args)

        monkeypatch.setattr(sweep, "check_instance", failing)
        # Collected first: a stdlib pool an earlier test left behind closes
        # its pipes when the collector finds it, which may be mid-sweep.
        gc.collect()
        before = sorted(os.listdir("/dev/fd"))
        plan = SweepPlan(DegreeVector((1, 1, 2)), 4, worker_count=2)
        if fails:
            with pytest.raises(RuntimeError, match="check failed"):
                run_sweep(plan)
        else:
            assert run_sweep(plan) == run_sweep(plan._replace(worker_count=1))
        assert sorted(os.listdir("/dev/fd")) == before
        assert len(pids) == 2
        for pid in pids:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)

    def test_a_dead_worker_is_a_domain_error(self):
        assert issubclass(WorkerDiedError, ArtinHolError)


class TestTallyMerge:
    def _reports(self):
        reports = sweep_reports(SweepPlan(DegreeVector((1, 1, 2)), 2))
        # Real sweeps hold no counterexamples; flipping ii makes some.
        return [
            rep._replace(cond_ii=not rep.cond_ii) if i % 17 == 3 and rep.admissible else rep
            for i, rep in enumerate(reports)
        ]

    def test_merged_parts_equal_one_pass_summary(self):
        reports = self._reports()
        whole = summarize(reports)
        assert len(whole.counterexamples) > 2
        assert len(whole.hilbert_histogram) > 1
        for cuts in [(), (0,), (1, 1, 64), (32, 100), (124,), (125,)]:
            bounds = [0, *cuts, len(reports)]
            total = summarize(())
            for lo, hi in itertools.pairwise(bounds):
                total += summarize(reports[lo:hi])
            assert total == whole


class TestCounterexamples:
    def test_counterexamples_across_chunks_keep_their_order(self, monkeypatch, capsys):
        real = conditions._cond_iii_m

        def flipped(pr):
            # Wrong wherever the last order is 0, which happens in every chunk.
            m = real(pr)
            if pr.ent[-1] == 0:
                return 1 if m is None else None
            return m

        monkeypatch.setattr(conditions, "_cond_iii_m", flipped)
        monkeypatch.setattr(sweep, "_usable_cpus", lambda: 2)
        # (1, 1, 2) at B=4 has 729 records: two full chunks and a partial one.
        plan = SweepPlan(DegreeVector((1, 1, 2)), 4)
        expected = summarize(sweep_reports(plan))
        box = list(enumerate_order_vectors(3, 4))
        chunks = [box.index(v) // CHUNK_SIZE for v in expected.counterexamples]
        assert chunks == sorted(chunks)
        assert set(chunks) == {0, 1, 2}
        for workers in (1, 2):
            assert run_sweep(plan._replace(worker_count=workers)) == expected
        argv = ["sweep", "--degrees", "1,1,2", "--order-bound", "4", "--workers", "2"]
        assert cli.main(argv) == 1
        out = capsys.readouterr().out
        assert f"counterexamples: {len(expected.counterexamples)}\n" in out


class TestRestoredRecords:
    """A sweep restores each record's OrderVector and Instance from values
    its plan has validated (sweep._chunk_reports); Instance(...) still
    validates every input from outside a sweep."""

    @pytest.mark.parametrize(
        "degrees, bound, group",
        [
            *((degrees, bound, None) for degrees, bound in SWEEP_FAMILIES),
            ((3, 1, 2, 1, 3), 2, "S5"),
        ],
    )
    @pytest.mark.parametrize("flags", [(True, False), (False, True)])
    def test_restored_records_equal_validated_ones(self, degrees, bound, group, flags):
        plan = SweepPlan(degrees, bound, *flags, group=group)
        conditions.build_type_table(bound, len(degrees))
        for _, vectors in _chunk_tasks(plan):
            restored = list(_chunk_reports(plan, vectors))
            validated = [
                check_instance(Instance(degrees, v, *flags, group=group), bound) for v in vectors
            ]
            assert restored == validated
            lines = [sweep_record_line(rep) for rep in restored]
            assert lines == [sweep_record_line(rep) for rep in validated]

    @pytest.mark.parametrize("bound, workers", [(1, 1), (2, 2)])
    def test_records_are_restored_and_only_the_plan_validated(
        self, tmp_path, monkeypatch, bound, workers
    ):
        # Every call is logged to a file with its process id, so that pool
        # workers forked from this process log theirs too.  S4 (degrees
        # 1, 1, 2, 3, 3) at B=1 is one chunk, run here; at B=2 it is 13,
        # run by 2 workers.
        log = tmp_path / "calls.log"

        def spy(name, real):
            def logged(*args):
                entries = args[1] if name == "OrderVector" else None
                with open(log, "a") as fh:
                    fh.write(repr((os.getpid(), name, entries)) + "\n")
                return real(*args)

            return logged

        for cls in (core.OrderVector, core.Instance):
            monkeypatch.setattr(cls, "__init__", spy(cls.__name__, cls.__init__))
        checked = spy("check_flags", core.check_flags)
        monkeypatch.setattr(core, "check_flags", checked)
        monkeypatch.setattr(sweep, "check_flags", checked)
        monkeypatch.setattr(sweep, "_usable_cpus", lambda: workers)
        plan = SweepPlan((1, 1, 2, 3, 3), bound, worker_count=workers, out_path=tmp_path / "r")
        summary = run_sweep(plan)
        calls = [ast.literal_eval(line) for line in log.read_text().splitlines()]
        monkeypatch.undo()
        assert summary.total == (2 * bound + 1) ** 5
        assert len((tmp_path / "r").read_text().splitlines()) == summary.total
        # check_flags runs once, for the plan, and Instance.__init__ never.
        # An OrderVector is built only where the engines run on a support
        # of the plan's type table, for the support and for the reduced
        # orders its bases carry, in the sweep's own process: a canonical
        # vector's expanded basis is checked against the closed form
        # without one.  No record is validated again, and the builds do
        # not follow the records.
        assert [name for _, name, _ in calls if name != "OrderVector"] == ["check_flags"]
        built = collections.Counter((pid, e) for pid, name, e in calls if name == "OrderVector")
        supports = set(conditions._supports(bound, min(5, 2 * bound)))
        reduced = {tuple(x // math.gcd(*s) for x in s) for s in supports}
        assert supports <= {e for _, e in built} <= supports | reduced
        assert sum(built.values()) == (3 if bound == 1 else 42)  # of 243 and 3,125 records
        assert {pid for pid, _ in built} == {os.getpid()}
        # _chunk_reports' proof: every |v_j| <= B < INSTANCE_CAP fits 32 bits
        assert sweep.INSTANCE_CAP < 2**31
        for orders, error in (
            ((True, 0), TypeError),
            ((0.5, 1), TypeError),
            ((2**31, 0), ValueError),
        ):
            with pytest.raises(error):
                Instance((1, 1), orders)


class TestSummarize:
    def test_empty(self):
        s = summarize([])
        assert s.total == 0
        assert s.admissible == 0
        assert s.hilbert_histogram == ()
        assert s.counterexamples == ()

    def test_single_report(self):
        rep = check_instance(Instance((1, 1), (0, 0)))
        s = summarize([rep])
        assert s.total == 1
        assert s.admissible == 1
        assert s.cond_i_true == 1
        assert s.hilbert_histogram == ((2, 1),)

    def test_histogram_matches_recompute(self):
        reports = sweep_reports(SweepPlan(DegreeVector((1, 1)), 1))
        s = summarize(reports)
        expect: dict[int, int] = {}
        for r in reports:
            if r.admissible:
                expect[r.hilbert_size] = expect.get(r.hilbert_size, 0) + 1
        assert dict(s.hilbert_histogram) == expect

    def test_mixed_plans_rejected(self):
        a = check_instance(Instance((1, 1), (0, 0)))
        b = check_instance(Instance((1, 2), (0, 0)))
        with pytest.raises(MixedPlansError):
            summarize([a, b])
        c = check_instance(Instance((1, 1), (0, 0), require_dedekind=False))
        with pytest.raises(MixedPlansError):
            summarize([a, c])

    def test_plan_key_is_checked_when_the_degrees_object_or_flags_change(self):
        # Equal degrees in another DegreeVector are the same plan; a change
        # after many records of one DegreeVector is still found.
        reports = sweep_reports(SweepPlan(DegreeVector((1, 1)), 1))
        other = check_instance(Instance(DegreeVector((1, 1)), (1, -1)))
        assert other.instance.degrees is not reports[0].instance.degrees
        assert summarize([*reports, other]) == summarize(reports) + summarize([other])
        for bad, key in (
            (Instance((1, 2), (0, 0)), "(2, (1, 2), True, False)"),
            (Instance((1, 1), (0, 0), require_trivial_nonneg=True), "(2, (1, 1), True, True)"),
        ):
            with pytest.raises(MixedPlansError) as err:
                summarize([*reports, other, check_instance(bad)])
            assert str(err.value) == f"record {key} does not match plan (2, (1, 1), True, False)"


class TestPlanValidation:
    def test_bounds(self):
        with pytest.raises(ValueError):
            SweepPlan(DegreeVector((1, 1)), 0)
        with pytest.raises(ValueError):
            SweepPlan(DegreeVector((1, 1)), 1, worker_count=0)

    @pytest.mark.parametrize(
        "degrees, order_bound, worker_count, match",
        [
            ((1, 1.0), 1, 1, "degrees must be a DegreeVector"),
            ([1, True], 1, 1, "degrees must be a DegreeVector"),
            (DegreeVector((1, 1)), 1.0, 1, "order_bound must be an int"),
            (DegreeVector((1, 1)), True, 1, "order_bound must be an int"),
            (DegreeVector((1, 1)), 1, 2.0, "worker_count must be an int"),
            (DegreeVector((1, 1)), 1, True, "worker_count must be an int"),
            (5, 1, 1, "degrees must be a DegreeVector or a sequence of ints, got 5"),
            (None, 1, 1, "degrees must be a DegreeVector or a sequence of ints, got None"),
        ],
    )
    def test_mistyped_fields(self, degrees, order_bound, worker_count, match):
        with pytest.raises(TypeError, match=match):
            SweepPlan(degrees, order_bound, worker_count=worker_count)

    def test_plain_sequence_degrees_are_converted(self):
        typed = SweepPlan(DegreeVector((1, 1)), 1)
        assert SweepPlan((1, 1), 1) == typed
        assert SweepPlan([1, 1], 1) == typed
        assert type(SweepPlan([1, 1], 1).degrees) is DegreeVector

    @pytest.mark.parametrize(
        "name, value",
        [("require_dedekind", 1), ("require_trivial_nonneg", "no"), ("group", 5)],
    )
    def test_mistyped_flags(self, tmp_path, monkeypatch, name, value):
        def fail(v):
            raise AssertionError(f"a basis was built for {v}")

        monkeypatch.setattr(conditions, "cross_checked_basis", fail)
        out = tmp_path / "new" / "records.jsonl"
        with pytest.raises(TypeError, match=f"{name} must be a "):
            run_sweep(SweepPlan(DegreeVector((1, 1, 2)), 1, out_path=out, **{name: value}))
        assert list(tmp_path.iterdir()) == []
