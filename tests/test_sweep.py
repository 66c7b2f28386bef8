"""Sweep machinery: enumeration, aggregation, determinism, partitioning."""

from __future__ import annotations

import itertools
import multiprocessing
import os
from dataclasses import replace

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
from artinhol import cli, conditions, sweep
from artinhol.errors import CapExceededError, EngineMismatchError, MixedPlansError
from artinhol.hilbert import HilbertBasis, _carried, canonical_order, hilbert_basis_oracle
from artinhol.serialize import (
    read_sweep_records,
    render_summary_csv,
    render_summary_json,
    sweep_record_line,
)
from artinhol.sweep import _box_slice, _index, _Tally
from conftest import SWEEP_FAMILIES


class TestEnumerate:
    def test_rank_one(self):
        got = [v.entries for v in enumerate_order_vectors(1, 1)]
        assert got == [(-1,), (0,), (1,)]

    def test_rank_two_order(self):
        got = [v.entries for v in enumerate_order_vectors(2, 1)]
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

    def test_sweep_refuses_an_oversized_box_up_front(self):
        plan = SweepPlan(DegreeVector((1,) * 10), 3)
        with pytest.raises(CapExceededError):
            sweep_reports(plan)

    def test_phase_one_index_follows_the_enumeration(self):
        # _index walks the box without building OrderVectors; it must see
        # the vectors enumerate_order_vectors yields, in the same order
        plan = SweepPlan(DegreeVector((1, 1, 2)), 2)
        box = [v.entries for v in enumerate_order_vectors(3, 2)]
        first: dict[tuple[int, ...], tuple[int, ...]] = {}
        for v in box:
            first.setdefault(canonical_order(v)[0], v)
        todo, owner = _index(plan)
        assert todo == list(first.items())
        assert owner.itemsize == 4
        assert len(owner) == len(box)
        for v, k in zip(box, owner):
            assert todo[k][0] == canonical_order(v)[0]


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
        written = run_sweep(replace(plan, out_path=tmp_path / "records.jsonl"))
        assert render_summary_json(bare) == render_summary_json(written)
        assert render_summary_csv(bare) == render_summary_csv(written)

    def test_worker_determinism(self, tmp_path):
        out1 = tmp_path / "w1.jsonl"
        out2 = tmp_path / "w2.jsonl"
        s1 = run_sweep(SweepPlan(DegreeVector((1, 1, 2)), 1, worker_count=1, out_path=out1))
        s2 = run_sweep(SweepPlan(DegreeVector((1, 1, 2)), 1, worker_count=2, out_path=out2))
        assert out1.read_bytes() == out2.read_bytes()
        assert s1 == s2  # wall time excluded from equality

    def test_no_more_workers_than_bases(self, tmp_path, monkeypatch):
        ctx = multiprocessing.get_context()
        started = []

        def pool(n):
            started.append(n)
            return ctx.Pool(n)

        monkeypatch.setattr(sweep, "Pool", pool)
        out1 = tmp_path / "w1.jsonl"
        out8 = tmp_path / "w8.jsonl"
        run_sweep(SweepPlan(DegreeVector((1,)), 1, worker_count=1, out_path=out1))
        assert started == []
        # (-1,), (0,) and (1,) are the only canonical vectors
        run_sweep(SweepPlan(DegreeVector((1,)), 1, worker_count=8, out_path=out8))
        assert started == [3]
        assert out8.read_bytes() == out1.read_bytes()


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
    """Make both engines append one line per call to log_path."""

    def logged(name, fn):
        def call(v):
            with open(log_path, "a", encoding="utf-8") as fh:
                fh.write(f"{name} {v.entries}\n")
            return fn(v)

        return call

    for name in ("hilbert_basis_oracle", "hilbert_basis_frontier"):
        setattr(conditions, name, logged(name, getattr(conditions, name)))


class TestBasisCache:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_each_engine_runs_once_per_canonical_vector(self, tmp_path, monkeypatch, workers):
        log = tmp_path / "calls.log"
        if workers == 1:
            for name in ("hilbert_basis_oracle", "hilbert_basis_frontier"):
                monkeypatch.setattr(conditions, name, getattr(conditions, name))
            _log_engine_calls(log)
        else:
            ctx = multiprocessing.get_context()
            monkeypatch.setattr(
                sweep,
                "Pool",
                lambda n: ctx.Pool(n, initializer=_log_engine_calls, initargs=(log,)),
            )
        reports = sweep_reports(SweepPlan(DegreeVector((1, 1, 2)), 2, worker_count=workers))
        assert len(reports) == 125
        canon = {canonical_order(r.instance.orders.entries)[0] for r in reports}
        calls = sorted(log.read_text().splitlines())
        engines = ("hilbert_basis_oracle", "hilbert_basis_frontier")
        expect = sorted(f"{name} {c}" for c in canon for name in engines)
        assert calls == expect
        assert len(canon) < 125

    def test_explicit_basis_matches_uncached_report(self):
        inst = Instance.of((1, 2, 1), (2, -1, -2))
        canon, _ = canonical_order(inst.orders.entries)
        bases = {canon: conditions.cross_checked_basis(canon).elements}
        assert check_instance(inst, bases) == check_instance(inst)
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
        expect = sorted(f"{name} {c}" for c in canon for name in engines)
        assert sorted(log.read_text().splitlines()) == expect

    def test_basis_failure_names_the_swept_vector(self, monkeypatch):
        frontier = conditions.hilbert_basis_frontier

        def wrong_for_minus_one_one(v):
            basis = frontier(v)
            if v.entries == (-1, 1):
                return HilbertBasis(basis.elements[:-1], "frontier")
            return basis

        monkeypatch.setattr(conditions, "hilbert_basis_frontier", wrong_for_minus_one_one)
        with pytest.raises(EngineMismatchError) as err:
            run_sweep(SweepPlan(DegreeVector((1, 1)), 2))
        # (-2, 2) is the first vector of the box whose canonical form is (-1, 1)
        assert "canonical order vector (-1, 1) of order vector (-2, 2)" in str(err.value)

    def test_wrong_closed_form_factoriality_is_caught(self, monkeypatch):
        closed_form = conditions.factorial_closed_form
        monkeypatch.setattr(
            conditions, "factorial_closed_form", lambda v: not closed_form(v)
        )
        with pytest.raises(EngineMismatchError, match="closed-form factoriality"):
            conditions.cross_checked_basis((2, -3))
        with pytest.raises(EngineMismatchError) as err:
            run_sweep(SweepPlan(DegreeVector((1, 1)), 2))
        # (-2, -2) is the first vector of the box; its canonical form is (-1, -1)
        assert "canonical order vector (-1, -1) of order vector (-2, -2)" in str(err.value)


class TestAtomicOutput:
    def _fail_at(self, monkeypatch, k):
        real = sweep.check_instance
        calls = []

        def failing(inst, bases=None):
            calls.append(inst)
            if len(calls) == k:
                raise RuntimeError(f"instance {k} failed")
            return real(inst, bases)

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
        box = [v.entries for v in enumerate_order_vectors(r, bound)]
        n = len(box)
        for lo, hi in [(0, n), (0, 1), (n - 1, n), (n // 3, n // 2), (n, n)]:
            assert list(_box_slice(r, bound, lo, hi)) == box[lo:hi]

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
        def failing(inst, bases=None):
            if inst.orders.entries == (1, 0, -1):
                raise RuntimeError(f"check failed in process {os.getpid()}")
            return real(inst, bases)

        monkeypatch.setattr(sweep, "check_instance", failing)
        with pytest.raises(RuntimeError, match="check failed in process") as err:
            run_sweep(SweepPlan(DegreeVector((1, 1, 2)), 4, worker_count=2, out_path=out))
        assert f"process {os.getpid()}" not in str(err.value)
        if existing:
            assert out.read_text() == "previous sweep\n"
            assert [p.name for p in tmp_path.iterdir()] == ["records.jsonl"]
        else:
            assert list(tmp_path.iterdir()) == []


class TestTallyMerge:
    def _reports(self):
        reports = sweep_reports(SweepPlan(DegreeVector((1, 1, 2)), 2))
        # Real sweeps hold no counterexamples; flipping ii makes some.
        return [
            replace(rep, cond_ii=not rep.cond_ii) if i % 17 == 3 and rep.admissible else rep
            for i, rep in enumerate(reports)
        ]

    def test_merged_parts_equal_one_pass_summary(self):
        reports = self._reports()
        whole = summarize(reports)
        assert len(whole.counterexamples) > 2
        assert len(whole.hilbert_histogram) > 1
        for cuts in [(), (0,), (1, 1, 64), (32, 100), (124,), (125,)]:
            bounds = [0, *cuts, len(reports)]
            tally = _Tally()
            for lo, hi in itertools.pairwise(bounds):
                part = _Tally()
                for rep in reports[lo:hi]:
                    part.add(rep)
                tally.merge(part)
            assert tally.summary() == whole

    def test_mismatched_parts_are_rejected(self):
        a = _Tally()
        a.add(check_instance(Instance.of((1, 1), (0, 0))))
        for other in [
            Instance.of((1, 2), (0, 0)),
            Instance.of((1, 1), (0, 0), require_dedekind=False),
        ]:
            b = _Tally()
            b.add(check_instance(other))
            with pytest.raises(MixedPlansError):
                a.merge(b)
        empty = _Tally()
        empty.merge(a)
        assert empty.summary() == a.summary()


class TestSummarize:
    def test_empty(self):
        s = summarize([])
        assert s.total == 0
        assert s.admissible == 0
        assert s.hilbert_histogram == ()
        assert s.counterexamples == ()

    def test_single_report(self):
        rep = check_instance(Instance.of((1, 1), (0, 0)))
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
        a = check_instance(Instance.of((1, 1), (0, 0)))
        b = check_instance(Instance.of((1, 2), (0, 0)))
        with pytest.raises(MixedPlansError):
            summarize([a, b])
        c = check_instance(Instance.of((1, 1), (0, 0), require_dedekind=False))
        with pytest.raises(MixedPlansError):
            summarize([a, c])


class TestPlanValidation:
    def test_bounds(self):
        with pytest.raises(ValueError):
            SweepPlan(DegreeVector((1, 1)), 0)
        with pytest.raises(ValueError):
            SweepPlan(DegreeVector((1, 1)), 1, worker_count=0)

    @pytest.mark.parametrize(
        "degrees, order_bound, worker_count, match",
        [
            ((1, 1), 1, 1, "degrees must be a DegreeVector"),
            ([1, 1], 1, 1, "degrees must be a DegreeVector"),
            (DegreeVector((1, 1)), 1.0, 1, "order_bound must be an int"),
            (DegreeVector((1, 1)), True, 1, "order_bound must be an int"),
            (DegreeVector((1, 1)), 1, 2.0, "worker_count must be an int"),
            (DegreeVector((1, 1)), 1, True, "worker_count must be an int"),
        ],
    )
    def test_mistyped_fields(self, degrees, order_bound, worker_count, match):
        with pytest.raises(TypeError, match=match):
            SweepPlan(degrees, order_bound, worker_count=worker_count)
