"""Serialization: round-trips, byte stability, integer-only payloads."""

from __future__ import annotations

import itertools
import json
import string
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artinhol import DegreeVector, Instance, SweepPlan, check_instance, get_group, sweep_reports
from artinhol import conditions, serialize
from artinhol.conditions import ConditionReport, canonical_order
from artinhol.errors import LengthMismatchError
from artinhol.serialize import (
    exit_code_for_report,
    parse_report_document,
    read_sweep_records,
    render_report_human,
    render_report_json,
    render_summary_csv,
    render_summary_json,
    sweep_record_line,
)
from artinhol.sweep import run_sweep, summarize
from conftest import SWEEP_FAMILIES, report_document


def _no_floats(node) -> bool:
    if isinstance(node, float):
        return False
    if isinstance(node, dict):
        return all(_no_floats(v) for v in node.values())
    if isinstance(node, list):
        return all(_no_floats(v) for v in node)
    return True


def test_round_trip_on_small_sweep():
    reports = sweep_reports(SweepPlan(DegreeVector((1, 1)), 2))
    for rep in reports:
        text = render_report_json(rep)
        back = parse_report_document(text)
        assert back == rep


def test_round_trip_preserves_labels_and_flags():
    rep = check_instance(
        Instance(
            (1, 1, 2),
            (1, -1, 0),
            require_dedekind=False,
            require_trivial_nonneg=True,
            group="S3",
            s0_label="s0=1/2",
        )
    )
    assert parse_report_document(render_report_json(rep)) == rep


def test_no_floating_point_anywhere():
    rep = check_instance(Instance((1, 1, 2), (1, -1, 0)))
    assert _no_floats(report_document(rep))
    summary = summarize(sweep_reports(SweepPlan(DegreeVector((1, 1)), 1)))
    assert _no_floats(json.loads(render_summary_json(summary)))


def test_render_is_stable():
    rep = check_instance(Instance((1, 1), (1, -1)))
    assert render_report_json(rep) == render_report_json(rep)
    line = sweep_record_line(rep)
    assert line.endswith("\n")
    assert "\n" not in line[:-1]


def test_sweep_file_round_trip(tmp_path):
    out = tmp_path / "records.jsonl"
    run_sweep(SweepPlan(DegreeVector((1, 1)), 1, out_path=out))
    records = read_sweep_records(out)
    assert len(records) == 9
    direct = sweep_reports(SweepPlan(DegreeVector((1, 1)), 1))
    assert records == direct


def test_sweep_file_with_an_edited_basis_is_rejected(tmp_path):
    # Hol(1,0,-1) has the basis (0,1,0), (1,0,0), (1,0,1).  Raising the
    # last element to (2,0,1) keeps its shape, its lex order and every
    # verdict, but the rebuilt report computes the basis, so the record
    # alone is rejected, and so is the file.
    out = tmp_path / "records.jsonl"
    run_sweep(SweepPlan(DegreeVector((1, 1, 2)), 1, out_path=out))
    lines = out.read_text().splitlines(keepends=True)
    (i,) = [i for i, line in enumerate(lines) if '"orders":[1,0,-1]' in line]
    old, new = '"elements":[[0,1,0],[1,0,0],[1,0,1]]', '"elements":[[0,1,0],[1,0,0],[2,0,1]]'
    assert old in lines[i]
    lines[i] = lines[i].replace(old, new)
    with pytest.raises(ValueError, match="record key 'hilbert' disagrees"):
        parse_report_document(lines[i])
    out.write_text("".join(lines))
    with pytest.raises(ValueError, match="record key 'hilbert' disagrees"):
        read_sweep_records(out)


def test_exit_code_contract():
    rep = check_instance(Instance((1, 1), (1, -1)))
    assert rep.equivalence_ok is True
    assert exit_code_for_report(rep) == 0

    inadmissible = check_instance(Instance((1, 1), (0, -1)))
    assert inadmissible.equivalence_ok is None
    assert exit_code_for_report(inadmissible) == 0

    # the pipeline never produces a failed equivalence (the four criteria
    # provably agree), so the exit-1 branch is exercised synthetically
    broken = rep._replace(cond_i=True)
    assert isinstance(broken, ConditionReport)
    assert broken.equivalence_ok is False
    assert exit_code_for_report(broken) == 1


def test_schema_version_checked():
    rep = check_instance(Instance((1, 1), (0, 0)))
    for version in ("1", "99"):
        doc = report_document(rep)
        doc["schema_version"] = version
        with pytest.raises(ValueError, match="schema"):
            parse_report_document(doc)


@pytest.mark.parametrize(
    "path, match",
    [
        (None, "record is not a JSON object: got list"),
        (("instance",), "record lacks key 'instance'"),
        (("instance", "labels", "s0"), "record lacks key 's0'"),
        (("hilbert",), "record lacks key 'hilbert'"),
        (("instance", []), "record key 'instance' is not a JSON object: got list"),
        (("instance", "flags", []), "record key 'flags' is not a JSON object: got list"),
        (("instance", "labels", []), "record key 'labels' is not a JSON object: got list"),
        (("hilbert", []), "record key 'hilbert' is not a JSON object: got list"),
    ],
)
def test_malformed_record_raises_value_error(tmp_path, path, match):
    # path None replaces the record by a JSON list; a path ending in []
    # replaces the value at the rest of the path by []; else the key at the
    # end of path is dropped.
    doc = report_document(check_instance(Instance((1, 1, 2), (1, 0, -1))))
    if path is None:
        doc = []
    else:
        *outer, key = path
        emptied = key == []
        if emptied:
            *outer, key = outer
        node = doc
        for k in outer:
            node = node[k]
        if emptied:
            node[key] = []
        else:
            del node[key]
    text = json.dumps(doc, separators=(",", ":"))
    with pytest.raises(ValueError, match=match):
        parse_report_document(text)
    out = tmp_path / "records.jsonl"
    out.write_text(text + "\n")
    with pytest.raises(ValueError, match=match):
        read_sweep_records(out)


def test_rank_must_match_degrees():
    line = sweep_record_line(check_instance(Instance((1, 1, 2), (1, 0, -1))))
    assert '"r":3,' in line
    parse_report_document(line)
    for r in ("2", "4"):
        with pytest.raises(LengthMismatchError, match=f"r {r} vs degrees 3"):
            parse_report_document(line.replace('"r":3,', f'"r":{r},'))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda r: st.tuples(
            st.lists(st.integers(1, 3), min_size=r, max_size=r),
            st.lists(st.integers(-4, 4), min_size=r, max_size=r),
        )
    ),
    st.booleans(),
    st.booleans(),
    st.none() | st.text(max_size=6),
    st.none() | st.text(max_size=6),
)
def test_round_trip_property(vectors, dedekind, trivial, group, s0):
    degrees, orders = vectors
    rep = check_instance(
        Instance(
            degrees,
            orders,
            require_dedekind=dedekind,
            require_trivial_nonneg=trivial,
            group=group,
            s0_label=s0,
        )
    )
    assert parse_report_document(render_report_json(rep)) == rep


@pytest.mark.parametrize(
    "orders, old, new, key",
    [
        # orders 1,0,-1 is inadmissible; 1,1,0 passes every condition, m = 1
        ((1, 0, -1), '"size":3', '"size":7', "hilbert"),
        ((1, 1, 0), '"factorial":true', '"factorial":false', "factorial"),
        ((1, 1, 0), '"equivalence_ok":true', '"equivalence_ok":false', "equivalence_ok"),
        ((1, 1, 0), '"witness":[1,0,0]', '"witness":[2,0,0]', "conditions"),
        ((1, 1, 0), '"m":1', '"m":null', "conditions"),
        ((1, 1, 0), '"admissible":{"ok":true', '"admissible":{"ok":1', "admissible"),
    ],
)
def test_tampered_record_is_rejected(orders, old, new, key):
    line = render_report_json(check_instance(Instance((1, 1, 2), orders)))
    assert old in line
    parse_report_document(line)
    with pytest.raises(ValueError, match=f"record key '{key}' disagrees"):
        parse_report_document(line.replace(old, new, 1))


def test_other_encodings_of_a_record_parse_through_the_key_comparison():
    # Only the rendered text itself takes the fast path; the same document
    # spaced out, padded, or already parsed is compared key by key.
    line = sweep_record_line(check_instance(Instance((1, 1, 2), (1, 1, 0))))
    rep = parse_report_document(line)
    doc = json.loads(line)
    for other in (json.dumps(doc, indent=1), f"  {line}  ", doc):
        assert parse_report_document(other) == rep
    tampered = json.dumps(doc, indent=1).replace('"m": 1', '"m": null', 1)
    with pytest.raises(ValueError, match="record key 'conditions' disagrees"):
        parse_report_document(tampered)


@pytest.mark.parametrize(
    "degrees, orders, old, new, error, match",
    [
        # each edit re-renders to the same bytes, or fails with a bare
        # TypeError, unless the parser checks types
        ((1, 1), (1, -1), '"require_dedekind":true', '"require_dedekind":1',
         TypeError, "require_dedekind must be a bool"),
        ((1, 1), (1, -1), '"elements":[[1,0],', '"elements":[[1.0,0],',
         TypeError, "must be ints, got 1.0"),
        ((1, 1), (1, -1), '"group":null', '"group":5', TypeError, "group must be a str"),
        ((1, 1), (1, -1), '"elements":[[1,0],[1,1]]', '"elements":[[1,0,0],[1,1,0]]',
         LengthMismatchError, "length 3, expected 2"),
        ((1, 1), (1, -1), '"r":2,', '"r":"2",', TypeError, "r must be an int, got '2'"),
        ((1,), (1,), '"r":1,', '"r":true,', TypeError, "r must be an int, got True"),
        ((1, 1), (1, -1), '"elements":[[1,0],[1,1]]', '"elements":5',
         ValueError, "record key 'elements' is not a JSON array: got int"),
        ((1, 1), (1, -1), '"elements":[[1,0],[1,1]]', '"elements":null',
         ValueError, "record key 'elements' is not a JSON array: got NoneType"),
    ],
)
def test_mistyped_record_is_rejected(degrees, orders, old, new, error, match):
    line = render_report_json(check_instance(Instance(degrees, orders)))
    assert old in line
    parse_report_document(line)
    with pytest.raises(error, match=match):
        parse_report_document(line.replace(old, new, 1))


def _assert_renders_like_reference(rep):
    assert render_report_json(rep) == json.dumps(
        report_document(rep), separators=(",", ":"), ensure_ascii=True
    )


def test_renderer_matches_reference_on_acceptance_families(swept_families):
    families, _ = swept_families
    n = 0
    for _, _, reports in families:
        for rep in reports:
            _assert_renders_like_reference(rep)
            n += 1
    assert n == sum((2 * bound + 1) ** len(degrees) for degrees, bound in SWEEP_FAMILIES)


# Labels mix JSON's escaped characters, control characters and non-ASCII.
_LABEL_TEXT = st.text(
    st.sampled_from('"\\/\n\t\x00\x7fé€😀' + string.ascii_letters + string.digits),
    max_size=8,
)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 7).flatmap(
        lambda r: st.tuples(
            st.lists(st.integers(1, 4), min_size=r, max_size=r),
            st.lists(st.integers(-5, 5), min_size=r, max_size=r),
        )
    ),
    st.booleans(),
    st.booleans(),
    st.none() | _LABEL_TEXT,
    st.none() | _LABEL_TEXT,
)
def test_renderer_matches_reference_property(vectors, dedekind, trivial, group, s0):
    degrees, orders = vectors
    inst = Instance(
        degrees,
        orders,
        require_dedekind=dedekind,
        require_trivial_nonneg=trivial,
        group=group,
        s0_label=s0,
    )
    # The units stand in for the true basis beyond rank 4, where the engines
    # are slow; the renderer writes the elements as given.  The units of
    # the canonical vector carry back to the units.
    r = len(orders)
    units = tuple(sorted(tuple(int(i == j) for i in range(r)) for j in range(r)))
    bases = None if r <= 4 else {canonical_order(orders)[0]: units}
    _assert_renders_like_reference(check_instance(inst, bases=bases))


@pytest.mark.parametrize(
    "degrees, orders, flags",
    [
        ((1, 1, 2), (1, -1, -1), {"require_trivial_nonneg": True}),  # dedekind reason
        ((1, 1, 2), (-1, 2, -1), {"require_trivial_nonneg": True}),  # both reasons
        ((1, 1, 2), (-1, 1, 0), {"require_dedekind": False, "require_trivial_nonneg": True}),
        ((3,), (-2,), {}),  # rank 1: empty basis, no ii' verdict
        ((3,), (2,), {"group": 'G"\\é', "s0_label": "s0=\u00bd"}),
    ],
)
def test_renderer_matches_reference_on_reasons_and_flags(degrees, orders, flags):
    rep = check_instance(Instance(degrees, orders, **flags))
    _assert_renders_like_reference(rep)
    assert parse_report_document(render_report_json(rep)) == rep


def test_record_caches_never_go_stale():
    # The text caches are keyed by value, and a pair-table row's text by
    # the row object; an S4 B=1 sweep under two flag settings,
    # interleaved, must render as the reference does whether every text
    # comes from a warm cache or is rendered afresh.
    caches = [f for f in vars(serialize).values() if hasattr(f, "cache_clear")]
    assert {f.__name__ for f in caches} == {
        "_instance_texts", "_vector_text", "_pairs_text", "_reasons_text"
    }
    plan = SweepPlan(get_group("S4").degrees, 1, group="S4")
    flipped = SweepPlan(
        plan.degrees, 1, require_dedekind=False, require_trivial_nonneg=True
    )
    reports = [
        rep
        for pair in zip(sweep_reports(plan), sweep_reports(flipped))
        for rep in pair
    ]
    assert len(reports) == 2 * 3**5
    for clear in (False, True):
        for rep in reports:
            if clear:
                for cache in caches:
                    cache.cache_clear()
            assert render_report_json(rep) == serialize.canonical_json(report_document(rep))
    assert serialize._vector_text.cache_info().currsize > 0
    # Clearing the row cache in the middle of the records frees the rows
    # of the reports already rendered and dropped, and builds new row
    # objects, which may take their addresses: none may be served an old
    # row's text.
    del reports, rep
    box = list(itertools.product(range(-1, 2), repeat=5))
    bases = {}
    for i, v in enumerate(box):
        if i == len(box) // 2:
            conditions._pair_row.cache_clear()
        for p in (plan, flipped):
            rep = check_instance(
                Instance(
                    p.degrees,
                    v,
                    require_dedekind=p.require_dedekind,
                    require_trivial_nonneg=p.require_trivial_nonneg,
                    group=p.group,
                ),
                bases=bases,
            )
            assert render_report_json(rep) == serialize.canonical_json(report_document(rep))
    # The cache holds every row it has rendered, so while the entry lives
    # no other row can take that row's id.
    row = (conditions.PairWitness(1, 2, None),)
    held = sys.getrefcount(row)
    serialize._pairs_text(row)
    assert sys.getrefcount(row) == held + 1


def test_summary_csv_shape():
    summary = summarize(sweep_reports(SweepPlan(DegreeVector((1, 1)), 1)))
    csv = render_summary_csv(summary)
    lines = csv.strip().split("\n")
    assert lines[0] == "hilbert_size,count"
    assert lines[-1] == f"total,{summary.admissible}"
    assert lines[1:-1] == [f"{s},{n}" for s, n in summary.hilbert_histogram]


def test_human_rendering_mentions_verdicts():
    rep = check_instance(Instance((1, 1), (1, -1)))
    text = render_report_human(rep)
    assert "factorial: True" in text
    assert "condition i   : False" in text
    assert "equivalence" in text
