"""Bit-stable JSON/CSV serialization of reports and sweep artifacts.

Every number is emitted as a JSON integer, vectors as arrays, and keys in
a fixed insertion order with compact separators, so the same report always
produces the same bytes on every platform.  Schema version "2".
render_report_json writes the fixed-key record straight to a string,
taking from per-process caches of core.CACHE_SIZE entries the record's
text around its orders, up to its admissibility verdict, which depends
only on the degrees, flags and labels, the text of each basis element
and of the reasons list, keyed by value, and of each pair-table row,
keyed by the row object, as the report keeps its rows; the test suite
checks it byte for byte against canonical_json of the report as a dict
(report_document in tests/conftest.py), with the caches warm and cleared.
Parsing type-checks the instance, rebuilds the report, basis included,
through conditions.check_instance and rejects a record that disagrees; a
sweep file's records share one basis dict.
"""

from __future__ import annotations

import functools
import itertools
import json
from typing import TYPE_CHECKING, Any

from .conditions import ConditionReport, PairWitness, check_instance
from .core import CACHE_SIZE, DegreeVector, Instance, _int_value, validate_exponent_vector
from .errors import LengthMismatchError

if TYPE_CHECKING:
    from .sweep import SweepSummary

SCHEMA_VERSION = "2"


def canonical_json(doc: Any) -> str:
    """The one JSON encoding of every artifact: compact separators, ASCII."""
    return json.dumps(doc, separators=(",", ":"), ensure_ascii=True)


# For bools and None only: an int 1 would find True here, so Instance
# type-checks its flags and every verdict is a bool.
_SCALAR = {True: "true", False: "false", None: "null"}


def _ints(e) -> str:
    """JSON array of a vector of ints: the list's str() without its spaces."""
    return str(list(e)).replace(" ", "")


_SCHEMA_TEXT = canonical_json(SCHEMA_VERSION)


@functools.lru_cache(maxsize=CACHE_SIZE)
def _instance_texts(
    degrees: tuple[int, ...],
    require_dedekind: bool,
    require_trivial_nonneg: bool,
    group: str | None,
    s0: str | None,
) -> tuple[str, str]:
    """The record's text before its orders and from them to its
    admissibility verdict: all of it but the orders depends on the
    degrees, flags and labels alone, so every record of a sweep shares it."""
    flags = canonical_json(
        {"require_dedekind": require_dedekind, "require_trivial_nonneg": require_trivial_nonneg}
    )
    labels = canonical_json({"group": group, "s0": s0})
    return (
        f'{{"schema_version":{_SCHEMA_TEXT},"instance":{{"r":{len(degrees)},'
        f'"degrees":{_ints(degrees)},"orders":',
        f',"flags":{flags},"labels":{labels}}},"admissible":{{"ok":',
    )


@functools.lru_cache(maxsize=CACHE_SIZE)
def _vector_text(vector: tuple[int, ...]) -> str:
    """JSON array of a basis element, which recurs across records."""
    return _ints(vector)


#: Row texts by id(row), each entry holding its row, so that no other
#: object can take that id while the entry lives; the oldest goes first.
_ROW_TEXTS: dict[int, tuple[tuple[PairWitness, ...], str]] = {}


def _pairs_text(row: tuple[PairWitness, ...]) -> str:
    """JSON text of one pair-table row, without the enclosing brackets.

    Cached by the row object: conditions._pair_row builds each distinct
    row once, and hashing its nested tuples on every record would cost
    most of what the cache saves."""
    hit = _ROW_TEXTS.get(id(row))
    if hit is not None:
        return hit[1]
    if len(_ROW_TEXTS) >= CACHE_SIZE:
        del _ROW_TEXTS[next(iter(_ROW_TEXTS))]
    text = ",".join(
        f'{{"k":{k},"l":{l},"witness":{"null" if w is None else _ints(w)}}}'
        for k, l, w in row
    )
    _ROW_TEXTS[id(row)] = (row, text)
    return text


_pairs_text.cache_clear = _ROW_TEXTS.clear


@functools.lru_cache(maxsize=CACHE_SIZE)
def _reasons_text(reasons: tuple[str, ...]) -> str:
    return canonical_json(list(reasons))


def render_report_json(rep: ConditionReport) -> str:
    """The report's canonical JSON text, written straight from its fields.

    Keys come in one fixed order, with compact separators and every number
    an integer.  Labels and reasons go through canonical_json, so strings
    are escaped exactly as in every other artifact.  Text that recurs
    across records and costs something to build is rendered once per
    process: the instance's text but its orders, each distinct basis
    element, reasons list and pair-table row, the table taken row by row
    as the report keeps it.  The verdicts the report derives are read
    from its fields (admissible from the reasons, the size from the
    elements, iii from m), not through its properties.  The test suite
    checks the bytes against canonical_json of the report as a dict.
    """
    inst = rep.instance
    reasons, elements = rep.admissible_reasons, rep.hilbert_elements
    m = rep.cond_iii_m
    failing = rep.cond_ii_prime_failing
    head, flags = _instance_texts(
        inst.degrees.entries,
        inst.require_dedekind,
        inst.require_trivial_nonneg,
        inst.group,
        inst.s0_label,
    )
    return "".join(
        (
            head,
            _ints(inst.orders.entries),
            flags,
            _SCALAR[not reasons],
            ',"reasons":',
            _reasons_text(reasons),
            '},"hilbert":{"size":',
            str(len(elements)),
            ',"elements":[',
            ",".join(map(_vector_text, elements)),
            ']},"conditions":{"i":',
            _SCALAR[rep.cond_i],
            ',"ii":{"ok":',
            _SCALAR[rep.cond_ii],
            ',"pairs":[',
            ",".join(map(_pairs_text, rep.cond_ii_rows)),
            ']},"iii":{"ok":',
            _SCALAR[m is not None],
            ',"m":',
            "null" if m is None else str(m),
            '},"ii_prime":{"ok":',
            _SCALAR[rep.cond_ii_prime],
            ',"failing_subset":',
            "null" if failing is None else _ints(failing),
            '}},"factorial":',
            _SCALAR[rep.factorial],
            ',"equivalence_ok":',
            _SCALAR[rep.equivalence_ok],
            "}",
        )
    )


def parse_report_document(data: str | dict[str, Any]) -> ConditionReport:
    """Rebuild a ConditionReport from its JSON text or parsed document.

    Reads the instance and calls check_instance; a document that is not
    exactly the rebuilt report's rendering raises ValueError naming the
    first top-level key that differs.  Text that is byte for byte that
    rendering, as every sweep line is, is accepted without encoding the
    parsed document again.  A record that is not a JSON object, lacks a
    key read here, or holds something else where its instance, flags,
    labels or hilbert object or its elements array should be, raises
    ValueError saying so.  A mistyped r, flags, labels, orders or basis
    elements, and elements of the wrong rank, raise their own errors.
    """
    return _parse_report(data, {})


def _object(node: dict, key: str) -> dict:
    """node[key], which must be a JSON object; else ValueError naming key."""
    value = node[key]
    if not isinstance(value, dict):
        raise ValueError(f"record key {key!r} is not a JSON object: got {type(value).__name__}")
    return value


def _parse_report(data, bases: dict) -> ConditionReport:
    """parse_report_document, with check_instance's basis dict."""
    doc = json.loads(data) if isinstance(data, str) else data
    if not isinstance(doc, dict):
        raise ValueError(f"record is not a JSON object: got {type(doc).__name__}")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema version {doc.get('schema_version')!r}")
    try:
        di = _object(doc, "instance")
        degrees = DegreeVector(di["degrees"])
        r = degrees.rank
        if _int_value(di["r"], "r") != r:
            raise LengthMismatchError(f"r {di['r']} vs degrees {r}")
        flags, labels = _object(di, "flags"), _object(di, "labels")
        inst = Instance(
            degrees=degrees,
            orders=di["orders"],
            require_dedekind=flags["require_dedekind"],
            require_trivial_nonneg=flags["require_trivial_nonneg"],
            group=labels["group"],
            s0_label=labels["s0"],
        )
        elements = _object(doc, "hilbert")["elements"]
        if not isinstance(elements, list):
            got = type(elements).__name__
            raise ValueError(f"record key 'elements' is not a JSON array: got {got}")
    except KeyError as exc:
        raise ValueError(f"record lacks key {exc.args[0]!r}") from None
    rep = check_instance(inst, bases=bases)
    rendered = render_report_json(rep)
    if isinstance(data, str) and data.strip() == rendered:
        return rep
    for e in elements:
        validate_exponent_vector(e, rank=r)
    if canonical_json(doc) != rendered:
        pairs = itertools.zip_longest(
            doc.items(), json.loads(rendered).items(), fillvalue=(None, None)
        )
        key = next(g[0] or w[0] for g, w in pairs if canonical_json(g) != canonical_json(w))
        raise ValueError(f"record key {key!r} disagrees with the report its orders give")
    return rep


def sweep_record_line(rep: ConditionReport) -> str:
    """One newline-terminated JSON line for the sweep output stream."""
    return render_report_json(rep) + "\n"


def read_sweep_records(path) -> list[ConditionReport]:
    """Parse a JSON-lines sweep file back into reports, checking every basis;
    the engines run once per canonical vector of the file."""
    bases: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        return [_parse_report(line, bases) for line in fh if line.strip()]


def exit_code_for_report(rep: ConditionReport) -> int:
    """0 when the equivalence holds or is not asserted, 1 when it fails."""
    return 1 if rep.equivalence_ok is False else 0


def render_report_human(rep: ConditionReport) -> str:
    """Tabular plain-text rendering of one report."""
    inst = rep.instance
    lines = [
        f"instance: r={inst.rank} degrees={list(inst.degrees.entries)} "
        f"orders={list(inst.orders.entries)}",
        f"flags: require_dedekind={inst.require_dedekind} "
        f"require_trivial_nonneg={inst.require_trivial_nonneg}",
    ]
    if inst.group or inst.s0_label:
        lines.append(f"labels: group={inst.group} s0={inst.s0_label}")
    if rep.admissible:
        lines.append("admissible: yes")
    else:
        lines.append(f"admissible: no ({'; '.join(rep.admissible_reasons)})")
    lines.append(
        f"hilbert basis ({rep.hilbert_size} elements): "
        + " ".join(str(list(e)) for e in rep.hilbert_elements)
    )
    lines.append(f"factorial: {rep.factorial}")
    lines.append(f"condition i   : {rep.cond_i}")
    lines.append(f"condition ii  : {rep.cond_ii}")
    for pw in rep.cond_ii_pairs:
        wit = "none" if pw.witness is None else str(list(pw.witness))
        lines.append(f"  pair (k={pw.k}, l={pw.l}): {wit}")
    m = "-" if rep.cond_iii_m is None else str(rep.cond_iii_m)
    lines.append(f"condition iii : {rep.cond_iii} (m={m})")
    if rep.cond_ii_prime is None:
        lines.append("condition ii' : not defined (r < 2)")
    else:
        fail = (
            ""
            if rep.cond_ii_prime_failing is None
            else f" (failing subset {list(rep.cond_ii_prime_failing)})"
        )
        lines.append(f"condition ii' : {rep.cond_ii_prime}{fail}")
    eq = "not asserted" if rep.equivalence_ok is None else str(rep.equivalence_ok)
    lines.append(f"equivalence i==ii==iii==ii': {eq}")
    return "\n".join(lines) + "\n"


def render_summary_json(summary: SweepSummary) -> str:
    """The summary's JSON text."""
    return canonical_json(
        {
            "schema_version": SCHEMA_VERSION,
            "total": summary.total,
            "admissible": summary.admissible,
            "inadmissible": summary.inadmissible,
            "cond_i_true": summary.cond_i_true,
            "cond_i_false": summary.cond_i_false,
            "factorial_not_i": summary.factorial_not_i,
            "hilbert_histogram": {str(size): n for size, n in summary.hilbert_histogram},
            "counterexamples": [list(v) for v in summary.counterexamples],
        }
    )


def render_summary_csv(summary: SweepSummary) -> str:
    """Histogram buckets one per row, then a totals row."""
    lines = ["hilbert_size,count"]
    for size, n in summary.hilbert_histogram:
        lines.append(f"{size},{n}")
    lines.append(f"total,{summary.admissible}")
    return "\n".join(lines) + "\n"


def render_summary_human(summary: SweepSummary) -> str:
    lines = [
        f"instances: {summary.total} "
        f"(admissible {summary.admissible}, inadmissible {summary.inadmissible})",
        f"condition i: true {summary.cond_i_true}, false {summary.cond_i_false}",
        f"factorial but not condition i: {summary.factorial_not_i}",
        "hilbert size histogram: "
        + (
            " ".join(f"{size}:{n}" for size, n in summary.hilbert_histogram)
            or "(empty)"
        ),
        f"counterexamples: {len(summary.counterexamples)}",
    ]
    for v in summary.counterexamples:
        lines.append(f"  equivalence failed at orders={list(v)}")
    return "\n".join(lines) + "\n"
