"""Correctness checks of sweep artifacts against the stored references.

A sweep is checked semantically: each JSONL record and the summary are
reduced to the fields that carry a verdict, read by path from the JSON
documents, and compared with ``reference/<workload>.jsonl.gz`` (first line
the summary, then one line per record).  Fields added to the schema, or a
version bump, do not change what is compared.  Byte-level determinism is
a separate check made across the passes of one run.
"""

from __future__ import annotations

import gzip
import hashlib
import json
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference"

SUMMARY_FIELDS = (
    "total",
    "admissible",
    "inadmissible",
    "cond_i_true",
    "cond_i_false",
    "factorial_not_i",
    "hilbert_histogram",
    "counterexamples",
)


def record_projection(doc: dict) -> dict:
    """The fields of one JSONL record that carry a verdict."""
    cond = doc["conditions"]
    return {
        "orders": doc["instance"]["orders"],
        "admissible": doc["admissible"]["ok"],
        "hilbert": doc["hilbert"]["elements"],
        "factorial": doc["factorial"],
        "i": cond["i"],
        "ii": cond["ii"]["ok"],
        "iii": cond["iii"]["ok"],
        "m": cond["iii"]["m"],
        "ii_prime": cond["ii_prime"]["ok"],
        "failing": cond["ii_prime"]["failing_subset"],
        "equivalence_ok": doc["equivalence_ok"],
    }


def summary_projection(doc: dict) -> dict:
    return {key: doc[key] for key in SUMMARY_FIELDS}


def load_reference(name: str) -> tuple[dict, list[dict]]:
    """Stored (summary, records) projections for one sweep workload."""
    with gzip.open(REFERENCE / f"{name}.jsonl.gz", "rt", encoding="utf-8") as fh:
        lines = [json.loads(line) for line in fh]
    return lines[0], lines[1:]


def compare_sweep(
    jsonl_text: str, summary_text: str, reference: tuple[dict, list[dict]]
) -> list[str]:
    """Semantic differences between one sweep's artifacts and the reference.

    One entry per record that is missing, extra or different, plus one for
    a summary that differs or reports counterexamples.  Artifacts that do
    not parse fail every reference record.
    """
    ref_summary, ref_records = reference
    try:
        got = [
            record_projection(json.loads(line))
            for line in jsonl_text.splitlines()
            if line.strip()
        ]
        summary = summary_projection(json.loads(summary_text))
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable artifacts: {exc}"] * max(1, len(ref_records))
    problems = []
    for i in range(max(len(got), len(ref_records))):
        if i >= len(got):
            problems.append(f"record {i} missing")
        elif i >= len(ref_records):
            problems.append(f"record {i} not in the reference")
        elif got[i] != ref_records[i]:
            problems.append(f"record {i} (orders {got[i]['orders']}) differs")
    if summary["counterexamples"]:
        problems.append(f"counterexamples {summary['counterexamples']}")
    elif summary != ref_summary:
        problems.append("summary differs from the reference")
    return problems


def digest_files(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
        h.update(b"\0")
    return h.hexdigest()
