"""Per-layer metrics computed from the spans of traced passes.

Times are sums of span durations over one pass (for sweeps with a pool,
summed over the workers: time the layer was busy).  ``*_self_s`` and
``sweep.write_s`` are self times: a span's duration minus what its child
spans cover (``conditions.check`` minus both engines; ``sweep.run`` minus
computing, rendering and summarizing, which leaves the writer's own file
work).  Percentiles pool every call of all traced passes.  Counts depend
on the inputs only and must repeat exactly in every pass.
"""

from __future__ import annotations

import statistics

from basis_factor import canonical
from tracer import percentile, self_times

UNITS = {
    "hilbert.oracle_s": "s",
    "hilbert.oracle_p50_us": "us",
    "hilbert.oracle_p99_us": "us",
    "hilbert.oracle_box_points": "count",
    "hilbert.frontier_s": "s",
    "hilbert.frontier_p50_us": "us",
    "hilbert.frontier_p99_us": "us",
    "hilbert.distinct_canonical_frac": "frac",
    "hilbert.basis_size_max": "count",
    "hilbert.basis_elems_total": "count",
    "hilbert.factorize_s": "s",
    "hilbert.factorize_calls": "count",
    "hilbert.factorize_p99_us": "us",
    "hilbert.witness_s": "s",
    "hilbert.witness_calls": "count",
    "conditions.check_s": "s",
    "conditions.check_p50_us": "us",
    "conditions.check_p99_us": "us",
    "conditions.verdict_self_s": "s",
    "core.admissible_frac": "frac",
    "serialize.render_s": "s",
    "serialize.bytes_out": "bytes",
    "serialize.bytes_per_record": "bytes",
    "serialize.parse_s": "s",
    "sweep.enumerate_s": "s",
    "sweep.write_s": "s",
    "sweep.summarize_s": "s",
    "sweep.resident_growth_mb": "MB",
    "trace.overhead_frac": "frac",
}

#: Metric -> (span name, percentile), over every call of the traced passes.
PERCENTILES = {
    "hilbert.oracle_p50_us": ("hilbert.oracle", 50),
    "hilbert.oracle_p99_us": ("hilbert.oracle", 99),
    "hilbert.frontier_p50_us": ("hilbert.frontier", 50),
    "hilbert.frontier_p99_us": ("hilbert.frontier", 99),
    "hilbert.factorize_p99_us": ("hilbert.factorize", 99),
    "conditions.check_p50_us": ("conditions.check", 50),
    "conditions.check_p99_us": ("conditions.check", 99),
}

#: Values that depend only on the inputs, so every pass must agree on them.
EXACT = (
    "hilbert.oracle_box_points",
    "hilbert.distinct_canonical_frac",
    "hilbert.basis_size_max",
    "hilbert.basis_elems_total",
    "hilbert.factorize_calls",
    "hilbert.witness_calls",
    "core.admissible_frac",
    "serialize.bytes_out",
    "serialize.bytes_per_record",
)

#: Span name -> metric holding the sum of its durations.
TOTALS = {
    "hilbert.oracle": "hilbert.oracle_s",
    "hilbert.frontier": "hilbert.frontier_s",
    "hilbert.factorize": "hilbert.factorize_s",
    "hilbert.witness": "hilbert.witness_s",
    "conditions.check": "conditions.check_s",
    "serialize.render": "serialize.render_s",
    "serialize.parse": "serialize.parse_s",
    "sweep.enumerate": "sweep.enumerate_s",
    "sweep.summarize": "sweep.summarize_s",
}

#: Span name -> metric holding the sum of its self times.
SELF_TOTALS = {
    "conditions.check": "conditions.verdict_self_s",
    "sweep.run": "sweep.write_s",
}


def pass_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer values of one traced pass, percentiles excluded."""
    out = {metric: 0.0 for metric in [*TOTALS.values(), *SELF_TOTALS.values()]}
    for s in spans:
        metric = TOTALS.get(s["name"])
        if metric is not None:
            out[metric] += s["end"] - s["start"]
    selfs = self_times(spans)
    for s in spans:
        metric = SELF_TOTALS.get(s["name"])
        if metric is not None:
            out[metric] += selfs[(s["pid"], s["id"])]
    oracle = [s for s in spans if s["name"] == "hilbert.oracle"]
    out["hilbert.oracle_box_points"] = sum(
        (max(1, max(abs(x) for x in s["v"])) + 1) ** len(s["v"]) for s in oracle
    )
    out["hilbert.distinct_canonical_frac"] = (
        len({canonical(s["v"]) for s in oracle}) / len(oracle) if oracle else 0.0
    )
    out["hilbert.basis_size_max"] = max((s["size"] for s in oracle), default=0)
    out["hilbert.basis_elems_total"] = sum(s["size"] for s in oracle)
    out["hilbert.factorize_calls"] = sum(1 for s in spans if s["name"] == "hilbert.factorize")
    out["hilbert.witness_calls"] = sum(1 for s in spans if s["name"] == "hilbert.witness")
    return out


def combine(
    passes: list[dict[str, float]], pooled: dict[str, list[float]]
) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics over all traced passes, and any inconsistency found.

    Timings are medians over passes; exact values must repeat in every
    pass; percentiles come from ``pooled``, every call's duration by span.
    """
    out, problems = {}, []
    for key in passes[0]:
        values = [p[key] for p in passes]
        if key in EXACT:
            out[key] = values[0]
            if len(set(values)) > 1:
                problems.append(f"{key} differs between passes: {values}")
        else:
            out[key] = statistics.median(values)
    for metric, (span, q) in PERCENTILES.items():
        durations = pooled.get(span, [])
        out[metric] = percentile(durations, q) * 1e6 if durations else 0.0
    return out, problems
