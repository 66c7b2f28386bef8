"""Spans recorded around calls into artinhol's layers, and their arithmetic.

A span is one call into a layer: its name, an id, the id of the span that
was open when it started in the same process (its parent), start and end
times from ``time.perf_counter`` and optional attributes describing the
call.  Spans are kept in memory and appended, one JSON object per line, to
a per-process file when a root span ends or the tracer is closed.  Pool
workers are terminated without running exit handlers, so flushing at each
root span is what gets their spans out.

Nothing here touches the package: the benchmark wraps the package's public
functions with :meth:`Tracer.wrap` and installs the wrappers in its own
processes.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import time
from pathlib import Path


class Tracer:
    """Collects spans for one process and flushes them under ``out_dir``."""

    def __init__(self, out_dir: str | Path):
        self.out_dir = Path(out_dir)
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._ids = itertools.count(1)
        self._fd: int | None = None
        self._fd_pid: int | None = None

    def reset(self) -> None:
        """Forget spans inherited from a forking parent."""
        self.spans = []
        self._stack = []
        self._fd = None
        self._fd_pid = None

    def wrap(self, name: str, fn, describe=None):
        """Return ``fn`` wrapped so each call records a span named ``name``.

        ``describe(args, result)``, when given, returns extra attributes
        for the span.  A call that raises records no span.
        """

        def traced(*args, **kwargs):
            sid = next(self._ids)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
            span = {"name": name, "id": sid, "parent": parent, "start": start, "end": end}
            if describe is not None:
                span.update(describe(args, result))
            self.spans.append(span)
            if parent is None:
                self.flush()
            return result

        return traced

    def flush(self) -> None:
        if not self.spans:
            return
        pid = os.getpid()
        if self._fd_pid != pid:
            path = self.out_dir / f"spans-{pid}.jsonl"
            self._fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
            self._fd_pid = pid
        data = "".join(
            json.dumps(dict(s, pid=pid), separators=(",", ":")) + "\n" for s in self.spans
        )
        os.write(self._fd, data.encode())
        self.spans = []

    def close(self) -> None:
        self.flush()
        if self._fd is not None and self._fd_pid == os.getpid():
            os.close(self._fd)
        self._fd = None
        self._fd_pid = None


def load_spans(out_dir: str | Path) -> list[dict]:
    """Every span flushed under ``out_dir``, from every process."""
    spans = []
    for path in sorted(Path(out_dir).glob("spans-*.jsonl")):
        with open(path, encoding="utf-8") as fh:
            spans.extend(json.loads(line) for line in fh if line.strip())
    return spans


def self_times(spans: list[dict]) -> dict[tuple[int, int], float]:
    """Self time of each span, keyed by (pid, id).

    A span's self time is its duration minus the part of its interval that
    its child spans cover; overlapping children are counted once, and any
    part of a child outside its parent is ignored.
    """
    children: dict[tuple[int, int], list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault((s["pid"], s["parent"]), []).append(s)
    out = {}
    for s in spans:
        key = (s["pid"], s["id"])
        lo, hi = s["start"], s["end"]
        clipped = sorted(
            (max(c["start"], lo), min(c["end"], hi)) for c in children.get(key, ())
        )
        covered = 0.0
        cur_lo = cur_hi = None
        for a, b in clipped:
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[key] = (hi - lo) - covered
    return out


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a nonempty sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]
