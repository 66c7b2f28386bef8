"""Regenerate the stored sweep references under ``bench/reference/``.

Usage, from the root of a checkout::

    PYTHONPATH=src python3 bench/make_reference.py

Runs each sweep workload once through the package's CLI and stores the
semantic projection of its summary and records (see ``checks.py``),
gzip-compressed with a zero timestamp so the same sweep gives the same
bytes.  A reference is a statement of what the sweep must compute: only
regenerate it after an intended change of verdicts, and say so.
"""

from __future__ import annotations

import gzip
import json
import shutil
import sys

from checks import REFERENCE, record_projection, summary_projection
from workloads import ROOT, WORKLOADS, Sweep


def main() -> int:
    from artinhol import cli

    for workload in WORKLOADS.values():
        if not isinstance(workload, Sweep):
            continue
        work = ROOT / ".bench_work" / "reference"
        work.mkdir(parents=True)
        try:
            code = cli.main(workload.cli_args(work))
            if code != 0:
                print(f"{workload.name}: sweep exited {code}", file=sys.stderr)
                return 1
            summary = summary_projection(
                json.loads((work / "summary.json").read_text(encoding="utf-8"))
            )
            with open(work / "records.jsonl", encoding="utf-8") as fh:
                records = [record_projection(json.loads(line)) for line in fh]
        finally:
            shutil.rmtree(work)
        lines = [summary, *records]
        data = "".join(json.dumps(x, separators=(",", ":")) + "\n" for x in lines)
        target = REFERENCE / f"{workload.name}.jsonl.gz"
        with open(target, "wb") as raw:
            with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0, filename="") as gz:
                gz.write(data.encode("utf-8"))
        print(f"{target.name}: {len(records)} records, {target.stat().st_size} bytes")
    (ROOT / ".bench_work").rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())
