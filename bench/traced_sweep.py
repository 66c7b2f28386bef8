"""Run ``artinhol sweep`` with spans recorded around the calls into each layer.

Usage::

    PYTHONPATH=src python3 bench/traced_sweep.py TRACE_DIR sweep --group S4 ...

The arguments after TRACE_DIR go to the package's CLI unchanged.  Before
the CLI runs, the package functions that one layer calls in another are
replaced, in the importing module's namespace, by wrappers that record a
span per call.  Pool workers install the same wrappers through the pool
initializer.  After the sweep, the record file named by ``--out`` is read
back with ``read_sweep_records`` under a ``serialize.parse`` span.  Spans go
to ``TRACE_DIR/spans-<pid>.jsonl``; the package itself is not modified.
"""

from __future__ import annotations

import multiprocessing
import sys

from tracer import Tracer

_tracer: Tracer | None = None


def _entries(v):
    return list(getattr(v, "entries", v))


def _describe_basis(args, basis):
    return {"v": _entries(args[0]), "size": len(basis.elements)}


def _materialized(enumerate_fn):
    # The sweep consumes the generator at once; timing its consumption needs
    # the span to cover the whole list.
    def enumerate_all(*args, **kwargs):
        return iter(list(enumerate_fn(*args, **kwargs)))

    return enumerate_all


def install(trace_dir: str) -> Tracer:
    """Replace the cross-layer calls with traced wrappers in this process."""
    global _tracer
    from artinhol import cli, conditions, serialize, sweep

    _tracer = tracer = Tracer(trace_dir)
    wrap = tracer.wrap
    conditions.hilbert_basis_oracle = wrap(
        "hilbert.oracle", conditions.hilbert_basis_oracle, _describe_basis
    )
    conditions.hilbert_basis_frontier = wrap(
        "hilbert.frontier", conditions.hilbert_basis_frontier, _describe_basis
    )
    sweep.check_instance = wrap("conditions.check", sweep.check_instance)
    sweep.enumerate_order_vectors = wrap(
        "sweep.enumerate", _materialized(sweep.enumerate_order_vectors)
    )
    sweep.sweep_reports = wrap("sweep.compute", sweep.sweep_reports)
    sweep.summarize = wrap("sweep.summarize", sweep.summarize)
    serialize.sweep_record_line = wrap("serialize.render", serialize.sweep_record_line)
    for name in ("render_summary_human", "render_summary_json", "render_summary_csv"):
        setattr(cli, name, wrap("serialize.render", getattr(cli, name)))
    cli.run_sweep = wrap("sweep.run", cli.run_sweep)
    # The package's default-context Pool, plus an initializer that traces.
    sweep.Pool = lambda processes: multiprocessing.Pool(
        processes, initializer=_worker_init, initargs=(trace_dir,)
    )
    return tracer


def _worker_init(trace_dir: str) -> None:
    if _tracer is None:  # a spawned worker starts from a fresh import
        install(trace_dir)
    else:  # a forked worker must not flush its parent's spans again
        _tracer.reset()


def _out_path(cli_args: list[str]) -> str | None:
    for flag, value in zip(cli_args, cli_args[1:]):
        if flag == "--out":
            return value
    return None


def main(argv: list[str]) -> int:
    trace_dir, cli_args = argv[0], argv[1:]
    tracer = install(trace_dir)
    from artinhol import cli, serialize

    code = cli.main(cli_args)
    out = _out_path(cli_args)
    if code == 0 and out is not None:
        tracer.wrap("serialize.parse", serialize.read_sweep_records)(out)
    tracer.close()
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
