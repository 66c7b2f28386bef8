"""Command-line surface: check, hilbert, factorize, sweep, catalog.

Every command that prints or uses a Hilbert basis gets it from
conditions.orbit_basis.  check, hilbert and factorize check both engines
and the closed-form factoriality against each other on the canonical
vector; sweep expands each canonical vector's basis from a type table
whose supports it cross-checks the same way before it checks any instance.

Exit codes: 0 when all checked assertions hold, 1 when an equivalence
failure or counterexample is found, 2 on invalid input, an output file
that cannot be written, or an engine disagreement (EngineMismatchError),
130 (128 + SIGINT) on an interrupt, which prints one line, `interrupted`,
on stderr and leaves no partial output file, and 141 (128 + SIGPIPE, as
a shell reports a pipe writer killed by that signal) when the reader of
stdout goes away early; that case prints nothing on stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

from .catalog import catalog_groups, get_group
from .conditions import check_instance, orbit_basis
from .core import Instance, OrderVector, order_of
from .errors import ArtinHolError, NotInHolError
from .hilbert import HilbertBasis, count_factorizations
from .serialize import (
    SCHEMA_VERSION,
    canonical_json,
    exit_code_for_report,
    render_report_human,
    render_report_json,
    render_summary_csv,
    render_summary_human,
    render_summary_json,
)
from .sweep import SweepPlan, _output_file, _replacing, run_sweep


def _int_vector(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="artinhol",
        description="Hilbert bases and holomorphy criteria for Artin L-function semigroups",
    )
    # Each subcommand names its handler, called as handler(args, subparser),
    # so that parser.error prints the subcommand's own usage line.
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="full condition report for one instance")
    p_check.set_defaults(handler=_cmd_check, subparser=p_check)
    p_check.add_argument("--degrees", type=_int_vector, required=True)
    p_check.add_argument("--orders", type=_int_vector, required=True)
    p_check.add_argument("--group", default=None, help="group label (informational)")
    p_check.add_argument("--s0", default=None, help="point label (opaque string)")
    p_check.add_argument("--no-require-dedekind", action="store_true")
    p_check.add_argument("--require-trivial-nonneg", action="store_true")
    p_check.add_argument("--json", action="store_true")

    p_hilbert = sub.add_parser("hilbert", help="Hilbert basis of Hol for one order vector")
    p_hilbert.set_defaults(handler=_cmd_hilbert, subparser=p_hilbert)
    p_hilbert.add_argument("--orders", type=_int_vector, required=True)
    p_hilbert.add_argument("--json", action="store_true")

    p_fact = sub.add_parser("factorize", help="count basis factorizations of an element")
    p_fact.set_defaults(handler=_cmd_factorize, subparser=p_fact)
    p_fact.add_argument("--orders", type=_int_vector, required=True)
    p_fact.add_argument("--element", type=_int_vector, required=True)
    p_fact.add_argument("--cap", type=int, default=2)
    p_fact.add_argument("--json", action="store_true")

    p_sweep = sub.add_parser("sweep", help="exhaustive sweep over an order-vector box")
    p_sweep.set_defaults(handler=_cmd_sweep, subparser=p_sweep)
    src = p_sweep.add_mutually_exclusive_group(required=True)
    src.add_argument("--degrees", type=_int_vector, default=None)
    src.add_argument("--group", default=None, help="catalog group supplying the degrees")
    p_sweep.add_argument("--order-bound", type=int, default=2)
    p_sweep.add_argument("--workers", type=int, default=1)
    p_sweep.add_argument("--out", default=None, help="JSON-lines record file")
    p_sweep.add_argument("--summary-json", default=None)
    p_sweep.add_argument("--csv", default=None)
    p_sweep.add_argument("--no-require-dedekind", action="store_true")
    p_sweep.add_argument("--require-trivial-nonneg", action="store_true")

    p_cat = sub.add_parser("catalog", help="list or show built-in group degree data")
    p_cat.set_defaults(handler=_cmd_catalog, subparser=p_cat)
    p_cat.add_argument("action", choices=["list", "show"])
    p_cat.add_argument("name", nargs="?", default=None)

    return parser


def _cmd_check(args, parser) -> int:
    if len(args.degrees) != len(args.orders):
        parser.error(
            f"degrees ({len(args.degrees)}) and orders ({len(args.orders)}) "
            "must have the same length"
        )
    inst = Instance(
        args.degrees,
        args.orders,
        require_dedekind=not args.no_require_dedekind,
        require_trivial_nonneg=args.require_trivial_nonneg,
        group=args.group,
        s0_label=args.s0,
    )
    rep = check_instance(inst)
    if args.json:
        print(render_report_json(rep))
    else:
        print(render_report_human(rep), end="")
    return exit_code_for_report(rep)


def _cmd_hilbert(args, parser) -> int:
    v = OrderVector(args.orders)
    elements = orbit_basis(v.entries, {})
    doc = {
        "schema_version": SCHEMA_VERSION,
        "orders": list(v.entries),
        "hilbert": {
            "size": len(elements),
            "elements": [list(e) for e in elements],
        },
    }
    if args.json:
        print(canonical_json(doc))
    else:
        print(f"orders: {list(v.entries)}")
        print(f"hilbert basis ({len(elements)} elements):")
        for e in elements:
            print(f"  {list(e)}")
    return 0


def _cmd_factorize(args, parser) -> int:
    if args.cap < 2:
        parser.error(f"--cap must be >= 2, got {args.cap}")
    if len(args.orders) != len(args.element):
        parser.error("orders and element must have the same length")
    v = OrderVector(args.orders)
    # One dot product rejects an element outside Hol before any basis is built.
    s = order_of(args.element, v)
    if s < 0:
        raise NotInHolError(f"{args.element} is not in Hol (order {s})")
    basis = HilbertBasis(orbit_basis(v.entries, {}), "oracle")
    fc = count_factorizations(args.element, basis, cap=args.cap)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "orders": list(v.entries),
        "element": list(fc.element),
        "basis": [list(e) for e in basis.elements],
        "count": fc.count,
        "cap": args.cap,
        "witnesses": [list(w) for w in fc.witnesses],
    }
    if args.json:
        print(canonical_json(doc))
    else:
        print(f"element {list(fc.element)} factors {fc.count} way(s) (cap {args.cap})")
        for w in fc.witnesses:
            parts = " + ".join(
                f"{c}*{list(e)}" for c, e in zip(w, basis.elements) if c
            )
            print(f"  {parts or '(empty product)'}")
    return 0


def _cmd_sweep(args, parser) -> int:
    # Every output path is checked before any of them creates a directory.
    # Two outputs on one file would share a temp name and overwrite each other.
    seen: dict[Path, str] = {}
    for flag, path in (
        ("--out", args.out),
        ("--summary-json", args.summary_json),
        ("--csv", args.csv),
    ):
        if path == "":
            parser.error(f"{flag} needs a file name, got an empty path")
        if path is not None:
            key = _output_file(path)
            if key in seen:
                parser.error(f"{seen[key]} and {flag} name the same file: {path}")
            seen[key] = flag
    if args.group is not None:
        try:
            degrees = get_group(args.group).degrees
        except KeyError as exc:
            parser.error(exc.args[0])
        group = args.group
    else:
        degrees, group = args.degrees, None
    plan = SweepPlan(
        degrees=degrees,
        order_bound=args.order_bound,
        require_dedekind=not args.no_require_dedekind,
        require_trivial_nonneg=args.require_trivial_nonneg,
        worker_count=args.workers,
        out_path=args.out,
        group=group,
    )
    # The summary files are opened before the sweep runs, so an unwritable
    # path fails fast; like --out, each replaces its target only on success.
    with _replacing(args.summary_json) as json_fh, _replacing(args.csv) as csv_fh:
        t0 = time.perf_counter()
        summary = run_sweep(plan)
        wall_time = time.perf_counter() - t0
        if json_fh is not None:
            json_fh.write(render_summary_json(summary) + "\n")
        if csv_fh is not None:
            csv_fh.write(render_summary_csv(summary))
    print(render_summary_human(summary), end="")
    print(f"wall time: {wall_time:.2f}s")
    return 1 if summary.counterexamples else 0


def _cmd_catalog(args, parser) -> int:
    if args.action == "show":
        if args.name is None:
            parser.error("catalog show needs a group name")
        try:
            entries = [get_group(args.name)]
        except KeyError as exc:
            parser.error(exc.args[0])
    elif args.name is not None:
        parser.error("catalog list takes no group name")
    else:
        entries = list(catalog_groups())
    doc = {
        "schema_version": SCHEMA_VERSION,
        "groups": [
            {
                "name": e.name,
                "order": e.order,
                "degrees": list(e.degrees.entries),
                "class_count": e.class_count,
            }
            for e in entries
        ],
    }
    print(canonical_json(doc))
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.handler(args, args.subparser)
        # Flushed here, so a reader that went away is seen before exit.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Send what is still buffered to /dev/null, so that the
        # interpreter's final flush of stdout stays silent too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ArtinHolError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    raise SystemExit(main())
