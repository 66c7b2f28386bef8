"""The ``basis-factor`` workload: Hilbert bases and factorization traffic.

Run as a script, one pass per process::

    PYTHONPATH=src python3 bench/basis_factor.py --seed 1 [--trace-dir DIR]
    PYTHONPATH=src python3 bench/basis_factor.py --seed 1 --setup-only

The generator turns the seed into order vectors of ranks 2, 3 and 4 with
mixed signs and pairwise-distinct canonical forms, so no basis is ever
computed twice.  Ranks 2 and 3 are drawn at random from their boxes.  Per
vector cost is heavy-tailed and grows fastest at rank 4, where a random
sample of a few hundred vectors still moves a pass by 10% from one seed to
the next; rank 4 therefore takes every canonical class of its box, each in
a coordinate order chosen by the seed.

For every vector the pass computes the basis with both engines, requires
them to agree, counts the factorizations (cap 2) of every nonzero Hol
member of [0, 3]^r and, when the basis has more than r elements, builds a
non-uniqueness witness.  Each result is checked against facts that do not
come from the engines: witnesses must multiply back to their element, a
basis element must factor uniquely, factoriality must match its closed
form, and a non-uniqueness witness must be a Hol member with two distinct
factorizations.  The pass prints one JSON object on its last line.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import random
import sys
import time
import traceback
from pathlib import Path

#: (rank, bound, count): random mixed-sign vectors drawn from [-bound, bound]^rank.
SAMPLED_STRATA = ((2, 40, 100), (3, 10, 100))
#: (rank, bound): every mixed-sign canonical class of [-bound, bound]^rank.
CENSUS_STRATA = ((4, 3),)
#: Factorizations are counted for every nonzero Hol member of [0, FACTOR_BOX]^r.
FACTOR_BOX = 3


def canonical(v) -> tuple[int, ...]:
    """gcd-reduced, sorted form: equal for vectors that share one Hol up to
    positive scaling and a permutation of the generators."""
    g = 0
    for x in v:
        g = math.gcd(g, x)
    if g == 0:
        return tuple(v)
    return tuple(sorted(x // g for x in v))


def mixed_sign(v) -> bool:
    return any(x > 0 for x in v) and any(x < 0 for x in v)


def generate(seed: int) -> tuple[list[tuple[int, ...]], dict]:
    """Order vectors for one seed, plus counts describing how they were drawn."""
    rng = random.Random(seed)
    seen: set[tuple[int, ...]] = set()
    vectors: list[tuple[int, ...]] = []
    drawn = rejected_sign = rejected_repeat = 0
    for r, bound, count in SAMPLED_STRATA:
        taken = 0
        while taken < count:
            v = tuple(rng.randint(-bound, bound) for _ in range(r))
            drawn += 1
            if not mixed_sign(v):
                rejected_sign += 1
                continue
            c = canonical(v)
            if c in seen:
                rejected_repeat += 1
                continue
            seen.add(c)
            vectors.append(v)
            taken += 1
    for r, bound in CENSUS_STRATA:
        classes = sorted(
            {
                canonical(v)
                for v in itertools.product(range(-bound, bound + 1), repeat=r)
                if mixed_sign(v)
            }
        )
        for c in classes:
            perm = list(c)
            rng.shuffle(perm)
            seen.add(c)
            vectors.append(tuple(perm))
    rng.shuffle(vectors)
    stats = {
        "vectors": len(vectors),
        "drawn": drawn,
        "rejected_sign": rejected_sign,
        "rejected_repeat": rejected_repeat,
        "repeat_share": 1 - len({canonical(v) for v in vectors}) / len(vectors),
    }
    return vectors, stats


def closed_form_factorial(v) -> bool:
    """Hol(v) is factorial iff no order is negative, or exactly one order is
    positive and it divides every negative order."""
    pos = [x for x in v if x > 0]
    neg = [x for x in v if x < 0]
    return not neg or (len(pos) == 1 and all(x % pos[0] == 0 for x in neg))


def _combine(coeffs, elements, r: int) -> tuple[int, ...]:
    out = [0] * r
    for c, h in zip(coeffs, elements):
        for j in range(r):
            out[j] += c * h[j]
    return tuple(out)


class Layers:
    """The library calls a pass makes, wrapped in spans when tracing."""

    def __init__(self, tracer=None):
        from artinhol import hilbert

        calls = {
            "oracle": hilbert.hilbert_basis_oracle,
            "frontier": hilbert.hilbert_basis_frontier,
            "factorize": hilbert.count_factorizations,
            "witness": hilbert.nonuniqueness_witness,
        }
        if tracer is not None:
            calls = {
                name: tracer.wrap(f"hilbert.{name}", fn, _describe(name))
                for name, fn in calls.items()
            }
        self.oracle = calls["oracle"]
        self.frontier = calls["frontier"]
        self.factorize = calls["factorize"]
        self.witness = calls["witness"]
        # Checking a witness is the benchmark's work, so it is never traced.
        self.recount = hilbert.count_factorizations


def _describe(name: str):
    if name in ("oracle", "frontier"):
        return lambda args, basis: {"v": list(args[0]), "size": len(basis.elements)}
    return None


def check_vector(v: tuple[int, ...], layers: Layers) -> tuple[list[str], bool, int]:
    """Run one vector through the layers; return (problems, factorial, calls)."""
    r = len(v)
    problems = []
    basis = layers.oracle(v)
    other = layers.frontier(v)
    if basis.elements != other.elements:
        problems.append("engines disagree")
    elems = basis.elements
    factorial = len(elems) == r
    if factorial != closed_form_factorial(v):
        problems.append(f"factorial={factorial} contradicts the closed form")
    if any(sum(a * b for a, b in zip(h, v)) < 0 for h in elems):
        problems.append("basis element outside Hol")
    basis_set = set(elems)
    calls = 0
    for k in itertools.product(range(FACTOR_BOX + 1), repeat=r):
        if not any(k) or sum(a * b for a, b in zip(k, v)) < 0:
            continue
        fc = layers.factorize(k, basis, cap=2)
        calls += 1
        if not 1 <= fc.count <= 2 or len(fc.witnesses) != fc.count:
            problems.append(f"bad count {fc.count} for {k}")
        elif any(_combine(w, elems, r) != k for w in fc.witnesses):
            problems.append(f"factorization of {k} does not multiply back")
        elif fc.count != 1 and (factorial or k in basis_set):
            problems.append(f"{k} factors twice in a factorial basis or is irreducible")
    w = layers.witness(basis, r)
    if factorial:
        if w is not None:
            problems.append("witness for a factorial basis")
    elif w is None or sum(a * b for a, b in zip(w, v)) < 0:
        problems.append("missing or non-Hol non-uniqueness witness")
    else:
        fc = layers.recount(w, basis, cap=2)
        if fc.count != 2 or any(_combine(x, elems, r) != w for x in fc.witnesses):
            problems.append(f"witness {w} lacks two factorizations")
    return problems, factorial, calls


def run_pass(seed: int, tracer=None) -> dict:
    vectors, stats = generate(seed)
    layers = Layers(tracer)
    step = check_vector if tracer is None else tracer.wrap("bench.vector", check_vector)
    failed = nonfactorial = calls = 0
    first_problem = None
    t0 = time.perf_counter()
    for v in vectors:
        try:
            problems, factorial, n = step(v, layers)
        except Exception as exc:  # a failing vector is counted, the pass goes on
            if first_problem is None:
                traceback.print_exc()
            problems, factorial, n = [f"{type(exc).__name__}: {exc}"], True, 0
        calls += n
        nonfactorial += not factorial
        if problems:
            failed += 1
            if first_problem is None:
                first_problem = f"v={v}: {problems[0]}"
    wall = time.perf_counter() - t0
    return dict(
        stats,
        wall_s=wall,
        failed=failed,
        first_problem=first_problem,
        nonfactorial_share=nonfactorial / len(vectors),
        factorize_calls=calls,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-dir", default=None)
    args = parser.parse_args(argv)
    if args.setup_only:
        import artinhol.hilbert  # noqa: F401  (import cost belongs to set-up)

        vectors, stats = generate(args.seed)
        print(json.dumps(stats))
        return 0
    tracer = None
    if args.trace_dir is not None:
        from tracer import Tracer

        tracer = Tracer(Path(args.trace_dir))
    result = run_pass(args.seed, tracer)
    if tracer is not None:
        tracer.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
