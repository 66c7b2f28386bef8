"""Shared brute-force oracles, independent of the package implementation.

Everything here recomputes answers the dumbest possible way (full
enumeration, no slack equation, no pruning) so the package's algorithms
are checked against genuinely separate code paths.  The one exception is
full_scan_frontier, the frontier engine with its pruning done the plain
way, by a scan of every minimal solution, kept to count the nodes the
indexed engine must explore as well.  The lattice checks
rest on the exact Hermite reduction defined here, which the tests check
against sympy.  report_document is the reference for the package's
direct record renderer, and swept_families is the acceptance sweep,
computed once per session.  child_env puts src on a child process's
import path, and run_artinhol starts the command-line program in one.
shared_memo is the one place the tests read the factorization memo a
basis keeps, and spy_searches shows them the private memo of any other
search and counts the states a search descends to.  search_bound is the
reference bound on a factorization search's work, with its proof.
"""

from __future__ import annotations

import itertools
import math
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Sequence

import pytest

from artinhol import (
    DegreeVector,
    SweepPlan,
    is_member_hol,
    sweep_reports,
    validate_exponent_vector,
)
from artinhol import hilbert
from artinhol.conditions import ConditionReport
from artinhol.errors import NotInHolError
from artinhol.serialize import SCHEMA_VERSION

SWEEP_FAMILIES = [
    ((1, 1), 2),
    ((1, 1), 3),
    ((1, 1, 2), 2),
    ((1, 1, 2), 3),
    ((1, 1, 1, 3), 2),
    ((1, 1, 1, 1, 2), 2),
    ((1, 1, 2, 3, 3), 2),
]


SRC = Path(__file__).resolve().parent.parent / "src"


def child_env(env=None) -> dict[str, str]:
    """A copy of `env` (default os.environ) with src first on PYTHONPATH, so
    a child Python process imports this checkout's package whether or not
    it is installed."""
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    return env


def run_artinhol(*args: str, env=None, **kwargs) -> subprocess.CompletedProcess:
    """`python -m artinhol ARGS` in a child process with child_env(env); the
    other keywords go to subprocess.run."""
    return subprocess.run([sys.executable, "-m", "artinhol", *args], env=child_env(env), **kwargs)


@pytest.fixture(scope="session")
def swept_families():
    """All acceptance sweep families, with their total wall time."""
    out = []
    t0 = time.perf_counter()
    for degrees, bound in SWEEP_FAMILIES:
        plan = SweepPlan(DegreeVector(degrees), bound, worker_count=2)
        out.append((degrees, bound, sweep_reports(plan)))
    return out, time.perf_counter() - t0


def report_document(rep: ConditionReport) -> dict[str, Any]:
    """ConditionReport as a plain dict in canonical key order.

    canonical_json of this dict is, byte for byte, what
    serialize.render_report_json must write.
    """
    inst = rep.instance
    return {
        "schema_version": SCHEMA_VERSION,
        "instance": {
            "r": inst.rank,
            "degrees": list(inst.degrees.entries),
            "orders": list(inst.orders.entries),
            "flags": {
                "require_dedekind": inst.require_dedekind,
                "require_trivial_nonneg": inst.require_trivial_nonneg,
            },
            "labels": {"group": inst.group, "s0": inst.s0_label},
        },
        "admissible": {"ok": rep.admissible, "reasons": list(rep.admissible_reasons)},
        "hilbert": {
            "size": rep.hilbert_size,
            "elements": [list(e) for e in rep.hilbert_elements],
        },
        "conditions": {
            "i": rep.cond_i,
            "ii": {
                "ok": rep.cond_ii,
                "pairs": [
                    {
                        "k": pw.k,
                        "l": pw.l,
                        "witness": None if pw.witness is None else list(pw.witness),
                    }
                    for pw in rep.cond_ii_pairs
                ],
            },
            "iii": {"ok": rep.cond_iii, "m": rep.cond_iii_m},
            "ii_prime": {
                "ok": rep.cond_ii_prime,
                "failing_subset": (
                    None
                    if rep.cond_ii_prime_failing is None
                    else list(rep.cond_ii_prime_failing)
                ),
            },
        },
        "factorial": rep.factorial,
        "equivalence_ok": rep.equivalence_ok,
    }


def ii_prime_failing_search(v):
    """Lex-first (r-1)-subset (1-based) with a negative order sum, or None."""
    for combo in itertools.combinations(range(1, len(v) + 1), len(v) - 1):
        if sum(v[i - 1] for i in combo) < 0:
            return combo
    return None


def dot(a, b) -> int:
    return sum(x * y for x, y in zip(a, b))


def brute_hilbert_basis(v, bound: int) -> list[tuple[int, ...]]:
    """Irreducible nonzero members of Hol inside [0, bound]^r, lex-sorted.

    An element splits iff it is the sum of two nonzero Hol members; both
    parts then lie inside the same box, so set membership suffices.
    """
    r = len(v)
    hol = [
        k
        for k in itertools.product(range(bound + 1), repeat=r)
        if dot(k, v) >= 0
    ]
    holset = set(hol)
    out = []
    for k in hol:
        if not any(k):
            continue
        splits = False
        for a in hol:
            if any(a) and a != k and all(x <= y for x, y in zip(a, k)):
                b = tuple(y - x for x, y in zip(a, k))
                if b in holset:
                    splits = True
                    break
        if not splits:
            out.append(k)
    return sorted(out)


def full_scan_frontier(v) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(basis, nodes explored) of hilbert_basis_frontier's search, with
    every candidate tested against every minimal solution known so far.

    The same completion search on v / gcd(v) over the nonzero orders and
    the slack, level by level from the unit vectors, with no cap and no
    level bound; zero orders add their unit vectors.
    """
    r = len(v)
    g = math.gcd(*v) or 1
    ent = [x // g for x in v]
    active = [j for j in range(r) if ent[j]]
    coeffs = [ent[j] for j in active] + [-1]
    n = len(coeffs)

    def unit(m, i):
        return tuple(int(j == i) for j in range(m))

    def dominated(y, minimal):
        return any(all(a <= b for a, b in zip(m, y)) for m in minimal)

    minimal = []
    frontier = {unit(n, i): coeffs[i] for i in range(n)}
    explored = n
    while frontier:
        for x, d in frontier.items():
            if d == 0 and not dominated(x, minimal):
                minimal.append(x)
        nxt = {}
        for x, d in frontier.items():
            if d == 0:
                continue
            for i, c in enumerate(coeffs):
                if c * d < 0:
                    y = x[:i] + (x[i] + 1,) + x[i + 1:]
                    if y not in nxt and not dominated(y, minimal):
                        nxt[y] = d + c
        explored += len(nxt)
        frontier = nxt
    elems = [unit(r, j) for j in range(r) if not ent[j]]
    for x in minimal:
        h = [0] * r
        for i, j in enumerate(active):
            h[j] = x[i]
        elems.append(tuple(h))
    return tuple(sorted(elems)), explored


def brute_factorizations(k, elements) -> list[tuple[int, ...]]:
    """Every coefficient vector over `elements` summing to k, in lex order."""
    rngs = []
    for h in elements:
        caps = [k[j] // h[j] for j in range(len(k)) if h[j]]
        rngs.append(range(min(caps) + 1 if caps else 1))
    found = []
    for combo in itertools.product(*rngs):
        total = [0] * len(k)
        for c, h in zip(combo, elements):
            for j in range(len(k)):
                total[j] += c * h[j]
        if tuple(total) == tuple(k):
            found.append(combo)
    return found


def brute_count_factorizations(k, elements) -> int:
    """Number of coefficient vectors over `elements` summing to k."""
    return len(brute_factorizations(k, elements))


def shared_memo(basis) -> list[dict]:
    """The memo that count_factorizations' default-cap searches at or
    under the basis's threshold share: one dict per basis position, packed
    remainder -> (count, witnesses as cons cells).  [] until the first
    search over the basis builds its tables."""
    tables = basis._factor_tables
    return [] if tables is None else tables.memo


class _CountingTable(tuple):
    """A tuple that counts the entries looked up in it."""

    lookups = 0

    def __getitem__(self, i):
        self.lookups += 1
        return super().__getitem__(i)


def spy_searches(monkeypatch) -> list[tuple]:
    """Wrap hilbert._count_from for the rest of the test.  The list
    returned gets the arguments of every search, one call each: call[5]
    is the memo it searches, a private one included, and call[3] its
    table of dead masks, which counts in .lookups the dead tests, one per
    state the search reaches, its first included."""
    search, calls = hilbert._count_from, []

    def spy(i, rem, packed, dead, *rest):
        args = (i, rem, packed, _CountingTable(dead), *rest)
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(hilbert, "_count_from", spy)
    return calls


def search_bound(k, elements, orders=None) -> tuple[int, int]:
    """(states, steps): the reference bounds on what count_factorizations'
    search for k over `elements` is charged, the states it visits, and so
    the memo entries it stores, and its descents; `orders` are the reduced
    orders c the basis carries, None (or all 0) for a basis without them.
    The package once refused every search these bounds put over its caps
    before it started; it now charges the work as the search runs, and
    every search they admit is admitted, with the same result.

    Let R_i be the coordinates that some element before position i and
    some element from i on have in their supports, and S_i the product
    prod_{j in R_i} (k_j + 1), divided, at a position i from which every
    element has order <h, c> = 0, by the largest k_j + 1 over the j in
    R_i with c_j != 0, if there is one.  The states bound is the sum over
    i of S_i, and the steps bound the sum over i of
    S_i * (min_{j in supp h_i} floor(k_j / h_ij) + 1).  No S_i exceeds
    prod_j (k_j + 1) <= (max_j k_j + 1)^r, and no step term exceeds that
    times (max_j k_j + 1), so the sums are at most m (max_j k_j + 1)^r and
    m (max_j k_j + 1)^(r + 1), which size count_factorizations' threshold.

    Proof, for the charges of _count_from.  A visit of a state (i, rem)
    that is neither dead nor in the memo is charged one state and cmax + 1
    steps: the multiplicities c = cmax .. 1 and the c = 0 step, which is
    all a position whose element does not divide rem takes, stepped over
    without a frame.  A state is visited at most once: the visit stores
    its memo entry when its frame is popped, or for a position stepped
    over when the state it leads to resolves, and until then no descent
    reaches it again, because every state the visit leads to has a larger
    position or a remainder of smaller sum.
    Remainders start at k and only decrease, never below 0.  At position
    i, rem_j = k_j for every j that no element before i has, and a state
    with rem_j > 0 for some j that no element from i on has is dead: it
    resolves after one mask test, and is never pushed.  So the states
    visited at i differ only on R_i: at most S_i of them, each charged
    one state.  Each is charged cmax + 1 steps, with
    cmax <= rem_j / h_ij <= k_j / h_ij for every j in the support of h_i;
    where h_i does not divide rem, cmax = 0.

    The order field appended to each remainder (count_factorizations)
    changes none of this.  Its guard only lowers cmax and its dead mask
    only ends more states at once, so a search with it visits a subset of
    the states visited without it, each charged at most as many steps;
    and a state is still fixed by its position and its r coordinates, the
    field being their order.  So both sums bound it undivided.  The
    division counts what the field prunes.  Let i be a position from
    which every element has order 0 under c.  A state visited at i has
    order <rem, c> exactly 0: not below 0, as k of negative order is
    refused before any search and the guard refuses a multiplicity that
    would leave a negative order, and not above 0, as the dead mask then
    ends the state, field r being 0 in every element from i on.  On the
    states visited at i every coordinate outside R_i is fixed, as above:
    rem_j = k_j where no element before i has j, and rem_j = 0 where no
    element from i on has it.  So for a j in R_i with c_j != 0 the
    equation <rem, c> = 0 fixes rem_j by the other coordinates, and those
    states differ only on R_i less j: at most S_i / (k_j + 1) of them,
    the fewest for the largest k_j.  Each is still charged at most the
    step term's multiplicities.  Without orders no c_j is nonzero and
    nothing is divided, and with them the sums only fall.
    """
    supports = [[j for j, x in enumerate(h) if x] for h in elements]
    last = {j: i for i, support in enumerate(supports) for j in support}
    c = orders or (0,) * len(k)
    flat = len(elements)  # every element from position flat on has order 0
    while flat and not dot(elements[flat - 1], c):
        flat -= 1
    states = steps = 0
    shared = set()  # R_i at position i
    for i, (h, support) in enumerate(zip(elements, supports)):
        here = 1
        for j in shared:
            here *= k[j] + 1
        if i >= flat:  # the visited states' order 0 fixes one rem_j with c_j != 0
            here //= max([k[j] + 1 for j in shared if c[j]], default=1)
        states += here
        steps += here * (min(k[j] // h[j] for j in support) + 1)
        for j in support:
            if last[j] > i:
                shared.add(j)
            else:
                shared.discard(j)
    return states, steps


def _default_search_bound(v) -> int:
    return len(v) * max(1, max(abs(x) for x in v)) + 1


def cond_ii_pair_search(v, k: int, l: int, bound: int | None = None):
    """Brute-force condition-ii pair witness over the box [0, bound]^r, lex-first.

    Looks for a in Hol(v) with a_k >= 1 and a_l = 0 (k, l 1-based).  With
    the default bound r * max(1, max|v|) + 1 the box contains a witness
    whenever one exists, so None is a genuine nonexistence verdict.
    """
    v = tuple(v)
    if bound is None:
        bound = _default_search_bound(v)
    for a in itertools.product(range(bound + 1), repeat=len(v)):
        if a[k - 1] >= 1 and a[l - 1] == 0 and dot(a, v) >= 0:
            return a
    return None


def cond_iii_subset_search(v, subset, bound: int | None = None):
    """Brute-force condition-iii subset witness over [1, bound]^|M|, lex-first.

    Looks for positive exponents (k_j), j in the 1-based subset M, with
    sum k_j v_j >= 0.
    """
    v = tuple(v)
    if bound is None:
        bound = _default_search_bound(v)
    vals = [v[j - 1] for j in subset]
    for ks in itertools.product(range(1, bound + 1), repeat=len(vals)):
        if dot(ks, vals) >= 0:
            return ks
    return None


def _splits(k, s, v) -> bool:
    """True iff k = a + b with a, b nonzero members of Hol.

    Enumerates every proper part a <= k; the complement is in Hol exactly
    when 0 <= <a, v> <= <k, v>, by additivity of the order.
    """
    it = itertools.product(*[range(x + 1) for x in k])
    next(it)  # skip the zero part
    return any(a != k and 0 <= dot(a, v) <= s for a in it)


def is_irreducible(k, v) -> bool:
    """Decide irreducibility of a nonzero member of Hol by full enumeration."""
    k = tuple(k)
    s = dot(k, v)
    if s < 0:
        raise NotInHolError(f"{k} is not in Hol (order {s})")
    if not any(k):
        raise ValueError("the identity is neither reducible nor irreducible")
    return not _splits(k, s, v)


def adjoined_irreducibles(v, pivot: int) -> tuple[tuple[int, ...], ...]:
    """The r elements m_j * e_pivot + e_j, with m_j minimal for membership.

    `pivot` is 1-based and must name a generator of strictly positive
    order; m_j = max(0, ceil(-v_j / v_pivot)) is the least power of the
    pivot that drags the j-th generator into Hol.  Every returned element
    is in Hol and irreducible by construction (asserted).
    """
    r = len(v)
    if not 1 <= pivot <= r:
        raise ValueError(f"pivot {pivot} outside 1..{r}")
    p = pivot - 1
    vp = v[p]
    if vp <= 0:
        raise ValueError(f"pivot order must be > 0, got {vp}")
    out = []
    for j in range(r):
        vec = [0] * r
        vec[p] += max(0, -(v[j] // vp))
        vec[j] += 1
        elem = tuple(vec)
        assert is_irreducible(elem, v), elem
        out.append(elem)
    return tuple(out)


def hnf_with_transform(rows: Sequence[Sequence[int]]):
    """Row Hermite normal form with its transform.

    Returns (H, U, pivots) where U is unimodular, U @ A = H, H is in row
    echelon form with positive pivots and entries above each pivot reduced
    into [0, pivot).  len(pivots) is the rank; rows of U beyond the rank
    span the left kernel of A over the integers.  Plain Euclidean
    elimination on Python ints, with no rationals and no floats, so the
    transform is exactly unimodular.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    H = [[int(x) for x in row] for row in rows]
    for row in H:
        if len(row) != n:
            raise ValueError("ragged matrix")
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    piv = 0
    pivots: list[int] = []
    for col in range(n):
        if piv == m:
            break
        if not any(H[i][col] for i in range(piv, m)):
            continue
        # Euclidean elimination below the pivot slot: repeatedly move the
        # smallest nonzero entry up and reduce the rest modulo it.
        while True:
            i0 = min(
                (i for i in range(piv, m) if H[i][col]),
                key=lambda i: (abs(H[i][col]), i),
            )
            if i0 != piv:
                H[piv], H[i0] = H[i0], H[piv]
                U[piv], U[i0] = U[i0], U[piv]
            if H[piv][col] < 0:
                H[piv] = [-x for x in H[piv]]
                U[piv] = [-x for x in U[piv]]
            p = H[piv][col]
            clean = True
            for i in range(piv + 1, m):
                if H[i][col]:
                    q = H[i][col] // p
                    if q:
                        H[i] = [a - q * b for a, b in zip(H[i], H[piv])]
                        U[i] = [a - q * b for a, b in zip(U[i], U[piv])]
                    if H[i][col]:
                        clean = False
            if clean:
                break
        # Canonical form: entries above the pivot reduced into [0, pivot).
        p = H[piv][col]
        for i in range(piv):
            q = H[i][col] // p
            if q:
                H[i] = [a - q * b for a, b in zip(H[i], H[piv])]
                U[i] = [a - q * b for a, b in zip(U[i], U[piv])]
        pivots.append(col)
        piv += 1
    return H, U, pivots


def hermite_normal_form(rows):
    """Canonical row HNF and its pivot columns: (H, pivots)."""
    H, _, pivots = hnf_with_transform(rows)
    return H, pivots


def row_lattice_is_unimodular(rows, n: int) -> bool:
    """True iff the rows span all of Z^n, i.e. the HNF is the identity block."""
    if not rows:
        return False
    H, pivots = hermite_normal_form(rows)
    if len(pivots) != n:
        return False
    return all(H[i][pivots[i]] == 1 for i in range(n))


def lattice_is_full(basis, r: int) -> bool:
    """True iff the basis elements span Z^r as a lattice."""
    return row_lattice_is_unimodular([list(e) for e in basis.elements], r)


def divides_ar(a: Sequence[int], b: Sequence[int]) -> bool:
    """Divisibility in the ambient semigroup: b - a is componentwise >= 0."""
    aa = validate_exponent_vector(a)
    bb = validate_exponent_vector(b, rank=len(aa))
    return all(x <= y for x, y in zip(aa, bb))


def divides_hol(a: Sequence[int], b: Sequence[int], v: Sequence[int]) -> bool:
    """Divisibility with the quotient inside Hol(s0).

    Both a and b must themselves be members of Hol; otherwise the question
    is ill-posed and NotInHolError is raised.
    """
    if not is_member_hol(a, v):
        raise NotInHolError(f"dividend {tuple(a)} is not in Hol")
    if not is_member_hol(b, v):
        raise NotInHolError(f"divisor target {tuple(b)} is not in Hol")
    if not divides_ar(a, b):
        return False
    h = tuple(y - x for x, y in zip(a, b))
    return is_member_hol(h, v)
