"""Shared brute-force oracles, independent of the package implementation.

Everything here recomputes answers the dumbest possible way (full
enumeration, no slack equation, no pruning) so the package's algorithms
are checked against genuinely separate code paths.
"""

from __future__ import annotations

import itertools


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


def brute_count_factorizations(k, elements) -> int:
    """Number of coefficient vectors over `elements` summing to k."""
    rngs = []
    for h in elements:
        caps = [k[j] // h[j] for j in range(len(k)) if h[j]]
        rngs.append(range(min(caps) + 1 if caps else 1))
    n = 0
    for combo in itertools.product(*rngs):
        total = [0] * len(k)
        for c, h in zip(combo, elements):
            for j in range(len(k)):
                total[j] += c * h[j]
        if tuple(total) == tuple(k):
            n += 1
    return n


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
