"""Exact integer row reduction: Hermite normal form, rank, left kernel.

Plain Euclidean elimination on Python ints.  No rationals and no floats
anywhere: unimodularity questions are decided exactly or not at all.
"""

from __future__ import annotations

from typing import Sequence


def hnf_with_transform(rows: Sequence[Sequence[int]]):
    """Row Hermite normal form with its transform.

    Returns (H, U, pivots) where U is unimodular, U @ A = H, H is in row
    echelon form with positive pivots and entries above each pivot reduced
    into [0, pivot).  len(pivots) is the rank; rows of U beyond the rank
    span the left kernel of A over the integers.
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


def hermite_normal_form(rows: Sequence[Sequence[int]]):
    """Canonical row HNF and its pivot columns: (H, pivots)."""
    H, _, pivots = hnf_with_transform(rows)
    return H, pivots


def row_lattice_is_unimodular(rows: Sequence[Sequence[int]], n: int) -> bool:
    """True iff the rows span all of Z^n, i.e. the HNF is the identity block."""
    if not rows:
        return False
    H, pivots = hermite_normal_form(rows)
    if len(pivots) != n:
        return False
    return all(H[i][pivots[i]] == 1 for i in range(n))
