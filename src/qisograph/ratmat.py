"""Small dense exact-rational matrix helpers (Gaussian elimination).

The product visits only nonzero entries: each row of the left factor
is scanned for its nonzero positions, and each row of the right factor
that one of them reaches is reduced to its (column, value) nonzero
pairs once, on first use."""

from __future__ import annotations

from fractions import Fraction
from itertools import compress

Mat = list[list[Fraction | int]]   # int entries stay int until a Fraction enters


def rat_matrix(rows) -> Mat:
    return [[Fraction(x) for x in row] for row in rows]


def rat_zeros(m: int, n: int) -> Mat:
    return [[0] * n for _ in range(m)]


def rat_matmul(a: Mat, b: Mat) -> Mat:
    m = len(b[0])
    inner = range(len(b))
    nonzero: list[list | None] = [None] * len(b)
    out = []
    for ai in a:
        oi = [0] * m
        for t in compress(inner, ai):
            bt = nonzero[t]
            if bt is None:
                bt = nonzero[t] = list(compress(enumerate(b[t]), b[t]))
            c = ai[t]
            for j, x in bt:
                oi[j] += c * x
        out.append(oi)
    return out


def rat_max_abs(a: Mat) -> Fraction:
    return Fraction(max((abs(x) for row in a for x in row), default=0))


def _row_echelon(a: Mat) -> tuple[Mat, list[int]]:
    """In-place-free reduced row echelon form; returns (rref, pivot cols)."""
    mat = [row[:] for row in a]
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = Fraction(1) / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(rows):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return mat, pivots


def rat_nullspace(a: Mat) -> list[list[Fraction]]:
    """Basis of the right nullspace of a."""
    if not a:
        return []
    cols = len(a[0])
    rref, pivots = _row_echelon(a)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * cols
        vec[f] = Fraction(1)
        for r, p in enumerate(pivots):
            vec[p] = -rref[r][f]
        basis.append(vec)
    return basis
