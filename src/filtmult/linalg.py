"""Exact linear algebra over the rationals.

Small dense problems only: determinants for the geometry kernel in
dimension <= 4, and exact solves and inverses for the ladder and grid
fits, which have at most a few dozen unknowns.  One Gauss–Jordan
elimination serves both: solve_linear reduces the matrix beside one
right-hand side, inverse beside the identity.  The fits in multiplicity
read their weights from these once per point set.  Everything is done with
``fractions.Fraction`` (or plain ints where inputs are integral), so
results are exact and reproducible.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Vector = Sequence[Fraction]
Matrix = Sequence[Sequence[Fraction]]


def solve_linear(a: Matrix, b: Vector) -> list[Fraction]:
    """Solve the square system a x = b exactly.

    Raises ValueError if the matrix is singular.
    """
    n = len(a)
    if any(len(row) != n for row in a) or len(b) != n:
        raise ValueError("solve_linear needs a square system")
    m = _reduced([[Fraction(x) for x in row] + [Fraction(y)] for row, y in zip(a, b)])
    return [row[n] for row in m]


def inverse(a: Matrix) -> list[list[Fraction]]:
    """Inverse of the square matrix a, exactly.

    Raises ValueError if the matrix is singular.
    """
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("inverse needs a square matrix")
    eye = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    m = _reduced([[Fraction(x) for x in row] + e for row, e in zip(a, eye)])
    return [row[n:] for row in m]


def _reduced(m: list[list[Fraction]]) -> list[list[Fraction]]:
    """Gauss–Jordan elimination of the rows m = [a | b], a square, in place.

    Leaves [identity | a^-1 b]; raises ValueError if a is singular.
    """
    n = len(m)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular matrix")
        m[col], m[pivot] = m[pivot], m[col]
        inv = 1 / m[col][col]
        m[col] = [v * inv for v in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [v - f * w if w else v for v, w in zip(m[r], m[col])]
    return m


def int_det(a: Sequence[Sequence[int]]) -> int:
    """Determinant of an integer matrix via fraction-free (Bareiss) elimination."""
    n = len(a)
    if n == 0:
        return 1
    m = [list(map(int, row)) for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        pkk = m[k][k]
        for i in range(k + 1, n):
            row_i = m[i]
            row_k = m[k]
            mik = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (pkk * row_i[j] - mik * row_k[j]) // prev
            row_i[k] = 0
        prev = pkk
    return sign * m[n - 1][n - 1]

