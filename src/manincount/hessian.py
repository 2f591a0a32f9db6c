"""Hessian rank audit for the cubic C = (y_1^2+...+y_n^2) z - x^3.

The interesting geometric fact is quantitative: every integer point with
z = 0 has Hessian rank <= 3, so the box [-B, B]^(n+2) holds at least
(2B+1)^(n+1) points of rank <= 3.  For n + 2 >= 6 that breaks the
B^(r+eps) bound a rank-stratified count would need, which is exactly what
these counters let a test observe.

The rank counts come in closed form; the exact matrix rows and their
Bareiss rank are kept for the enumeration that ``verify.suite_hessian``
checks them against.
"""

from __future__ import annotations

from typing import Sequence

__all__ = [
    "hessian_at",
    "rank_over_rationals",
    "rank_profile",
]


def hessian_at(x: int, y: Sequence[int], z: int) -> tuple[tuple[int, ...], ...]:
    """Rows of the second partials of (sum y_i^2) z - x^3 at (x, y_1..y_n, z),
    in coordinate order (x, y_1..y_n, z):

    H_xx = -6x, H_{y_i y_i} = 2z, H_{y_i z} = 2 y_i, everything else 0.
    """
    n = len(y)
    m = n + 2
    rows = [[0] * m for _ in range(m)]
    rows[0][0] = -6 * x
    for i in range(1, n + 1):
        rows[i][i] = 2 * z
        rows[i][n + 1] = rows[n + 1][i] = 2 * y[i - 1]
    return tuple(tuple(r) for r in rows)


def rank_over_rationals(rows: Sequence[Sequence[int]]) -> int:
    """Exact rank over Q of an integer matrix by Bareiss fraction-free
    elimination on a copy of its rows (no tolerances involved)."""
    rows = [list(r) for r in rows]
    m = len(rows)
    if m == 0:
        return 0
    ncols = len(rows[0])
    rank = 0
    prev = 1
    row = 0
    for col in range(ncols):
        pivot = None
        for r in range(row, m):
            if rows[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        rows[row], rows[pivot] = rows[pivot], rows[row]
        piv = rows[row][col]
        for r in range(row + 1, m):
            f = rows[r][col]
            for c in range(col, ncols):
                rows[r][c] = (rows[r][c] * piv - f * rows[row][c]) // prev
        prev = piv
        row += 1
        rank += 1
        if row == m:
            break
    return rank


def rank_profile(B: int, n: int = 4) -> dict[int, int]:
    """Number of points of each Hessian rank in the box [-B, B]^(n+2).

    The rank is [x != 0] + (n + [y != 0] if z != 0 else 2 [y != 0]): the x
    row stands alone; for z != 0 the y-diagonal 2z I_n has rank n and its
    Schur complement in the (y, z) block is -2|y|^2/z; for z = 0 only the
    2y border is left.  So the profile sums eight classes, one per choice of
    x, y, z zero or not, of sizes 1 or 2B (x, z) and 1 or (2B+1)^n - 1 (y).
    The counts partition (2B+1)^(n+2).
    """
    if B < 1:
        raise ValueError("B must be >= 1")
    if n < 3:
        raise ValueError("n must be >= 3")
    xz_sizes = ((0, 1), (1, 2 * B))
    y_sizes = ((0, 1), (1, (2 * B + 1) ** n - 1))
    profile: dict[int, int] = {}
    for x_nz, cx in xz_sizes:
        for y_nz, cy in y_sizes:
            for z_nz, cz in xz_sizes:
                r = x_nz + (n + y_nz if z_nz else 2 * y_nz)
                profile[r] = profile.get(r, 0) + cx * cy * cz
    return dict(sorted(profile.items()))
