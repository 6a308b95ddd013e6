"""Dense exact linear algebra over the rationals, for small matrices.

Matrices are tuples of tuples of Fraction; vectors are tuples of Fraction.
Sizes stay tiny (a handful of rows per polynomial degree), so clarity beats
asymptotics throughout.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .rational import as_rational

Mat = tuple[tuple[Fraction, ...], ...]
Vec = tuple[Fraction, ...]


def as_matrix(rows: Sequence[Sequence]) -> Mat:
    out = tuple(tuple(as_rational(c) for c in row) for row in rows)
    if not out or any(len(r) != len(out[0]) for r in out):
        raise ValueError("matrix must be rectangular and nonempty")
    return out


def zeros(rows: int, cols: int) -> Mat:
    return tuple((Fraction(0),) * cols for _ in range(rows))


def mat_vec(a: Mat, v: Vec) -> Vec:
    return tuple(sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in a)


def transpose(a: Mat) -> Mat:
    return tuple(zip(*a))


def is_upper_triangular(a: Mat) -> bool:
    return all(a[i][j] == 0 for i in range(len(a)) for j in range(min(i, len(a[0]))))


def is_zero(a: Mat) -> bool:
    return all(x == 0 for row in a for x in row)
