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


def identity(n: int) -> Mat:
    return tuple(tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n))


def zeros(rows: int, cols: int) -> Mat:
    return tuple((Fraction(0),) * cols for _ in range(rows))


def mat_add(a: Mat, b: Mat) -> Mat:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(a: Mat, s: Fraction) -> Mat:
    return tuple(tuple(x * s for x in row) for row in a)


def mat_mul(a: Mat, b: Mat) -> Mat:
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in bt) for row in a
    )


def mat_vec(a: Mat, v: Vec) -> Vec:
    return tuple(sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in a)


def transpose(a: Mat) -> Mat:
    return tuple(zip(*a))


def is_upper_triangular(a: Mat) -> bool:
    return all(a[i][j] == 0 for i in range(len(a)) for j in range(min(i, len(a[0]))))


def is_zero(a: Mat) -> bool:
    return all(x == 0 for row in a for x in row)


def trace(a: Mat) -> Fraction:
    return sum((a[i][i] for i in range(len(a))), Fraction(0))


def char_poly(a: Mat) -> tuple[Fraction, ...]:
    """Characteristic polynomial det(xI - A), constant term first (monic).

    Faddeev-LeVerrier recursion; exact over the rationals.
    """
    n = len(a)
    if any(len(r) != n for r in a):
        raise ValueError("matrix must be square")
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    m = identity(n)
    for k in range(1, n + 1):
        m = mat_mul(a, m)
        c = -trace(m) / k
        coeffs[n - k] = c
        m = mat_add(m, mat_scale(identity(n), c))
    return tuple(coeffs)
