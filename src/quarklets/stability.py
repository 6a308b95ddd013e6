"""Shift-stability analysis of quarks and quark vectors.

A compactly supported L2 function has L2-stable integer translates iff its
autocorrelation symbol (the shift Gram symbol with itself) is strictly
positive on the circle; a vector of such functions is stable iff the
determinant of its Gram-symbol matrix never vanishes.  Both criteria are
decided exactly here via Sturm root isolation in the Chebyshev variable.

Also included: a frequency-domain zero scan for individual quark transforms
(float diagnostic) and exact Condition E / eigenvalue read-offs for the dual
refinement symbol at z = 1, St(1) = S(1)^{-T}, which is upper triangular.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import linalg
from .cdf import validate_orders
from .laurent import LaurentMatrix, LaurentPoly
from .splines import quark, quark_ft, refinement_masks
from .trig import is_positive_on_circle, shift_gram_symbol


@dataclass(frozen=True)
class StabilityReport:
    subject: str
    stable: bool
    certificate: str
    location: float
    value: float


def is_stable_single(m: int, q: int) -> StabilityReport:
    """Exact L2-stability decision for the integer translates of one quark."""
    phi = quark(m, q)
    theta = shift_gram_symbol(phi, phi)
    res = is_positive_on_circle(theta)
    return StabilityReport(
        subject=f"quark(m={m}, q={q})",
        stable=res.positive,
        certificate=res.certificate,
        location=res.location,
        value=res.value,
    )


def gram_symbol_matrix(m: int, p: int) -> list[list[LaurentPoly]]:
    """Matrix of shift Gram symbols of the quark vector (Hermitian in t).

    Only the upper triangle is integrated: G[j][i] is G[i][j].conj_on_circle().
    """
    n = p + 1
    quarks = [quark(m, q) for q in range(n)]
    upper = {(i, j): shift_gram_symbol(quarks[i], quarks[j]) for i in range(n) for j in range(i, n)}
    return [
        [upper[i, j] if i <= j else upper[j, i].conj_on_circle() for j in range(n)]
        for i in range(n)
    ]


def trig_determinant(mat: Sequence[Sequence[LaurentPoly]]) -> LaurentPoly:
    """Exact determinant by cofactor expansion (sizes here are tiny)."""
    n = len(mat)
    if n == 1:
        return mat[0][0]
    total = LaurentPoly.zero()
    for j in range(n):
        if mat[0][j].is_zero():
            continue
        minor = [[mat[i][k] for k in range(n) if k != j] for i in range(1, n)]
        term = mat[0][j] * trig_determinant(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


def is_stable_vector(m: int, p: int) -> StabilityReport:
    """Exact L2-stability decision for the quark vector of degrees 0..p."""
    det = trig_determinant(gram_symbol_matrix(m, p))
    res = is_positive_on_circle(det)
    return StabilityReport(
        subject=f"quark vector(m={m}, p={p})",
        stable=res.positive,
        certificate="Gram determinant: " + res.certificate,
        location=res.location,
        value=res.value,
    )


def stability_table(max_m: int, max_p: int) -> dict[tuple[int, int], bool]:
    """Grid of single-quark stability decisions for 1 <= m <= max_m, 0 <= p <= max_p."""
    if max_m < 1 or max_p < 0:
        raise ValueError("bounds must cover at least one cell")
    return {
        (m, p): is_stable_single(m, p).stable
        for m in range(1, max_m + 1)
        for p in range(0, max_p + 1)
    }


# A minimum of |F| counts as a zero below this fraction of 1 + max |F| on the grid.
_ZERO_RTOL = 1e-7


def ft_zero_scan(m: int, q: int, lo: float, hi: float, samples: int = 4000) -> list[float]:
    """Approximate real zeros of |F phi_q| on [lo, hi] (float diagnostic).

    Brackets local minima of |F|^2 on a uniform grid of ``samples >= 3``
    points, sharpens each bracket by ternary search, and reports minima whose
    value is a numerical zero relative to the overall scale of |F| on the
    interval.  Placement degrades with zero multiplicity: for quark(m, 0) on
    [-20, 20] at 4000 samples the error at +-2 pi k grows from 0 (m = 1) to
    1.5e-2 (m = 6), and m >= 7 gives spurious zeros.
    """
    if not (hi > lo) or not math.isfinite(lo) or not math.isfinite(hi):
        raise ValueError("need a finite interval with lo < hi")
    if samples < 3:
        raise ValueError("need at least 3 samples: minima are bracketed by interior grid points")
    xs = np.linspace(lo, hi, samples)
    vals = np.abs(quark_ft(m, q, xs)) ** 2
    scale = math.sqrt(float(vals.max()))
    tol = _ZERO_RTOL * (1.0 + scale)
    inner = np.flatnonzero((vals[1:-1] <= vals[:-2]) & (vals[1:-1] <= vals[2:])) + 1
    a, b = xs[inner - 1], xs[inner + 1]
    for _ in range(100):
        m1 = a + (b - a) / 3
        m2 = b - (b - a) / 3
        h = np.abs(quark_ft(m, q, np.concatenate([m1, m2]))) ** 2
        left = h[: inner.size] <= h[inner.size :]
        a, b = np.where(left, a, m1), np.where(left, m2, b)
    x = (a + b) / 2
    zeros = x[np.abs(quark_ft(m, q, x)) < tol].tolist()
    deduped: list[float] = []
    step = (hi - lo) / samples
    for z in sorted(zeros):
        if not deduped or z - deduped[-1] > step:
            deduped.append(z)
    return deduped


def condition_e(matrix) -> bool:
    """True iff 1 is a simple eigenvalue and every other eigenvalue has modulus < 1.

    An exact read-off of the diagonal, so the input must be a square rational
    matrix that is upper or lower triangular, as St(1) is (see
    :func:`dual_symbol_at_one`).  Float entries raise TypeError; any other
    shape raises ValueError.
    """
    mat = linalg.as_matrix(matrix)
    n = len(mat)
    if len(mat[0]) != n:
        raise ValueError("matrix must be square")
    if not (linalg.is_upper_triangular(mat) or linalg.is_upper_triangular(linalg.transpose(mat))):
        raise ValueError("Condition E is read off the diagonal of a triangular matrix only")
    diag = [mat[i][i] for i in range(n)]
    return diag.count(1) == 1 and all(abs(d) < 1 for d in diag if d != 1)


def dual_symbol_at_one(m: int, mt: int, p: int) -> linalg.Mat:
    """The dual scaling symbol evaluated exactly at z = 1 (upper triangular).

    b(1) = 0 gives T(1) = b(-1) S(1), so St(1) = L(1)^T = S(1)^{-T}: it
    depends on (m, p) only, with diagonal 2^q, q = 0..p.
    """
    validate_orders(m, mt)
    return _symbol_at_one(m, p)


@lru_cache(maxsize=None)
def _symbol_at_one(m: int, p: int) -> linalg.Mat:
    """S(1)^{-T} with S(1) = (1/2) sum_k A_k, lower triangular with diagonal 2^{-q}."""
    masks = refinement_masks(m, p).matrices.entries.values()
    at_one = LaurentMatrix([[sum(a[i][j] for a in masks) / 2 for j in range(p + 1)] for i in range(p + 1)])
    return tuple(tuple(e[0] for e in col) for col in zip(*at_one.invert_lower_triangular().entries))


def dual_symbol_eigenvalues(m: int, mt: int, p: int) -> list[Fraction]:
    """Exact eigenvalues of the dual scaling symbol at z = 1 (diagonal read-off)."""
    mat = dual_symbol_at_one(m, mt, p)
    return sorted(mat[i][i] for i in range(len(mat)))
