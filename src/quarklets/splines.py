"""Cardinal B-splines, quarks, and the quark refinement masks.

The order-m cardinal B-spline N_m is the m-fold convolution of the indicator
of [0, 1), built here exactly through the pointwise recursion

    N_m(x) = x/(m-1) N_{m-1}(x) + (m-x)/(m-1) N_{m-1}(x-1).

Quarks are the symmetrized B-spline N_m(x + floor(m/2)) multiplied by the
monomial (x / ceil(m/2))^q.  The quark vector (degree 0..p) satisfies an
exact two-scale matrix refinement equation whose masks are produced by
:func:`refinement_masks`.  Everything here is exact; the quark Fourier
transform is computed from the same masks in floats by
:func:`quarklets.duals.quark_ft`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .masks import MaskSequence, Mat
from .piecewise import PiecewisePoly


def bspline(m: int) -> PiecewisePoly:
    """Exact piecewise polynomial of the order-m cardinal B-spline on [0, m]."""
    if m < 1:
        raise ValueError("spline order must be >= 1")
    return _bspline_cached(m)


@lru_cache(maxsize=None)
def _bspline_cached(m: int) -> PiecewisePoly:
    if m == 1:
        return PiecewisePoly.indicator(0, 1)
    prev = _bspline_cached(m - 1)
    c = Fraction(1, m - 1)
    left = prev.mul_poly([0, c])                                 # x/(m-1) * N_{m-1}(x)
    right = prev.translate(1).mul_poly([Fraction(m, m - 1), -c])  # (m-x)/(m-1) * N_{m-1}(x-1)
    return left + right


def symmetrized_bspline(m: int) -> PiecewisePoly:
    """N_m(x + floor(m/2)), supported on [-floor(m/2), ceil(m/2)]."""
    return bspline(m).compose_linear(1, Fraction(m // 2))


def quark(m: int, q: int) -> PiecewisePoly:
    """The degree-q quark (x/ceil(m/2))^q * N_m(x + floor(m/2))."""
    if m < 1:
        raise ValueError("spline order must be >= 1")
    if q < 0:
        raise ValueError("quark degree must be >= 0")
    return _quark_cached(m, q)


@lru_cache(maxsize=None)
def _quark_cached(m: int, q: int) -> PiecewisePoly:
    base = symmetrized_bspline(m)
    if q == 0:
        return base
    scale = Fraction(1, (m + 1) // 2)
    mono = [Fraction(0)] * q + [scale**q]
    return base.mul_poly(mono)


def quark_family(m: int, p: int) -> tuple[PiecewisePoly, ...]:
    """The quarks of degree 0..p for one spline order."""
    if p < 0:
        raise ValueError("quark degree must be >= 0")
    return tuple(quark(m, q) for q in range(p + 1))


def bspline_mask(m: int) -> MaskSequence:
    """Scalar refinement mask of the symmetrized B-spline: a_k = 2^{1-m} C(m, k + floor(m/2))."""
    half = m // 2
    vals = {k: Fraction(math.comb(m, k + half), 2 ** (m - 1)) for k in range(-half, m - half + 1)}
    return MaskSequence.from_scalars(vals)


def refinement_masks(m: int, p: int) -> MaskSequence:
    """Exact masks A_k of the quark-vector two-scale relation.

    With 1-based indices q, l in {1, .., p+1} and the scalar mask a_k,

        (A_k)_{q,l} = 2^{1-q} ceil(m/2)^{l-q} a_k C(q-1, l-1) k^{q-l},

    which is lower triangular since C(q-1, l-1) vanishes for l > q.
    """
    if m < 1 or p < 0:
        raise ValueError("need m >= 1 and p >= 0")
    half_up = (m + 1) // 2
    out: dict[int, Mat] = {}
    for k, ak in bspline_mask(m).scalars().items():
        rows = []
        for q in range(1, p + 2):
            row = []
            for l in range(1, p + 2):
                if l > q:
                    row.append(Fraction(0))
                else:
                    row.append(
                        Fraction(1, 2 ** (q - 1))
                        * Fraction(half_up) ** (l - q)
                        * ak
                        * math.comb(q - 1, l - 1)
                        * Fraction(k) ** (q - l)
                    )
            rows.append(tuple(row))
        out[k] = tuple(rows)
    return MaskSequence(p + 1, p + 1, out)
