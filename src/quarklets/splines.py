"""Cardinal B-splines, quarks, and the quark refinement masks.

The order-m cardinal B-spline N_m is the m-fold convolution of the indicator
of [0, 1), built here exactly through the pointwise recursion

    N_m(x) = x/(m-1) N_{m-1}(x) + (m-x)/(m-1) N_{m-1}(x-1).

Quarks are the symmetrized B-spline N_m(x + floor(m/2)) multiplied by the
monomial (x / ceil(m/2))^q.  The quark vector (degree 0..p) satisfies an
exact two-scale matrix refinement equation whose masks are produced by
:func:`refinement_masks`.

Fourier transforms use the unitary convention F f(xi) =
(2 pi)^{-1/2} integral f(x) exp(-i x xi) dx.  :func:`quark_ft` evaluates them
in floats from the same masks, as the refinement cascade F Phi(xi) =
S(exp(-i xi/2)) F Phi(xi/2) over a Taylor tail with exact moments; its error
bound is absolute, against sup|F|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .laurent import cascade
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
    return tuple(quark(m, q) for q in range(p + 1))


@dataclass(frozen=True)
class RefinementMasks:
    """Two-scale masks of the quark vector: matrices A_k and the scalar mask a_k."""

    m: int
    p: int
    matrices: MaskSequence  # (p+1) x (p+1) matrices A_k
    scalar: MaskSequence    # 1 x 1: the B-spline mask a_k


def bspline_mask(m: int) -> MaskSequence:
    """Scalar refinement mask of the symmetrized B-spline: a_k = 2^{1-m} C(m, k + floor(m/2))."""
    half = m // 2
    vals = {k: Fraction(math.comb(m, k + half), 2 ** (m - 1)) for k in range(-half, m - half + 1)}
    return MaskSequence.from_scalars(vals)


def refinement_masks(m: int, p: int) -> RefinementMasks:
    """Exact masks A_k of the quark-vector two-scale relation.

    With 1-based indices q, l in {1, .., p+1} and the scalar mask a_k,

        (A_k)_{q,l} = 2^{1-q} ceil(m/2)^{l-q} a_k C(q-1, l-1) k^{q-l},

    which is lower triangular since C(q-1, l-1) vanishes for l > q.
    """
    if m < 1 or p < 0:
        raise ValueError("need m >= 1 and p >= 0")
    scalar = bspline_mask(m)
    half_up = (m + 1) // 2
    out: dict[int, Mat] = {}
    for k, ak in scalar.scalars().items():
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
    return RefinementMasks(m, p, MaskSequence(p + 1, p + 1, out), scalar)


# -- Fourier transform (float diagnostics) -----------------------------------------

# Depth of the refinement cascade behind quark_ft.  Its degree-3 Taylor tail is
# taken at eta = xi / 2^20, where the O(eta^4) remainder is below float rounding.
_FT_LEVELS = 20
_FT_TAIL_TERMS = 4


@lru_cache(maxsize=None)
def _ft_cascade_data(m: int, q: int) -> tuple[tuple[int, np.ndarray], np.ndarray]:
    """Float taps of the symbol of the quarks of degree 0..q, and their Taylor tail.

    Row t of the read-only tail is (2 pi)^{-1/2} (-i)^t / t! times the exact t-th moments.
    """
    taps = refinement_masks(m, q).matrices.to_symbol().float_taps()
    moments = np.array([[float(quark(m, l).moment(t)) for l in range(q + 1)] for t in range(_FT_TAIL_TERMS)])
    factors = [(-1j) ** t / math.factorial(t) / math.sqrt(2 * math.pi) for t in range(_FT_TAIL_TERMS)]
    tail = np.array(factors)[:, None] * moments
    tail.flags.writeable = False
    return taps, tail


def quark_ft(m: int, q: int, xi):
    """Fourier transform of the degree-q quark at xi, a float or an array (float diagnostic).

    The refinement cascade F Phi(xi) = S(exp(-i xi / 2)) F Phi(xi / 2) of the
    quarks of degree 0..q (symbol S from :func:`refinement_masks`), run over
    20 levels onto the Taylor tail.  For m <= 12, q <= 10 and |xi| <= 30 the
    absolute error is at most 1e-13 sup|F phi_q|; the relative error grows
    where the transform decays.
    """
    taps, tail = _ft_cascade_data(m, q)
    xi = np.asarray(xi, dtype=float)
    flat = xi.reshape(-1)
    powers = np.power.outer(flat / 2**_FT_LEVELS, np.arange(_FT_TAIL_TERMS))
    values = cascade(taps, 1.0, flat, _FT_LEVELS, powers @ tail)[:, q].reshape(xi.shape)
    return complex(values) if xi.ndim == 0 else values
