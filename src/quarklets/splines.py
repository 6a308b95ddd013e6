"""Cardinal B-splines, quarks, and the quark refinement masks.

The order-m cardinal B-spline N_m is the m-fold convolution of the indicator
of [0, 1), built here exactly through the pointwise recursion

    N_m(x) = x/(m-1) N_{m-1}(x) + (m-x)/(m-1) N_{m-1}(x-1).

Quarks are the symmetrized B-spline N_m(x + floor(m/2)) multiplied by the
monomial (x / ceil(m/2))^q.  The quark vector (degree 0..p) satisfies an
exact two-scale matrix refinement equation.  Its symbol S(z) = (1/2) sum_k A_k z^k
is built by :func:`refinement_symbol` from a closed form, one integer
polynomial over one denominator per entry, and :func:`refinement_masks` reads
the masks A_k off it.  Everything here is exact; the quark Fourier transform
is computed from the same symbol in floats by :func:`quarklets.duals.quark_ft`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .laurent import LaurentMatrix, LaurentPoly, _from_int
from .masks import MaskSequence
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


def refinement_symbol(m: int, p: int) -> LaurentMatrix:
    """Exact symbol S(z) = (1/2) sum_k A_k z^k of the quark-vector two-scale relation.

    With h = floor(m/2), c = ceil(m/2) and 0-based degrees q, l in {0, .., p},

        S_{q,l}(z) = C(q, l) sum_k C(m, k + h) k^{q-l} z^k / (2^{m+q} c^{q-l}),

    one integer polynomial over one denominator per entry, lower triangular
    since C(q, l) vanishes for l > q.
    """
    if m < 1 or p < 0:
        raise ValueError("need m >= 1 and p >= 0")
    half, half_up = m // 2, (m + 1) // 2
    binom = {k: math.comb(m, k + half) for k in range(-half, m - half + 1)}
    zero = LaurentPoly.zero()
    return LaurentMatrix([
        [_from_int({k: math.comb(q, l) * b * k ** (q - l) for k, b in binom.items()},
                   2 ** (m + q) * half_up ** (q - l)) if l <= q else zero for l in range(p + 1)]
        for q in range(p + 1)
    ])


def refinement_masks(m: int, p: int) -> MaskSequence:
    """The masks A_k = 2 (z^k coefficient of :func:`refinement_symbol`) of the quark vector."""
    return MaskSequence.from_symbol(refinement_symbol(m, p))
