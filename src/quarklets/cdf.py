"""Scalar CDF biorthogonal spline filters and the quarklet functions.

The primal mask is the symmetrized B-spline mask of order m.  The dual mask
of order mt (m <= mt, m + mt even) comes from the classical factorization:
with L = (m + mt)/2 and P_L(y) = sum_{n<L} C(L-1+n, n) y^n, the dual symbol is

    at(z) = z^kappa ((1+z)/2)^mt P_L((2 - z - 1/z)/4),

where the integer shift kappa = (m - mt)/2 - floor(m/2) gives the exact scalar
perfect-reconstruction identity (checked once, as a certificate)

    a(z) at(1/z) + a(-z) at(-1/z) = 1.

The pair stores the four symbols a, at, b and bt.  The wavelet symbols are
b(z) = -z at(-1/z) and bt(z) = -z a(-1/z), so their masks follow the standard
alternating-flip convention b_k = (-1)^k at_{1-k} and bt_k = (-1)^k a_{1-k};
all four masks are read off the symbols on first use.

Quarklets are the finite combinations psi_q = sum_k b_k phi_q(2x - k) of
dilated quark translates, assembled exactly as piecewise polynomials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .laurent import LaurentPoly
from .masks import mask_view
from .piecewise import PiecewisePoly
from .splines import quark, refinement_symbol


@dataclass(frozen=True)
class CdfPair:
    """The four scalar symbols of an (m, mt) pair, exact; their masks are read off on first use."""

    m: int
    mt: int
    primal_symbol: LaurentPoly        # a(z) = (1/2) sum_k a_k z^k
    dual_symbol: LaurentPoly          # at(z)
    wavelet_symbol: LaurentPoly       # b(z) = -z at(-1/z)
    dual_wavelet_symbol: LaurentPoly  # bt(z) = -z a(-1/z)

    primal = mask_view("primal_symbol", "a_k, read off a(z).")
    dual = mask_view("dual_symbol", "at_k, read off at(z).")
    wavelet = mask_view("wavelet_symbol", "b_k, read off b(z).")
    dual_wavelet = mask_view("dual_wavelet_symbol", "bt_k, read off bt(z).")


def validate_orders(m: int, mt: int):
    if m < 1 or mt < 1:
        raise ValueError("spline orders must be >= 1")
    if m > mt:
        raise ValueError("need m <= mt")
    if (m + mt) % 2:
        raise ValueError("need m + mt even")


def scalar_pr_defect(a: LaurentPoly, at: LaurentPoly) -> LaurentPoly:
    """a(z) at(1/z) + a(-z) at(-1/z) - 1 (zero iff perfect reconstruction)."""
    at_conj = at.conj_on_circle()
    return a * at_conj + a.substitute_neg() * at_conj.substitute_neg() - LaurentPoly.one()


def cdf_masks(m: int, mt: int) -> CdfPair:
    """Exact CDF filter quadruple for orders (m, mt)."""
    validate_orders(m, mt)
    return _cdf_cached(m, mt)


@lru_cache(maxsize=None)
def _cdf_cached(m: int, mt: int) -> CdfPair:
    a = refinement_symbol(m, 0)[0, 0]

    ell = (m + mt) // 2
    y = LaurentPoly({-1: Fraction(-1, 4), 0: Fraction(1, 2), 1: Fraction(-1, 4)})
    bezout = LaurentPoly.zero()
    ypow = LaurentPoly.one()
    for n in range(ell):
        bezout = bezout + ypow * math.comb(ell - 1 + n, n)
        ypow = ypow * y
    half_sum = LaurentPoly({0: Fraction(1, 2), 1: Fraction(1, 2)})
    # a(z) at(1/z) = z^{(m - mt)/2 - floor(m/2) - kappa} (1 - y)^L P_L(y), and the
    # Bezout identity makes the PR sum 1 only at power zero
    kappa = (m - mt) // 2 - m // 2
    at = (half_sum ** mt) * bezout * LaurentPoly.monomial(Fraction(1), kappa)
    defect = scalar_pr_defect(a, at)
    if not defect.is_zero():
        raise AssertionError(f"dual mask for (m, mt) = ({m}, {mt}) leaves PR defect {defect!r}; derivation bug")

    minus_z = LaurentPoly.monomial(-1, 1)
    return CdfPair(m, mt, a, at, *(minus_z * s.conj_on_circle().substitute_neg() for s in (at, a)))


def quarklet(m: int, mt: int, q: int) -> PiecewisePoly:
    """The exact piecewise polynomial psi_q = sum_k b_k phi_q(2x - k)."""
    validate_orders(m, mt)
    phi = quark(m, q)
    b = cdf_masks(m, mt).wavelet.scalars()
    return sum((phi.compose_linear(2, -Fraction(k)) * bk for k, bk in b.items()), PiecewisePoly.zero())


def quarklets(m: int, mt: int, p: int) -> tuple[PiecewisePoly, ...]:
    """The quarklets psi_0..psi_p of one (m, mt) filter pair."""
    if p < 0:
        raise ValueError("need p >= 0")
    return tuple(quarklet(m, mt, q) for q in range(p + 1))
