"""Test-only reference code: an independent B-spline closed form and a
deliberately broken modulation bundle (negative control)."""

import math
from dataclasses import replace
from fractions import Fraction

from quarklets.laurent import LaurentMatrix, LaurentPoly
from quarklets.modulation import ModulationBundle
from quarklets.piecewise import PiecewisePoly


def bspline_truncated_power(m: int) -> PiecewisePoly:
    """Alternative closed form of N_m via truncated powers (independent cross-check).

    N_m(x) = 1/(m-1)! sum_k (-1)^k C(m,k) max(0, x-k)^{m-1}, valid for m >= 2.
    """
    if m < 2:
        raise ValueError("the truncated-power form needs m >= 2")
    total = PiecewisePoly.zero()
    fact = Fraction(1, math.factorial(m - 1))
    for k in range(0, m):
        # (x - k)_+^{m-1} restricted to [k, m]; the k = m term is empty there
        # and the remaining terms cancel identically beyond x = m
        coeffs = _binomial_power(-Fraction(k), m - 1)
        piece = PiecewisePoly([k, m], [coeffs])
        total = total + piece * (fact * (-1) ** k * math.comb(m, k))
    return total


def _binomial_power(shift: Fraction, n: int) -> list[Fraction]:
    """Coefficients of (x + shift)^n."""
    return [math.comb(n, j) * shift ** (n - j) for j in range(n + 1)]


def perturb_detail_block(bundle: ModulationBundle, i: int = 0, j: int = 0) -> ModulationBundle:
    """A copy of the bundle with W(z)[i][j] nudged by z/100 (negative control)."""
    n = bundle.size
    bad = [[bundle.detail_symbol[r, c] for c in range(n)] for r in range(n)]
    bad[i][j] = bad[i][j] + LaurentPoly.monomial(Fraction(1, 100), 1)
    bad_sym = LaurentMatrix(bad)
    bad_x = LaurentMatrix.block(
        [
            [bundle.scaling_symbol, bundle.scaling_symbol.substitute_neg()],
            [bad_sym, bad_sym.substitute_neg()],
        ]
    )
    return replace(bundle, detail_symbol=bad_sym, modulation=bad_x)
