"""Trigonometric polynomials with exact coefficients.

A finitely supported two-sided coefficient sequence {c_n} represents the
2*pi-periodic function t -> sum_n c_n exp(-i n t).  It is stored as the
:class:`LaurentPoly` sum_n c_n z^n and evaluated at z = exp(-i t).

The central construction is the shift Gram symbol of two compactly supported
functions f, g: the polynomial whose n-th coefficient is <f, g(. - n)>.  Up to
one global positive constant (fixed by the Fourier normalization, and
irrelevant for every positivity question asked here) it equals the periodized
product sum_k Ff(t + 2 pi k) * conj(Fg(t + 2 pi k)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import realroots
from .laurent import LaurentPoly, _dot, _int_cores
from .piecewise import PiecewisePoly, taylor_shift


def shift_gram_symbol(f: PiecewisePoly, g: PiecewisePoly) -> LaurentPoly:
    """Laurent polynomial with n-th coefficient <f, g(. - n)>, exact.

    Only finitely many translates of g meet the support of f, so the result
    is a genuine trigonometric polynomial.  Each piece is rewritten once in
    t = x - (left breakpoint).  A piece of f at a and one of g(. - n) at
    a + e overlap on [a + lo, a + lo + w), lo = max(e, 0), where their local
    pieces, Taylor-shifted by lo and lo - e (both 0 on aligned breakpoints,
    as for quarks), are multiplied and integrated over [0, w).
    """
    return _gram_from_pieces(_local_pieces(f), _local_pieces(g))


def _gram_from_pieces(f_local: list[tuple], g_local: list[tuple]) -> LaurentPoly:
    """:func:`shift_gram_symbol` of two functions given by their :func:`_local_pieces`."""
    out: dict[int, Fraction] = {}
    for a, wa, p in f_local:
        for b, wb, q in g_local:
            for n in range(math.floor(a - b - wb) + 1, math.ceil(a + wa - b)):
                e = b + n - a
                lo = max(e, 0)
                v = _overlap_integral(taylor_shift(p, lo), taylor_shift(q, lo - e), min(wa, wb + e) - lo)
                out[n] = out.get(n, 0) + v
    return LaurentPoly(out)


def _local_pieces(f: PiecewisePoly) -> list[tuple]:
    """(left breakpoint, width, piece in t = x - left) for every nonzero piece of f."""
    # integral breakpoints as ints keep Fraction arithmetic out of the overlap loop
    bps = [b.numerator if b.denominator == 1 else b for b in f.breakpoints]
    return [(lo, hi - lo, taylor_shift(p, lo)) for p, lo, hi in zip(f.pieces, bps, bps[1:]) if p]


def _overlap_integral(p: LaurentPoly, q: LaurentPoly, w: Fraction) -> Fraction:
    """Integral of p(t) q(t) over [0, w): sum_k P_k w^(k+1)/(k+1), on the integer core."""
    (np_,), dp = _int_cores((p,))
    (nq,), dq = _int_cores((q,))
    prod = _dot([np_], [nq])
    top = max(prod)
    den, u, v = math.lcm(*range(1, top + 2)), w.numerator, w.denominator
    acc = sum(c * (den // (k + 1)) * u ** (k + 1) * v ** (top - k) for k, c in prod.items())
    return Fraction(acc, dp * dq * den * v ** (top + 1))


@dataclass(frozen=True)
class CirclePositivity:
    """Outcome of the exact positivity test on the unit circle."""

    positive: bool
    location: float  # argmin frequency in [0, pi] (zero location when not positive)
    value: float     # function value there (0.0 for a certified zero)
    certificate: str


def to_cosine_polynomial(theta: LaurentPoly) -> LaurentPoly:
    """Rational polynomial q with theta(exp(-i t)) = q(cos t).

    Requires symmetric coefficients (c_{-n} = c_n), which is exactly the
    shape of autocorrelation symbols and Gram determinants of real-valued
    functions.
    """
    if theta.conj_on_circle() != theta:
        raise ValueError("coefficients are not symmetric: theta is not even")
    terms = (2 * c * realroots.chebyshev_t(n) for n, c in theta.coeffs.items() if n > 0)
    return sum(terms, LaurentPoly.monomial(theta[0]))


def is_positive_on_circle(theta: LaurentPoly) -> CirclePositivity:
    """Decide exactly whether theta(exp(-i t)) > 0 for every real t.

    The decision maps theta to the polynomial q(x) = theta(arccos x) and
    isolates the real roots of q in [-1, 1] with Sturm chains; no sampling
    and no floating-point tolerance is involved in the verdict.  The reported
    location/value floats are diagnostics only.
    """
    if theta.is_zero():
        return CirclePositivity(False, 0.0, 0.0, "identically zero")
    q = to_cosine_polynomial(theta)
    one = Fraction(1)
    roots = realroots.isolate_roots(q, -one, one)
    if roots:
        x = max(roots)  # zeros at t = 0 (x = 1) are the common failure mode
        t = math.acos(max(-1.0, min(1.0, float(x))))
        return CirclePositivity(False, t, 0.0, f"zero on the unit circle near t = {t:.6g}")
    mid = q.eval_rational(0)
    if mid < 0:
        return CirclePositivity(False, math.pi / 2, float(mid), "negative on the whole circle")
    loc, val = _float_minimum(q)
    return CirclePositivity(True, loc, val, f"positive minimum {val:.6g} at t = {loc:.6g}")


def _float_minimum(q: LaurentPoly) -> tuple[float, float]:
    """Approximate minimum of q(cos t) over [0, pi] (diagnostic only)."""
    samples = 512
    coeffs = [float(q[k]) for k in range(max(q.coeffs), -1, -1)]

    def val(t: float) -> float:
        acc, x = 0.0, math.cos(t)
        for c in coeffs:  # Horner's rule
            acc = acc * x + c
        return acc

    best_t, best_v = 0.0, val(0.0)
    for i in range(1, samples + 1):
        t = math.pi * i / samples
        v = val(t)
        if v < best_v:
            best_t, best_v = t, v
    lo = max(0.0, best_t - math.pi / samples)
    hi = min(math.pi, best_t + math.pi / samples)
    for _ in range(80):
        m1 = lo + (hi - lo) / 3
        m2 = hi - (hi - lo) / 3
        if val(m1) <= val(m2):
            hi = m2
        else:
            lo = m1
    t = (lo + hi) / 2
    return t, val(t)
