"""Trigonometric polynomials with exact coefficients.

A finitely supported two-sided coefficient sequence {c_n} represents the
2*pi-periodic function t -> sum_n c_n exp(-i n t).  It is stored as the
:class:`LaurentPoly` sum_n c_n z^n and evaluated at z = exp(-i t).

The central construction is the shift Gram symbol of two compactly supported
functions f, g: the polynomial whose n-th coefficient is <f, g(. - n)>.  Up to
one global positive constant (fixed by the Fourier normalization, and
irrelevant for every positivity question asked here) it equals the periodized
product sum_k Ff(t + 2 pi k) * conj(Fg(t + 2 pi k)).  The Gram matrix of a
family holds the symbols of all its pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import realroots
from .laurent import LaurentPoly, _dot, _from_int
from .piecewise import PiecewisePoly, taylor_shift


def gram_matrix(functions: Sequence[PiecewisePoly]) -> list[list[LaurentPoly]]:
    """Matrix of the shift Gram symbols G[i][j] of a nonempty family (Hermitian in t).

    Each function is rewritten in local coordinates once, and only the upper
    triangle is integrated: G[j][i] is G[i][j].conj_on_circle().
    """
    if not functions:
        raise ValueError("a Gram matrix needs at least one function")
    local = [_local_pieces(f) for f in functions]
    n = len(local)
    upper = {(i, j): _gram_from_pieces(local[i], local[j]) for i in range(n) for j in range(i, n)}
    return [
        [upper[i, j] if i <= j else upper[j, i].conj_on_circle() for j in range(n)]
        for i in range(n)
    ]


def _gram_from_pieces(f_local: list[tuple], g_local: list[tuple]) -> LaurentPoly:
    """Exact shift Gram symbol sum_n <f, g(. - n)> z^n of f, g, from their :func:`_local_pieces`.

    Only finitely many translates of g meet the support of f, so the result
    is a genuine trigonometric polynomial.  A piece of f at a and one of
    g(. - n) at a + e overlap on [a + lo, a + lo + w), lo = max(e, 0), where
    their local pieces, Taylor-shifted by lo and lo - e (both 0 on aligned
    breakpoints, as for quarks), are multiplied and integrated over [0, w).
    """
    out: dict[int, Fraction] = {}
    for a, wa, p in f_local:
        for b, wb, q in g_local:
            for n in range(math.floor(a - b - wb) + 1, math.ceil(a + wa - b)):
                e = b + n - a
                lo = max(e, 0)
                v = _overlap_integral(
                    p if lo == 0 else taylor_shift(p, lo),
                    q if lo == e else taylor_shift(q, lo - e),
                    min(wa, wb + e) - lo,
                )
                out[n] = out.get(n, 0) + v
    return LaurentPoly(out)


def _local_pieces(f: PiecewisePoly) -> list[tuple]:
    """(left breakpoint, width, piece in t = x - left) for every nonzero piece of f."""
    # integral breakpoints as ints keep Fraction arithmetic out of the overlap loop
    bps = [b.numerator if b.denominator == 1 else b for b in f.breakpoints]
    return [(lo, hi - lo, taylor_shift(p, lo)) for p, lo, hi in zip(f.pieces, bps, bps[1:]) if p]


def _overlap_integral(p: LaurentPoly, q: LaurentPoly, w: Fraction) -> Fraction:
    """Integral of p(t) q(t) over [0, w), on the integer numerators of p and q: sum_k P_k w^(k+1)/(k+1)."""
    prod = _dot((p.nums,), (q.nums,))
    top = max(prod)
    den, u, v = math.lcm(*range(1, top + 2)), w.numerator, w.denominator
    acc = sum(c * (den // (k + 1)) * u ** (k + 1) * v ** (top - k) for k, c in prod.items())
    return Fraction(acc, p.den * q.den * den * v ** (top + 1))


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
    functions.  q = c_0 + sum_n 2 c_n T_n, summed on the integer numerators while
    T_{n+1} = 2x T_n - T_{n-1} builds each Chebyshev polynomial from the last two.
    """
    _require_even(theta)
    nums = theta.nums
    d = max(nums, default=0)
    q = [nums.get(0, 0)] + [0] * d
    prev, cur = [1], [0, 1]  # T_0, T_1: integer coefficients, constant first
    for n in range(1, d + 1):
        if c := 2 * nums.get(n, 0):
            for k, t in enumerate(cur):
                q[k] += c * t
        nxt = [0] + [2 * t for t in cur]
        for k, t in enumerate(prev):
            nxt[k] -= t
        prev, cur = cur, nxt
    return _from_int(dict(enumerate(q)), theta.den)


def _require_even(theta: LaurentPoly) -> None:
    if theta.conj_on_circle() != theta:
        raise ValueError("coefficients are not symmetric: theta is not even")


def is_positive_on_circle(theta: LaurentPoly) -> CirclePositivity:
    """Decide exactly whether theta(exp(-i t)) > 0 for every real t.

    The verdict rests on exact rational arithmetic only.  Its certificate
    chain: the exact value theta(1) = sum_n c_n, whose 0 proves a zero at
    t = 0; else, for q(x) = theta(arccos x), Descartes exclusion or isolation
    of the roots in [-1, 1] by bisection
    (:func:`quarklets.realroots.isolate_roots`), with the square-free part of
    q as the fallback for an interval that bisection cannot resolve; with no
    root, the sign of q(0).  A zero is reported at the largest root x, which
    is located within 2^-40, as t = acos(x).

    For a positive theta, ``location`` and ``value`` are float diagnostics:
    the best of a 512-sample grid of [0, pi], refined by 80 ternary steps on
    its two neighbouring cells (a bracket below 1e-16 wide).  Where
    f(t) = q(cos t) is unimodal on those cells, ``value`` exceeds the true
    minimum by at most max|f''| (pi/512)^2 / 8 plus the Horner rounding,
    about deg(q) eps sum_k |q_k|, and ``location`` is off only as far as f
    stays within that rounding of its minimum.
    """
    if theta.is_zero():
        return CirclePositivity(False, 0.0, 0.0, "identically zero")
    _require_even(theta)
    if not sum(theta.nums.values()):
        # the largest root of q is x = 1 exactly, so t = acos(1) = 0
        return CirclePositivity(False, 0.0, 0.0, "zero on the unit circle near t = 0")
    q = to_cosine_polynomial(theta)
    roots = realroots.isolate_roots(q, Fraction(-1), Fraction(1))
    if roots:
        x = max(roots)
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
    coeffs = [q.nums.get(k, 0) / q.den for k in range(max(q.nums), -1, -1)]

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
