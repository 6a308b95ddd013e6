"""Exact real-root counting and location for rational polynomials.

Sturm-chain root isolation over the rationals, plus the Chebyshev polynomials
that turn a trigonometric positivity question into a real-root question on
[-1, 1] (see :mod:`quarklets.trig`).  Polynomials are :class:`LaurentPoly`
with no negative exponents.
"""

from __future__ import annotations

from fractions import Fraction

from .laurent import LaurentPoly


def gcd_poly(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Monic greatest common divisor (zero only when a = b = 0)."""
    while b:
        a, b = b, divmod(a, b)[1]
    return a * (1 / a[max(a.coeffs)]) if a else a


def square_free(p: LaurentPoly) -> LaurentPoly:
    g = gcd_poly(p, p.derivative())
    if not g or g == 1:
        return p
    q, r = divmod(p, g)
    assert not r
    return q


def sturm_chain(p: LaurentPoly) -> list[LaurentPoly]:
    chain = [p, p.derivative()]
    while chain[-1]:
        r = divmod(chain[-2], chain[-1])[1]
        if not r:
            break
        chain.append(-r)
    return [c for c in chain if c]


def _variations(chain: list[LaurentPoly], x: Fraction) -> int:
    signs = []
    for p in chain:
        v = p.eval_rational(x)
        if v:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots_half_open(chain: list[LaurentPoly], a: Fraction, b: Fraction) -> int:
    """Distinct real roots in (a, b] of the square-free polynomial behind `chain`."""
    return _variations(chain, a) - _variations(chain, b)


# Isolating intervals are bisected down to this width.
_ROOT_TOL = Fraction(1, 2**40)


def isolate_roots(p: LaurentPoly, a: Fraction, b: Fraction) -> list[Fraction]:
    """Approximate locations (within 2^-40) of all distinct real roots of p in [a, b]."""
    s = square_free(p)
    if not s:
        raise ValueError("zero polynomial has infinitely many roots")
    if max(s.coeffs) == 0:
        return []
    chain = sturm_chain(s)
    roots: list[Fraction] = []
    if s.eval_rational(a) == 0:
        roots.append(a)

    def refine(lo: Fraction, hi: Fraction) -> Fraction:
        # exactly one root in (lo, hi]
        while hi - lo > _ROOT_TOL:
            mid = (lo + hi) / 2
            if count_roots_half_open(chain, lo, mid) == 1:
                hi = mid
            else:
                lo = mid
        return hi

    def split(lo: Fraction, hi: Fraction, n: int):
        if n == 0:
            return
        if n == 1:
            roots.append(refine(lo, hi))
            return
        mid = (lo + hi) / 2
        left = count_roots_half_open(chain, lo, mid)
        split(lo, mid, left)
        split(mid, hi, n - left)

    split(a, b, count_roots_half_open(chain, a, b))
    return sorted(roots)


def chebyshev_t(n: int) -> LaurentPoly:
    """The Chebyshev polynomial T_n, by T_{k+1} = 2x T_k - T_{k-1}."""
    prev, cur = LaurentPoly.one(), LaurentPoly.monomial(Fraction(1), 1)
    for _ in range(n):
        prev, cur = cur, LaurentPoly.monomial(Fraction(2), 1) * cur - prev
    return prev
