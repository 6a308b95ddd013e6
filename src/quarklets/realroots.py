"""Exact real-root location for rational polynomials, by Descartes bisection.

``isolate_roots`` bisects [a, b] on the dyadic grid of its midpoints.  Each
interval (lo, hi] gets the integer polynomial P(x) = c p(lo + (hi - lo) x),
c > 0, and its Moebius transform (1 + y)^d P(1/(1 + y)), whose positive roots
are the roots of p in the open interval (lo, hi).  By Descartes' rule of
signs (Collins & Akritas, SYMSAC 1976) 0 sign variations exclude a root there
and 1 proves exactly one simple root; the right end hi is decided by the exact
value P(1).  A child interval's polynomial is the parent's at x/2, scaled to
integers, and for the right child shifted by 1, so bisection runs on integer
additions and shifts.  Below an isolated simple root (1 variation and
P(1) != 0) the interval is halved by the sign of p at its midpoint, one
evaluation per level, until it is at most 2^-40 wide.  Multiple roots never
reach 0 or 1 variations, so an interval still open at a fixed depth goes on
with the square-free part of p; by Vincent's theorem bisection then ends.
Polynomials are :class:`LaurentPoly` with no negative exponents.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from .laurent import LaurentPoly
from .piecewise import _shift_ints, dilate, taylor_shift


def square_free(p: LaurentPoly) -> LaurentPoly:
    """p over its greatest common divisor with p': the same roots, each simple."""
    g, r = p, p.derivative()
    while r:  # Euclid's algorithm
        g, r = r, divmod(g, r)[1]
    if not g or max(g.nums) == 0:
        return p
    q, rem = divmod(p, g)
    assert not rem
    return q


# Isolating intervals are bisected down to this width.
_ROOT_TOL = Fraction(1, 2**40)
# Bisection depth from which an interval with 2 or more variations goes on with
# the square-free part: past the 41 levels that reach _ROOT_TOL on [-1, 1].
_SQUARE_FREE_DEPTH = 64


def isolate_roots(p: LaurentPoly, a: Fraction, b: Fraction) -> list[Fraction]:
    """Approximate locations (within 2^-40) of all distinct real roots of p in [a, b].

    Each root r in (a, b] is reported as the right end of the shallowest
    dyadic interval (lo, hi] of the bisection of (a, b] that is at most 2^-40
    wide and holds no other root; a root at a is reported as a.
    """
    if not p:
        raise ValueError("zero polynomial has infinitely many roots")
    if not a < b:
        raise ValueError(f"empty interval [{a}, {b}]: need a < b")
    if max(p.nums) == 0:
        return []
    fallback = cache(lambda: square_free(p))

    def solve(c: list[int], base: LaurentPoly, lo: Fraction, hi: Fraction, depth: int) -> list[Fraction]:
        # c: integer coefficients of base on (lo, hi] rescaled to (0, 1], constant first
        at_hi = not sum(c)
        changes = _sign_changes(_shift_ints(c[::-1], 1))
        narrow = hi - lo <= _ROOT_TOL
        if changes == 0:
            return [hi] if at_hi else []
        if changes == 1 and not at_hi:
            return [_narrow(base, lo, hi, sum(c) > 0)]
        if depth == _SQUARE_FREE_DEPTH and base is p and fallback() is not p:
            base = fallback()
            c = _restrict(base, lo, hi)
        top = len(c) - 1
        half = [x << (top - k) for k, x in enumerate(c)]  # 2^d P(x/2)
        mid = (lo + hi) / 2
        right = _shift_ints(half[:], 1)  # 2^d P((x + 1)/2)
        roots = solve(half, base, lo, mid, depth + 1) + solve(right, base, mid, hi, depth + 1)
        return [hi] if narrow and len(roots) == 1 else roots

    roots = solve(_restrict(p, a, b), p, a, b, 0)
    return [a] + roots if p.eval_rational(a) == 0 else roots


def _narrow(p: LaurentPoly, lo: Fraction, hi: Fraction, positive_at_hi: bool) -> Fraction:
    """The right end of the dyadic interval at most 2^-40 wide that holds the one root of p in (lo, hi), p(hi) != 0."""
    while hi - lo > _ROOT_TOL:
        mid = (lo + hi) / 2
        value = p.eval_rational(mid)
        if not value:
            return mid
        if (value > 0) == positive_at_hi:
            hi = mid
        else:
            lo = mid
    return hi


def _restrict(p: LaurentPoly, lo: Fraction, hi: Fraction) -> list[int]:
    """Integer coefficients, constant first, of a positive multiple of x -> p(lo + (hi - lo) x)."""
    nums = dilate(taylor_shift(p, lo), hi - lo).nums
    return [nums.get(k, 0) for k in range(max(nums) + 1)]


def _sign_changes(c: list[int]) -> int:
    signs = [x > 0 for x in c if x]
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)
