"""Exact real-root counting and location for rational polynomials.

Sturm-chain root isolation over the rationals, plus the Chebyshev-basis
conversion that turns a trigonometric positivity question into a real-root
question on [-1, 1] (see :mod:`quarklets.trig`).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Poly = tuple[Fraction, ...]  # dense, constant term first


def trim(p: Sequence[Fraction]) -> Poly:
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return tuple(p)


def evaluate(p: Poly, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def evaluate_float(p: Poly, x: float) -> float:
    acc = 0.0
    for c in reversed(p):
        acc = acc * x + float(c)
    return acc


def derivative(p: Poly) -> Poly:
    return trim([c * i for i, c in enumerate(p)][1:])


def divmod_poly(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    lead = b[-1]
    while len(a) >= len(b) and trim(a):
        a = list(trim(a))
        if len(a) < len(b):
            break
        factor = a[-1] / lead
        shift = len(a) - len(b)
        q[shift] = factor
        for i, c in enumerate(b):
            a[shift + i] -= factor * c
        a.pop()
    return trim(q), trim(a)


def gcd_poly(a: Poly, b: Poly) -> Poly:
    a, b = trim(a), trim(b)
    while b:
        _, r = divmod_poly(a, b)
        a, b = b, r
    if a:
        a = tuple(c / a[-1] for c in a)  # monic
    return a


def square_free(p: Poly) -> Poly:
    p = trim(p)
    if len(p) <= 1:
        return p
    g = gcd_poly(p, derivative(p))
    if len(g) <= 1:
        return p
    q, r = divmod_poly(p, g)
    assert not r
    return q


def sturm_chain(p: Poly) -> list[Poly]:
    chain = [trim(p), derivative(p)]
    while chain[-1]:
        _, r = divmod_poly(chain[-2], chain[-1])
        if not r:
            break
        chain.append(tuple(-c for c in r))
    return [c for c in chain if c]


def _variations(chain: list[Poly], x: Fraction) -> int:
    signs = []
    for p in chain:
        v = evaluate(p, x)
        if v:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots_half_open(chain: list[Poly], a: Fraction, b: Fraction) -> int:
    """Distinct real roots in (a, b] of the square-free polynomial behind `chain`."""
    return _variations(chain, a) - _variations(chain, b)


# Isolating intervals are bisected down to this width.
_ROOT_TOL = Fraction(1, 2**40)


def isolate_roots(p: Poly, a: Fraction, b: Fraction) -> list[Fraction]:
    """Approximate locations (within 2^-40) of all distinct real roots of p in [a, b]."""
    s = square_free(p)
    if len(s) <= 1:
        if not s:
            raise ValueError("zero polynomial has infinitely many roots")
        return []
    chain = sturm_chain(s)
    roots: list[Fraction] = []
    if evaluate(s, a) == 0:
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


# -- Chebyshev basis ---------------------------------------------------------------


def chebyshev_t(n: int) -> Poly:
    """Coefficients of the Chebyshev polynomial T_n."""
    if n == 0:
        return (Fraction(1),)
    prev: Poly = (Fraction(1),)
    cur: Poly = (Fraction(0), Fraction(1))
    for _ in range(n - 1):
        nxt = [Fraction(0)] + [2 * c for c in cur]
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, trim(nxt)
    return cur


def cosine_series_to_poly(c0: Fraction, cn: dict[int, Fraction]) -> Poly:
    """Polynomial q with q(cos t) = c0 + sum_n 2 c_n cos(n t)."""
    out: list[Fraction] = [c0]
    for n, c in cn.items():
        t = chebyshev_t(n)
        while len(out) < len(t):
            out.append(Fraction(0))
        for i, tc in enumerate(t):
            out[i] += 2 * c * tc
    return trim(out)
