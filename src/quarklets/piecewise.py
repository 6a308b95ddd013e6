"""Compactly supported piecewise polynomials with exact rational coefficients.

A function is stored as strictly increasing dyadic-rational breakpoints
``b_0 < b_1 < ... < b_n`` and one polynomial per interval ``[b_i, b_{i+1})``
(dense coefficient tuple, constant term first).  The function is zero outside
``[b_0, b_n]``.  Pieces are right-open, matching the unit-interval indicator
convention for the order-1 B-spline.

Everything here is exact; floats never enter.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from . import realroots
from .laurent import LaurentPoly
from .rational import as_rational, is_dyadic
from .realroots import Poly, evaluate, trim


def _poly_add(a: Poly, b: Poly) -> Poly:
    n = max(len(a), len(b))
    return trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])


def _poly_mul(a: Poly, b: Poly) -> Poly:
    """Dense product, run as a Laurent product on the integer-core kernel."""
    prod = LaurentPoly(dict(enumerate(a))) * LaurentPoly(dict(enumerate(b)))
    return trim([prod[k] for k in range(len(a) + len(b) - 1)])


def _poly_scale(a: Poly, s: Fraction) -> Poly:
    return () if s == 0 else trim([c * s for c in a])


def _poly_compose_linear(p: Poly, a: Fraction, b: Fraction) -> Poly:
    """Coefficients of x -> p(a*x + b)."""
    out: Poly = ()
    lin: Poly = trim((b, a))
    power: Poly = (Fraction(1),)
    for c in p:
        if c:
            out = _poly_add(out, _poly_scale(power, c))
        power = _poly_mul(power, lin)
    return out


def _poly_antiderivative(a: Poly) -> Poly:
    return trim([Fraction(0)] + [c / (i + 1) for i, c in enumerate(a)])


class PiecewisePoly:
    """Exact compactly supported piecewise polynomial."""

    __slots__ = ("breakpoints", "pieces")

    def __init__(self, breakpoints: Sequence, pieces: Sequence[Sequence]):
        bps = [as_rational(b) for b in breakpoints]
        if not bps and not pieces:
            self.breakpoints = ()
            self.pieces = ()
            return
        if len(bps) != len(pieces) + 1:
            raise ValueError("need exactly one piece per breakpoint gap")
        if any(bps[i] >= bps[i + 1] for i in range(len(bps) - 1)):
            raise ValueError("breakpoints must be strictly increasing")
        for b in bps:
            if not is_dyadic(b):
                raise ValueError(f"breakpoint {b} is not dyadic")
        polys = [trim([as_rational(c) for c in p]) for p in pieces]
        # canonical form: drop identically-zero end pieces, merge equal neighbours
        while polys and not polys[0]:
            polys.pop(0)
            bps.pop(0)
        while polys and not polys[-1]:
            polys.pop()
            bps.pop()
        merged_b: list[Fraction] = []
        merged_p: list[Poly] = []
        for i, p in enumerate(polys):
            if merged_p and merged_p[-1] == p:
                continue
            merged_b.append(bps[i])
            merged_p.append(p)
        if polys:
            merged_b.append(bps[-1])
        self.breakpoints: tuple[Fraction, ...] = tuple(merged_b)
        self.pieces: tuple[Poly, ...] = tuple(merged_p)

    @staticmethod
    def zero() -> "PiecewisePoly":
        return PiecewisePoly([], [])

    @staticmethod
    def indicator(a, b) -> "PiecewisePoly":
        """Indicator of [a, b)."""
        return PiecewisePoly([a, b], [(1,)])

    def is_zero(self) -> bool:
        return not self.pieces

    def support(self) -> tuple[Fraction, Fraction] | None:
        if not self.pieces:
            return None
        return (self.breakpoints[0], self.breakpoints[-1])

    def __call__(self, x) -> Fraction:
        x = as_rational(x)
        if not self.pieces or x < self.breakpoints[0] or x >= self.breakpoints[-1]:
            return Fraction(0)
        # right-open pieces: find i with b_i <= x < b_{i+1}
        lo, hi = 0, len(self.pieces) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self.breakpoints[mid] <= x:
                lo = mid
            else:
                hi = mid - 1
        return evaluate(self.pieces[lo], x)

    # -- algebra -------------------------------------------------------------

    def _aligned(self, other: "PiecewisePoly"):
        """Common breakpoint refinement of the two supports."""
        grid = sorted(set(self.breakpoints) | set(other.breakpoints))
        return grid

    def __add__(self, other: "PiecewisePoly") -> "PiecewisePoly":
        if not isinstance(other, PiecewisePoly):
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        grid = self._aligned(other)
        pieces = []
        for i in range(len(grid) - 1):
            pieces.append(_poly_add(self._piece_on(grid[i]), other._piece_on(grid[i])))
        return PiecewisePoly(grid, pieces)

    def __sub__(self, other: "PiecewisePoly") -> "PiecewisePoly":
        return self + (-other)

    def __neg__(self) -> "PiecewisePoly":
        out = PiecewisePoly.__new__(PiecewisePoly)
        out.breakpoints = self.breakpoints
        out.pieces = tuple(_poly_scale(p, Fraction(-1)) for p in self.pieces)
        return out

    def __mul__(self, other):
        if isinstance(other, PiecewisePoly):
            if self.is_zero() or other.is_zero():
                return PiecewisePoly.zero()
            lo = max(self.breakpoints[0], other.breakpoints[0])
            hi = min(self.breakpoints[-1], other.breakpoints[-1])
            if lo >= hi:
                return PiecewisePoly.zero()
            grid = [b for b in self._aligned(other) if lo <= b <= hi]
            pieces = [
                _poly_mul(self._piece_on(grid[i]), other._piece_on(grid[i]))
                for i in range(len(grid) - 1)
            ]
            return PiecewisePoly(grid, pieces)
        if isinstance(other, (int, Fraction)):
            s = as_rational(other)
            if s == 0:
                return PiecewisePoly.zero()
            out = PiecewisePoly.__new__(PiecewisePoly)
            out.breakpoints = self.breakpoints
            out.pieces = tuple(_poly_scale(p, s) for p in self.pieces)
            return out
        return NotImplemented

    __rmul__ = __mul__

    def _piece_on(self, left: Fraction) -> Poly:
        """The polynomial valid on [left, next breakpoint)."""
        if not self.pieces or left < self.breakpoints[0] or left >= self.breakpoints[-1]:
            return ()
        for i in range(len(self.pieces)):
            if self.breakpoints[i] <= left < self.breakpoints[i + 1]:
                return self.pieces[i]
        return ()

    def mul_poly(self, poly: Sequence) -> "PiecewisePoly":
        """Multiply by a global polynomial (given as a coefficient sequence)."""
        q = trim([as_rational(c) for c in poly])
        return PiecewisePoly(self.breakpoints, [_poly_mul(p, q) for p in self.pieces])

    def compose_linear(self, a, b) -> "PiecewisePoly":
        """The function x -> f(a*x + b) for dyadic a > 0 and dyadic b."""
        a, b = as_rational(a), as_rational(b)
        if a <= 0:
            raise ValueError("only positive dilation factors are supported")
        if self.is_zero():
            return self
        # a*x + b in [b_i, b_{i+1})  <=>  x in [(b_i - b)/a, (b_{i+1} - b)/a)
        new_bps = [(bp - b) / a for bp in self.breakpoints]
        new_pieces = [_poly_compose_linear(p, a, b) for p in self.pieces]
        return PiecewisePoly(new_bps, new_pieces)

    def translate(self, k) -> "PiecewisePoly":
        """The function x -> f(x - k)."""
        return self.compose_linear(1, -as_rational(k))

    def derivative(self) -> "PiecewisePoly":
        """Piecewise derivative (taken piece by piece)."""
        return PiecewisePoly(self.breakpoints, [realroots.derivative(p) for p in self.pieces])

    # -- integrals -------------------------------------------------------------

    def integral(self) -> Fraction:
        total = Fraction(0)
        for i, p in enumerate(self.pieces):
            anti = _poly_antiderivative(p)
            total += evaluate(anti, self.breakpoints[i + 1]) - evaluate(anti, self.breakpoints[i])
        return total

    def moment(self, n: int) -> Fraction:
        """Exact n-th moment: integral of x^n f(x) dx."""
        return self.mul_poly([Fraction(0)] * n + [Fraction(1)]).integral()

    def __eq__(self, other):
        if not isinstance(other, PiecewisePoly):
            return NotImplemented
        return self.breakpoints == other.breakpoints and self.pieces == other.pieces

    def __hash__(self):
        return hash((self.breakpoints, self.pieces))

    def __repr__(self):
        if self.is_zero():
            return "PiecewisePoly(0)"
        return f"PiecewisePoly(support=[{self.breakpoints[0]}, {self.breakpoints[-1]}], {len(self.pieces)} pieces)"


def inner_product(f: PiecewisePoly, g: PiecewisePoly) -> Fraction:
    """Exact L2 inner product of two real piecewise polynomials."""
    return (f * g).integral()
