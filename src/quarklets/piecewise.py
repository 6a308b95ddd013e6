"""Compactly supported piecewise polynomials with exact rational coefficients.

A function is stored as strictly increasing dyadic-rational breakpoints
``b_0 < b_1 < ... < b_n`` and one polynomial per interval ``[b_i, b_{i+1})``
(a :class:`LaurentPoly` in x with no negative exponents; the constructor also
takes dense coefficient sequences, constant term first).  The function is zero
outside ``[b_0, b_n]``.  Pieces are right-open, matching the unit-interval
indicator convention for the order-1 B-spline.

Everything here is exact; floats never enter.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .laurent import LaurentPoly, _from_dict, _int_cores
from .rational import as_rational, is_dyadic


class PiecewisePoly:
    """Exact compactly supported piecewise polynomial."""

    __slots__ = ("breakpoints", "pieces")

    def __init__(self, breakpoints: Sequence, pieces: Sequence[LaurentPoly | Sequence]):
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
        polys = [p if isinstance(p, LaurentPoly) else LaurentPoly(dict(enumerate(p)))
                 for p in pieces]
        if any(k < 0 for p in polys for k in p.coeffs):
            raise ValueError("a piece has a negative exponent")
        # canonical form: drop identically-zero end pieces, merge equal neighbours
        while polys and not polys[0]:
            polys.pop(0)
            bps.pop(0)
        while polys and not polys[-1]:
            polys.pop()
            bps.pop()
        merged_b: list[Fraction] = []
        merged_p: list[LaurentPoly] = []
        for i, p in enumerate(polys):
            if merged_p and merged_p[-1] == p:
                continue
            merged_b.append(bps[i])
            merged_p.append(p)
        if polys:
            merged_b.append(bps[-1])
        self.breakpoints: tuple[Fraction, ...] = tuple(merged_b)
        self.pieces: tuple[LaurentPoly, ...] = tuple(merged_p)

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
        return self.pieces[lo].eval_rational(x)

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
            pieces.append(self._piece_on(grid[i]) + other._piece_on(grid[i]))
        return PiecewisePoly(grid, pieces)

    def __sub__(self, other: "PiecewisePoly") -> "PiecewisePoly":
        return self + (-other)

    def __neg__(self) -> "PiecewisePoly":
        out = PiecewisePoly.__new__(PiecewisePoly)
        out.breakpoints = self.breakpoints
        out.pieces = tuple(-p for p in self.pieces)
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
                self._piece_on(grid[i]) * other._piece_on(grid[i])
                for i in range(len(grid) - 1)
            ]
            return PiecewisePoly(grid, pieces)
        if isinstance(other, (int, Fraction)):
            s = as_rational(other)
            if s == 0:
                return PiecewisePoly.zero()
            out = PiecewisePoly.__new__(PiecewisePoly)
            out.breakpoints = self.breakpoints
            out.pieces = tuple(p * s for p in self.pieces)
            return out
        return NotImplemented

    __rmul__ = __mul__

    def _piece_on(self, left: Fraction) -> LaurentPoly:
        """The polynomial valid on [left, next breakpoint)."""
        for i, p in enumerate(self.pieces):
            if self.breakpoints[i] <= left < self.breakpoints[i + 1]:
                return p
        return LaurentPoly.zero()

    def mul_poly(self, poly: Sequence) -> "PiecewisePoly":
        """Multiply by a global polynomial (given as a coefficient sequence)."""
        q = LaurentPoly(dict(enumerate(poly)))
        return PiecewisePoly(self.breakpoints, [p * q for p in self.pieces])

    def compose_linear(self, a, b) -> "PiecewisePoly":
        """The function x -> f(a*x + b) for dyadic a > 0 and dyadic b."""
        a, b = as_rational(a), as_rational(b)
        if a <= 0:
            raise ValueError("only positive dilation factors are supported")
        if self.is_zero():
            return self
        # a*x + b in [b_i, b_{i+1})  <=>  x in [(b_i - b)/a, (b_{i+1} - b)/a)
        new_bps = [(bp - b) / a for bp in self.breakpoints]
        shifted = [taylor_shift(p, b) for p in self.pieces]
        if a != 1:
            shifted = [_from_dict({k: c * a**k for k, c in p.coeffs.items()}) for p in shifted]
        return PiecewisePoly(new_bps, shifted)

    def translate(self, k) -> "PiecewisePoly":
        """The function x -> f(x - k)."""
        return self.compose_linear(1, -as_rational(k))

    def derivative(self) -> "PiecewisePoly":
        """Piecewise derivative (taken piece by piece)."""
        return PiecewisePoly(self.breakpoints, [p.derivative() for p in self.pieces])

    # -- integrals -------------------------------------------------------------

    def integral(self) -> Fraction:
        bps = self.breakpoints
        return sum(
            (c / (k + 1) * (hi ** (k + 1) - lo ** (k + 1))
             for p, lo, hi in zip(self.pieces, bps, bps[1:]) for k, c in p.coeffs.items()),
            Fraction(0),
        )

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


def taylor_shift(p: LaurentPoly, s: Fraction) -> LaurentPoly:
    """The polynomial x -> p(x + s), by synthetic division on the integer core.

    With s = u/v and p = (1/d) sum_k n_k x^k, v^top p(x + s) is the integer
    polynomial sum_k n_k v^(top-k) (y + u)^k in y = v x.
    """
    if not s or not p:
        return p
    (nums,), den = _int_cores((p,))
    top, u, v = max(nums), s.numerator, s.denominator
    c = [nums.get(k, 0) * v ** (top - k) for k in range(top + 1)]
    for i in range(top):
        for j in range(top - 1, i - 1, -1):
            c[j] += u * c[j + 1]
    return _from_dict({j: Fraction(e, den * v ** (top - j)) for j, e in enumerate(c) if e})
