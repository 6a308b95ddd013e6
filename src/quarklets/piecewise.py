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

from bisect import bisect_right
from fractions import Fraction
from typing import Sequence

from .laurent import LaurentPoly, _from_dict, _int_cores, as_rational

_ZERO = LaurentPoly.zero()


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
            if b.denominator & (b.denominator - 1):
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
        # right-open pieces: b_{i-1} <= x < b_i
        i = bisect_right(self.breakpoints, x)
        if 0 < i <= len(self.pieces):
            return self.pieces[i - 1].eval_rational(x)
        return Fraction(0)

    # -- algebra -------------------------------------------------------------

    def _spread(self, grid: Sequence[Fraction]) -> list[LaurentPoly]:
        """The piece on each interval [grid[i], grid[i+1]), zero off the support, in one pass.

        ``grid`` is increasing and holds every breakpoint of ``self``.
        """
        out, i = [], 0
        for left in grid[:-1]:
            if i < len(self.breakpoints) and self.breakpoints[i] == left:
                i += 1
            out.append(self.pieces[i - 1] if 0 < i <= len(self.pieces) else _ZERO)
        return out

    def __add__(self, other: "PiecewisePoly") -> "PiecewisePoly":
        if not isinstance(other, PiecewisePoly):
            return NotImplemented
        grid = sorted(set(self.breakpoints) | set(other.breakpoints))
        return PiecewisePoly(grid, [p + q for p, q in zip(self._spread(grid), other._spread(grid))])

    def __sub__(self, other: "PiecewisePoly") -> "PiecewisePoly":
        return self + (-other)

    def __neg__(self) -> "PiecewisePoly":
        out = PiecewisePoly.__new__(PiecewisePoly)
        out.breakpoints = self.breakpoints
        out.pieces = tuple(-p for p in self.pieces)
        return out

    def __mul__(self, other):
        if isinstance(other, PiecewisePoly):
            grid = sorted(set(self.breakpoints) | set(other.breakpoints))
            pairs = zip(self._spread(grid), other._spread(grid))
            return PiecewisePoly(grid, [p * q if p and q else _ZERO for p, q in pairs])
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
