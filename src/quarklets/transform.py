"""Multiscale decomposition/reconstruction of coefficient frames, and
orthogonalized Haar quarklets.

A coefficient frame holds finitely many rational vectors c_k of length p+1 at
one dyadic level j, for sum_k c_k^T Phi(2^j x - k) (scaling) or
sum_k d_k^T Psi(2^j x - k) (quarklets), as its row c(z) = sum_k c_k z^k of
Laurent polynomials (the row-vector polyphase form of Strang & Nguyen,
*Wavelets and Filter Banks*, 1996).

Synthesis is one exact row-times-matrix product on the phases
c_r(z^2) = sum_l c_{2l+r} z^{2l} (r = 0, 1) of the fine frame and s(z^2),
d(z^2) of the coarse ones, with P(z) the polyphase matrix of the two-scale
masks (``ModulationBundle.synthesis_matrix``):

    reconstruct:  [c_0^T, c_1^T](z^2) = [s^T, d^T](z^2) P(z).

Both steps take the bundle, which caches the read-only integer cores they apply.
P holds even powers only, so ``reconstruct(s, d, bundle)`` runs the kernel of
``LaurentMatrix.__matmul__`` on the column cores of P(w^{1/2}), w = z^2.  Analysis
never forms P(z)^{-1}: ``decompose(frame, bundle)`` applies the factors of X(z)^{-1}
(:mod:`quarklets.modulation`) by back substitution on the p + 1 short polynomials h,
then keeps the even powers of the products with b(-z) and g(-z), on integer cores:
lifting (Daubechies & Sweldens, J. Fourier Anal. Appl. 4, 1998) in the Pascal ring.

For order m = 1 the quarklets supported on one period can be orthogonalized
degree by degree with plain rational Gram-Schmidt.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .cdf import quarklets
from .laurent import LaurentPoly, _dot, _from_int, _int_cores, _interleave, _row_times, as_rational
from .masks import Mat
from .modulation import ModulationBundle, _halves
from .piecewise import PiecewisePoly, inner_product

Vector = tuple[Fraction, ...]


@dataclass(frozen=True, init=False)
class CoefficientFrame:
    """Finitely supported map translate -> rational coefficient vector (read-only).

    Stored as ``row``, the ``width`` Laurent polynomials c(z) = sum_k c_k z^k of its
    components, which ``==`` and ``hash`` compare; ``coefficients`` is the read-only
    ``Fraction`` view, built on first read.
    """

    level: int
    row: tuple[LaurentPoly, ...]

    def __init__(self, level: int, width: int, coefficients: Mapping[int, Sequence]):
        _checked_width(width)
        vecs = {}
        for k, v in coefficients.items():
            vec = _checked_length(k, tuple(as_rational(c) for c in v), width)
            if any(vec):
                vecs[operator.index(k)] = vec
        row = (LaurentPoly({k: vec[j] for k, vec in vecs.items()}) for j in range(width))
        self.__dict__.update(level=level, row=tuple(row))

    def __reduce__(self):
        return _frame, (self.level, self.row)

    @staticmethod
    def zero(level: int, width: int) -> "CoefficientFrame":
        return CoefficientFrame(level, width, {})

    @staticmethod
    def unit(level: int, width: int, k: int, component: int) -> "CoefficientFrame":
        if not 0 <= component < _checked_width(width):
            raise ValueError(f"component must lie in 0 .. {width - 1}, got {component}")
        vec = [0] * width
        vec[component] = 1
        return CoefficientFrame(level, width, {k: vec})

    @property
    def width(self) -> int:
        return len(self.row)

    @cached_property
    def coefficients(self) -> Mapping[int, Vector]:
        """Read-only view translate -> Fraction vector, built on first read."""
        row = self.row
        support = sorted(set().union(*(c.nums for c in row)))
        return MappingProxyType({k: tuple(c[k] for c in row) for k in support})

    def __getitem__(self, k: int) -> Vector:
        return self.coefficients.get(k, (Fraction(0),) * self.width)

    def items(self):
        return sorted(self.coefficients.items())

    def is_zero(self) -> bool:
        return not any(self.row)


def _checked_width(width: int) -> int:
    if width < 1:
        raise ValueError(f"frame width must be at least 1, got {width}")
    return width


def _checked_length(k: int, vec: Sequence, width: int) -> Sequence:
    if len(vec) != width:
        raise ValueError(f"coefficient at k={k} has length {len(vec)}, expected {width}")
    return vec


def _frame(level: int, row: Iterable[LaurentPoly]) -> CoefficientFrame:
    """The frame with this row, unchecked; the class is frozen, so fields go in its dict."""
    frame = CoefficientFrame.__new__(CoefficientFrame)
    frame.__dict__.update(level=level, row=tuple(row))
    return frame


def reconstruct(
    scaling: CoefficientFrame, detail: CoefficientFrame, bundle: ModulationBundle
) -> CoefficientFrame:
    """One synthesis step, the exact product [s^T, d^T](z^2) P(z)."""
    if scaling.level != detail.level:
        raise ValueError("frames must live on the same level")
    width = bundle.size
    if scaling.width != width or detail.width != width:
        raise ValueError("frame width does not match the bundle degree")
    out = _row_times(*_int_cores(scaling.row + detail.row), bundle.synthesis_cores)
    # c(z) = c_0(z^2) + z c_1(z^2), the phases in w = z^2 being the two column blocks
    return _frame(scaling.level + 1, (_interleave(c0, c1, 2) for c0, c1 in zip(out[:width], out[width:])))


def decompose(frame: CoefficientFrame, bundle: ModulationBundle) -> tuple[CoefficientFrame, CoefficientFrame]:
    """One analysis step, [s^T, d^T](z^2) = (1/2) [c^T(z), c^T(-z)] X(z)^{-1}, through X^{-1}'s factors.

    X^{-1} = [[L, R(-z)], [L(-z), R]] with L = b(-z) M_k D^{-1} and R = M_k M_g, and k is odd,
    so with y = c M_k:  s_j = 2^j even(b(-z) y_j)  and  d_j = -even(sum_{i>=j} C(i, j) g_{i-j}(-z) y_i),
    where y solves y M_h = c from j = p down:  y_j = z^{-1} (c_j - sum_{i>j} C(i, j) h_{i-j} y_i).
    """
    if frame.width != bundle.size:
        raise ValueError("frame width does not match the bundle degree")
    cores, den = _int_cores(frame.row)
    columns = bundle.lifting_cores
    us: list[dict[int, int]] = []  # u_j = z y_j over den r_j (``bundle.lifting_cores``), from j = p down
    for core, (lift, *_) in zip(cores[::-1], columns[::-1]):
        us.insert(0, _dot([core, *us], lift))
    # only the even powers of the products are formed, from the halves of u and of the short factors
    halves = [half for u in us for half in _halves(u)]
    level = frame.level - 1
    return (_frame(level, (_from_int(_dot(halves[2 * j : 2 * j + 2], coarse), den * s_den)
                           for j, (_, coarse, _, s_den, _) in enumerate(columns))),
            _frame(level, (_from_int(_dot(halves[2 * j :], detail), den * d_den)
                           for j, (_, _, detail, _, d_den) in enumerate(columns))))


# -- orthogonalized Haar quarklets ---------------------------------------------------


@dataclass(frozen=True)
class OrthoQuarklets:
    """Gram-Schmidt orthogonalized quarklets for order m = 1.

    ``to_plain[q][l]`` expresses member q over the plain quarklets
    (psi*_q = sum_l to_plain[q][l] psi_l, lower unitriangular), and
    ``from_plain`` is its exact inverse.
    """

    mt: int
    p: int
    members: tuple[PiecewisePoly, ...]
    norms: tuple[Fraction, ...]  # <psi*_q, psi*_q>
    to_plain: Mat
    from_plain: Mat
    plain: tuple[PiecewisePoly, ...]


def orthogonalize_haar(mt: int, p: int) -> OrthoQuarklets:
    """Degree-by-degree rational Gram-Schmidt of the order-1 quarklets.

    Requires mt odd (the order-1 filter pairs all have odd mt).  For mt = 1
    the quarklets live on [0, 1], so translates are orthogonal as well and
    the family spans the same detail space with a fully orthogonal system.
    """
    if mt % 2 == 0:
        raise ValueError("order 1 pairs with odd dual order only")
    family = quarklets(1, mt, p)
    members: list[PiecewisePoly] = []
    rows: list[tuple[Fraction, ...]] = []
    lines: list[tuple[Fraction, ...]] = []
    norms: list[Fraction] = []
    for q in range(p + 1):
        # psi*_q = psi_q - sum_l row[l] psi*_l: row is line q of from_plain, e_q - sum_l row[l] lines[l] that of to_plain
        row = [inner_product(family[q], members[l]) / norms[l] for l in range(q)]
        f = family[q] - sum((g * c for g, c in zip(members, row) if c), PiecewisePoly.zero())
        members.append(f)
        rows.append((*row, Fraction(1)) + (Fraction(0),) * (p - q))
        lines.append(tuple(Fraction(int(i == q)) - sum((c * line[i] for c, line in zip(row, lines)), Fraction(0))
                           for i in range(p + 1)))
        norm = inner_product(f, f)
        if norm == 0:
            raise AssertionError(f"degenerate quarklet family: member {q} vanished")
        norms.append(norm)
    return OrthoQuarklets(
        mt=mt,
        p=p,
        members=tuple(members),
        norms=tuple(norms),
        to_plain=tuple(lines),
        from_plain=tuple(rows),
        plain=family,
    )
