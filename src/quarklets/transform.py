"""Multiscale decomposition/reconstruction of coefficient frames, and
orthogonalized Haar quarklets.

A coefficient frame stores finitely many rational coefficient vectors c_k of
length p+1 at one dyadic level j; it represents sum_k c_k^T Phi(2^j x - k)
for a scaling frame or sum_k d_k^T Psi(2^j x - k) for a quarklet frame.  It
keeps them as integer numerator vectors over one positive denominator, in
lowest terms, so ``==`` compares integers; the ``Fraction`` vectors are a
read-only view built on first read.

Each transform step is one exact row-times-matrix product on the polyphase
form of the frames: the phases c_r(z^2) = sum_l c_{2l+r} z^{2l} (r = 0, 1) of
the fine frame and s(z^2), d(z^2) of the coarse ones, vectors of Laurent
polynomials.  P(z) is the polyphase matrix of the two-scale masks, read
off the symbols once per bundle (``ModulationBundle.synthesis_matrix``),
P(z)^{-1} = E(z)^{-1} X(z)^{-1} is the bundle's one analysis matrix, carried by the
splitting filters (``DecompositionFilters.polyphase_inv``), and ``modulation.polyphase``
certifies P P^{-1} = Id, so the two steps are exact inverses:

    reconstruct:  [c_0^T, c_1^T](z^2) = [s^T, d^T](z^2) P(z),
    decompose:    [s^T, d^T](z^2) = [c_0^T, c_1^T](z^2) P(z)^{-1}.

The frame's numerators are the row's integer taps as they are: they meet the
matrix's column cores, kept by the bundle and the filters, in
``laurent.row_taps_product``, and each output frame is its integer taps over
the frame's denominator times the lcm of its block's column denominators,
reduced by one gcd.  No step builds a ``Fraction``.

For order m = 1 the quarklets supported on one period can be orthogonalized
degree by degree with plain rational Gram-Schmidt.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import gcd, lcm
from types import MappingProxyType
from typing import Mapping, Sequence

from .cdf import quarklets
from .laurent import as_rational, row_taps_product
from .masks import Mat
from .modulation import DecompositionFilters, ModulationBundle
from .piecewise import PiecewisePoly, inner_product

Vector = tuple[Fraction, ...]


@dataclass(frozen=True, init=False)
class CoefficientFrame:
    """Finitely supported map translate -> rational coefficient vector (read-only).

    Stored as ``nums``, a read-only map translate -> tuple of integer numerators, over one
    positive ``den``, in lowest terms (gcd(den, *every numerator) = 1) and with no all-zero
    vector.  That form is canonical, so ``==`` compares it; ``coefficients`` is the read-only
    ``Fraction`` view, built on first read.
    """

    level: int
    width: int
    nums: Mapping[int, tuple[int, ...]]
    den: int

    def __init__(self, level: int, width: int, coefficients: Mapping[int, Sequence]):
        clean = {}
        for k, v in coefficients.items():
            vec = _checked_length(k, tuple(as_rational(c) for c in v), width)
            if any(vec):
                clean[operator.index(k)] = vec
        den = lcm(*(c.denominator for vec in clean.values() for c in vec))
        self._init(level, width, {k: [c.numerator * (den // c.denominator) for c in vec] for k, vec in clean.items()},
                   den)

    def _init(self, level: int, width: int, nums: Mapping[int, Sequence[int]], den: int):
        """Set the frame translate k -> nums[k] / den (den > 0), all-zero vectors dropped, reduced by one gcd."""
        nums = {k: vec for k, vec in nums.items() if any(vec)}
        g = gcd(den, *chain.from_iterable(nums.values()))
        nums = MappingProxyType({k: tuple([n // g for n in vec]) for k, vec in nums.items()})
        for name, value in (("level", level), ("width", width), ("nums", nums), ("den", den // g)):
            object.__setattr__(self, name, value)

    @staticmethod
    def zero(level: int, width: int) -> "CoefficientFrame":
        return CoefficientFrame(level, width, {})

    @staticmethod
    def unit(level: int, width: int, k: int, component: int) -> "CoefficientFrame":
        vec = [0] * width
        vec[component] = 1
        return CoefficientFrame(level, width, {k: vec})

    @cached_property
    def coefficients(self) -> Mapping[int, Vector]:
        """Read-only view translate -> Fraction vector, built on first read."""
        den = self.den
        return MappingProxyType({k: tuple(Fraction(n, den) for n in vec) for k, vec in self.nums.items()})

    def __getitem__(self, k: int) -> Vector:
        return self.coefficients.get(k, (Fraction(0),) * self.width)

    def items(self):
        return sorted(self.coefficients.items())

    def is_zero(self) -> bool:
        return not self.nums


def _checked_length(k: int, vec: Sequence, width: int) -> Sequence:
    if len(vec) != width:
        raise ValueError(f"coefficient at k={k} has length {len(vec)}, expected {width}")
    return vec


def _frame(level: int, width: int, nums: Mapping[int, Sequence[int]], den: int) -> CoefficientFrame:
    """The frame translate k -> nums[k] / den (den > 0), the library's own constructor: no checks."""
    frame = CoefficientFrame.__new__(CoefficientFrame)
    frame._init(level, width, nums, den)
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
    den = lcm(scaling.den, detail.den)
    s, d = (f.nums if f.den == den else {k: tuple(n * (den // f.den) for n in vec) for k, vec in f.nums.items()}
            for f in (scaling, detail))
    zero = (0,) * width
    out, col_den = row_taps_product({2 * l: s.get(l, zero) + d.get(l, zero) for l in s.keys() | d.keys()},
                                    bundle.synthesis_cores)
    # c_{e+r} is phase r at exponent e; P(z) has even powers only, so e is even
    nums = {e + r: tap[r * width : (r + 1) * width] for e, tap in out.items() for r in (0, 1)}
    return _frame(scaling.level + 1, width, nums, den * col_den)


def decompose(
    frame: CoefficientFrame, filters: DecompositionFilters
) -> tuple[CoefficientFrame, CoefficientFrame]:
    """One analysis step, the exact product [c_0^T, c_1^T](z^2) P(z)^{-1}."""
    width = filters.p + 1
    if frame.width != width:
        raise ValueError("frame width does not match the filter degree")
    nums, zero = frame.nums, (0,) * width
    # the z^{2l} tap holds c_{2l} and c_{2l+1}; n - n % 2 is 2l for both, negative n included
    taps = {e: nums.get(e, zero) + nums.get(e + 1, zero) for e in {n - n % 2 for n in nums}}
    cores, level = filters.analysis_cores, frame.level - 1
    # one row product per block column, so each frame is over the lcm of its own columns
    return tuple(
        _frame(level, width, {e // 2: tap for e, tap in out.items()}, frame.den * col_den)
        for out, col_den in (row_taps_product(taps, cores[c : c + width]) for c in (0, width))
    )


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
