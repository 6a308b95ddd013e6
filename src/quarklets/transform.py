"""Multiscale decomposition/reconstruction of coefficient frames, and
orthogonalized Haar quarklets.

A coefficient frame stores finitely many rational coefficient vectors c_k of
length p+1 at one dyadic level j; it represents sum_k c_k^T Phi(2^j x - k)
for a scaling frame or sum_k d_k^T Psi(2^j x - k) for a quarklet frame.

Each transform step is one exact ``LaurentMatrix`` product on the polyphase
form of the frames: the phases c_r(z^2) = sum_l c_{2l+r} z^{2l} (r = 0, 1) of
the fine frame and s(z^2), d(z^2) of the coarse ones, vectors of Laurent
polynomials.  P(z) is the polyphase matrix of the two-scale masks, built
once per bundle (``ModulationBundle.synthesis_matrix``), P(z)^{-1} =
E(z)^{-1} X(z)^{-1} is the bundle's one analysis matrix, carried by the
splitting filters (``DecompositionFilters.polyphase_inv``), and ``modulation.polyphase``
certifies P P^{-1} = Id, so the two steps are exact inverses:

    reconstruct:  [c_0^T, c_1^T](z^2) = [s^T, d^T](z^2) P(z),
    decompose:    [s^T, d^T](z^2) = [c_0^T, c_1^T](z^2) P(z)^{-1}.

For order m = 1 the quarklets supported on one period can be orthogonalized
degree by degree with plain rational Gram-Schmidt; the resulting functions
give an orthogonal re-basing of quarklet frames and an orthogonal projection
onto the detail space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, Sequence

from .cdf import quarklets
from .laurent import LaurentMatrix, LaurentPoly, as_rational
from .masks import Mat
from .modulation import DecompositionFilters, ModulationBundle
from .piecewise import PiecewisePoly, inner_product

Vector = tuple[Fraction, ...]


@dataclass(frozen=True)
class CoefficientFrame:
    """Finitely supported map translate -> rational coefficient vector (read-only)."""

    level: int
    width: int  # vector length, p + 1
    coefficients: Mapping[int, Vector]

    def __post_init__(self):
        clean = {}
        for k, v in self.coefficients.items():
            vec = tuple(as_rational(c) for c in v)
            if len(vec) != self.width:
                raise ValueError(f"coefficient at k={k} has length {len(vec)}, expected {self.width}")
            if any(vec):
                clean[int(k)] = vec
        object.__setattr__(self, "coefficients", MappingProxyType(clean))

    @staticmethod
    def zero(level: int, width: int) -> "CoefficientFrame":
        return CoefficientFrame(level, width, {})

    @staticmethod
    def unit(level: int, width: int, k: int, component: int) -> "CoefficientFrame":
        vec = [Fraction(0)] * width
        vec[component] = Fraction(1)
        return CoefficientFrame(level, width, {k: tuple(vec)})

    def __getitem__(self, k: int) -> Vector:
        return self.coefficients.get(k, (Fraction(0),) * self.width)

    def items(self):
        return sorted(self.coefficients.items())

    def is_zero(self) -> bool:
        return not self.coefficients


def reconstruct(
    scaling: CoefficientFrame, detail: CoefficientFrame, bundle: ModulationBundle
) -> CoefficientFrame:
    """One synthesis step, the exact product [s^T, d^T](z^2) P(z)."""
    if scaling.level != detail.level:
        raise ValueError("frames must live on the same level")
    width = bundle.size
    if scaling.width != width or detail.width != width:
        raise ValueError("frame width does not match the bundle degree")
    coarse = ({2 * l: v for l, v in f.items()} for f in (scaling, detail))
    row = [poly for frame in coarse for poly in _polys(frame, width)]
    out = (LaurentMatrix([row]) @ bundle.synthesis_matrix).entries[0]
    phases = (out[:width], out[width:])
    coeffs = {e + r: vec for r, phase in enumerate(phases) for e, vec in _vectors(phase).items()}
    return CoefficientFrame(scaling.level + 1, width, coeffs)


def decompose(
    frame: CoefficientFrame, filters: DecompositionFilters
) -> tuple[CoefficientFrame, CoefficientFrame]:
    """One analysis step, the exact product [c_0^T, c_1^T](z^2) P(z)^{-1}."""
    width = filters.p + 1
    if frame.width != width:
        raise ValueError("frame width does not match the filter degree")
    phases = ({n - r: v for n, v in frame.items() if (n - r) % 2 == 0} for r in (0, 1))
    row = [poly for phase in phases for poly in _polys(phase, width)]
    out = (LaurentMatrix([row]) @ filters.polyphase_inv).entries[0]
    level = frame.level - 1
    return tuple(
        CoefficientFrame(level, width, {e // 2: vec for e, vec in _vectors(part).items()})
        for part in (out[:width], out[width:])
    )


def _polys(coeffs: Mapping[int, Vector], width: int) -> list[LaurentPoly]:
    """The components of the vector-valued Laurent polynomial sum_e coeffs[e] z^e."""
    return [LaurentPoly({e: vec[i] for e, vec in coeffs.items()}) for i in range(width)]


def _vectors(polys: Sequence[LaurentPoly]) -> dict[int, list[Fraction]]:
    """Exponent -> coefficient vector of a vector of Laurent polynomials (inverse of _polys)."""
    out: dict[int, list[Fraction]] = {}
    for i, poly in enumerate(polys):
        for e, c in poly.coeffs.items():
            out.setdefault(e, [Fraction(0)] * len(polys))[i] = c
    return out


def frame_function(frame: CoefficientFrame, members: Sequence[PiecewisePoly]) -> PiecewisePoly:
    """The piecewise polynomial sum_k sum_q c_k[q] f_q(2^level x - k)."""
    scale = Fraction(2) ** frame.level
    terms = (members[q].compose_linear(scale, -Fraction(k)) * c
             for k, vec in frame.items() for q, c in enumerate(vec) if c)
    return sum(terms, PiecewisePoly.zero())


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
    norms: list[Fraction] = []
    for q in range(p + 1):
        # psi*_q = psi_q - sum_l row[l] psi*_l, so row is line q of from_plain
        row = [inner_product(family[q], members[l]) / norms[l] for l in range(q)]
        f = family[q] - sum((g * c for g, c in zip(members, row) if c), PiecewisePoly.zero())
        members.append(f)
        rows.append((*row, Fraction(1)) + (Fraction(0),) * (p - q))
        norm = inner_product(f, f)
        if norm == 0:
            raise AssertionError(f"degenerate quarklet family: member {q} vanished")
        norms.append(norm)
    return OrthoQuarklets(
        mt=mt,
        p=p,
        members=tuple(members),
        norms=tuple(norms),
        to_plain=LaurentMatrix(rows).invert_lower_triangular().coefficient_matrix(0),
        from_plain=tuple(rows),
        plain=family,
    )


def project_detail(f: PiecewisePoly, ortho: OrthoQuarklets) -> PiecewisePoly:
    """Orthogonal projection onto the detail space spanned by the translates.

    Valid for mt = 1, where the orthogonalized quarklets and all their
    translates form an orthogonal system (supports meet in measure zero).
    """
    if ortho.mt != 1:
        raise ValueError("the translate system is orthogonal only for mt = 1")
    if f.is_zero():
        return f
    lo, hi = f.support()
    translates = [(member.translate(k), norm) for k in range(math.floor(lo), math.ceil(hi) + 1)
                  for member, norm in zip(ortho.members, ortho.norms)]
    return sum((g * (inner_product(f, g) / norm) for g, norm in translates), PiecewisePoly.zero())


def to_orthogonal_frames(
    frame: CoefficientFrame, ortho: OrthoQuarklets
) -> list[dict[int, Fraction]]:
    """Re-express a quarklet frame over the orthogonalized members, degree by degree.

    Returns per-degree scalar frames out[q] = {k: coefficient of psi*_q(. - k)},
    the row [c_0(z), ..., c_p(z)] of degree polynomials times ``from_plain``;
    the represented function is unchanged.
    """
    if frame.width != ortho.p + 1:
        raise ValueError("frame width does not match the family")
    row = LaurentMatrix([_polys(frame.coefficients, frame.width)])
    return [poly.coeffs for poly in (row @ LaurentMatrix(ortho.from_plain)).entries[0]]


def from_orthogonal_frames(
    frames: Sequence[Mapping[int, Fraction]], ortho: OrthoQuarklets, level: int = 0
) -> CoefficientFrame:
    """Inverse of :func:`to_orthogonal_frames`."""
    width = ortho.p + 1
    if len(frames) != width:
        raise ValueError("need one scalar frame per degree")
    row = LaurentMatrix([[LaurentPoly(frame) for frame in frames]])
    return CoefficientFrame(level, width, _vectors((row @ LaurentMatrix(ortho.to_plain)).entries[0]))
