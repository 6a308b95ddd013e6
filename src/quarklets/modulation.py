"""Modulation-matrix algebra for the quark/quarklet filter bank.

For orders (m, mt) and maximal degree p the bundle stores the scaling symbol
S(z) = (1/2) sum_k A_k z^k ((p+1) square, from :func:`quarklets.splines.refinement_symbol`),
the filters, which hold the scalar wavelet symbol b(z), and the p + 1
polynomials h and k = h^{-1} below, which fix the block determinant
T(z) = S(z) b(-z) - b(z) S(-z), lower triangular with monomial diagonal 2^{-q} z,
and its inverse T(z)^{-1}.  The rest is read off them on first use:

*  the detail symbol   W(z) = b(z) Id,
*  the modulation matrix  X(z) = [[S(z), S(-z)], [W(z), W(-z)]],
*  the exact inverse  X(z)^{-1} = [[L(z), R(-z)], [L(-z), R(z)]]  with
   L = b(-z) T^{-1} and R = T^{-1} S(z): T is odd, so the bottom-left and
   top-right blocks are the other two at -z,
*  the dual symbols, blocks of X^{-1}:  conj(St(z))^T = L(z) and
   conj(Wt(z))^T = R(-z), so St needs L only,
*  the polyphase matrix P(z) = [[S_0, S_1], [W_0, W_1]], read off S and b by
   exponent parity (S_r(z) = sum_k A_{2k+r} z^{2k}),
*  the polyphase inverse P(z)^{-1} = E(z)^{-1} X(z)^{-1}, read off the top
   block row [L, R(-z)] by the same parity split, with no product,
*  the masks A_k, B_k, At_k and Bt_k, read off their symbols, and the
   splitting filters C_n, D_n (``coarse``, ``detail``), read off P^{-1}; each
   keeps its symbol's integer numerators (:class:`quarklets.masks.MaskSequence`),
*  the read-only integer cores of ``transform.reconstruct(s, d, bundle)``, from P,
   and of ``transform.decompose(frame, bundle)``, from g, h and b.

With D = diag(2^{-q}) and the Pascal-type M_g = [C(i, j) g_{i-j}] of :mod:`quarklets.laurent`,
S = D M_g for g_j = 2^j S_{j0} and T = D M_h for h_j twice the odd part of g_j(z) b(-z), so
T^{-1} = M_k D^{-1} for k the inverse of h (h_0 = z), L = b(-z) M_k D^{-1} and R = M_{k * g}:
p + 1 polynomials fix each of them, and no matrix product is taken.

No matrix product certifies X X^{-1} = Id and P's invertibility: as M_a M_b = M_{a * b},
S = D M_g, h read off g and b as above, and h * k = (1, 0, ..., 0) prove both on the p + 1
polynomials, for views read off S, b and k (``ModulationBundle.pr_certified``).  A bundle
failing any condition (a perturbed copy) multiplies out X X^{-1} and P P^{-1}.  The exchange
matrix E = [[Id, z^{-1} Id], [Id, -z^{-1} Id]] is never formed: P = X E is checked row by row,
y = x(-z) for each row [x, y] of X and P's halves twice the even and odd parts of x.

Everything is exact rational arithmetic; verification routines return the
residual entries instead of asserting.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb, lcm
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .cdf import CdfPair, cdf_masks, quarklets
from .laurent import (LaurentMatrix, LaurentPoly, _from_int, _interleave, column_cores, pascal_inverse,
                      pascal_matrix, pascal_product)
from .masks import MaskSequence, mask_view
from .piecewise import PiecewisePoly
from .splines import quark_family, refinement_symbol


@dataclass(frozen=True)
class ModulationBundle:
    m: int
    mt: int
    p: int
    filters: CdfPair
    scaling_symbol: LaurentMatrix    # S(z) = D M_g
    h: tuple[LaurentPoly, ...]       # T(z) = D M_h
    k: tuple[LaurentPoly, ...]       # T(z)^{-1} = M_k D^{-1}, k the inverse of h

    scaling_masks = mask_view("scaling_symbol", "A_k, read off S(z) on first use.")
    detail_masks = mask_view("detail_symbol", "B_k = b_k Id, read off W(z) on first use.")
    dual_scaling_masks = mask_view("dual_scaling_symbol", "At_k, read off St(z) on first use.")
    dual_detail_masks = mask_view("dual_detail_symbol", "Bt_k, read off Wt(z) on first use.")

    @property
    def size(self) -> int:
        return self.p + 1

    @cached_property
    def detail_symbol(self) -> LaurentMatrix:  # W(z) = b(z) Id
        return LaurentMatrix.scalar(self.filters.wavelet_symbol, self.size)

    @cached_property
    def modulation(self) -> LaurentMatrix:  # X(z), size 2(p+1)
        s, w = self.scaling_symbol, self.detail_symbol
        return LaurentMatrix.block([[s, s.substitute_neg()], [w, w.substitute_neg()]])

    @cached_property
    def _left(self) -> LaurentMatrix:  # L = b(-z) T^{-1}
        b_neg = self.filters.wavelet_symbol.substitute_neg()
        return pascal_matrix([b_neg * e for e in self.k], col=2)

    @cached_property
    def _right(self) -> LaurentMatrix:  # R = T^{-1} S = M_k D^{-1} D M_g
        return pascal_matrix(pascal_product(self.k, _scaling_sequence(self.scaling_symbol)))

    @cached_property
    def modulation_inv(self) -> LaurentMatrix:  # X(z)^{-1}
        # T^{-1}(-z) = -T^{-1}(z), so -b(z) T^{-1} = L(-z) and -T^{-1} S(-z) = R(-z)
        left, right = self._left, self._right
        return LaurentMatrix.block([[left, right.substitute_neg()], [left.substitute_neg(), right]])

    @cached_property
    def dual_scaling_symbol(self) -> LaurentMatrix:  # St(z) = conj(L(z))^T
        return self._left.conj_transpose()

    @cached_property
    def dual_detail_symbol(self) -> LaurentMatrix:  # Wt(z) = conj(R(-z))^T
        return self._right.substitute_neg().conj_transpose()

    @cached_property
    def synthesis_matrix(self) -> LaurentMatrix:
        """P(z) = [[S_0, S_1], [W_0, W_1]], read off S and the filters' b on first use.

        S_r(z) = sum_k A_{2k+r} z^{2k} with A_k = 2 (z^k coefficient of S): block
        column r keeps twice the r-parity powers of S, moved down by r; the same
        for W = b Id.  W comes from the filters, not from ``detail_symbol``, so
        a bundle whose stored W was changed fails ``factorization_holds``.
        """
        rows = self.scaling_symbol.entries + LaurentMatrix.scalar(self.filters.wavelet_symbol, self.size).entries
        return LaurentMatrix([_parity_part(row, 0, 0, 2) + _parity_part(row, 1, -1, 2) for row in rows])

    @cached_property
    def polyphase_inv(self) -> LaurentMatrix:
        """P(z)^{-1} = E(z)^{-1} X(z)^{-1} = [[L_e, R_e], [z L_o, -z R_o]], on first use only.

        E^{-1} = (1/2) [[Id, Id], [z Id, -z Id]] and the bottom block row of X^{-1}
        is the top one, [L, R(-z)], at -z: block row 0 keeps the even powers of
        that row, block row 1 its odd powers moved up by one.
        """
        top = self.modulation_inv.entries[: self.size]
        return LaurentMatrix([_parity_part(row, r, r) for r in (0, 1) for row in top])

    @cached_property
    def synthesis_cores(self) -> tuple[tuple[tuple, int], ...]:
        """Read-only column cores of P(z^{1/2}) (P holds even powers only), kept for every ``transform.reconstruct``."""
        return tuple((_frozen({k >> 1: n for k, n in core.items()} for core in cores), den)
                     for cores, den in column_cores(self.synthesis_matrix))

    @cached_property
    def coarse(self) -> MaskSequence:
        """C_n, n in Z, read off block column 0 of P^{-1} on first use: the splitting filters,
        Phi(2x - r) = sum_k C_{r+2k} Phi(x - k) + sum_k D_{r+2k} Psi(x - k) for r in {0, 1}."""
        return self._block_masks(0)

    @cached_property
    def detail(self) -> MaskSequence:
        """D_n, n in Z, read off block column 1 of P^{-1} on first use."""
        return self._block_masks(self.size)

    def _block_masks(self, c: int) -> MaskSequence:
        # P^{-1} holds even powers of z only, so block row 0 plus z times block row 1 has
        # C_n (or D_n) as its z^n coefficient, with no two terms on one exponent
        n, rows = self.size, self.polyphase_inv.entries
        blocks = [zip(rows[i][c : c + n], rows[n + i][c : c + n]) for i in range(n)]
        return MaskSequence.from_symbol(LaurentMatrix([[_interleave(a, b, 1) for a, b in row] for row in blocks]), 1)

    @cached_property
    def lifting_cores(self) -> tuple[tuple[tuple, tuple, tuple, int, int], ...]:
        """Per output j, the read-only integer cores that ``transform.decompose`` applies, from g, h and b on first use.

        decompose keeps u_j = z y_j over the frame's denominator times r_j, with r_p = 1 and r_j the
        lcm of den(h_{i-j}) r_i over i > j, so every factor below is an integer.  For each j: the back
        substitution's column [r_j, -C(i, j) r_j / (den(h_{i-j}) r_i) z^{-1} h_{i-j} (i > j)] for
        [c_j, u_{j+1}, ..., u_p]; the halves of 2^j b(-z) (coarse) and of -C(i, j) q_j / (den(g_{i-j}) r_i)
        g_{i-j}(-z), i >= j (detail), q_j the lcm of those den(g_{i-j}) r_i, odd half first, which takes
        z^{-1} off u_j; and the denominators r_j den(b) of s_j and q_j of d_j over the frame's.
        """
        n, h, b = self.size, self.h, self.filters.wavelet_symbol.substitute_neg()
        g = [e.substitute_neg() for e in _scaling_sequence(self.scaling_symbol)]
        r = [1] * n
        for j in reversed(range(n - 1)):
            r[j] = lcm(*(h[i - j].den * r[i] for i in range(j + 1, n)))
        columns = []
        for j in range(n):
            lift = [{0: r[j]}] + [_scaled(h[i - j].nums, -comb(i, j) * r[j] // (h[i - j].den * r[i]), -1)
                                  for i in range(j + 1, n)]
            q = lcm(*(g[i - j].den * r[i] for i in range(j, n)))
            detail = [half for i in range(j, n)
                      for half in _halves(_scaled(g[i - j].nums, -comb(i, j) * q // (g[i - j].den * r[i])))[::-1]]
            columns.append((_frozen(lift), _frozen(_halves(_scaled(b.nums, 2**j))[::-1]), _frozen(detail),
                            r[j] * b.den, q))
        return tuple(columns)

    @cached_property
    def factorization_holds(self) -> bool:
        """P == X E, checked exactly on first use by the row-parity condition.

        E = [[Id, z^-1 Id], [Id, -z^-1 Id]] turns row [x, y] of X into [x + y, z^-1 (x - y)], which is
        [2 even(x), 2 z^-1 odd(x)] when y = x(-z).  So each row of X is checked for y = x(-z), and
        the row of P against the parity read-off of x, as ``synthesis_matrix`` reads P off S and b:
        no sum and no lcm.  The condition implies P = X E, and follows from it when P holds even
        powers only.
        """
        n = self.size
        return all(
            all(b == a.substitute_neg() for a, b in zip(x[:n], x[n:]))
            and list(row) == _parity_part(x[:n], 0, 0, 2) + _parity_part(x[:n], 1, -1, 2)
            for row, x in zip(self.synthesis_matrix.entries, self.modulation.entries)
        )

    @cached_property
    def pr_certified(self) -> bool:
        """X X^{-1} = Id and P P^{-1} = Id, proved on the p + 1 polynomials g, h and k, on first use.

        The blocks of X X^{-1} are U + U(-z) for U = S L = b(-z) D M_{g * k} D^{-1},
        b R(-z) + b(-z) R, and two even parts of odd polynomials, which vanish; the
        first two are [C(i, j) 2^{j-i} e_{i-j}] and [C(i, j) e_{i-j}] with
        e_n = 2 even(b(-z) (g * k)_n) = (h * k)_n, as k is odd.  So S = D M_g, the
        stored h read off g and b again, and h * k = (1, 0, ..., 0) prove the identity
        for X, X^{-1} and P read off S, b and k, and the views are checked to be those:
        P = X E, X^{-1}'s bottom block row is its top one at -z, its diagonal blocks L and R.
        """
        n, inv, g = self.size, self.modulation_inv.entries, _scaling_sequence(self.scaling_symbol)
        return (
            self.factorization_holds
            and all(b == t.substitute_neg() for top, bottom in zip(inv[:n], inv[n:]) for t, b in zip(top, bottom))
            and [row[:n] for row in inv[:n]] == list(self._left.entries)
            and [row[n:] for row in inv[n:]] == list(self._right.entries)
            and self.scaling_symbol == pascal_matrix(g, row=Fraction(1, 2))
            and self.h == _determinant_sequence(g, self.filters.wavelet_symbol)
            and pascal_product(self.h, self.k) == [LaurentPoly.one()] + [LaurentPoly.zero()] * self.p
        )

    @cached_property
    def polyphase_residuals(self) -> tuple[tuple[int, int, LaurentPoly], ...]:
        """Nonzero entries of P P^{-1} - Id, on first use: none if ``pr_certified``, else by the product."""
        return () if self.pr_certified else check_product_is_identity(self.synthesis_matrix, self.polyphase_inv)


def _scaling_sequence(scaling_symbol: LaurentMatrix) -> list[LaurentPoly]:
    """g with S = D M_g: g_j = 2^j S_{j0}."""
    return [scaling_symbol[j, 0] * 2**j for j in range(scaling_symbol.rows)]


def _determinant_sequence(g: Sequence[LaurentPoly], wavelet_symbol: LaurentPoly) -> tuple[LaurentPoly, ...]:
    """h with T = D M_h: T = U - U(-z) for U = S(z) b(-z), so h_j is twice the odd part of g_j b(-z)."""
    b_neg = wavelet_symbol.substitute_neg()
    return tuple(_parity_part([e * b_neg for e in g], 1, 0, 2))


def _parity_part(row: Sequence[LaurentPoly], parity: int, shift: int, factor: int = 1) -> list[LaurentPoly]:
    """factor z^shift times the terms of each entry whose exponent has the given parity, on numerators."""
    return [_from_int({k + shift: factor * c for k, c in e.nums.items() if k % 2 == parity}, e.den) for e in row]


def build_modulation(m: int, mt: int, p: int) -> ModulationBundle:
    """Assemble the full modulation bundle for (m, mt, p), exactly."""
    if p < 0:
        raise ValueError("need p >= 0")
    return _build_cached(m, mt, p)


@lru_cache(maxsize=None)
def _build_cached(m: int, mt: int, p: int) -> ModulationBundle:
    filters = cdf_masks(m, mt)
    scaling_symbol = refinement_symbol(m, p)
    h = _determinant_sequence(_scaling_sequence(scaling_symbol), filters.wavelet_symbol)
    if h[0] != LaurentPoly.monomial(1, 1):
        raise AssertionError(f"block determinant diagonal {h[0]!r} 2^-q is not z 2^-q; inconsistent filters")
    return ModulationBundle(m, mt, p, filters, scaling_symbol, h, tuple(pascal_inverse(h)))


@dataclass(frozen=True)
class ReconstructionReport:
    """Outcome of the exact perfect-reconstruction identity check."""

    m: int
    mt: int
    p: int
    identity_holds: bool
    residuals: tuple[tuple[int, int, LaurentPoly], ...]  # nonzero entries of X Xinv - Id


def check_product_is_identity(x: LaurentMatrix, xinv: LaurentMatrix) -> tuple[tuple[int, int, LaurentPoly], ...]:
    one = LaurentPoly.one()
    residual = ((i, j, e - one if i == j else e) for i, row in enumerate((x @ xinv).entries) for j, e in enumerate(row))
    return tuple((i, j, e) for i, j, e in residual if e)


def verify_perfect_reconstruction(bundle: ModulationBundle) -> ReconstructionReport:
    """Check X(z) conj(Xt(z))^T = Id exactly; conj(Xt)^T is the stored inverse X^{-1}.

    Certificate: ``pr_certified``, which leaves no residuals.  Fallback, when it
    fails: the product X X^{-1} itself.
    """
    residuals = () if bundle.pr_certified else check_product_is_identity(bundle.modulation, bundle.modulation_inv)
    return ReconstructionReport(bundle.m, bundle.mt, bundle.p, not residuals, residuals)


@dataclass(frozen=True)
class PolyphaseFactorization:
    polyphase: LaurentMatrix          # P(z) = [[S_0, S_1], [W_0, W_1]]
    inverse: LaurentMatrix            # P(z)^{-1} = E^{-1} X^{-1}
    factorization_holds: bool         # P == X E, checked exactly
    invertible: bool                  # P P^{-1} == Id, exactly: pr_certified, else the product


def polyphase(bundle: ModulationBundle) -> PolyphaseFactorization:
    """Polyphase matrix of the filter bank plus its exact invertibility certificate."""
    return PolyphaseFactorization(bundle.synthesis_matrix, bundle.polyphase_inv,
                                  bundle.factorization_holds, not bundle.polyphase_residuals)


def _halves(core: dict[int, int]) -> list[dict[int, int]]:
    """The even and the odd terms of an integer core, z^{2l} and z^{2l+1} both keyed by l."""
    return [{k >> 1: n for k, n in core.items() if not k & 1}, {k >> 1: n for k, n in core.items() if k & 1}]


def _scaled(core: Mapping[int, int], c: int, shift: int = 0) -> dict[int, int]:
    """c z^shift times an integer core."""
    return {k + shift: c * n for k, n in core.items()}


def _frozen(cores: Iterable[dict[int, int]]) -> tuple[Mapping[int, int], ...]:
    """Read-only views of integer cores, for the caches that every transform on a bundle shares."""
    return tuple(map(MappingProxyType, cores))


def decomposition_filters(bundle: ModulationBundle) -> ModulationBundle:
    """The bundle itself, which holds its splitting filters (``coarse``, ``detail``) and lifting cores."""
    return bundle


def splitting_identity_defect(
    bundle: ModulationBundle, filters: ModulationBundle, parity: int
) -> tuple[PiecewisePoly, ...]:
    """Phi(2x - parity) minus its reconstruction from coarse quarks and quarklets.

    Returns the exact componentwise difference (all zero iff the identity holds).
    """
    quarks = quark_family(bundle.m, bundle.p)
    wavelets = quarklets(bundle.m, bundle.mt, bundle.p)
    translated = [
        (mat, [f.translate((idx - parity) // 2) for f in family])
        for masks, family in ((filters.coarse, quarks), (filters.detail, wavelets))
        for idx, mat in masks.items() if (idx - parity) % 2 == 0
    ]
    return tuple(
        phi.compose_linear(2, -Fraction(parity))
        - sum((f * mat[i][j] for mat, fs in translated for j, f in enumerate(fs) if mat[i][j]),
              PiecewisePoly.zero())
        for i, phi in enumerate(quarks)
    )
