"""Modulation-matrix algebra for the quark/quarklet filter bank.

For orders (m, mt) and maximal degree p the bundle collects:

*  the scaling symbol  S(z) = (1/2) sum_k A_k z^k   ((p+1) square),
*  the detail symbol   W(z) = b(z) Id               (scalar wavelet symbol),
*  the modulation matrix  X(z) = [[S(z), S(-z)], [W(z), W(-z)]],
*  the block determinant  T(z) = S(z) b(-z) - b(z) S(-z),  which is lower
   triangular with monomial diagonal 2^{1-q} z, hence exactly invertible
   over Laurent polynomials,
*  the exact inverse  X(z)^{-1} = [[L(z), R(-z)], [L(-z), R(z)]]  with
   L = b(-z) T^{-1} and R = T^{-1} S(z): T is odd, so the bottom-left and
   top-right blocks are the other two at -z and R is the only matrix product,
*  dual symbols read off from X^{-1}:  conj(St(z))^T = L(z) and
   conj(Wt(z))^T = R(-z), and their mask sequences on first use,
*  the polyphase matrix P(z) of the masks, on first use,
*  the polyphase inverse P(z)^{-1} = E(z)^{-1} X(z)^{-1}, read off the top
   block row [L, R(-z)] by exponent parity, with no product.

Everything is exact rational arithmetic; verification routines return the
residual entries instead of asserting.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from .cdf import CdfPair, cdf_masks, quarklets
from .laurent import LaurentMatrix, LaurentPoly
from .masks import MaskSequence
from .piecewise import PiecewisePoly
from .splines import quark_family, refinement_masks


@dataclass(frozen=True)
class ModulationBundle:
    m: int
    mt: int
    p: int
    filters: CdfPair
    scaling_masks: MaskSequence        # A_k
    detail_masks: MaskSequence         # B_k = b_k Id
    scaling_symbol: LaurentMatrix      # S(z)
    detail_symbol: LaurentMatrix       # W(z) = b(z) Id
    modulation: LaurentMatrix          # X(z), size 2(p+1)
    block_det: LaurentMatrix           # T(z)
    block_det_inv: LaurentMatrix       # T(z)^{-1}
    modulation_inv: LaurentMatrix      # X(z)^{-1}
    dual_scaling_symbol: LaurentMatrix  # St(z)
    dual_detail_symbol: LaurentMatrix   # Wt(z)

    @property
    def size(self) -> int:
        return self.p + 1

    @cached_property
    def dual_scaling_masks(self) -> MaskSequence:
        """At_k, read off St(z) on first use."""
        return MaskSequence.from_symbol(self.dual_scaling_symbol)

    @cached_property
    def dual_detail_masks(self) -> MaskSequence:
        """Bt_k, read off Wt(z) on first use."""
        return MaskSequence.from_symbol(self.dual_detail_symbol)

    @cached_property
    def synthesis_matrix(self) -> LaurentMatrix:
        """P(z) = [[S_0, S_1], [W_0, W_1]] of the even/odd sub-symbols of the masks, on first use."""
        s0, w0 = sub_symbols(self, 0)
        s1, w1 = sub_symbols(self, 1)
        return LaurentMatrix.block([[s0, s1], [w0, w1]])

    @cached_property
    def polyphase_inv(self) -> LaurentMatrix:
        """P(z)^{-1} = E(z)^{-1} X(z)^{-1} = [[L_e, R_e], [z L_o, -z R_o]], on first use only.

        E^{-1} = (1/2) [[Id, Id], [z Id, -z Id]] and the bottom block row of X^{-1}
        is the top one, [L, R(-z)], at -z: block row 0 keeps the even powers of
        that row, block row 1 its odd powers moved up by one.
        """
        top = self.modulation_inv.entries[: self.size]
        return LaurentMatrix(
            [[LaurentPoly({k + r: c for k, c in e.coeffs.items() if k % 2 == r}) for e in row]
             for r in (0, 1) for row in top]
        )


def build_modulation(m: int, mt: int, p: int) -> ModulationBundle:
    """Assemble the full modulation bundle for (m, mt, p), exactly."""
    if p < 0:
        raise ValueError("need p >= 0")
    return _build_cached(m, mt, p)


@lru_cache(maxsize=None)
def _build_cached(m: int, mt: int, p: int) -> ModulationBundle:
    filters = cdf_masks(m, mt)
    n = p + 1
    ref = refinement_masks(m, p)
    scaling_symbol = ref.matrices.to_symbol()
    b = filters.wavelet_symbol()
    b_neg = b.substitute_neg()
    detail_symbol = LaurentMatrix.scalar(b, n)
    detail_masks = MaskSequence.from_symbol(detail_symbol)

    modulation = LaurentMatrix.block(
        [
            [scaling_symbol, scaling_symbol.substitute_neg()],
            [detail_symbol, detail_symbol.substitute_neg()],
        ]
    )

    block_det = scaling_symbol * b_neg - scaling_symbol.substitute_neg() * b
    for q in range(n):
        expected = LaurentPoly.monomial(Fraction(1, 2**q), 1)
        if block_det[q, q] != expected:
            raise AssertionError(
                f"block determinant diagonal ({q},{q}) is {block_det[q, q]!r}, "
                f"expected {expected!r}; filter construction is inconsistent"
            )
    block_det_inv = block_det.invert_lower_triangular()

    # T^{-1}(-z) = -T^{-1}(z), so -b(z) T^{-1} = left(-z) and -T^{-1} S(-z) = right(-z)
    left = block_det_inv * b_neg
    right = block_det_inv @ scaling_symbol
    right_neg = right.substitute_neg()
    modulation_inv = LaurentMatrix.block([[left, right_neg], [left.substitute_neg(), right]])

    dual_scaling_symbol = left.conj_transpose()
    dual_detail_symbol = right_neg.conj_transpose()
    return ModulationBundle(
        m=m,
        mt=mt,
        p=p,
        filters=filters,
        scaling_masks=ref.matrices,
        detail_masks=detail_masks,
        scaling_symbol=scaling_symbol,
        detail_symbol=detail_symbol,
        modulation=modulation,
        block_det=block_det,
        block_det_inv=block_det_inv,
        modulation_inv=modulation_inv,
        dual_scaling_symbol=dual_scaling_symbol,
        dual_detail_symbol=dual_detail_symbol,
    )


@dataclass(frozen=True)
class ReconstructionReport:
    """Outcome of the exact perfect-reconstruction identity check."""

    m: int
    mt: int
    p: int
    identity_holds: bool
    residuals: tuple[tuple[int, int, LaurentPoly], ...]  # nonzero entries of X Xinv - Id


def check_product_is_identity(x: LaurentMatrix, xinv: LaurentMatrix) -> tuple[tuple[int, int, LaurentPoly], ...]:
    product = x @ xinv
    residual = product - LaurentMatrix.identity(x.rows)
    out = []
    for i in range(residual.rows):
        for j in range(residual.cols):
            if not residual[i, j].is_zero():
                out.append((i, j, residual[i, j]))
    return tuple(out)


def verify_perfect_reconstruction(bundle: ModulationBundle) -> ReconstructionReport:
    """Check X(z) conj(Xt(z))^T = Id exactly; conj(Xt)^T is the stored inverse."""
    residuals = check_product_is_identity(bundle.modulation, bundle.modulation_inv)
    return ReconstructionReport(bundle.m, bundle.mt, bundle.p, not residuals, residuals)


def sub_symbols(bundle: ModulationBundle, parity: int) -> tuple[LaurentMatrix, LaurentMatrix]:
    """Even/odd sub-symbols sum_k M_{2k+parity} z^{2k} of the scaling and detail masks."""
    if parity not in (0, 1):
        raise ValueError("parity must be 0 or 1")
    return (
        _sub_symbol(bundle.scaling_masks, parity),
        _sub_symbol(bundle.detail_masks, parity),
    )


def _sub_symbol(masks: MaskSequence, parity: int) -> LaurentMatrix:
    picked = [(k - parity, m) for k, m in masks.entries.items() if (k - parity) % 2 == 0]
    cols = range(masks.cols)
    return LaurentMatrix(
        [[LaurentPoly({e: m[i][j] for e, m in picked}) for j in cols] for i in range(masks.rows)]
    )


def parity_exchange_matrix(n: int) -> LaurentMatrix:
    """The block matrix [[Id, z^{-1} Id], [Id, -z^{-1} Id]] of size 2n."""
    z_inv = LaurentPoly.monomial(Fraction(1), -1)
    return LaurentMatrix.block(
        [
            [LaurentMatrix.identity(n), LaurentMatrix.scalar(z_inv, n)],
            [LaurentMatrix.identity(n), LaurentMatrix.scalar(-z_inv, n)],
        ]
    )


@dataclass(frozen=True)
class PolyphaseFactorization:
    polyphase: LaurentMatrix          # P(z) of the sub-symbols
    exchange: LaurentMatrix           # E(z) with P = X E
    inverse: LaurentMatrix            # P(z)^{-1} = E^{-1} X^{-1}
    factorization_holds: bool         # P == X E, checked exactly
    invertible: bool                  # P P^{-1} == Id, checked exactly


def polyphase(bundle: ModulationBundle) -> PolyphaseFactorization:
    """Polyphase matrix of the filter bank plus its exact invertibility certificate."""
    n = bundle.size
    pp = bundle.synthesis_matrix
    exchange = parity_exchange_matrix(n)
    holds = pp == bundle.modulation @ exchange
    inv = bundle.polyphase_inv
    invertible = not check_product_is_identity(pp, inv)
    return PolyphaseFactorization(pp, exchange, inv, holds, invertible)


@dataclass(frozen=True)
class DecompositionFilters:
    """Exact two-scale splitting filters: Phi(2x - r) expanded over coarse quarks/quarklets.

    For r in {0, 1}:  Phi(2x - r) = sum_k C_{r+2k} Phi(x - k) + sum_k D_{r+2k} Psi(x - k).
    """

    m: int
    mt: int
    p: int
    coarse: MaskSequence  # C_n, n in Z
    detail: MaskSequence  # D_n, n in Z
    polyphase_inv: LaurentMatrix  # P(z)^{-1} = [[C_0, D_0], [C_1, D_1]], applied by decompose


def decomposition_filters(bundle: ModulationBundle) -> DecompositionFilters:
    """Read the splitting filters off P(z)^{-1} = E(z)^{-1} X(z)^{-1}.

    Block row r of P^{-1} is [C_r(z), D_r(z)] with C_r(z) = sum_k C_{2k+r} z^{2k},
    so the z^e coefficient of block row r is [C_{e+r}, D_{e+r}].  P^{-1} is read
    off X^{-1} by exponent parity (``ModulationBundle.polyphase_inv``), so it
    holds even powers of z only, which keeps the two rows' masks apart.
    """
    n = bundle.size
    inv = bundle.polyphase_inv
    zero = Fraction(0)
    both: dict[int, list[list[Fraction]]] = {}  # k -> [C_k, D_k] side by side
    for i, row in enumerate(inv.entries):
        r = i // n
        for j, entry in enumerate(row):
            for e, c in entry.coeffs.items():
                both.setdefault(e + r, [[zero] * (2 * n) for _ in range(n)])[i - r * n][j] = c
    coarse, detail = (
        MaskSequence(n, n, {k: tuple(row[c : c + n] for row in both[k]) for k in sorted(both)})
        for c in (0, n)
    )
    return DecompositionFilters(bundle.m, bundle.mt, bundle.p, coarse, detail, inv)


def splitting_identity_defect(
    bundle: ModulationBundle, filters: DecompositionFilters, parity: int
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
