"""Test-only reference code: an independent B-spline closed form, a
deliberately broken modulation bundle (negative control), the exponent scan
that read the splitting filters off E^{-1} X^{-1} (reference for
``decomposition_filters``) and the per-translate transform loops (reference
for the polyphase transform)."""

import math
from dataclasses import replace
from fractions import Fraction

from quarklets.laurent import LaurentMatrix, LaurentPoly
from quarklets.linalg import Mat, Vec
from quarklets.masks import MaskSequence
from quarklets.modulation import DecompositionFilters, ModulationBundle, parity_exchange_inverse
from quarklets.piecewise import PiecewisePoly
from quarklets.transform import CoefficientFrame


def bspline_truncated_power(m: int) -> PiecewisePoly:
    """Alternative closed form of N_m via truncated powers (independent cross-check).

    N_m(x) = 1/(m-1)! sum_k (-1)^k C(m,k) max(0, x-k)^{m-1}, valid for m >= 2.
    """
    if m < 2:
        raise ValueError("the truncated-power form needs m >= 2")
    total = PiecewisePoly.zero()
    fact = Fraction(1, math.factorial(m - 1))
    for k in range(0, m):
        # (x - k)_+^{m-1} restricted to [k, m]; the k = m term is empty there
        # and the remaining terms cancel identically beyond x = m
        coeffs = _binomial_power(-Fraction(k), m - 1)
        piece = PiecewisePoly([k, m], [coeffs])
        total = total + piece * (fact * (-1) ** k * math.comb(m, k))
    return total


def _binomial_power(shift: Fraction, n: int) -> list[Fraction]:
    """Coefficients of (x + shift)^n."""
    return [math.comb(n, j) * shift ** (n - j) for j in range(n + 1)]


def perturb_detail_block(bundle: ModulationBundle, i: int = 0, j: int = 0) -> ModulationBundle:
    """A copy of the bundle with W(z)[i][j] nudged by z/100 (negative control)."""
    n = bundle.size
    bad = [[bundle.detail_symbol[r, c] for c in range(n)] for r in range(n)]
    bad[i][j] = bad[i][j] + LaurentPoly.monomial(Fraction(1, 100), 1)
    bad_sym = LaurentMatrix(bad)
    bad_x = LaurentMatrix.block(
        [
            [bundle.scaling_symbol, bundle.scaling_symbol.substitute_neg()],
            [bad_sym, bad_sym.substitute_neg()],
        ]
    )
    return replace(bundle, detail_symbol=bad_sym, modulation=bad_x)


def reference_splitting_masks(bundle: ModulationBundle) -> tuple[MaskSequence, MaskSequence]:
    """The coarse and detail masks (C_n, D_n), scanned exponent by exponent off E^{-1} X^{-1}."""
    n = bundle.size
    inv = parity_exchange_inverse(n) @ bundle.modulation_inv
    coarse: dict[int, tuple] = {}
    detail: dict[int, tuple] = {}
    for parity in (0, 1):
        rows = inv.entries[parity * n : (parity + 1) * n]
        for name, col, target in (("C", 0, coarse), ("D", n, detail)):
            part = LaurentMatrix([row[col : col + n] for row in rows])
            lo, hi = part.exponent_range()
            for e in range(lo, hi + 1):
                mat = part.coefficient_matrix(e)
                if any(any(row) for row in mat):
                    if e % 2:
                        raise AssertionError(
                            f"odd power z^{e} in {name}_{parity}: decomposition derivation bug"
                        )
                    target[parity + e] = mat
    return MaskSequence(n, n, coarse), MaskSequence(n, n, detail)


def mat_t_vec(a: Mat, v: Vec) -> Vec:
    """a^T v without building the transpose."""
    n = len(a[0])
    out = [Fraction(0)] * n
    for row, s in zip(a, v):
        if s:
            for j, x in enumerate(row):
                if x:
                    out[j] += x * s
    return tuple(out)


def reference_reconstruct(
    scaling: CoefficientFrame, detail: CoefficientFrame, bundle: ModulationBundle
) -> CoefficientFrame:
    """One synthesis step: c_n = sum_l (A_{n-2l}^T s_l + B_{n-2l}^T d_l), exact."""
    if scaling.level != detail.level:
        raise ValueError("frames must live on the same level")
    width = bundle.size
    if scaling.width != width or detail.width != width:
        raise ValueError("frame width does not match the bundle degree")
    out: dict[int, list[Fraction]] = {}

    def accumulate(frame: CoefficientFrame, masks: MaskSequence):
        for l, vec in frame.items():
            for i, mat in masks.items():
                contrib = mat_t_vec(mat, vec)
                if any(contrib):
                    tgt = out.setdefault(i + 2 * l, [Fraction(0)] * width)
                    for idx, val in enumerate(contrib):
                        tgt[idx] += val

    accumulate(scaling, bundle.scaling_masks)
    accumulate(detail, bundle.detail_masks)
    return CoefficientFrame(scaling.level + 1, width, {k: tuple(v) for k, v in out.items()})


def reference_decompose(
    frame: CoefficientFrame, filters: DecompositionFilters
) -> tuple[CoefficientFrame, CoefficientFrame]:
    """One analysis step, the exact inverse of :func:`reference_reconstruct`."""
    width = filters.p + 1
    if frame.width != width:
        raise ValueError("frame width does not match the filter degree")
    s_out: dict[int, list[Fraction]] = {}
    d_out: dict[int, list[Fraction]] = {}

    for n, vec in frame.items():
        parity = n % 2
        l = (n - parity) // 2
        for masks, out in ((filters.coarse, s_out), (filters.detail, d_out)):
            for idx, mat in masks.items():
                if (idx - parity) % 2:
                    continue
                k = (idx - parity) // 2
                contrib = mat_t_vec(mat, vec)
                if any(contrib):
                    tgt = out.setdefault(l + k, [Fraction(0)] * width)
                    for i, val in enumerate(contrib):
                        tgt[i] += val
    level = frame.level - 1
    return (
        CoefficientFrame(level, width, {k: tuple(v) for k, v in s_out.items()}),
        CoefficientFrame(level, width, {k: tuple(v) for k, v in d_out.items()}),
    )
