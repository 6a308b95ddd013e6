"""Test-only reference code: the Laurent matrix product summed coefficient by
coefficient over Fractions (reference for the integer-core kernel of
``LaurentMatrix.__matmul__``), an independent B-spline closed form, the CDF
dual mask found by scanning monomial shifts (reference for the closed-form
shift of ``cdf_masks``), a deliberately broken modulation bundle (negative
control), X^{-1} multiplied out block by block and P^{-1} = E^{-1} X^{-1} as a
matrix product with the exact parity-exchange inverse (references for the
z -> -z read-offs of ``build_modulation`` and ``polyphase_inv``), the exponent
scan that read the splitting filters off E^{-1} X^{-1} (reference for
``decomposition_filters``), the per-translate transform loops (reference
for the polyphase transform), dense polynomial long division and Horner
evaluation on Fraction tuples (references for ``LaurentPoly.__divmod__`` and
``eval_rational``), Condition E for general rational matrices by
characteristic polynomial and Schur-Cohn test (reference for the diagonal
read-off of ``condition_e``), the truncated dual product point by point
(reference for the refinement cascade; its raw form, without the first-order
tail, is the only raw product left and backs the truncation-floor tests), the
quark Fourier transform by mpmath quadrature (reference for ``quark_ft``),
and small oracles that no library code needs: closed-interval root counts,
the two-scale refinement of a quark vector, the dual modulation matrix and
exact evaluation of a Laurent matrix (the bundle read-off of St(1), reference
for ``dual_symbol_at_one``), Horner's rule in a*x + b on whole Laurent
products (reference for the Taylor shift of ``compose_linear``), the shift
Gram symbol by translating g and integrating f * g(. - n) for every n
(reference for the local-coordinate ``shift_gram_symbol``), the cofactor
expansion of a determinant (reference for the Bareiss ``trig_determinant``)
and the Fourier zero scan with all 100 ternary steps (reference for the
early stop of ``ft_zero_scan``)."""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
from mpmath import mp

from quarklets import realroots
from quarklets.cdf import CdfPair, scalar_pr_defect
from quarklets.duals import dual_eigenvector, dual_tail_slope
from quarklets.laurent import LaurentMatrix, LaurentPoly
from quarklets.masks import MaskSequence, Mat
from quarklets.modulation import (
    DecompositionFilters,
    ModulationBundle,
    build_modulation,
)
from quarklets.piecewise import PiecewisePoly, inner_product
from quarklets.splines import bspline_mask, quark_ft
from quarklets.stability import _ZERO_RTOL
from quarklets.transform import CoefficientFrame

Vec = tuple[Fraction, ...]


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


def cdf_masks_by_scan(m: int, mt: int) -> CdfPair:
    """The CDF quadruple with the dual shift kappa found by trying every |kappa| <= m + mt.

    The dual symbol z^kappa ((1+z)/2)^mt P_L(y) is kept at the first shift that
    passes the scalar PR identity; the wavelet masks are the alternating flips
    b_k = (-1)^k at_{1-k} and bt_k = (-1)^k a_{1-k}.
    """
    primal = bspline_mask(m)
    a = primal.to_symbol()[0, 0]
    ell = (m + mt) // 2
    y = LaurentPoly({-1: Fraction(-1, 4), 0: Fraction(1, 2), 1: Fraction(-1, 4)})
    bezout = sum((y**n * math.comb(ell - 1 + n, n) for n in range(ell)), LaurentPoly.zero())
    core = LaurentPoly({0: Fraction(1, 2), 1: Fraction(1, 2)}) ** mt * bezout
    for kappa in range(-(m + mt), m + mt + 1):
        at = core * LaurentPoly.monomial(Fraction(1), kappa)
        if scalar_pr_defect(a, at).is_zero():
            break
    else:
        raise ValueError(f"no monomial shift satisfies perfect reconstruction for ({m}, {mt})")
    dual = MaskSequence.from_symbol(LaurentMatrix([[at]]))

    def flip(scalars: dict[int, Fraction]) -> MaskSequence:
        return MaskSequence.from_scalars({1 - k: (-1) ** ((1 - k) % 2) * c for k, c in scalars.items()})

    return CdfPair(m, mt, primal, dual, flip(dual.scalars()), flip(primal.scalars()))


def fraction_matmul(a: LaurentMatrix, b: LaurentMatrix) -> LaurentMatrix:
    """a @ b with every coefficient product added into a ``Fraction`` accumulator."""
    if a.cols != b.rows:
        raise ValueError(f"dimension mismatch: {a.rows}x{a.cols} @ {b.rows}x{b.cols}")
    out = []
    for row in a.entries:
        out_row = []
        for col in zip(*b.entries):
            acc: dict[int, Fraction] = {}
            for x, y in zip(row, col):
                for kx, cx in x.coeffs.items():
                    for ky, cy in y.coeffs.items():
                        acc[kx + ky] = acc.get(kx + ky, Fraction(0)) + cx * cy
            out_row.append(LaurentPoly(acc))
        out.append(out_row)
    return LaurentMatrix(out)


def parity_exchange_inverse(n: int) -> LaurentMatrix:
    """Exact inverse (1/2) [[Id, Id], [z Id, -z Id]] of ``parity_exchange_matrix(n)``."""
    half = Fraction(1, 2)
    z = LaurentPoly.monomial(half, 1)
    return LaurentMatrix.block(
        [
            [LaurentMatrix.scalar(LaurentPoly.monomial(half, 0), n)] * 2,
            [LaurentMatrix.scalar(z, n), LaurentMatrix.scalar(-z, n)],
        ]
    )


def modulation_inv_by_blocks(bundle: ModulationBundle) -> LaurentMatrix:
    """X(z)^{-1} = [[b(-z) T^{-1}, -T^{-1} S(-z)], [-b(z) T^{-1}, T^{-1} S(z)]], each block multiplied out."""
    tinv, s = bundle.block_det_inv, bundle.scaling_symbol
    b = bundle.filters.wavelet_symbol()
    return LaurentMatrix.block(
        [
            [tinv * b.substitute_neg(), -(tinv @ s.substitute_neg())],
            [-(tinv * b), tinv @ s],
        ]
    )


def polyphase_inv_by_product(bundle: ModulationBundle) -> LaurentMatrix:
    """P(z)^{-1} = E(z)^{-1} X(z)^{-1} as one matrix product."""
    return parity_exchange_inverse(bundle.size) @ bundle.modulation_inv


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


# -- dense polynomials: tuples of Fractions, constant term first -----------------------

Poly = tuple[Fraction, ...]


def trim(p) -> Poly:
    """The dense polynomial p without trailing zero coefficients."""
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return tuple(p)


def evaluate(p: Poly, x: Fraction) -> Fraction:
    """p(x) by Horner's rule (oracle for ``LaurentPoly.eval_rational``)."""
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def divmod_poly(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Dense polynomial long division (oracle for ``LaurentPoly.__divmod__``)."""
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


# -- Condition E for general rational matrices ---------------------------------------


def condition_e_reference(matrix) -> bool:
    """1 is a simple eigenvalue and every other eigenvalue has modulus < 1.

    Exact for square rational matrices of any shape: the characteristic
    polynomial, deflated by the eigenvalue 1, must be Schur stable.  Raises
    TypeError on non-rational entries.
    """
    rational = _as_rational_matrix(matrix)
    if rational is None:
        raise TypeError("condition_e_reference takes rational matrices only")
    p = char_poly(rational)
    if evaluate(p, Fraction(1)) != 0:
        return False
    q, r = divmod_poly(p, (Fraction(-1), Fraction(1)))  # divide by (x - 1)
    assert not r
    if evaluate(q, Fraction(1)) == 0:
        return False  # eigenvalue 1 not simple
    return all_roots_in_open_unit_disk(q)


def _as_rational_matrix(matrix):
    try:
        rows = [list(r) for r in matrix]
    except TypeError:
        return None
    out = []
    for row in rows:
        line = []
        for x in row:
            if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
                line.append(Fraction(x))
            else:
                return None
        out.append(tuple(line))
    n = len(out)
    if n == 0 or any(len(r) != n for r in out):
        raise ValueError("matrix must be square and nonempty")
    return tuple(out)


def identity(n: int) -> Mat:
    return tuple(tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n))


def mat_add(a: Mat, b: Mat) -> Mat:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(a: Mat, s: Fraction) -> Mat:
    return tuple(tuple(x * s for x in row) for row in a)


def mat_mul(a: Mat, b: Mat) -> Mat:
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in bt) for row in a
    )


def trace(a: Mat) -> Fraction:
    return sum((a[i][i] for i in range(len(a))), Fraction(0))


def char_poly(a: Mat) -> tuple[Fraction, ...]:
    """Characteristic polynomial det(xI - A), constant term first (monic).

    Faddeev-LeVerrier recursion; exact over the rationals.
    """
    n = len(a)
    if any(len(r) != n for r in a):
        raise ValueError("matrix must be square")
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    m = identity(n)
    for k in range(1, n + 1):
        m = mat_mul(a, m)
        c = -trace(m) / k
        coeffs[n - k] = c
        m = mat_add(m, mat_scale(identity(n), c))
    return tuple(coeffs)


def all_roots_in_open_unit_disk(p: Poly) -> bool:
    """Exact Schur-Cohn test: every complex root of p has modulus < 1.

    Recursion: with p = a_0 + ... + a_n z^n and reversed polynomial p*, p is
    Schur stable iff |a_0| < |a_n| and (a_n p - a_0 p*)/z is Schur stable.
    Degree-0 nonzero polynomials are vacuously stable.
    """
    p = trim(p)
    if not p:
        raise ValueError("zero polynomial")
    while len(p) > 1:
        a0, an = p[0], p[-1]
        if abs(a0) >= abs(an):
            return False
        reduced = [an * c - a0 * cr for c, cr in zip(p, reversed(p))]
        assert reduced[0] == 0
        p = trim(reduced[1:])
        if not p:
            # cannot happen under |a0| < |an|: the leading coefficient
            # a_n^2 - a_0^2 of the reduction is nonzero
            raise AssertionError("degenerate Schur-Cohn reduction")
    return True


# -- small oracles ---------------------------------------------------------------------


def count_roots_closed(p: LaurentPoly, a: Fraction, b: Fraction) -> int:
    """Distinct real roots of the polynomial p in the closed interval [a, b]."""
    s = realroots.square_free(p)
    if not s:
        raise ValueError("zero polynomial has infinitely many roots")
    if max(s.coeffs) == 0:
        return 0
    chain = realroots.sturm_chain(s)
    n = realroots.count_roots_half_open(chain, a, b)
    if s.eval_rational(a) == 0:
        n += 1
    return n


def refine_vector(family: tuple[PiecewisePoly, ...], masks: MaskSequence) -> tuple[PiecewisePoly, ...]:
    """Assemble sum_k M_k F(2x - k) componentwise (exact piecewise identity input)."""
    n = len(family)
    if masks.rows != n or masks.cols != n:
        raise ValueError("mask shape does not match the family")
    fine = {}
    out = [PiecewisePoly.zero() for _ in range(n)]
    for k, mat in masks.items():
        for j in range(n):
            if any(mat[i][j] for i in range(n)):
                fine[(j, k)] = family[j].compose_linear(2, -Fraction(k))
        for i in range(n):
            for j in range(n):
                c = mat[i][j]
                if c:
                    out[i] = out[i] + fine[(j, k)] * c
    return tuple(out)


def dual_modulation(bundle: ModulationBundle) -> LaurentMatrix:
    """Xt(z) assembled from the dual symbols (so that conj(Xt)^T = X^{-1})."""
    st, wt = bundle.dual_scaling_symbol, bundle.dual_detail_symbol
    return LaurentMatrix.block(
        [[st, st.substitute_neg()], [wt, wt.substitute_neg()]]
    )


def eval_rational(matrix: LaurentMatrix, x: Fraction | int) -> Mat:
    """Entrywise exact evaluation of a Laurent matrix at a nonzero rational point."""
    return tuple(tuple(e.eval_rational(x) for e in row) for row in matrix.entries)


# -- Fourier-domain values point by point ----------------------------------------------


def symbol_at(matrix: LaurentMatrix, z: complex) -> np.ndarray:
    """Float value of a Laurent matrix at one complex point, entry by entry."""
    return np.array([[e(z) for e in row] for row in matrix.entries], dtype=complex)


def dual_quark_ft_loop(m: int, mt: int, p: int, levels: int, grid, tail: str = "first-order") -> dict:
    """(i xi)^p prod_{j=1}^{levels} 2^{-p} St(exp(-i xi / 2^j)) on the tail, one point at a time.

    The levels multiply as matrices, outermost first, before the tail vector
    is applied: v - i (xi / 2^levels) w for ``tail="first-order"``, as in
    ``dual_quark_ft``, or v alone for ``tail="none"``, the raw product.
    """
    symbol = build_modulation(m, mt, p).dual_scaling_symbol
    v = np.array([float(x) for x in dual_eigenvector(m, mt, p)], dtype=complex)
    w = np.array([float(x) for x in dual_tail_slope(m, mt, p)], dtype=complex)
    out = {}
    for t in grid:
        xi = 2 * math.pi * float(t)
        acc = np.eye(p + 1, dtype=complex)
        for j in range(1, levels + 1):
            acc = acc @ (2.0**-p * symbol_at(symbol, np.exp(-1j * xi / 2**j)))
        tail_vec = v - 1j * (xi / 2**levels) * w if tail == "first-order" else v
        out[Fraction(t)] = (1j * xi) ** p * (acc @ tail_vec)
    return out


def quark_ft_mpmath(f: PiecewisePoly, xi: float, dps: int = 30) -> complex:
    """(2 pi)^{-1/2} integral f(x) exp(-i x xi) dx by mpmath quadrature on each piece."""
    with mp.workdps(dps):
        x = mp.mpf(xi)
        total = mp.mpc(0)
        for i, piece in enumerate(f.pieces):
            a, b = (mp.mpf(e.numerator) / e.denominator for e in f.breakpoints[i : i + 2])
            coeffs = [mp.mpf(piece[k].numerator) / piece[k].denominator
                      for k in range(max(piece.coeffs, default=-1), -1, -1)]
            total += mp.quad(lambda s: mp.polyval(coeffs, s) * mp.expj(-s * x), [a, b])
        return complex(total / mp.sqrt(2 * mp.pi))


# -- the exact stability decision, the way it was first written ------------------------


def compose_linear_horner(f: PiecewisePoly, a, b) -> PiecewisePoly:
    """x -> f(a*x + b), each piece by Horner's rule in the polynomial a*x + b."""
    a, b = Fraction(a), Fraction(b)
    lin = LaurentPoly({0: b, 1: a})
    pieces = []
    for p in f.pieces:
        out = LaurentPoly.zero()
        for k in range(max(p.coeffs, default=-1), -1, -1):
            out = out * lin + p[k]
        pieces.append(out)
    return PiecewisePoly([(bp - b) / a for bp in f.breakpoints], pieces)


def shift_gram_symbol_by_translates(f: PiecewisePoly, g: PiecewisePoly) -> LaurentPoly:
    """sum_n <f, g(. - n)> z^n, one translate of g and one product integral per n."""
    if f.is_zero() or g.is_zero():
        return LaurentPoly.zero()
    (fa, fb), (ga, gb) = f.support(), g.support()
    return LaurentPoly({
        n: inner_product(f, compose_linear_horner(g, 1, -n))
        for n in range(math.floor(fa - gb), math.ceil(fb - ga) + 1)
    })


def cofactor_determinant(mat) -> LaurentPoly:
    """Determinant by cofactor expansion along the first row."""
    n = len(mat)
    if n == 1:
        return mat[0][0]
    total = LaurentPoly.zero()
    for j in range(n):
        if mat[0][j].is_zero():
            continue
        minor = [[mat[i][k] for k in range(n) if k != j] for i in range(1, n)]
        term = mat[0][j] * cofactor_determinant(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


def ft_zero_scan_fixed_steps(m: int, q: int, lo: float, hi: float, samples: int = 4000) -> list[float]:
    """``ft_zero_scan`` with every one of its 100 ternary steps run."""
    xs = np.linspace(lo, hi, samples)
    vals = np.abs(quark_ft(m, q, xs)) ** 2
    tol = _ZERO_RTOL * (1.0 + math.sqrt(float(vals.max())))
    inner = np.flatnonzero((vals[1:-1] <= vals[:-2]) & (vals[1:-1] <= vals[2:])) + 1
    a, b = xs[inner - 1], xs[inner + 1]
    for _ in range(100):
        m1 = a + (b - a) / 3
        m2 = b - (b - a) / 3
        h = np.abs(quark_ft(m, q, np.concatenate([m1, m2]))) ** 2
        left = h[: inner.size] <= h[inner.size :]
        a, b = np.where(left, a, m1), np.where(left, m2, b)
    x = (a + b) / 2
    deduped: list[float] = []
    for z in sorted(x[np.abs(quark_ft(m, q, x)) < tol].tolist()):
        if not deduped or z - deduped[-1] > (hi - lo) / samples:
            deduped.append(z)
    return deduped
