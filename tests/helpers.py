"""Test-only reference code: the Laurent matrix product summed coefficient by
coefficient over Fractions (reference for the integer-core kernel of
``LaurentMatrix.__matmul__``), forward substitution on a lower-triangular
Laurent matrix (reference for ``pascal_inverse`` and the bundle's T^{-1} and
S(1)^{-1}), an independent B-spline closed form, the CDF
dual mask found by scanning monomial shifts (reference for the closed-form
shift of ``cdf_masks``), the quark refinement masks as Fraction chains
(reference for the closed form of ``refinement_symbol``), a deliberately
broken modulation bundle (negative control), X^{-1} multiplied out block by
block and P^{-1} = E^{-1} X^{-1} as a matrix product with the exact
parity-exchange inverse, next to E itself (references for the z -> -z
read-offs of ``build_modulation`` and ``polyphase_inv``), the exponent
scan that read the splitting filters off E^{-1} X^{-1} (reference for the
bundle's ``coarse`` and ``detail``), the per-translate transform loops (reference
for the polyphase transform), the Fraction path of the frame transforms
and of the frame JSON reader and writer, one Fraction per coefficient
(references for the integer frames of ``transform`` and ``serialize``), the
block determinant T and its inverse expanded from the bundle's h and k
(``block_det``, ``block_det_inv``), dense polynomial long division and Horner
evaluation on Fraction tuples (references for ``LaurentPoly.__divmod__`` and
``eval_rational``), every ``LaurentPoly`` operation on plain Fraction dicts
(the differential oracle for the integer-numerator form), Condition E for general rational matrices by
characteristic polynomial and Schur-Cohn test (reference for the diagonal
read-off of ``condition_e``), the truncated dual product point by point
(reference for the refinement cascade; its raw form, without the first-order
tail, is the only raw product left and backs the truncation-floor tests), the
quark Fourier transform and its derivatives by mpmath quadrature and by the fixed-depth cascade
of 20 levels onto a degree-3 Taylor tail (references for ``quark_ft``, its
adaptive depth and the derivatives that ``duals._quark_jets`` reads off the next quarks),
the Hann-windowed FFT profile of sampled transform values and its L2 mass
outside an interval (the oracle for the support of the generalized duals),
the Sturm-chain root isolation on the same dyadic bisection and the
positivity decision built on it with no endpoint shortcut (references for the
Descartes bisection of ``isolate_roots`` and for ``is_positive_on_circle``),
the Chebyshev polynomials T_n one at a time and the cosine polynomial as the
sum of 2 c_n T_n (references for the one-pass ``to_cosine_polynomial``),
and small oracles that no library code needs: the z^k coefficient matrix of a
Laurent matrix, the float value of a Laurent polynomial, closed-interval root
counts, the two-scale refinement of a quark vector, the dual modulation matrix and
exact evaluation of a Laurent matrix (the bundle read-off of St(1), reference
for ``dual_symbol_at_one``), Horner's rule in a*x + b on whole Laurent
products (reference for the Taylor shift of ``compose_linear``), the shift
Gram symbol of two functions on their local pieces (``shift_gram_symbol``) and
by translating g and integrating f * g(. - n) for every n (its reference), the cofactor
expansion of a determinant (reference for the Bareiss ``trig_determinant``),
the Fourier zero scan that zooms on every grid minimum for all 60 rounds
(reference for the zeros of the Newton refinement in ``ft_zero_scan``), the symbol of a mask built tap by tap and
P assembled from the masks' even/odd sub-symbols (references for the
``entries`` view of ``MaskSequence`` and the parity read-off of
``synthesis_matrix``), the Laurent identity and zero matrices, and the
Laurent matrix sum_k M_k z^k of dense taps (the inverse of
``LaurentMatrix.taps``), the mask JSON rendered off dense ``Fraction`` taps
(the byte oracle for the integer renderer of ``serialize.mask_json``); plus
``with_views``, a bundle copy with some of its read-on-first-use views
preset (negative controls); and the frame-level code that only tests reach:
``frame_function``, the function a frame represents (the oracle for the
V + W splitting), and the orthogonal projection onto the m = 1 detail space
with the re-basing of quarklet frames onto the orthogonalized quarklets."""

import math
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np
from mpmath import mp

from quarklets import realroots, serialize
from quarklets.cdf import CdfPair, scalar_pr_defect
from quarklets.duals import _ZERO_RTOL, cascade, dual_tail_slope, float_taps, quark_ft
from quarklets.laurent import LaurentMatrix, LaurentPoly, _dot, _int_cores, pascal_matrix
from quarklets.masks import MaskSequence, Mat
from quarklets.modulation import ModulationBundle, build_modulation
from quarklets.piecewise import PiecewisePoly, inner_product
from quarklets.splines import quark, refinement_masks
from quarklets.stability import dual_eigenvector
from quarklets.transform import CoefficientFrame, OrthoQuarklets
from quarklets.trig import CirclePositivity, _float_minimum, _gram_from_pieces, _local_pieces, _require_even

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
    passes the scalar PR identity; the wavelet symbols are the alternating flips
    b_k = (-1)^k at_{1-k} and bt_k = (-1)^k a_{1-k}, coefficient by coefficient.
    """
    a = mask_to_symbol(refinement_masks_by_formula(m, 0))[0, 0]
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

    def flip(symbol: LaurentPoly) -> LaurentPoly:
        return LaurentPoly({1 - k: (-1) ** ((1 - k) % 2) * c for k, c in symbol.items()})

    return CdfPair(m, mt, a, at, flip(at), flip(a))


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


def invert_lower_triangular(matrix: LaurentMatrix) -> LaurentMatrix:
    """Exact inverse of a lower-triangular matrix with monomial diagonal, by forward substitution.

    inv[i][j] = -d_i^{-1} sum_{j <= k < i} T[i][k] inv[k][j] with d_i = T[i][i], on
    plain ``LaurentPoly`` products (reference for ``laurent.pascal_inverse``).
    Monomials c z^d are the only units of the Laurent polynomial ring.
    """
    if matrix.rows != matrix.cols:
        raise ValueError("matrix must be square")
    if not is_lower_triangular(matrix):
        raise ValueError("matrix must be lower triangular")
    n, t = matrix.rows, matrix.entries
    inv = [[LaurentPoly.zero()] * n for _ in range(n)]
    for i in range(n):
        if not t[i][i].is_monomial():
            raise ValueError(f"diagonal entry ({i},{i}) is not a monomial; "
                             "matrix is not invertible over Laurent polynomials")
        d_inv = t[i][i] ** -1
        inv[i][i] = d_inv
        for j in range(i):
            inv[i][j] = -d_inv * sum((t[i][k] * inv[k][j] for k in range(j, i)), LaurentPoly.zero())
    return LaurentMatrix(inv)


def is_lower_triangular(matrix: LaurentMatrix) -> bool:
    return all(matrix[i, j].is_zero() for i in range(matrix.rows) for j in range(i + 1, matrix.cols))


def coefficient_matrix(matrix: LaurentMatrix, k: int) -> Mat:
    """The rational matrix of z^k coefficients."""
    return tuple(tuple(e[k] for e in row) for row in matrix.entries)


def poly_value(poly: LaurentPoly, z: complex) -> complex:
    """Float value sum_k c_k z^k of a Laurent polynomial at one point."""
    return sum(n / poly.den * z**k for k, n in poly.nums.items())


def refinement_masks_by_formula(m: int, p: int) -> MaskSequence:
    """The masks A_k entry by entry as Fraction chains (reference for ``refinement_symbol``).

    With 1-based indices q, l in {1, .., p+1} and a_k = 2^{1-m} C(m, k + floor(m/2)),

        (A_k)_{q,l} = 2^{1-q} ceil(m/2)^{l-q} a_k C(q-1, l-1) k^{q-l},

    which is lower triangular since C(q-1, l-1) vanishes for l > q.
    """
    half, half_up = m // 2, (m + 1) // 2
    out = {}
    for k in range(-half, m - half + 1):
        ak = Fraction(math.comb(m, k + half), 2 ** (m - 1))
        out[k] = tuple(
            tuple(
                Fraction(1, 2 ** (q - 1)) * Fraction(half_up) ** (l - q) * ak
                * math.comb(q - 1, l - 1) * Fraction(k) ** (q - l) if l <= q else Fraction(0)
                for l in range(1, p + 2)
            )
            for q in range(1, p + 2)
        )
    return MaskSequence(p + 1, p + 1, out)


def laurent_identity(n: int) -> LaurentMatrix:
    """The n x n identity as a Laurent matrix."""
    one, zero = LaurentPoly.one(), LaurentPoly.zero()
    return LaurentMatrix([[one if i == j else zero for j in range(n)] for i in range(n)])


def laurent_zero(rows: int, cols: int) -> LaurentMatrix:
    """The rows x cols zero Laurent matrix."""
    return LaurentMatrix([[LaurentPoly.zero()] * cols for _ in range(rows)])


def laurent_from_taps(rows: int, cols: int, taps) -> LaurentMatrix:
    """The matrix sum_k taps[k] z^k of dense rows x cols taps; zero coefficients are dropped."""
    return LaurentMatrix(
        [[LaurentPoly({k: tap[i][j] for k, tap in taps.items()}) for j in range(cols)] for i in range(rows)]
    )


def mask_to_symbol(masks: MaskSequence) -> LaurentMatrix:
    """The symbol (1/2) sum_k M_k z^k of a mask, built off its ``entries`` tap by tap (reference for that view)."""
    return laurent_from_taps(masks.rows, masks.cols, masks.entries) * Fraction(1, 2)


def mask_json_by_taps(mask: MaskSequence) -> dict:
    """The JSON form of a mask off the dense Fraction taps of factor * symbol (oracle for ``serialize.mask_json``)."""
    taps = (mask.symbol * mask.factor).taps()
    if mask.rows == 1 and mask.cols == 1:
        return {"kind": "scalar", "taps": [[k, serialize.rational_json(taps[k][0][0])] for k in sorted(taps)]}
    return {"kind": "matrix", "rows": mask.rows, "cols": mask.cols,
            "taps": [[k, serialize.matrix_json(taps[k])] for k in sorted(taps)]}


def sub_symbols(bundle: ModulationBundle, parity: int) -> tuple[LaurentMatrix, LaurentMatrix]:
    """Even/odd sub-symbols sum_k M_{2k+parity} z^{2k} of the scaling and detail masks."""
    if parity not in (0, 1):
        raise ValueError("parity must be 0 or 1")
    return _sub_symbol(bundle.scaling_masks, parity), _sub_symbol(bundle.detail_masks, parity)


def _sub_symbol(masks: MaskSequence, parity: int) -> LaurentMatrix:
    picked = {k - parity: m for k, m in masks.entries.items() if (k - parity) % 2 == 0}
    return laurent_from_taps(masks.rows, masks.cols, picked)


def polyphase_by_masks(bundle: ModulationBundle) -> LaurentMatrix:
    """P(z) = [[S_0, S_1], [W_0, W_1]] assembled from the masks' sub-symbols (reference for ``synthesis_matrix``)."""
    (s0, w0), (s1, w1) = sub_symbols(bundle, 0), sub_symbols(bundle, 1)
    return LaurentMatrix.block([[s0, s1], [w0, w1]])


def parity_exchange_matrix(n: int) -> LaurentMatrix:
    """The block matrix E = [[Id, z^{-1} Id], [Id, -z^{-1} Id]] of size 2n, with P = X E."""
    z_inv = LaurentPoly.monomial(Fraction(1), -1)
    return LaurentMatrix.block(
        [
            [laurent_identity(n), LaurentMatrix.scalar(z_inv, n)],
            [laurent_identity(n), LaurentMatrix.scalar(-z_inv, n)],
        ]
    )


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


def block_det(bundle: ModulationBundle) -> LaurentMatrix:
    """The block determinant T(z) = D M_h, D = diag(2^{-q}), expanded from the bundle's h."""
    return pascal_matrix(bundle.h, row=Fraction(1, 2))


def block_det_inv(bundle: ModulationBundle) -> LaurentMatrix:
    """T(z)^{-1} = M_k D^{-1}, expanded from the bundle's k."""
    return pascal_matrix(bundle.k, col=2)


def modulation_inv_by_blocks(bundle: ModulationBundle) -> LaurentMatrix:
    """X(z)^{-1} = [[b(-z) T^{-1}, -T^{-1} S(-z)], [-b(z) T^{-1}, T^{-1} S(z)]], each block multiplied out."""
    tinv, s = block_det_inv(bundle), bundle.scaling_symbol
    b = bundle.filters.wavelet_symbol
    return LaurentMatrix.block(
        [
            [tinv * b.substitute_neg(), -(tinv @ s.substitute_neg())],
            [-(tinv * b), tinv @ s],
        ]
    )


def polyphase_inv_by_product(bundle: ModulationBundle) -> LaurentMatrix:
    """P(z)^{-1} = E(z)^{-1} X(z)^{-1} as one matrix product."""
    return parity_exchange_inverse(bundle.size) @ bundle.modulation_inv


def with_views(bundle: ModulationBundle, **views) -> ModulationBundle:
    """A fresh copy of the bundle whose named read-on-first-use views are preset to the given values.

    ``replace`` cannot set a view; a ``cached_property`` reads its value from the instance ``__dict__``.
    """
    bad = replace(bundle)
    bad.__dict__.update(views)
    return bad


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
    return with_views(bundle, detail_symbol=bad_sym, modulation=bad_x)


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
                mat = coefficient_matrix(part, e)
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
    frame: CoefficientFrame, filters: ModulationBundle
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


def fraction_row_taps_product(taps: Mapping[int, Sequence[Fraction]], matrix: LaurentMatrix) -> dict:
    """The taps of r @ M, r = sum_k taps[k] z^k a one-row matrix of Fractions, on the integer cores of
    M's columns, one Fraction per nonzero output coefficient (the Fraction path of the transforms)."""
    columns = [_int_cores(col) for col in zip(*matrix.entries)]
    den = math.lcm(*(c.denominator for tap in taps.values() for c in tap))
    row: list[dict[int, int]] = [{} for _ in columns[0][0]]
    for k, tap in taps.items():
        for j, c in enumerate(tap):
            if c:
                row[j][k] = c.numerator * (den // c.denominator)
    zero, width = Fraction(0), len(columns)
    out: dict[int, list[Fraction]] = {}
    for j, (col, col_den) in enumerate(columns):
        scale = den * col_den
        for k, n in _dot(row, col).items():
            if n:
                tap = out.get(k)
                if tap is None:
                    tap = out[k] = [zero] * width
                tap[j] = Fraction(n, scale)
    return out


def fraction_reconstruct(
    scaling: CoefficientFrame, detail: CoefficientFrame, bundle: ModulationBundle
) -> CoefficientFrame:
    """[s^T, d^T](z^2) P(z) on Fraction taps (reference for the integer-frame ``reconstruct``)."""
    if scaling.level != detail.level:
        raise ValueError("frames must live on the same level")
    width = bundle.size
    if scaling.width != width or detail.width != width:
        raise ValueError("frame width does not match the bundle degree")
    translates = sorted(scaling.coefficients.keys() | detail.coefficients.keys())
    pairs = {2 * l: scaling[l] + detail[l] for l in translates}
    out = fraction_row_taps_product(pairs, bundle.synthesis_matrix)
    coeffs = {e + r: tap[r * width : (r + 1) * width] for e, tap in out.items() for r in (0, 1)}
    return CoefficientFrame(scaling.level + 1, width, coeffs)


def fraction_decompose(
    frame: CoefficientFrame, filters: ModulationBundle
) -> tuple[CoefficientFrame, CoefficientFrame]:
    """[c_0^T, c_1^T](z^2) P(z)^{-1} on Fraction taps (reference for the integer-frame ``decompose``)."""
    width = filters.p + 1
    if frame.width != width:
        raise ValueError("frame width does not match the filter degree")
    pairs = {e: frame[e] + frame[e + 1] for e in sorted({n - n % 2 for n in frame.coefficients})}
    out = fraction_row_taps_product(pairs, filters.polyphase_inv)
    level = frame.level - 1
    return tuple(
        CoefficientFrame(level, width, {e // 2: tap[c : c + width] for e, tap in out.items()})
        for c in (0, width)
    )


def frame_json_by_fractions(frame: CoefficientFrame) -> dict:
    """The frame JSON rendered off the Fraction view (byte oracle for ``serialize.frame_json``)."""
    return {
        "level": frame.level,
        "width": frame.width,
        "coefficients": [[k, [serialize.rational_json(c) for c in vec]] for k, vec in frame.items()],
    }


def rational_from_json(obj) -> Fraction:
    """The rational of a pair that the strict pair check of ``serialize`` accepts."""
    return Fraction(*serialize._pair(obj))


def frame_from_json_by_fractions(obj) -> CoefficientFrame:
    """The strict frame reader through one Fraction per pair and the public constructor, with its
    own copy of every check (reference for ``serialize.frame_from_json``)."""
    def json_int(x):
        if type(x) is not int:
            raise ValueError(f"malformed input: {x!r} is not an int")
        return x

    def rational(x):
        pair = isinstance(x, list) and len(x) == 2 and all(type(n) is int for n in x)
        if not pair or not x[1]:
            raise ValueError(f"malformed input: {x!r} is not an [int, int] pair, denominator nonzero")
        return Fraction(*x)

    if not isinstance(obj, dict):
        raise ValueError("malformed input: a frame is a JSON object")
    level, width = json_int(obj["level"]), json_int(obj["width"])
    if width < 1:
        raise ValueError(f"frame width must be at least 1, got {width}")
    entries = obj["coefficients"]
    seen = set()
    for e in entries if isinstance(entries, list) else [entries]:
        if not (isinstance(e, list) and len(e) == 2 and type(e[0]) is int and isinstance(e[1], list)):
            raise ValueError(f"malformed input: {e!r} is not an [int, list] entry")
        if e[0] in seen:
            raise ValueError(f"malformed input: index {e[0]} is repeated")
        seen.add(e[0])
    return CoefficientFrame(level, width, {k: tuple(rational(c) for c in vec) for k, vec in entries})


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


# -- Laurent polynomials as plain Fraction dicts ------------------------------------
#
# The oracle for the integer-numerator ``LaurentPoly``: {exponent: Fraction} with no
# zero values, every operation summed coefficient by coefficient in Fractions.


def fpoly_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, Fraction(0)) + c
    return {k: c for k, c in out.items() if c}


def fpoly_neg(a: dict) -> dict:
    return {k: -c for k, c in a.items()}


def fpoly_mul(a: dict, b: dict) -> dict:
    out: dict[int, Fraction] = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            out[ka + kb] = out.get(ka + kb, Fraction(0)) + ca * cb
    return {k: c for k, c in out.items() if c}


def fpoly_scale(a: dict, c: Fraction) -> dict:
    return {k: v * c for k, v in a.items() if c}


def fpoly_substitute_neg(a: dict) -> dict:
    return {k: -c if k % 2 else c for k, c in a.items()}


def fpoly_conj(a: dict) -> dict:
    return {-k: c for k, c in a.items()}


def fpoly_derivative(a: dict) -> dict:
    return {k - 1: k * c for k, c in a.items() if k}


def fpoly_eval(a: dict, x: Fraction) -> Fraction:
    return sum((c * x**k for k, c in a.items()), Fraction(0))


def fpoly_divmod(a: dict, b: dict) -> tuple[dict, dict]:
    """Polynomial division of polynomials (no negative exponents) by :func:`divmod_poly`."""
    q, r = divmod_poly(*(tuple(p.get(k, Fraction(0)) for k in range(max(p, default=-1) + 1)) for p in (a, b)))
    return ({k: c for k, c in enumerate(q) if c}, {k: c for k, c in enumerate(r) if c})


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


def sturm_chain(p: LaurentPoly) -> list[LaurentPoly]:
    chain = [p, p.derivative()]
    while chain[-1]:
        r = divmod(chain[-2], chain[-1])[1]
        if not r:
            break
        chain.append(-r)
    return [c for c in chain if c]


def _variations(chain: list[LaurentPoly], x: Fraction) -> int:
    signs = []
    for p in chain:
        v = p.eval_rational(x)
        if v:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots_half_open(chain: list[LaurentPoly], a: Fraction, b: Fraction) -> int:
    """Distinct real roots in (a, b] of the square-free polynomial behind `chain`."""
    return _variations(chain, a) - _variations(chain, b)


def count_roots_closed(p: LaurentPoly, a: Fraction, b: Fraction) -> int:
    """Distinct real roots of the polynomial p in the closed interval [a, b]."""
    s = realroots.square_free(p)
    if not s:
        raise ValueError("zero polynomial has infinitely many roots")
    if max(s.coeffs) == 0:
        return 0
    n = count_roots_half_open(sturm_chain(s), a, b)
    if s.eval_rational(a) == 0:
        n += 1
    return n


def isolate_roots_by_sturm(p: LaurentPoly, a: Fraction, b: Fraction) -> list[Fraction]:
    """``realroots.isolate_roots`` by Sturm-chain counts on the same dyadic bisection."""
    s = realroots.square_free(p)
    if not s:
        raise ValueError("zero polynomial has infinitely many roots")
    if max(s.coeffs) == 0:
        return []
    chain = sturm_chain(s)
    roots: list[Fraction] = []
    if s.eval_rational(a) == 0:
        roots.append(a)

    def refine(lo: Fraction, hi: Fraction) -> Fraction:
        # exactly one root in (lo, hi]
        while hi - lo > realroots._ROOT_TOL:
            mid = (lo + hi) / 2
            if count_roots_half_open(chain, lo, mid) == 1:
                hi = mid
            else:
                lo = mid
        return hi

    def split(lo: Fraction, hi: Fraction, n: int):
        if n == 0:
            return
        if n == 1:
            roots.append(refine(lo, hi))
            return
        mid = (lo + hi) / 2
        left = count_roots_half_open(chain, lo, mid)
        split(lo, mid, left)
        split(mid, hi, n - left)

    split(a, b, count_roots_half_open(chain, a, b))
    return sorted(roots)


def chebyshev_t(n: int) -> LaurentPoly:
    """The Chebyshev polynomial T_n, by T_{k+1} = 2x T_k - T_{k-1}."""
    prev, cur = LaurentPoly.one(), LaurentPoly.monomial(Fraction(1), 1)
    for _ in range(n):
        prev, cur = cur, LaurentPoly.monomial(Fraction(2), 1) * cur - prev
    return prev


def cosine_polynomial_by_chebyshev(theta: LaurentPoly) -> LaurentPoly:
    """``to_cosine_polynomial`` as c_0 + sum_n 2 c_n T_n, each T_n built from scratch."""
    _require_even(theta)
    terms = (2 * c * chebyshev_t(n) for n, c in theta.coeffs.items() if n > 0)
    return sum(terms, LaurentPoly.monomial(theta[0]))


def is_positive_on_circle_by_sturm(theta: LaurentPoly) -> CirclePositivity:
    """``is_positive_on_circle`` with no endpoint shortcut, the cosine polynomial from
    :func:`cosine_polynomial_by_chebyshev` and Sturm-chain root isolation."""
    if theta.is_zero():
        return CirclePositivity(False, 0.0, 0.0, "identically zero")
    q = cosine_polynomial_by_chebyshev(theta)
    roots = isolate_roots_by_sturm(q, Fraction(-1), Fraction(1))
    if roots:
        t = math.acos(max(-1.0, min(1.0, float(max(roots)))))
        return CirclePositivity(False, t, 0.0, f"zero on the unit circle near t = {t:.6g}")
    mid = q.eval_rational(0)
    if mid < 0:
        return CirclePositivity(False, math.pi / 2, float(mid), "negative on the whole circle")
    loc, val = _float_minimum(q)
    return CirclePositivity(True, loc, val, f"positive minimum {val:.6g} at t = {loc:.6g}")


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
    return np.array([[poly_value(e, z) for e in row] for row in matrix.entries], dtype=complex)


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


def quark_ft_mpmath(f: PiecewisePoly, xi: float, dps: int = 30, derivative: int = 0) -> complex:
    """(2 pi)^{-1/2} integral f(x) (-i x)^j exp(-i x xi) dx by mpmath quadrature on each piece.

    With j = ``derivative`` this is the j-th derivative in xi of the transform of f.
    """
    with mp.workdps(dps):
        x = mp.mpf(xi)
        total = mp.mpc(0)
        for i, piece in enumerate(f.pieces):
            a, b = (mp.mpf(e.numerator) / e.denominator for e in f.breakpoints[i : i + 2])
            coeffs = [mp.mpf(piece[k].numerator) / piece[k].denominator
                      for k in range(max(piece.coeffs, default=-1), -1, -1)]
            total += mp.quad(lambda s: mp.polyval(coeffs, s) * (-1j * s) ** derivative * mp.expj(-s * x),
                             [a, b])
        return complex(total / mp.sqrt(2 * mp.pi))


@lru_cache(maxsize=None)
def _fixed_depth_data(m: int, q: int) -> tuple[tuple[int, np.ndarray], np.ndarray]:
    taps = float_taps(mask_to_symbol(refinement_masks(m, q)))
    moments = np.array([[float(quark(m, l).moment(t)) for l in range(q + 1)] for t in range(4)])
    factors = [(-1j) ** t / math.factorial(t) / math.sqrt(2 * math.pi) for t in range(4)]
    return taps, np.array(factors)[:, None] * moments


def quark_ft_fixed_depth(m: int, q: int, xi):
    """``quark_ft`` by 20 cascade levels onto its degree-3 Taylor tail at xi / 2^20, whatever xi."""
    taps, tail = _fixed_depth_data(m, q)
    xi = np.asarray(xi, dtype=float)
    flat = xi.reshape(-1)
    powers = np.power.outer(flat / 2**20, np.arange(4))
    values = cascade(taps, 1.0, flat, 20, powers @ tail)[:, q].reshape(xi.shape)
    return complex(values) if xi.ndim == 0 else values


def time_profile(values: np.ndarray, xi_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Approximate time-domain profile from uniform frequency samples.

    ``values[k]`` are F f at xi_k = -xi_max + k * dxi (N samples, dxi =
    2 xi_max / N) under the convention F f(0) = integral f.  A Hann window
    confines truncation leakage near the support edges, which is what the
    support diagnostics need.  Returns (x, f(x)) with x the FFT-dual grid.
    """
    values = np.asarray(values, dtype=complex)
    n = values.size
    dxi = 2 * xi_max / n
    # the Hann mean is 1/2, so doubling keeps unit mass at the origin
    spectrum = values * np.hanning(n) * 2.0
    # f(x_m) = (dxi / 2 pi) sum_k F(xi_k) e^{i xi_k x_m}, x_m = 2 pi m / (n dxi)
    shifted = np.fft.ifft(spectrum) * n * dxi / (2 * math.pi)
    x = np.fft.fftfreq(n, d=dxi / (2 * math.pi))
    phase = np.exp(-1j * xi_max * x)
    f = shifted * phase
    order = np.argsort(x)
    return x[order], f[order]


def mass_outside(x: np.ndarray, f: np.ndarray, lo: float, hi: float) -> float:
    """Fraction of the L2 mass of the profile lying outside [lo, hi]."""
    density = np.abs(f) ** 2
    total = float(np.trapezoid(density, x))
    inside = (x >= lo) & (x <= hi)
    kept = float(np.trapezoid(np.where(inside, density, 0.0), x))
    if total == 0:
        return 0.0
    return (total - kept) / total


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


def shift_gram_symbol(f: PiecewisePoly, g: PiecewisePoly) -> LaurentPoly:
    """Laurent polynomial with n-th coefficient <f, g(. - n)>, exact, on the local pieces of f and g."""
    return _gram_from_pieces(_local_pieces(f), _local_pieces(g))


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


def ft_zero_scan_full_zoom(m: int, q: int, lo: float, hi: float, samples: int = 4000) -> list[float]:
    """The zero scan with every grid minimum zoomed for all 60 rounds, none refined by Newton."""
    xs = np.linspace(lo, hi, samples)
    vals = np.abs(quark_ft(m, q, xs)) ** 2
    tol = _ZERO_RTOL * (1.0 + math.sqrt(float(vals.max())))
    inner = np.flatnonzero((vals[1:-1] <= vals[:-2]) & (vals[1:-1] <= vals[2:])) + 1
    x, w = xs[inner], (hi - lo) / (samples - 1)
    for _ in range(60):
        cand = x[:, None] + w * np.arange(-3, 4) / 4
        h = np.abs(quark_ft(m, q, cand)) ** 2
        x = cand[np.arange(x.size), np.argmin(h, axis=1)]
        w /= 4
    deduped: list[float] = []
    for z in sorted(x[np.abs(quark_ft(m, q, x)) < tol].tolist()):
        if not deduped or z - deduped[-1] > (hi - lo) / samples:
            deduped.append(z)
    return deduped


def frame_function(frame: CoefficientFrame, members: Sequence[PiecewisePoly]) -> PiecewisePoly:
    """The piecewise polynomial sum_k sum_q c_k[q] f_q(2^level x - k) (function-level oracle for the transform)."""
    scale = Fraction(2) ** frame.level
    terms = (members[q].compose_linear(scale, -Fraction(k)) * c
             for k, vec in frame.items() for q, c in enumerate(vec) if c)
    return sum(terms, PiecewisePoly.zero())


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
    return [dict(c.coeffs) for c in (LaurentMatrix([frame.row]) @ LaurentMatrix(ortho.from_plain)).entries[0]]


def from_orthogonal_frames(
    frames: Sequence[Mapping[int, Fraction]], ortho: OrthoQuarklets, level: int = 0
) -> CoefficientFrame:
    """Inverse of :func:`to_orthogonal_frames`."""
    width = ortho.p + 1
    if len(frames) != width:
        raise ValueError("need one scalar frame per degree")
    (row,) = (LaurentMatrix([[LaurentPoly(frame) for frame in frames]]) @ LaurentMatrix(ortho.to_plain)).entries
    return CoefficientFrame(level, width, {k: [c[k] for c in row] for k in set().union(*(c.nums for c in row))})
