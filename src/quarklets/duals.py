"""The package's one numpy module: every float value is computed here.

:func:`cascade` is the float refinement product of a matrix symbol over a
whole array of frequencies, on the taps that :func:`float_taps` reads off an
exact Laurent matrix.  :func:`quark_ft` runs it on the quark refinement symbol
onto a Taylor tail with 20 exact moments (unitary convention F f(xi) =
(2 pi)^{-1/2} integral f(x) exp(-i x xi) dx), and :func:`ft_zero_scan` scans
that transform for zeros.  The depth is the smallest L >= 1 with
2 ceil(m/2) max|xi| <= 2^L over the call's points, where the dropped tail is
at most 2 (2 pi)^{-1/2} 2^-20 / 20!; so one xi evaluated in different calls
agrees to float rounding, not bit for bit.

The dual refinement equation has a compactly supported distributional
solution whose Fourier transform is, up to one global scalar,

    F Phi~(xi) = (i xi)^p  *  prod_{j>=1} 2^{-p} St(exp(-i 2^{-j} xi)) v,

where St is the dual scaling symbol and v the exact rational eigenvector of
2^{-p} St(1) for the eigenvalue 1 (normalized so its last component is 1; all
dual values are defined up to this one scalar).  The eigenvector and the
symbols stay exact; the product has no rational closed form, so
:func:`cascade` evaluates it in complex floats, all grid points at once, and
one more level of Wt or St for quarklets and defects.

Truncating after J levels leaves the tail G(xi / 2^J), where G(xi) is the
infinite product applied to v.  It is replaced by v - i (xi / 2^J) w, its
exact first-order Taylor polynomial (see :func:`dual_tail_slope`), which
leaves an error of order 4^{-J}.  The raw product, with G(0) = v in the tail,
would keep an error of order 2^{-J}: a phase offset of sup|sin(xi/2)| 2^{-J}
for Haar.

Grid points are dyadic multiples of 2 pi, stored as exact Fractions t with
xi = 2 pi t, so halving a grid point is exact bookkeeping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from .laurent import LaurentMatrix
from .modulation import build_modulation
from .splines import quark, refinement_symbol
from .stability import MAX_FT_FREQUENCY, dual_eigenvector, dual_symbol_at_one


# -- the refinement cascade ----------------------------------------------------------


def float_taps(matrix: LaurentMatrix) -> tuple[int, np.ndarray]:
    """(lo, C) for :func:`cascade`: C[k - lo] is the float z^k coefficient matrix (read-only)."""
    lo, hi = matrix.exponent_range()
    coeffs = np.zeros((hi - lo + 1, matrix.rows, matrix.cols))
    for i, row in enumerate(matrix.entries):
        for j, e in enumerate(row):
            for k, n in e.nums.items():
                coeffs[k - lo, i, j] = n / e.den
    coeffs.flags.writeable = False
    return lo, coeffs


# Points per cascade block are chosen so that its work arrays hold about this
# many complex entries (512 KiB), whatever the grid, the depth or the matrix
# size; larger blocks raise peak memory more than they save in numpy calls.
_CASCADE_ENTRIES = 2**15


@lru_cache(maxsize=None)
def _halvings(levels: int, lo: int, n_taps: int) -> np.ndarray:
    """-i k / 2^j for j = 1..levels (rows) and k = lo..lo + n_taps - 1 (columns), read-only."""
    out = -1j * np.multiply.outer(0.5 ** np.arange(1, levels + 1), np.arange(lo, lo + n_taps))
    out.flags.writeable = False
    return out


def cascade(taps, scale: float, xi: np.ndarray, levels: int, start: np.ndarray) -> np.ndarray:
    """prod_{j=1}^{levels} scale M(exp(-i xi / 2^j)) applied to ``start``, for every xi at once.

    ``taps`` is :func:`float_taps` of a square M, ``xi`` a 1-d float array
    and ``start`` a (len(xi) x n) array or one length-n vector.  The levels
    act innermost first (j = levels down to 1), as matrix-vector products.
    """
    lo, coeffs = taps
    n_taps, n = coeffs.shape[:2]
    flat = scale * coeffs.reshape(n_taps, n * n)
    halvings = _halvings(levels, lo, n_taps)
    out = np.empty((len(xi), n), dtype=complex)
    out[:] = start
    block = max(1, _CASCADE_ENTRIES // (levels * (n_taps + n * n)))
    for s in range(0, len(xi), block):
        waves = np.exp(np.multiply.outer(xi[s : s + block], halvings)).reshape(-1, n_taps)
        mats = (waves @ flat).reshape(-1, levels, n, n)  # one matrix product per block, not one per point
        v = out[s : s + block, :, None]
        for j in range(levels - 1, -1, -1):
            v = mats[:, j] @ v
        out[s : s + block] = v[:, :, 0]
    return out


# -- quark Fourier transforms ----------------------------------------------------------

# Exact moments in the Taylor tail behind quark_ft; its docstring bounds the remainder.
_FT_TAIL_TERMS = 20


@lru_cache(maxsize=None)
def _ft_cascade_data(m: int, q: int) -> tuple[tuple[int, np.ndarray], np.ndarray]:
    """Float taps of the symbol of the quarks of degree 0..q, and their Taylor tail.

    Row t of the read-only tail is (2 pi)^{-1/2} (-i)^t / t! times the exact t-th moments.
    The degree-l quark is (x / c)^l times the degree-0 one, c = ceil(m/2), so its
    t-th moment is the (t + l)-th moment of the degree-0 quark over c^l.
    """
    taps = float_taps(refinement_symbol(m, q))
    c = (m + 1) // 2
    base = [quark(m, 0).moment(k) for k in range(_FT_TAIL_TERMS + q)]
    moments = np.array([[float(base[t + l] / c**l) for l in range(q + 1)] for t in range(_FT_TAIL_TERMS)])
    factors = [(-1j) ** t / math.factorial(t) / math.sqrt(2 * math.pi) for t in range(_FT_TAIL_TERMS)]
    tail = np.array(factors)[:, None] * moments
    tail.flags.writeable = False
    return taps, tail


def quark_ft(m: int, q: int, xi):
    """Fourier transform of the degree-q quark at xi, a float or an array (float diagnostic).

    The refinement cascade F Phi(xi) = S(exp(-i xi / 2)) F Phi(xi / 2) of the
    quarks of degree 0..q (symbol S from
    :func:`quarklets.splines.refinement_symbol`), run over L levels onto the
    Taylor tail of F Phi at eta = xi / 2^L with 20 exact moments.  L is the
    smallest depth >= 1 with 2 c max|xi| <= 2^L over the call's points,
    c = ceil(m/2).  The quarks live on |x| <= c with |x / c|^q <= 1, so the
    t-th moment is at most c^t and, at |eta| c <= 1/2, the dropped tail is at
    most 2 (2 pi)^{-1/2} 2^-20 / 20!.  The depth follows the largest point, so
    one xi evaluated in different calls agrees to float rounding, not bit for
    bit.  For m <= 16, q <= 14 and |xi| <= 30 the absolute error is at most
    1e-13 sup|F phi_q|; the relative error grows where the transform decays.
    Raises ValueError for an infinite or NaN xi and for |xi| above
    ``MAX_FT_FREQUENCY`` (2^16), which keeps every call at m <= 16 within 20 levels.
    """
    taps, tail = _ft_cascade_data(m, q)
    xi = np.asarray(xi, dtype=float)
    flat = xi.reshape(-1)
    top = float(np.max(np.abs(flat), initial=0.0))
    if not top <= MAX_FT_FREQUENCY:  # also an inf or NaN point
        raise ValueError(f"quark_ft needs finite frequencies with |xi| at most {MAX_FT_FREQUENCY} (2^16)")
    reach = 2 * ((m + 1) // 2) * top
    frac, exp = math.frexp(reach)  # reach = frac 2^exp with 1/2 <= frac < 1, or 0
    levels = max(1, exp - (frac == 0.5))
    powers = np.vander(np.ldexp(flat, -levels), _FT_TAIL_TERMS, increasing=True)
    values = cascade(taps, 1.0, flat, levels, powers @ tail)[:, q].reshape(xi.shape)
    return complex(values) if xi.ndim == 0 else values


# A minimum of |F| counts as a zero below this fraction of 1 + max |F| on the grid.
_ZERO_RTOL = 1e-7

# Offsets, in units of the current width, of the candidates of one zoom round.
_ZOOM = np.arange(-3, 4) / 4
_ZOOM.flags.writeable = False


def ft_zero_scan(m: int, q: int, lo: float, hi: float, samples: int = 4000) -> list[float]:
    """Approximate real zeros of |F phi_q| on [lo, hi] (float diagnostic).

    Zooms in on the local minima of |F|^2 on a uniform grid of ``samples >= 3``
    points: each round moves every centre x to the argmin of |F|^2 over
    x + w {-3/4, -1/2, ..., 3/4}, all in one call, and divides w (first the
    grid step) by 4, until no candidate differs from its centre or for 60
    rounds (a minimum at 0).  Reports the minima whose value is a numerical
    zero relative to the overall scale of |F| on the interval.  Placement
    degrades with zero multiplicity: for quark(m, 0) on [-20, 20] at 4000
    samples the error at +-2 pi k grows from 0 (m = 1) to 1.4e-2 (m = 6),
    and m >= 7 gives spurious zeros.
    """
    if not (hi > lo) or not math.isfinite(lo) or not math.isfinite(hi):
        raise ValueError("need a finite interval with lo < hi")
    if samples < 3:
        raise ValueError("need at least 3 samples: minima are bracketed by interior grid points")
    xs = np.linspace(lo, hi, samples)
    vals = np.abs(quark_ft(m, q, xs)) ** 2
    scale = math.sqrt(float(vals.max()))
    tol = _ZERO_RTOL * (1.0 + scale)
    inner = np.flatnonzero((vals[1:-1] <= vals[:-2]) & (vals[1:-1] <= vals[2:])) + 1
    x, w = xs[inner], (hi - lo) / (samples - 1)
    for _ in range(60):
        cand = x[:, None] + w * _ZOOM
        if np.all(cand == x[:, None]):
            break  # a fixed point: every centre would stay where it is from now on
        h = np.abs(quark_ft(m, q, cand)) ** 2
        x = cand[np.arange(x.size), np.argmin(h, axis=1)]
        w /= 4
    zeros = x[np.abs(quark_ft(m, q, x)) < tol].tolist()
    deduped: list[float] = []
    step = (hi - lo) / samples
    for z in sorted(zeros):
        if not deduped or z - deduped[-1] > step:
            deduped.append(z)
    return deduped


# -- generalized duals -----------------------------------------------------------------


def dual_tail_slope(m: int, mt: int, p: int) -> tuple[Fraction, ...]:
    """Exact w with G'(0) = -i w, G(xi) = prod_{j>=1} 2^{-p} St(exp(-i 2^{-j} xi)) v.

    This is the slope of the truncation tail G(xi / 2^J) that
    :func:`dual_quark_ft` keeps.  It solves (2I - M(1)) w = M'(1) v exactly,
    M = 2^{-p} St: differentiating G(2 eta) = M(exp(-i eta)) G(eta) at
    eta = 0, with G(0) = v, gives 2 G'(0) = -i M'(1) v + M(1) G'(0).  M(1) is
    upper triangular with diagonal 2^{q-p} <= 1, so 2I - M(1) is solved by
    back-substitution.  M'(1) = sum_k k M_k is read off each entry's integer
    numerators over its denominator.
    """
    at_one = dual_symbol_at_one(m, mt, p)
    v = dual_eigenvector(m, mt, p)
    symbol = build_modulation(m, mt, p).dual_scaling_symbol
    scale = Fraction(1, 2**p)
    rhs = []
    for row in symbol.entries:
        slopes = (Fraction(sum(k * n for k, n in e.nums.items()), e.den) for e in row)
        rhs.append(sum((s * vj for s, vj in zip(slopes, v)), Fraction(0)) * scale)
    n = len(rhs)
    w = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        acc = rhs[i] + scale * sum((at_one[i][j] * w[j] for j in range(i + 1, n)), Fraction(0))
        w[i] = acc / (2 - scale * at_one[i][i])
    return tuple(w)


@dataclass(frozen=True)
class DualApproximation:
    """Truncated-product values of the dual quark transform on a dyadic grid."""

    m: int
    mt: int
    p: int
    levels: int                       # truncation depth J
    grid: tuple[Fraction, ...]        # xi = 2 pi t for each stored t
    values: dict[Fraction, np.ndarray]  # t -> complex vector of length p+1
    eigenvector: tuple[Fraction, ...]


def dual_quark_ft(
    m: int,
    mt: int,
    p: int,
    levels: int,
    grid: Sequence[Fraction],
) -> DualApproximation:
    """Evaluate (i xi)^p prod_{j=1}^{levels} 2^{-p} St(exp(-i 2^{-j} xi)) applied to the tail.

    The product acts on v - i (xi / 2^levels) w, the exact first-order Taylor
    polynomial of the tail G(xi / 2^levels) (w from :func:`dual_tail_slope`);
    the error is O(4^{-levels}).
    """
    if levels < 1:
        raise ValueError("need at least one product level")
    v = dual_eigenvector(m, mt, p)
    symbol = build_modulation(m, mt, p).dual_scaling_symbol
    pts = tuple(Fraction(t) for t in grid)
    xi = _xi(pts)
    w = np.array([float(x) for x in dual_tail_slope(m, mt, p)])
    start = np.array([float(x) for x in v], dtype=complex) - 1j * np.multiply.outer(xi / 2**levels, w)
    product = cascade(float_taps(symbol), 2.0**-p, xi, levels, start)
    values = (1j ** p * xi**p)[:, None] * product
    return DualApproximation(m, mt, p, levels, pts, dict(zip(pts, values)), v)


def _xi(points: Sequence[Fraction]) -> np.ndarray:
    return 2 * math.pi * np.array([float(t) for t in points])


def _one_level(symbol: LaurentMatrix, approx: DualApproximation, points: Sequence[Fraction]) -> np.ndarray:
    """symbol(exp(-i xi / 2)) applied to the stored values at xi / 2, one row per point."""
    halves = np.array([approx.values[t / 2] for t in points]).reshape(-1, approx.p + 1)
    return cascade(float_taps(symbol), 1.0, _xi(points), 1, halves)


def dual_quarklet_ft(approx: DualApproximation, points: Sequence[Fraction]) -> dict[Fraction, np.ndarray]:
    """F Psi~(xi) = Wt(exp(-i xi / 2)) F Phi~(xi / 2) at the requested points.

    Every requested point must have its half-point stored in the
    approximation; build it on ``[t / 2 for t in grid]`` (or on
    ``with_halves(grid)``) and request the original grid to guarantee that.
    """
    pts = tuple(Fraction(t) for t in points)
    for t in pts:
        if t / 2 not in approx.values:
            raise ValueError(f"grid point {t} has no half point {t / 2}; use with_halves()")
    symbol = build_modulation(approx.m, approx.mt, approx.p).dual_detail_symbol
    return dict(zip(pts, _one_level(symbol, approx, pts)))


def with_halves(grid: Sequence[Fraction]) -> list[Fraction]:
    """Close a dyadic grid under one halving step (for quarklet evaluation)."""
    pts = {Fraction(t) for t in grid}
    return sorted(pts | {t / 2 for t in pts})


def dyadic_grid(span: int, depth: int) -> list[Fraction]:
    """Grid t = k / 2**depth, |t| <= span, i.e. xi in [-2 pi span, 2 pi span]."""
    if span < 1 or depth < 0:
        raise ValueError("need span >= 1 and depth >= 0")
    n = span * 2**depth
    return [Fraction(k, 2**depth) for k in range(-n, n + 1)]


@dataclass(frozen=True)
class ConvergenceProbe:
    grid: tuple[Fraction, ...]
    levels: tuple[int, ...]
    deltas: tuple[float, ...]          # sup |v_J - v_J'| between consecutive levels
    modulus_deltas: tuple[float, ...]  # sup ||v_J| - |v_J'|| (phase-free view)


def convergence_probe(
    m: int,
    mt: int,
    p: int,
    grid: Sequence[Fraction],
    levels: Sequence[int],
) -> ConvergenceProbe:
    """Sup-norm differences of the truncated product between consecutive depths.

    Both the complex deltas and the modulus deltas decay like 4^{-J}.
    """
    levels = tuple(levels)
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ValueError("levels must be strictly increasing")
    runs = [dual_quark_ft(m, mt, p, j, grid) for j in levels]
    stacks = [np.array([run.values[t] for t in run.grid]).reshape(-1, p + 1) for run in runs]
    pairs = list(zip(stacks, stacks[1:]))
    deltas = tuple(float(np.max(np.abs(a - b), initial=0.0)) for a, b in pairs)
    mod_deltas = tuple(float(np.max(np.abs(np.abs(a) - np.abs(b)), initial=0.0)) for a, b in pairs)
    return ConvergenceProbe(tuple(Fraction(t) for t in grid), levels, deltas, mod_deltas)


def refinement_defect(approx: DualApproximation) -> float:
    """Sup-norm defect of F Phi~(xi) = St(exp(-i xi/2)) F Phi~(xi/2) on the grid.

    For the J-level truncation this measures one extra product level, so it is
    of the order of the truncation error itself, O(4^{-J}).
    """
    pts = [t for t in approx.grid if t / 2 in approx.values]
    symbol = build_modulation(approx.m, approx.mt, approx.p).dual_scaling_symbol
    stored = np.array([approx.values[t] for t in pts]).reshape(-1, approx.p + 1)
    return float(np.max(np.abs(_one_level(symbol, approx, pts) - stored), initial=0.0))


def eigen_residual(m: int, mt: int, p: int) -> tuple[Fraction, ...]:
    """(2^{-p} St(1)) v - v with exact arithmetic (must be identically zero)."""
    v = dual_eigenvector(m, mt, p)
    mat = dual_symbol_at_one(m, mt, p)
    return tuple(sum(a * c for a, c in zip(row, v)) / 2**p - b for row, b in zip(mat, v))
