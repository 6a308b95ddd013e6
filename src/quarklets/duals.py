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
    base = [_quark_moment(m, k) for k in range(_FT_TAIL_TERMS + q)]
    moments = np.array([[float(base[t + l] / c**l) for l in range(q + 1)] for t in range(_FT_TAIL_TERMS)])
    factors = [(-1j) ** t / math.factorial(t) / math.sqrt(2 * math.pi) for t in range(_FT_TAIL_TERMS)]
    tail = np.array(factors)[:, None] * moments
    tail.flags.writeable = False
    return taps, tail


@lru_cache(maxsize=None)
def _quark_moment(m: int, k: int) -> Fraction:
    """The exact k-th moment of the degree-0 quark, shared by the tails of every degree q."""
    return quark(m, 0).moment(k)


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
    xi = np.asarray(xi, dtype=float)
    values = _quark_jets(m, q, xi.reshape(-1), 0)[:, 0].reshape(xi.shape)
    return complex(values) if xi.ndim == 0 else values


def _quark_jets(m: int, q: int, xi: np.ndarray, extra: int) -> np.ndarray:
    """F phi_q, ..., F phi_{q + extra} at the points of the 1-d array xi, one row per point.

    :func:`quark_ft`'s cascade and depth rule on the quarks of degree 0..q + extra.
    As x phi_l = c phi_{l + 1}, row entry j is (i / c)^j times the j-th derivative of F phi_q.
    """
    taps, tail = _ft_cascade_data(m, q + extra)
    top = float(np.max(np.abs(xi), initial=0.0))
    if not top <= MAX_FT_FREQUENCY:  # also an inf or NaN point
        raise ValueError(f"quark_ft needs finite frequencies with |xi| at most {MAX_FT_FREQUENCY} (2^16)")
    reach = 2 * ((m + 1) // 2) * top
    frac, exp = math.frexp(reach)  # reach = frac 2^exp with 1/2 <= frac < 1, or 0
    levels = max(1, exp - (frac == 0.5))
    powers = np.vander(np.ldexp(xi, -levels), _FT_TAIL_TERMS, increasing=True)
    return cascade(taps, 1.0, xi, levels, powers @ tail)[:, q:]


# A minimum of |F| counts as a zero below this fraction of 1 + max |F| on the grid.
_ZERO_RTOL = 1e-7

# Offsets, in units of the current width, of the candidates of one zoom round.
_ZOOM = np.arange(-3, 4) / 4
_ZOOM.flags.writeable = False

# A Newton step this many float spacings of its centre or shorter marks a fixed point.
_FIXED_ULPS = 4

# Rounds of either refinement at most.
_ROUNDS = 60


def ft_zero_scan(m: int, q: int, lo: float, hi: float, samples: int = 4000) -> list[float]:
    """Approximate real zeros of |F phi_q| on [lo, hi] (float diagnostic).

    Refines the local minima of |F|^2 on a uniform grid of ``samples >= 3``
    points by safeguarded Newton steps (:func:`_newton`), and a minimum at the
    float floor of a multiple zero by a zoom (:func:`_zoom`); then reports the
    minima whose value is a numerical zero relative to the overall scale of
    |F| on the interval.  A scan makes one transform call for the grid, one
    per round of :func:`_newton` (3-4 for minima of order 1 on a grid step of
    order 1e-2), one per zoom round if any minimum needs it (about 23), and
    one for the zero test.  Placement degrades with zero multiplicity: for
    quark(m, 0) on [-20, 20] at 4000 samples the error at +-2 pi k is 2.7e-15,
    2.8e-8, 6.6e-8, 2.7e-4, 1.4e-3 and 1.4e-2 for m = 1..6, and m >= 7 gives
    spurious zeros (12 for m = 7, 26 for m = 8, against 6 true ones).
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
    x = _newton(m, q, xs[inner], (hi - lo) / (samples - 1), tol, math.ulp(max(-lo, hi)))
    zeros = x[np.abs(quark_ft(m, q, x)) < tol].tolist()
    deduped: list[float] = []
    step = (hi - lo) / samples
    for z in sorted(zeros):
        if not deduped or z - deduped[-1] > step:
            deduped.append(z)
    return deduped


def _newton(m: int, q: int, x: np.ndarray, width: float, tol: float, floor: float) -> np.ndarray:
    """Move each grid minimum x of |F|^2 (grid step ``width``) to the minimum it brackets.

    One :func:`_quark_jets` call per round gives F, F' = -i c F phi_{q+1} and
    F'' = -c^2 F phi_{q+2} at every moving centre.  Round one is the zoom's
    first, so a centre reaches a deeper minimum within the grid step as the
    zoom does.  Later rounds try Newton's step for the minimum of |F|^2 and
    Schroeder's for a zero of any multiplicity (Math. Ann. 2, 1870), both
    clipped to a trust radius (a quarter grid step, then the last accepted
    step), and take the one with the smaller |F| if it lowers |F|.  A centre
    stops where |F| = 0, where the shorter step is a few float spacings, or
    where no step lowers an |F| >= ``tol`` (no zero, flat to rounding).  One
    whose steps stall below ``tol`` or stop halving is at the float floor of
    a multiple zero: it restarts from its grid point in :func:`_zoom`.
    """
    if not x.size:
        return x
    c = (m + 1) // 2
    orders = np.array([1, -1j * c, -c * c])  # F phi_{q+j} times this is the j-th derivative of F phi_q
    best, jets = _lowest(m, q, x[:, None] + width * _ZOOM, orders)
    out = x + width * _ZOOM[best]
    # a scan has few minima, so the steps are Python scalars; only the transform calls are batched
    moving = [(i, *row, width / 4) for i, row in enumerate(jets.tolist())]  # (position, F, F', F'', radius)
    zoom = []
    for k in range(_ROUNDS):
        tries = []
        for i, f, df, ddf, radius in moving:
            steps = _steps(f, df, ddf)
            if f != 0 and min(map(abs, steps)) > _FIXED_ULPS * math.ulp(out[i]):
                tries.append((i, f, radius, [max(-radius, min(radius, h)) for h in steps]))
        if not tries:
            break
        cand = np.array([[out[i] + h for h in steps] for i, _, _, steps in tries])
        best, jets = _lowest(m, q, cand, orders)
        moving = []
        for (i, f, radius, steps), b, row in zip(tries, best.tolist(), jets.tolist()):
            taken = steps[b]
            if abs(row[0]) >= abs(f):
                if abs(f) < tol:  # the float floor; above tol, a minimum flat to rounding stops here
                    zoom.append(i)
            elif k and abs(taken) > radius / 2:
                zoom.append(i)
            else:
                out[i] += taken
                moving.append((i, *row, abs(taken)))
    else:
        zoom += [i for i, *_ in moving]  # still moving after the last round
    out[zoom] = _zoom(m, q, x[zoom], width, floor)
    return out


def _steps(f: complex, df: complex, ddf: complex) -> tuple[float, float]:
    """Newton's step for the minimum of |F|^2 and Schroeder's for a zero of F, inf where undefined."""
    curvature = abs(df) ** 2 + (f.conjugate() * ddf).real
    deflated = df * df - f * ddf
    return (-(f.conjugate() * df).real / curvature if curvature else math.inf,
            -(f * df / deflated).real if deflated else math.inf)


def _lowest(m: int, q: int, cand: np.ndarray, orders: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of ``cand``, the column of the smallest |F| and F, F', F'' there, in one call."""
    jets = (_quark_jets(m, q, cand.reshape(-1), 2) * orders).reshape(*cand.shape, 3)
    best = np.argmin(abs(jets[:, :, 0]), axis=1)
    return best, jets[np.arange(len(cand)), best]


def _zoom(m: int, q: int, x: np.ndarray, width: float, floor: float) -> np.ndarray:
    """Move each centre x to the argmin of |F|^2 over x + w {-3/4, -1/2, ..., 3/4}, all in one
    call per round, and divide w (first ``width``) by 4, until no candidate differs from its centre or
    for 60 rounds; a centre at 0, which no such fixed point ends, stops once all lie within ``floor`` of 0."""
    for _ in range(_ROUNDS):
        live = np.abs(x) + width * _ZOOM[-1] >= floor
        cand = x[live, None] + width * _ZOOM
        if np.all(cand == x[live, None]):
            break  # a fixed point: every centre would stay where it is from now on
        h = np.abs(quark_ft(m, q, cand)) ** 2
        x[live] = cand[np.arange(len(cand)), np.argmin(h, axis=1)]
        width /= 4
    return x


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
    v, v_float, w, taps = _dual_cascade_data(m, mt, p)
    pts = tuple(Fraction(t) for t in grid)
    xi = _xi(pts)
    start = v_float - 1j * np.multiply.outer(xi / 2**levels, w)
    product = cascade(taps, 2.0**-p, xi, levels, start)
    values = (1j ** p * xi**p)[:, None] * product
    return DualApproximation(m, mt, p, levels, pts, dict(zip(pts, values)), v)


@lru_cache(maxsize=None)
def _dual_cascade_data(m: int, mt: int, p: int) -> tuple[tuple[Fraction, ...], np.ndarray, np.ndarray, tuple]:
    """The exact eigenvector v, v and the tail slope w in floats, and the float taps of St (read-only)."""
    v = dual_eigenvector(m, mt, p)
    v_float = np.array([float(x) for x in v], dtype=complex)
    w = np.array([float(x) for x in dual_tail_slope(m, mt, p)])
    v_float.flags.writeable = w.flags.writeable = False
    return v, v_float, w, float_taps(build_modulation(m, mt, p).dual_scaling_symbol)


@lru_cache(maxsize=None)
def _dual_detail_taps(m: int, mt: int, p: int) -> tuple[int, np.ndarray]:
    """The float taps of Wt (read-only), apart from St's so that a dual product never builds Wt."""
    return float_taps(build_modulation(m, mt, p).dual_detail_symbol)


def _xi(points: Sequence[Fraction]) -> np.ndarray:
    return 2 * math.pi * np.array([float(t) for t in points])


def _one_level(taps, approx: DualApproximation, points: Sequence[Fraction]) -> np.ndarray:
    """The symbol with float ``taps`` at exp(-i xi / 2) applied to the stored values at xi / 2, one row per point."""
    halves = np.array([approx.values[t / 2] for t in points]).reshape(-1, approx.p + 1)
    return cascade(taps, 1.0, _xi(points), 1, halves)


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
    return dict(zip(pts, _one_level(_dual_detail_taps(approx.m, approx.mt, approx.p), approx, pts)))


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
    taps = _dual_cascade_data(approx.m, approx.mt, approx.p)[3]
    stored = np.array([approx.values[t] for t in pts]).reshape(-1, approx.p + 1)
    return float(np.max(np.abs(_one_level(taps, approx, pts) - stored), initial=0.0))


def eigen_residual(m: int, mt: int, p: int) -> tuple[Fraction, ...]:
    """(2^{-p} St(1)) v - v with exact arithmetic (must be identically zero)."""
    v = dual_eigenvector(m, mt, p)
    mat = dual_symbol_at_one(m, mt, p)
    return tuple(sum(a * c for a, c in zip(row, v)) / 2**p - b for row, b in zip(mat, v))
