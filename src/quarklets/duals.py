"""Generalized dual quarks and quarklets via the truncated infinite product.

The dual refinement equation has a compactly supported distributional
solution whose Fourier transform is, up to one global scalar,

    F Phi~(xi) = (i xi)^p  *  prod_{j>=1} 2^{-p} St(exp(-i 2^{-j} xi)) v,

where St is the dual scaling symbol and v the exact rational eigenvector of
2^{-p} St(1) for the eigenvalue 1 (normalized so its last component is 1; all
dual values are defined up to this one scalar).  The eigenvector and the
symbols stay exact; the product has no rational closed form, so
:func:`quarklets.laurent.cascade` evaluates it in complex floats, all grid
points at once, and one more level of Wt or St for quarklets and defects.

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
from typing import Sequence

import numpy as np

from .laurent import LaurentMatrix, _int_cores, cascade
from .modulation import build_modulation
from .stability import dual_symbol_at_one


def dual_eigenvector(m: int, mt: int, p: int) -> tuple[Fraction, ...]:
    """Exact right eigenvector v of 2^{-p} St(1) for eigenvalue 1, last component 1.

    2^{-p} St(1) is upper triangular with diagonal 2^{q-p}, q = 0..p, so the
    eigenvalue 1 sits in the last position and back-substitution suffices.
    """
    mat = dual_symbol_at_one(m, mt, p)
    v = [Fraction(0)] * p + [Fraction(1)]
    for i in range(p - 1, -1, -1):
        if mat[i][i] == 2**p:
            raise AssertionError("unexpected repeated eigenvalue 1 in the dual symbol")
        v[i] = sum((mat[i][j] * v[j] for j in range(i + 1, p + 1)), Fraction(0)) / (2**p - mat[i][i])
    return tuple(v)


def dual_tail_slope(m: int, mt: int, p: int) -> tuple[Fraction, ...]:
    """Exact w with G'(0) = -i w, G(xi) = prod_{j>=1} 2^{-p} St(exp(-i 2^{-j} xi)) v.

    This is the slope of the truncation tail G(xi / 2^J) that
    :func:`dual_quark_ft` keeps.  It solves (2I - M(1)) w = M'(1) v exactly,
    M = 2^{-p} St: differentiating G(2 eta) = M(exp(-i eta)) G(eta) at
    eta = 0, with G(0) = v, gives 2 G'(0) = -i M'(1) v + M(1) G'(0).  M(1) is
    upper triangular with diagonal 2^{q-p} <= 1, so 2I - M(1) is solved by
    back-substitution.  M'(1) = sum_k k M_k is read off each row's integer
    numerators over one common denominator.
    """
    at_one = dual_symbol_at_one(m, mt, p)
    v = dual_eigenvector(m, mt, p)
    symbol = build_modulation(m, mt, p).dual_scaling_symbol
    scale = Fraction(1, 2**p)
    rhs = []
    for row in symbol.entries:
        cores, den = _int_cores(row)
        acc = Fraction(0)
        for nums, vj in zip(cores, v):
            acc += Fraction(sum(k * n for k, n in nums.items()), den) * vj
        rhs.append(acc * scale)
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
    product = cascade(symbol.float_taps(), 2.0**-p, xi, levels, start)
    values = (1j ** p * xi**p)[:, None] * product
    return DualApproximation(m, mt, p, levels, pts, dict(zip(pts, values)), v)


def _xi(points: Sequence[Fraction]) -> np.ndarray:
    return 2 * math.pi * np.array([float(t) for t in points])


def _one_level(symbol: LaurentMatrix, approx: DualApproximation, points: Sequence[Fraction]) -> np.ndarray:
    """symbol(exp(-i xi / 2)) applied to the stored values at xi / 2, one row per point."""
    halves = np.array([approx.values[t / 2] for t in points]).reshape(-1, approx.p + 1)
    return cascade(symbol.float_taps(), 1.0, _xi(points), 1, halves)


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


def eigen_residual(m: int, mt: int, p: int) -> tuple[Fraction, ...]:
    """(2^{-p} St(1)) v - v with exact arithmetic (must be identically zero)."""
    v = dual_eigenvector(m, mt, p)
    mat = dual_symbol_at_one(m, mt, p)
    return tuple(sum(a * c for a, c in zip(row, v)) / 2**p - b for row, b in zip(mat, v))
