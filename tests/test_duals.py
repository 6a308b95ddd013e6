"""Generalized dual quark/quarklet approximation."""

import ast
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from helpers import coefficient_matrix, dual_quark_ft_loop, eval_rational, mass_outside, symbol_at, time_profile

import quarklets
from quarklets import duals, stability
from quarklets.duals import (
    convergence_probe,
    dual_quark_ft,
    dual_quarklet_ft,
    dual_tail_slope,
    dyadic_grid,
    eigen_residual,
    refinement_defect,
    with_halves,
)
from quarklets.modulation import build_modulation
from quarklets.stability import dual_eigenvector, dual_symbol_at_one

PAIRS = [(1, 1), (2, 2), (3, 3), (2, 4), (3, 5)]
# the design box: m <= 5, m <= mt <= 7, m + mt even
BOX_PAIRS = [(m, mt) for m in range(1, 6) for mt in range(m, 8, 2)]


def haar_dual_closed_form(xi: float) -> complex:
    if xi == 0:
        return 1.0
    return np.exp(-1j * xi / 2) * math.sin(xi / 2) / (xi / 2)


def haar_dual_wavelet_closed_form(xi: float) -> complex:
    if xi == 0:
        return 0.0
    w = np.exp(-1j * xi / 2)
    return (1 - w) ** 2 / (1j * xi)


class TestEigenvector:
    def test_degree_zero(self):
        assert dual_eigenvector(1, 1, 0) == (Fraction(1),)

    def test_haar_degree_one_back_substitution(self):
        # (1/2) At(1) = [[1/2, -1/4], [0, 1]]; solve (M - I) v = 0 with v_last = 1
        assert dual_eigenvector(1, 1, 1) == (Fraction(-1, 2), Fraction(1))

    @pytest.mark.parametrize("m,mt", PAIRS)
    @pytest.mark.parametrize("p", [0, 1, 2, 3])
    def test_exact_residual(self, m, mt, p):
        assert all(r == 0 for r in eigen_residual(m, mt, p))
        assert dual_eigenvector(m, mt, p)[-1] == 1

    @pytest.mark.parametrize("m,mt", BOX_PAIRS)
    @pytest.mark.parametrize("p", range(9))
    def test_symbol_at_one_matches_rational_evaluation(self, m, mt, p):
        # S(1)^{-T} against the bundle's dual symbol St evaluated exactly at z = 1
        symbol = build_modulation(m, mt, p).dual_scaling_symbol
        at_one = dual_symbol_at_one(m, mt, p)
        assert at_one == eval_rational(symbol, 1)
        # cached per (m, p): the same read-only object, whatever mt
        assert dual_symbol_at_one(m, mt, p) is at_one
        assert dual_symbol_at_one(m, m, p) == at_one

    def test_haar_tail_slope(self):
        # exp(-i xi/2) sin(xi/2)/(xi/2) has derivative -i/2 at the origin
        assert dual_tail_slope(1, 1, 0) == (Fraction(1, 2),)

    @pytest.mark.parametrize("m,mt", PAIRS)
    @pytest.mark.parametrize("p", [0, 1, 2])
    def test_exact_tail_slope_residual(self, m, mt, p):
        # (2I - M(1)) w = M'(1) v for M = 2^{-p} St, with M(1) and M'(1) = sum_k k M_k
        # rebuilt here from one coefficient matrix per exponent
        symbol = build_modulation(m, mt, p).dual_scaling_symbol
        lo, hi = symbol.exponent_range()
        scale = Fraction(1, 2**p)
        n = p + 1
        at_one = [[Fraction(0)] * n for _ in range(n)]
        slope = [[Fraction(0)] * n for _ in range(n)]
        for k in range(lo, hi + 1):
            coeff = coefficient_matrix(symbol, k)
            for i in range(n):
                for j in range(n):
                    at_one[i][j] += coeff[i][j] * scale
                    slope[i][j] += k * coeff[i][j] * scale
        v = dual_eigenvector(m, mt, p)
        w = dual_tail_slope(m, mt, p)
        for i in range(n):
            lhs = 2 * w[i] - sum(at_one[i][j] * w[j] for j in range(n))
            assert lhs == sum(slope[i][j] * v[j] for j in range(n))


    def test_symbol_at_one_evaluated_once(self):
        # one S(1)^{-T} per (m, p), shared by the product, the slope and every mt
        stability._symbol_at_one.cache_clear()
        dual_quark_ft(2, 2, 2, 4, [Fraction(1, 4)])
        dual_tail_slope(2, 2, 2)
        dual_tail_slope(2, 4, 2)
        info = stability._symbol_at_one.cache_info()
        assert (info.misses, info.currsize) == (1, 1)


class TestGrids:
    def test_dyadic_grid_shape(self):
        grid = dyadic_grid(2, 3)
        assert len(grid) == 2 * 2 * 8 + 1
        assert grid[0] == -2 and grid[-1] == 2
        assert all(b - a == Fraction(1, 8) for a, b in zip(grid, grid[1:]))

    def test_with_halves_closure(self):
        grid = dyadic_grid(1, 2)
        full = with_halves(grid)
        for t in grid:
            assert t / 2 in set(full)

    def test_missing_half_point_raises(self):
        grid = [Fraction(1, 4), Fraction(1, 2)]
        approx = dual_quark_ft(1, 1, 0, 5, grid)
        with pytest.raises(ValueError, match="half"):
            dual_quarklet_ft(approx, points=[Fraction(1, 4)])

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            dual_quark_ft(1, 1, 0, 0, [Fraction(0)])
        with pytest.raises(ValueError):
            dyadic_grid(0, 3)
        with pytest.raises(ValueError):
            dyadic_grid(1, -1)


class TestHaarClosedForm:
    def test_value_at_zero(self):
        approx = dual_quark_ft(1, 1, 0, 10, [Fraction(0)])
        assert abs(approx.values[Fraction(0)][0] - 1.0) < 1e-15

    def test_degree_one_zero_at_origin(self):
        approx = dual_quark_ft(1, 1, 1, 10, [Fraction(0)])
        assert np.all(approx.values[Fraction(0)] == 0)

    def test_truncated_product_error_floor(self):
        # the raw product's phase truncation keeps |error| <= sup|sin(xi/2)| 2^{-J}
        # (+ float noise); modulus converges much faster (fourth-order in 2^{-J}).
        # This floor is why the library keeps the first-order tail.
        grid = dyadic_grid(8, 5)
        for levels, bound in ((20, 2**-20), (25, 2**-25)):
            raw = dual_quark_ft_loop(1, 1, 0, levels, grid, tail="none")
            worst = 0.0
            worst_mod = 0.0
            for t in grid:
                target = haar_dual_closed_form(2 * math.pi * float(t))
                got = raw[t][0]
                worst = max(worst, abs(got - target))
                worst_mod = max(worst_mod, abs(abs(got) - abs(target)))
            assert worst < bound * 1.05
            assert worst > bound * 0.5  # the floor is real, not pessimism
            assert worst_mod < 1e-11

    def test_linearity_in_eigenvector(self):
        grid = [Fraction(3, 8)]
        approx = dual_quark_ft(1, 1, 0, 15, grid)
        doubled = 2 * approx.values[Fraction(3, 8)]
        assert abs(doubled[0] - 2 * approx.values[Fraction(3, 8)][0]) == 0

    def test_quarklet_matches_closed_form(self):
        grid = dyadic_grid(4, 4)
        approx = dual_quark_ft(1, 1, 0, 25, with_halves(grid))
        values = dual_quarklet_ft(approx, points=grid)
        worst = max(
            abs(values[t][0] - haar_dual_wavelet_closed_form(2 * math.pi * float(t)))
            for t in grid
        )
        assert worst < 1e-7


class TestConvergence:
    def test_probe_shapes_and_monotonicity(self):
        grid = dyadic_grid(4, 3)
        probe = convergence_probe(2, 2, 1, grid, [8, 10, 12, 14, 16])
        assert len(probe.deltas) == 4
        # complex deltas shrink with every extra level (about fourfold with the
        # default first-order tail)
        for a, b in zip(probe.deltas, probe.deltas[1:]):
            assert b < a
        for a, b in zip(probe.modulus_deltas, probe.modulus_deltas[1:]):
            assert b < a
        assert probe.modulus_deltas[-1] < 1e-6

    def test_levels_must_increase(self):
        with pytest.raises(ValueError):
            convergence_probe(1, 1, 0, [Fraction(0)], [10, 10])

    def test_truncation_matters_at_level_one(self):
        grid = dyadic_grid(2, 3)
        approx = dual_quark_ft(1, 1, 0, 1, grid)
        worst = max(
            abs(approx.values[t][0] - haar_dual_closed_form(2 * math.pi * float(t)))
            for t in grid
        )
        assert worst > 1e-2

    @pytest.mark.parametrize("p", [0, 1, 2, 3])
    @pytest.mark.parametrize("m,mt", PAIRS)
    def test_cascade_matches_the_point_loop(self, m, mt, p):
        # the cascade reassociates the product, so the loop is matched to
        # float rounding relative to the largest value, not bit for bit
        grid = with_halves(dyadic_grid(1, 2))
        approx = dual_quark_ft(m, mt, p, 16, grid)
        loop = dual_quark_ft_loop(m, mt, p, 16, grid)
        scale = max(float(np.max(np.abs(v))) for v in loop.values())
        assert max(float(np.max(np.abs(approx.values[t] - loop[t]))) for t in grid) <= 1e-13 * scale
        # one more level, of Wt and of St, on the stored half points
        bundle = build_modulation(m, mt, p)
        quarklets = dual_quarklet_ft(approx, points=dyadic_grid(1, 2))
        worst, defect = 0.0, 0.0
        for t in dyadic_grid(1, 2):
            z = np.exp(-1j * math.pi * float(t))
            half = approx.values[t / 2]
            detail = symbol_at(bundle.dual_detail_symbol, z) @ half
            worst = max(worst, float(np.max(np.abs(quarklets[t] - detail))))
            scaling = symbol_at(bundle.dual_scaling_symbol, z) @ half
            defect = max(defect, float(np.max(np.abs(scaling - approx.values[t]))))
        assert worst <= 1e-13 * scale
        assert abs(refinement_defect(approx) - defect) <= 1e-13 * scale

    @pytest.mark.parametrize("m,mt,p", [(1, 1, 1), (3, 3, 2)])
    def test_first_order_tail_matches_deep_product(self, m, mt, p):
        # raw products (no tail) from the point-loop oracle: J = 45 as the reference
        grid = dyadic_grid(4, 3)
        deep = dual_quark_ft_loop(m, mt, p, 45, grid, tail="none")
        tailed = dual_quark_ft(m, mt, p, 20, grid).values
        raw = dual_quark_ft_loop(m, mt, p, 20, grid, tail="none")

        def sup(values):
            return max(float(np.max(np.abs(values[t] - deep[t]))) for t in grid)

        assert sup(tailed) < 1e-8
        assert sup(raw) > 1e-6  # without the tail J = 20 is far off

    @pytest.mark.parametrize("m,mt,p", [(1, 1, 1), (2, 2, 1)])
    def test_refinement_consistency_within_truncation(self, m, mt, p):
        grid = with_halves(dyadic_grid(4, 3))
        approx = dual_quark_ft(m, mt, p, 20, grid)
        defect = refinement_defect(approx)
        probe = convergence_probe(m, mt, p, grid, [20, 21])
        assert defect <= probe.deltas[0] * 1.5 + 1e-12


class TestTimeProfile:
    def test_haar_dual_supported_on_unit_interval(self):
        # sample F phi~ on a uniform grid and check L2 mass localizes in [0, 1]
        xi_max = 1024 * math.pi
        n = 2**15
        xi = -xi_max + 2 * xi_max / n * np.arange(n)
        with np.errstate(invalid="ignore", divide="ignore"):
            vals = np.where(
                xi == 0, 1.0, np.exp(-1j * xi / 2) * np.sin(xi / 2) / np.where(xi == 0, 1.0, xi / 2)
            )
        x, f = time_profile(vals, xi_max)
        leak = mass_outside(x, f, -0.05, 1.05)
        assert leak < 1e-6

    def test_dual_profile_from_truncated_product(self):
        # same diagnostic, but from the truncated product at modest depth
        xi_max = 256 * math.pi
        n = 2**13
        span = 128
        depth = int(math.log2(n / (2 * span)))
        grid = dyadic_grid(span, depth)[:-1]  # uniform, endpoint dropped for FFT layout
        approx = dual_quark_ft(1, 1, 0, 22, grid)
        vals = np.array([approx.values[t][0] for t in grid])
        x, f = time_profile(vals, xi_max)
        leak = mass_outside(x, f, -0.1, 1.1)
        assert leak < 1e-6

    def test_order_two_dual_supported_on_mask_span(self):
        # the (2,2) dual generator lives on [-2, 2], the span of its mask;
        # the profile must localize there and must NOT fit a smaller interval
        xi_max = 256 * math.pi
        n = 2**13
        span = 128
        depth = int(math.log2(n / (2 * span)))
        grid = dyadic_grid(span, depth)[:-1]
        approx = dual_quark_ft(2, 2, 0, 22, grid)
        vals = np.array([approx.values[t][0] for t in grid])
        x, f = time_profile(vals, xi_max)
        assert mass_outside(x, f, -2.1, 2.1) < 1e-6
        assert mass_outside(x, f, -1.5, 1.5) > 1e-4


class TestNumpyBoundary:
    def test_only_duals_imports_numpy(self):
        # every float routine lives in duals; the exact modules import no numpy, at any depth
        offenders = []
        for path in sorted((Path(__file__).parent.parent / "src/quarklets").glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    names = [node.module or ""]
                else:
                    continue
                if any(name.split(".")[0] == "numpy" for name in names):
                    offenders.append(path.name)
        assert set(offenders) == {"duals.py"}

    def test_lazy_exports_resolve(self):
        for name in quarklets.__all__:
            assert getattr(quarklets, name) is not None
        assert quarklets.quark_ft is duals.quark_ft
        assert quarklets.ft_zero_scan is duals.ft_zero_scan
        assert stability.ft_zero_scan is duals.ft_zero_scan

    @pytest.mark.parametrize("module", [quarklets, stability])
    def test_unknown_attribute_raises(self, module):
        with pytest.raises(AttributeError):
            getattr(module, "no_such_name")
        assert not hasattr(module, "cascade")
