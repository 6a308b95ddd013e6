"""B-splines, quarks, refinement masks, and the quark Fourier transform."""

import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
from helpers import (
    bspline_truncated_power,
    mask_to_symbol,
    quark_ft_fixed_depth,
    quark_ft_mpmath,
    refine_vector,
    refinement_masks_by_formula,
)

from quarklets.duals import _quark_jets, quark_ft
from quarklets.piecewise import PiecewisePoly
from quarklets.stability import MAX_FT_FREQUENCY
from quarklets.splines import (
    bspline,
    quark,
    quark_family,
    refinement_masks,
    refinement_symbol,
    symmetrized_bspline,
)


class TestBspline:
    def test_order_one_is_indicator(self):
        assert bspline(1) == PiecewisePoly.indicator(0, 1)

    def test_hat_peak(self):
        assert bspline(2)(1) == 1

    def test_order_zero_rejected(self):
        with pytest.raises(ValueError):
            bspline(0)

    def test_support(self):
        for m in range(1, 7):
            assert bspline(m).support() == (0, m)

    @pytest.mark.parametrize("m", range(2, 7))
    def test_matches_truncated_power_form(self, m):
        assert bspline(m) == bspline_truncated_power(m)

    def test_partition_of_unity_stated_points(self):
        for m in range(1, 6):
            f = bspline(m)
            for x in (Fraction(1, 10), Fraction(7, 10), Fraction(13, 10)):
                total = sum(f(x - k) for k in range(-m - 2, m + 3))
                assert total == 1

    def test_partition_of_unity_random_dyadic(self):
        rng = random.Random(101)
        for m in range(1, 6):
            f = bspline(m)
            for _ in range(100):
                x = Fraction(rng.randint(-64, 64), 32)
                assert sum(f(x - k) for k in range(-m - 3, m + 4)) == 1

    @pytest.mark.parametrize("m", range(3, 7))
    def test_derivative_identity(self, m):
        lhs = bspline(m).derivative()
        rhs = bspline(m - 1) - bspline(m - 1).translate(1)
        assert lhs == rhs

    def test_classic_refinement(self):
        for m in range(1, 6):
            f = bspline(m)
            total = PiecewisePoly.zero()
            for k in range(m + 1):
                total = total + f.compose_linear(2, -Fraction(k)) * Fraction(math.comb(m, k), 2 ** (m - 1))
            assert total == f


class TestQuark:
    def test_degree_zero_haar(self):
        assert quark(1, 0) == PiecewisePoly.indicator(0, 1)

    def test_haar_degree_two_is_x_squared(self):
        assert quark(1, 2) == PiecewisePoly([0, 1], [(0, 0, 1)])

    def test_order_two_degree_one(self):
        expected = symmetrized_bspline(2).mul_poly([0, 1])
        got = quark(2, 1)
        assert got == expected
        assert got.support() == (-1, 1)

    def test_support_equals_symmetrized_interval(self):
        for m in range(1, 6):
            for q in range(0, 4):
                assert quark(m, q).support() == (-(m // 2), (m + 1) // 2)

    def test_family_rejects_negative_degree(self):
        # as quark(m, q) and quarklets(m, mt, p) do
        with pytest.raises(ValueError, match="quark degree must be >= 0"):
            quark_family(2, -1)


class TestRefinementMasks:
    def test_haar_scalar_collapse(self):
        rm = refinement_masks(1, 0)
        assert rm[0] == ((Fraction(1),),)
        assert rm[1] == ((Fraction(1),),)

    def test_haar_degree_one_matrices(self):
        rm = refinement_masks(1, 1)
        assert rm[0] == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1, 2)))
        assert rm[1] == ((Fraction(1), Fraction(0)), (Fraction(1, 2), Fraction(1, 2)))

    def test_order_two_scalar_mask(self):
        assert refinement_masks(2, 0).scalars() == {
            -1: Fraction(1, 2),
            0: Fraction(1),
            1: Fraction(1, 2),
        }

    def test_masks_lower_triangular(self):
        rm = refinement_masks(3, 3)
        for _, mat in rm.items():
            for i in range(4):
                for j in range(i + 1, 4):
                    assert mat[i][j] == 0

    def test_symbol_equals_fraction_chain_formula(self):
        # the closed-form integer symbol against the entrywise Fraction chains, over the CLI box
        for m in range(1, 17):
            for p in range(0, 15):
                masks = refinement_masks(m, p)
                assert masks == refinement_masks_by_formula(m, p), (m, p)
                assert refinement_symbol(m, p) == mask_to_symbol(masks), (m, p)

    @pytest.mark.parametrize("m", range(1, 6))
    @pytest.mark.parametrize("p", range(0, 5))
    def test_two_scale_identity_exact(self, m, p):
        family = quark_family(m, p)
        rm = refinement_masks(m, p)
        refined = refine_vector(family, rm)
        for q in range(p + 1):
            assert refined[q] == family[q]


def quad_ft_oracle(f: PiecewisePoly, xi: float) -> complex:
    """Gauss-Legendre quadrature of integral f(x) exp(-i x xi) dx, per piece."""
    nodes, weights = np.polynomial.legendre.leggauss(60)
    total = 0.0 + 0.0j
    for i in range(len(f.pieces)):
        a, b = float(f.breakpoints[i]), float(f.breakpoints[i + 1])
        x = (b - a) / 2 * nodes + (b + a) / 2
        vals = np.array([float(f(Fraction(xx).limit_denominator(2**40))) for xx in x])
        # piece polynomials are smooth: evaluate piecewise exactly via floats
        integrand = vals * np.exp(-1j * x * xi)
        total += (b - a) / 2 * np.sum(weights * integrand)
    return total / math.sqrt(2 * math.pi)


class TestQuarkFt:
    def test_value_at_zero_is_total_mass(self):
        for m in (1, 2, 3):
            expected = 1 / math.sqrt(2 * math.pi)
            assert abs(quark_ft(m, 0, 0.0) - expected) < 1e-14

    def test_zero_at_two_pi(self):
        assert abs(quark_ft(1, 0, 2 * math.pi)) < 1e-13
        assert abs(quark_ft(2, 1, 2 * math.pi)) < 1e-13

    @pytest.mark.parametrize("m,q", [(1, 0), (1, 2), (2, 1), (3, 2), (4, 3)])
    def test_matches_quadrature_oracle(self, m, q):
        f = quark(m, q)
        rng = random.Random(7 * m + q)
        for _ in range(50):
            xi = rng.uniform(-30, 30)
            assert abs(abs(quark_ft(m, q, xi)) - abs(quad_ft_oracle(f, xi))) < 1e-10

    @pytest.mark.parametrize("m,q", [(16, 14), (12, 10), (10, 8), (8, 8), (7, 10), (4, 3), (1, 5)])
    def test_absolute_error_against_mpmath(self, m, q):
        # the stated bound: |error| <= 1e-13 sup|F phi_q|, where the
        # transform itself has decayed far below its sup
        sup = float(np.max(np.abs(quark_ft(m, q, np.linspace(-30, 30, 6001)))))
        f = quark(m, q)
        for xi in (0, 0.51, 0.6, 5, 25, -30):
            assert abs(quark_ft(m, q, xi) - quark_ft_mpmath(f, xi)) <= 1e-13 * sup

    # F' = -i c F phi_{q+1} and F'' = -c^2 F phi_{q+2}, up to degree 16 for the CLI's q <= 14,
    # within the same bound on the next quarks' sup
    @pytest.mark.parametrize("m,q", [(16, 14), (7, 14), (4, 3), (1, 5), (3, 0)])
    def test_jets_are_derivatives_against_mpmath(self, m, q):
        c = (m + 1) // 2
        sup = np.max(np.abs(_quark_jets(m, q, np.linspace(-30, 30, 6001), 2)), axis=0)
        xi = np.array([0, 0.51, 0.6, 5, 25, -30])
        jets = _quark_jets(m, q, xi, 2)
        f = quark(m, q)
        for k, x in enumerate(xi):
            for j in (1, 2):
                ref = quark_ft_mpmath(f, x, derivative=j)
                assert abs((-1j * c) ** j * jets[k, j] - ref) <= 1e-13 * c**j * sup[j]

    # the largest measured gap on this grid, over every m <= 16 and q <= 14, is 9.6e-16 sup
    @pytest.mark.parametrize("m", range(1, 17))
    @pytest.mark.parametrize("q", [0, 1, 4, 10, 14])
    def test_adaptive_depth_matches_the_fixed_depth_cascade(self, m, q):
        xi = np.linspace(-30, 30, 601)
        ref = quark_ft_fixed_depth(m, q, xi)
        sup = float(np.max(np.abs(ref)))
        assert float(np.max(np.abs(quark_ft(m, q, xi) - ref))) <= 2e-15 * sup

    def test_one_point_agrees_alone_and_in_a_deeper_batch(self):
        # |xi| = 1024 takes the batch from 7 to 12 levels
        xi = np.linspace(-30, 30, 601)
        alone = quark_ft(3, 2, xi)
        sup = float(np.max(np.abs(alone)))
        for far in (1024.0, -1024.0):
            batch = quark_ft(3, 2, np.append(xi, far))[:-1]
            assert float(np.max(np.abs(batch - alone))) <= 1e-15 * sup

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, 1.5e308])
    def test_non_finite_frequency_raises(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning on the way to the error
            with pytest.raises(ValueError, match="finite"):
                quark_ft(3, 2, bad)
            with pytest.raises(ValueError, match="finite"):
                quark_ft(3, 2, np.array([0.0, 1.0, bad]))

    def test_frequency_above_the_bound_raises(self):
        # 1e300 is finite, but its cascade would run 998 levels
        with pytest.raises(ValueError, match=str(MAX_FT_FREQUENCY)):
            quark_ft(1, 0, 1e300)
        with pytest.raises(ValueError, match=str(MAX_FT_FREQUENCY)):
            quark_ft(3, 2, np.array([0.0, math.nextafter(MAX_FT_FREQUENCY, math.inf)]))
        assert math.isfinite(abs(quark_ft(3, 2, -MAX_FT_FREQUENCY)))

    def test_array_input_keeps_its_shape(self):
        xi = np.array([[0.0, 0.7], [2.9, -8.3]])
        values = quark_ft(3, 2, xi)
        assert values.shape == xi.shape
        for idx in np.ndindex(xi.shape):
            assert abs(values[idx] - quark_ft(3, 2, float(xi[idx]))) < 1e-15

    def test_series_and_recursion_branches_agree(self):
        for xi in (0.49, 0.51, -0.49, -0.51):
            # the closed form per piece once switched branch at |xi| = 0.5
            left = quark_ft(3, 2, xi - 1e-9)
            right = quark_ft(3, 2, xi + 1e-9)
            assert abs(left - right) < 1e-8

    @pytest.mark.parametrize(
        "m,l,closed_form",
        [
            (1, 1, lambda xi: np.exp(-1j * xi / 2)
             * ((xi * np.cos(xi / 2) + (-2 - 1j * xi) * np.sin(xi / 2)) / xi**2)),
            (1, 2, lambda xi: np.exp(-1j * xi / 2)
             * (((-2 - 1j * xi) * xi * np.cos(xi / 2)
                 + (-xi**2 + 2j * xi + 4) * np.sin(xi / 2)) / xi**3)),
            (2, 2, lambda xi: 2 * (-(xi**2 - 12) * np.sin(xi / 2) ** 2
                                   + xi**2 * np.cos(xi / 2) ** 2
                                   - 8 * xi * np.sin(xi / 2) * np.cos(xi / 2)) / xi**4),
            (3, 1, lambda xi: np.exp(-1j * xi / 2) * np.sin(xi / 2) ** 2
             * (12 * xi * np.cos(xi / 2) + (-24 - 4j * xi) * np.sin(xi / 2)) / xi**4),
            (4, 2, lambda xi: -16 * np.sin(xi / 2) ** 2
             * ((xi**2 - 20) * np.sin(xi / 2) ** 2 - 3 * xi**2 * np.cos(xi / 2) ** 2
                + 16 * xi * np.sin(xi / 2) * np.cos(xi / 2)) / xi**6),
        ],
    )
    def test_proportional_to_closed_forms(self, m, l, closed_form):
        # derivative-form closed expressions reproduce the transform up to the
        # single constant i^l / (ceil(m/2)^l sqrt(2 pi)) fixed by the unitary
        # convention and the monomial normalization
        const = 1j**l / ((m + 1) // 2) ** l / math.sqrt(2 * math.pi)
        for xi in (0.7, 1.3, 2.9, 4.1, 5.7, 8.3, 11.1):
            ours = quark_ft(m, l, xi)
            theirs = const * closed_form(xi)
            assert abs(ours - theirs) < 1e-12
