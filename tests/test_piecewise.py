"""Exact piecewise polynomial arithmetic and integration."""

import random
from fractions import Fraction

import pytest
from helpers import compose_linear_horner

from quarklets.laurent import LaurentPoly
from quarklets.piecewise import PiecewisePoly, inner_product, taylor_shift
from quarklets.splines import quark


def hat() -> PiecewisePoly:
    # order-2 B-spline on [0, 2]: x on [0,1), 2-x on [1,2)
    return PiecewisePoly([0, 1, 2], [(0, 1), (2, -1)])


def rand_piecewise(rng) -> PiecewisePoly:
    n = rng.randint(1, 4)
    start = Fraction(rng.randint(-4, 2), 2)
    bps = [start]
    for _ in range(n):
        bps.append(bps[-1] + Fraction(rng.randint(1, 4), 2))
    pieces = [
        tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(rng.randint(1, 3)))
        for _ in range(n)
    ]
    return PiecewisePoly(bps, pieces)


class TestBasics:
    def test_indicator_values(self):
        f = PiecewisePoly.indicator(0, 1)
        assert f(0) == 1
        assert f(Fraction(1, 2)) == 1
        assert f(1) == 0  # right-open
        assert f(-1) == 0

    def test_non_dyadic_breakpoint_rejected(self):
        with pytest.raises(ValueError, match="dyadic"):
            PiecewisePoly([0, Fraction(1, 3)], [(1,)])

    def test_pieces_are_laurent_polys_without_negative_exponents(self):
        f = PiecewisePoly([0, 1, 2], [(0, 1), LaurentPoly({0: 2, 1: -1})])
        assert f == hat()
        assert f.pieces == (LaurentPoly({1: 1}), LaurentPoly({0: 2, 1: -1}))
        with pytest.raises(ValueError, match="negative exponent"):
            PiecewisePoly([0, 1], [LaurentPoly({-1: 1})])

    def test_canonical_merges_equal_pieces(self):
        f = PiecewisePoly([0, 1, 2], [(1,), (1,)])
        assert f == PiecewisePoly.indicator(0, 2)

    def test_zero_end_pieces_trimmed(self):
        f = PiecewisePoly([-1, 0, 1, 2], [(), (1,), ()])
        assert f.support() == (0, 1)

    def test_compose_linear(self):
        f = hat()
        g = f.compose_linear(2, -1)  # x -> f(2x - 1)
        assert g.support() == (Fraction(1, 2), Fraction(3, 2))
        assert g(1) == f(1)
        assert g(Fraction(3, 4)) == f(Fraction(1, 2))

    def test_add_disjoint_supports(self):
        f = PiecewisePoly.indicator(0, 1) + PiecewisePoly.indicator(2, 3)
        assert f(Fraction(1, 2)) == 1
        assert f(Fraction(3, 2)) == 0
        assert f(Fraction(5, 2)) == 1

    def test_derivative_of_hat(self):
        d = hat().derivative()
        assert d(Fraction(1, 2)) == 1
        assert d(Fraction(3, 2)) == -1

    def test_compose_linear_rejects_nonpositive_dilation(self):
        with pytest.raises(ValueError):
            hat().compose_linear(-1, 0)
        with pytest.raises(ValueError):
            hat().compose_linear(0, 0)

    def test_non_dyadic_dilation_rejected_via_breakpoints(self):
        with pytest.raises(ValueError, match="dyadic"):
            hat().compose_linear(3, 0)


class TestTaylorShift:
    def test_values_move_by_the_shift(self):
        rng = random.Random(4)
        for _ in range(50):
            p = LaurentPoly({k: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for k in range(rng.randint(0, 7))})
            s = Fraction(rng.randint(-20, 20), 2 ** rng.randint(0, 4))
            x = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            assert taylor_shift(p, s).eval_rational(x) == p.eval_rational(x + s)

    def test_compose_linear_equals_horner(self):
        rng = random.Random(10)
        for _ in range(90):
            f = quark(rng.randint(1, 10), rng.randint(0, 8)) if rng.random() < 0.7 else rand_piecewise(rng)
            a = Fraction(2) ** rng.randint(-3, 3)
            b = Fraction(rng.randint(-40, 40), 2 ** rng.randint(0, 5))
            assert f.compose_linear(a, b) == compose_linear_horner(f, a, b)


class TestIntegrals:
    def test_indicator_inner_product(self):
        f = PiecewisePoly.indicator(0, 1)
        assert inner_product(f, f) == 1

    def test_hat_shift_overlap(self):
        # <N2, N2(.-1)> = integral_0^1 u(1-u) du = 1/6, by the Beta integral
        f = hat()
        assert inner_product(f, f.translate(1)) == Fraction(1, 6)

    def test_hat_norm(self):
        # integral_0^1 x^2 + integral_1^2 (2-x)^2 = 2/3
        f = hat()
        assert inner_product(f, f) == Fraction(2, 3)

    def test_moment(self):
        f = PiecewisePoly.indicator(0, 1)
        assert f.moment(0) == 1
        assert f.moment(1) == Fraction(1, 2)
        assert f.moment(3) == Fraction(1, 4)

    def test_symmetry_and_bilinearity(self):
        rng = random.Random(19)
        for _ in range(25):
            f, g, h = (rand_piecewise(rng) for _ in range(3))
            a = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            assert inner_product(f, g) == inner_product(g, f)
            assert inner_product(f * a + h, g) == a * inner_product(f, g) + inner_product(h, g)

    def test_positivity(self):
        rng = random.Random(29)
        for _ in range(25):
            f = rand_piecewise(rng)
            if f.is_zero():
                continue
            assert inner_product(f, f) > 0

    def test_product_respects_support_intersection(self):
        f = PiecewisePoly.indicator(0, 2)
        g = PiecewisePoly.indicator(1, 3).mul_poly([0, 1])
        prod = f * g
        assert prod.support() == (1, 2)
        assert prod(Fraction(3, 2)) == Fraction(3, 2)
