"""Laurent polynomial and Laurent matrix algebra."""

import random
from fractions import Fraction

import numpy as np
import pytest

from quarklets.laurent import LaurentMatrix, LaurentPoly, cascade


def P(coeffs):
    return LaurentPoly(coeffs)


def rand_poly(rng, span=3, scale=9):
    return LaurentPoly(
        {k: Fraction(rng.randint(-scale, scale), rng.randint(1, 5)) for k in range(-span, span + 1)}
    )


class TestPolyArithmetic:
    def test_product_difference_of_squares(self):
        assert P({0: 1, 1: 1}) * P({0: 1, 1: -1}) == P({0: 1, 2: -1})

    def test_halved_pair_product(self):
        # ((1+z)/2) ((1+1/z)/2) = z^{-1}/4 + 1/2 + z/4,   expanded by hand
        a = P({0: Fraction(1, 2), 1: Fraction(1, 2)})
        b = P({-1: Fraction(1, 2), 0: Fraction(1, 2)})
        assert a * b == P({-1: Fraction(1, 4), 0: Fraction(1, 2), 1: Fraction(1, 4)})

    def test_ring_axioms_random(self):
        rng = random.Random(11)
        for _ in range(50):
            a, b, c = (rand_poly(rng) for _ in range(3))
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a + (-a) == LaurentPoly.zero()

    def test_zero_coefficients_dropped(self):
        assert P({0: 1, 1: 0, 5: Fraction(0)}).coeffs == {0: Fraction(1)}


class TestSubstituteNeg:
    def test_simple(self):
        assert P({0: Fraction(1, 2), 1: Fraction(1, 2)}).substitute_neg() == P(
            {0: Fraction(1, 2), 1: Fraction(-1, 2)}
        )

    def test_even_exponent_fixed(self):
        assert P({2: 1}).substitute_neg() == P({2: 1})

    def test_haar_wavelet_symbol(self):
        # b(z) = (1-z)/2 with mask {1, -1}  ->  b(-z) = (1+z)/2
        b = P({0: Fraction(1, 2), 1: Fraction(-1, 2)})
        assert b.substitute_neg() == P({0: Fraction(1, 2), 1: Fraction(1, 2)})

    def test_involution_random(self):
        rng = random.Random(3)
        for _ in range(30):
            p = rand_poly(rng)
            assert p.substitute_neg().substitute_neg() == p


class TestConjOnCircle:
    def test_variable(self):
        assert P({1: 1}).conj_on_circle() == P({-1: 1})

    def test_real_coefficients(self):
        p = P({0: Fraction(1, 2), 1: Fraction(1, 2)})
        assert p.conj_on_circle() == P({0: Fraction(1, 2), -1: Fraction(1, 2)})

    def test_involution_random(self):
        rng = random.Random(5)
        for _ in range(30):
            p = rand_poly(rng)
            assert p.conj_on_circle().conj_on_circle() == p

    def test_agrees_with_complex_conjugation_on_circle(self):
        rng = random.Random(9)
        p = rand_poly(rng)
        import cmath

        z = cmath.exp(-0.7j)
        assert abs(p.conj_on_circle()(z) - p(z).conjugate()) < 1e-12


class TestMatrix:
    def test_identity_multiplication(self):
        rng = random.Random(2)
        m = LaurentMatrix([[rand_poly(rng, 2) for _ in range(2)] for _ in range(2)])
        assert LaurentMatrix.identity(2) @ m == m
        assert m @ LaurentMatrix.identity(2) == m

    def test_dimension_mismatch(self):
        a = LaurentMatrix.identity(2)
        b = LaurentMatrix.zero(3, 2)
        with pytest.raises(ValueError):
            a @ b
        with pytest.raises(ValueError):
            a + b

    def test_invert_diagonal(self):
        # diag(2z, z) -> diag(z^{-1}/2, z^{-1})
        m = LaurentMatrix(
            [[P({1: 2}), P({})], [P({}), P({1: 1})]]
        )
        inv = m.invert_lower_triangular()
        assert inv == LaurentMatrix([[P({-1: Fraction(1, 2)}), P({})], [P({}), P({-1: 1})]])

    def test_invert_forward_substitution(self):
        # [[z, 0], [1, z]]^{-1} = [[1/z, 0], [-1/z^2, 1/z]] by hand substitution
        m = LaurentMatrix([[P({1: 1}), P({})], [P({0: 1}), P({1: 1})]])
        inv = m.invert_lower_triangular()
        assert inv == LaurentMatrix([[P({-1: 1}), P({})], [P({-2: -1}), P({-1: 1})]])

    def test_invert_requires_monomial_diagonal(self):
        m = LaurentMatrix([[P({0: 1, 1: 1}), P({})], [P({0: 1}), P({1: 1})]])
        with pytest.raises(ValueError, match="monomial"):
            m.invert_lower_triangular()

    def test_invert_random_lower_triangular(self):
        rng = random.Random(17)
        for _ in range(15):
            n = rng.randint(1, 4)
            rows = []
            for i in range(n):
                row = [rand_poly(rng, 2) for _ in range(i)]
                row.append(P({rng.randint(-2, 2): Fraction(rng.choice([1, 2, 3, -1, -2]))}))
                row.extend(P({}) for _ in range(n - i - 1))
                rows.append(row)
            m = LaurentMatrix(rows)
            inv = m.invert_lower_triangular()
            assert inv @ m == LaurentMatrix.identity(n)
            assert m @ inv == LaurentMatrix.identity(n)

    def test_conj_transpose_involution(self):
        rng = random.Random(23)
        m = LaurentMatrix([[rand_poly(rng, 2) for _ in range(3)] for _ in range(2)])
        assert m.conj_transpose().conj_transpose() == m


class TestPowers:
    def test_positive_power(self):
        p = P({0: Fraction(1, 2), 1: Fraction(1, 2)})
        assert p**3 == p * p * p
        assert p**0 == LaurentPoly.one()

    def test_negative_power_of_monomial(self):
        p = P({2: Fraction(3)})
        assert p**-2 == P({-4: Fraction(1, 9)})
        assert p**-2 * p**2 == LaurentPoly.one()

    def test_negative_power_requires_monomial(self):
        with pytest.raises(ValueError):
            P({0: 1, 1: 1}) ** -1

    def test_rational_evaluation(self):
        p = P({-1: Fraction(1, 2), 1: Fraction(1, 2)})
        assert p.eval_rational(2) == Fraction(5, 4)
        with pytest.raises(ZeroDivisionError):
            p.eval_rational(0)


class TestCascade:
    def test_float_taps_are_read_only_coefficients(self):
        m = LaurentMatrix([[P({-1: Fraction(1, 2), 2: 3}), 0], [1, P({0: Fraction(1, 4)})]])
        lo, taps = m.float_taps()
        assert lo == -1 and taps.shape == (4, 2, 2)
        assert taps[0, 0, 0] == 0.5 and taps[3, 0, 0] == 3
        assert taps[1, 1, 0] == 1 and taps[1, 1, 1] == 0.25
        assert np.count_nonzero(taps) == 4
        with pytest.raises(ValueError):
            taps[0, 0, 0] = 1

    def test_haar_product_closed_form(self):
        # prod_{j <= J} (1 + e^{-i xi / 2^j}) / 2
        #   = e^{-i xi (1 - 2^-J) / 2} sin(xi / 2) / (2^J sin(xi / 2^(J+1)))
        haar = LaurentMatrix([[P({0: Fraction(1, 2), 1: Fraction(1, 2)})]])
        xi = np.linspace(-40, 40, 2000)  # several blocks of points, none at 0
        levels = 12
        got = cascade(haar.float_taps(), 1.0, xi, levels, np.ones(1))[:, 0]
        expected = (np.exp(-0.5j * xi * (1 - 2.0**-levels)) * np.sin(xi / 2)
                    / (2**levels * np.sin(xi / 2 ** (levels + 1))))
        assert np.max(np.abs(got - expected)) < 1e-14
