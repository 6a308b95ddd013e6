"""Laurent polynomial and Laurent matrix algebra."""

import ast
import json
import math
import pickle
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from helpers import (
    divmod_poly,
    evaluate,
    fpoly_add,
    fpoly_conj,
    fpoly_derivative,
    fpoly_divmod,
    fpoly_eval,
    fpoly_mul,
    fpoly_neg,
    fpoly_scale,
    fpoly_substitute_neg,
    fraction_matmul,
    invert_lower_triangular,
    is_lower_triangular,
    laurent_from_taps,
    laurent_identity,
    laurent_zero,
    poly_value,
    trim,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from quarklets import serialize
from quarklets.duals import cascade, float_taps
from quarklets.laurent import LaurentMatrix, LaurentPoly, pascal_inverse, pascal_matrix, pascal_product
from quarklets.modulation import build_modulation


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
        assert abs(poly_value(p.conj_on_circle(), z) - poly_value(p, z).conjugate()) < 1e-12


class TestMatrix:
    def test_identity_multiplication(self):
        rng = random.Random(2)
        m = LaurentMatrix([[rand_poly(rng, 2) for _ in range(2)] for _ in range(2)])
        assert laurent_identity(2) @ m == m
        assert m @ laurent_identity(2) == m

    def test_dimension_mismatch(self):
        a = laurent_identity(2)
        b = laurent_zero(3, 2)
        with pytest.raises(ValueError):
            a @ b
        with pytest.raises(ValueError):
            a + b

    def test_invert_diagonal(self):
        # diag(2z, z) -> diag(z^{-1}/2, z^{-1})
        m = LaurentMatrix(
            [[P({1: 2}), P({})], [P({}), P({1: 1})]]
        )
        inv = invert_lower_triangular(m)
        assert inv == LaurentMatrix([[P({-1: Fraction(1, 2)}), P({})], [P({}), P({-1: 1})]])

    def test_invert_forward_substitution(self):
        # [[z, 0], [1, z]]^{-1} = [[1/z, 0], [-1/z^2, 1/z]] by hand substitution
        m = LaurentMatrix([[P({1: 1}), P({})], [P({0: 1}), P({1: 1})]])
        inv = invert_lower_triangular(m)
        assert inv == LaurentMatrix([[P({-1: 1}), P({})], [P({-2: -1}), P({-1: 1})]])

    def test_invert_requires_monomial_diagonal(self):
        m = LaurentMatrix([[P({0: 1, 1: 1}), P({})], [P({0: 1}), P({1: 1})]])
        with pytest.raises(ValueError, match="monomial"):
            invert_lower_triangular(m)

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
            inv = invert_lower_triangular(m)
            assert inv @ m == laurent_identity(n)
            assert m @ inv == laurent_identity(n)

    def test_conj_transpose_involution(self):
        rng = random.Random(23)
        m = LaurentMatrix([[rand_poly(rng, 2) for _ in range(3)] for _ in range(2)])
        assert m.conj_transpose().conj_transpose() == m


# small, 172-bit-sized and coprime large denominators side by side
DENOMINATORS = (1, 2, 3, 7, 64, 2**61 - 1, 3**40, 10**30 + 7, 2**172)


def rand_sparse_poly(rng, span=4):
    """Zero, or a few terms at exponents in [-span, span] with mixed denominators."""
    if rng.random() < 0.2:
        return LaurentPoly.zero()
    exps = rng.sample(range(-span, span + 1), rng.randint(1, 2 * span + 1))
    return LaurentPoly(
        {k: Fraction(rng.randint(-10**12, 10**12), rng.choice(DENOMINATORS)) for k in exps}
    )


def rand_matrix(rng, rows, cols, zero_row=None, zero_col=None):
    return LaurentMatrix(
        [[LaurentPoly.zero() if zero_row == i or zero_col == j else rand_sparse_poly(rng)
          for j in range(cols)] for i in range(rows)]
    )


def stores_no_zero(m: LaurentMatrix) -> bool:
    return all(c != 0 for row in m.entries for e in row for c in e.coeffs.values())


class TestIntegerCoreProduct:
    """The integer-core kernel of ``@`` against the Fraction-accumulating product."""

    @pytest.mark.parametrize("shape", [(1, 1, 1), (2, 2, 2), (3, 3, 3), (2, 3, 4), (4, 1, 3), (3, 5, 1)])
    def test_random_shapes(self, shape):
        r, k, c = shape
        rng = random.Random(100 * r + 10 * k + c)
        for _ in range(8):
            a, b = rand_matrix(rng, r, k), rand_matrix(rng, k, c)
            got = a @ b
            assert got == fraction_matmul(a, b)
            assert (got.rows, got.cols) == (r, c) and stores_no_zero(got)

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_decompose_shape(self, n):
        # a 1 x n row of frame phases against an n x 2n analysis matrix, even exponents only
        rng = random.Random(n)
        row = LaurentMatrix([[LaurentPoly({2 * k: c for k, c in rand_sparse_poly(rng, 8).coeffs.items()})
                              for _ in range(n)]])
        mat = rand_matrix(rng, n, 2 * n)
        assert row @ mat == fraction_matmul(row, mat)

    def test_zero_rows_and_columns(self):
        rng = random.Random(41)
        a = rand_matrix(rng, 3, 4, zero_row=1, zero_col=2)
        b = rand_matrix(rng, 4, 3, zero_row=2, zero_col=0)
        got = a @ b
        assert got == fraction_matmul(a, b)
        assert all(e.is_zero() for e in got.entries[1])
        assert all(row[0].is_zero() for row in got.entries)
        assert laurent_zero(2, 4) @ b == laurent_zero(2, 3)

    def test_cancellation_stores_no_zero(self):
        p = P({-3: Fraction(1, 3**40), 0: Fraction(5, 7), 2: Fraction(-1, 2**61 - 1)})
        q = P({-1: Fraction(2, 9), 4: 11})
        # the whole entry cancels: p q - p q
        full = LaurentMatrix([[p, p]]) @ LaurentMatrix([[q], [-q]])
        assert full[0, 0].coeffs == {}
        # some coefficients cancel: (1 + z)(1 - z) + z^2 = 1
        part = LaurentMatrix([[P({0: 1, 1: 1}), P({2: 1})]]) @ LaurentMatrix([[P({0: 1, 1: -1})], [1]])
        assert part[0, 0].coeffs == {0: Fraction(1)}
        assert full == fraction_matmul(LaurentMatrix([[p, p]]), LaurentMatrix([[q], [-q]]))

    def test_polynomial_product_is_the_one_by_one_case(self):
        rng = random.Random(43)
        for _ in range(30):
            a, b = rand_sparse_poly(rng), rand_sparse_poly(rng)
            assert a * b == fraction_matmul(LaurentMatrix([[a]]), LaurentMatrix([[b]]))[0, 0]

    @pytest.mark.parametrize("shapes", [((2, 3), (2, 3)), ((1, 4), (3, 8)), ((3, 1), (2, 1))])
    def test_dimension_mismatch(self, shapes):
        (r, k), (k2, c) = shapes
        with pytest.raises(ValueError, match="dimension mismatch"):
            laurent_zero(r, k) @ laurent_zero(k2, c)


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

    @pytest.mark.parametrize("x", [0.1, "1/3"])
    def test_rational_evaluation_rejects_floats_and_strings(self, x):
        # Fraction(x) reads 0.1 as the binary fraction 3602879701896397/2^55 and parses strings
        with pytest.raises(TypeError, match="exact rational"):
            P({0: 1, 1: 1}).eval_rational(x)


rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5))


def laurent_polys(lo=-4, hi=4, min_size=0):
    return st.dictionaries(st.integers(lo, hi), rationals, min_size=min_size, max_size=7).map(
        LaurentPoly
    )


polynomials = laurent_polys(lo=0, hi=7)
nonzero = laurent_polys(min_size=1).filter(bool)


short_polys = st.dictionaries(st.integers(-2, 2), rationals, max_size=3).map(LaurentPoly)
pascal_sequences = st.lists(short_polys, min_size=1, max_size=5)
units = st.builds(LaurentPoly.monomial, rationals.filter(bool), st.integers(-2, 2))


class TestPascalRing:
    """M_g = [C(i, j) g_{i-j}] multiplies as M_g M_h = M_{g * h}."""

    @settings(max_examples=60, deadline=None, database=None)
    @given(pascal_sequences, pascal_sequences)
    def test_product_expands_to_the_matrix_product(self, g, h):
        n = min(len(g), len(h))
        got = pascal_matrix(pascal_product(g, h))
        assert got == pascal_matrix(g[:n]) @ pascal_matrix(h[:n])
        assert is_lower_triangular(got)

    @settings(max_examples=60, deadline=None, database=None)
    @given(units, pascal_sequences)
    def test_inverse_expands_to_the_matrix_inverse(self, head, tail):
        h = [head, *tail[:4]]
        k = pascal_inverse(h)
        n = len(h)
        assert pascal_matrix(k) @ pascal_matrix(h) == laurent_identity(n)
        # (D M_h)^{-1} = M_k D^{-1} for D = diag(2^-i), as the bundle's T and T^{-1}
        assert pascal_matrix(k, col=2) == invert_lower_triangular(pascal_matrix(h, row=Fraction(1, 2)))

    @settings(max_examples=40, deadline=None, database=None)
    @given(pascal_sequences.filter(lambda h: not h[0].is_monomial()))
    def test_inverse_needs_a_monomial_head(self, h):
        with pytest.raises(ValueError, match="monomial"):
            pascal_inverse(h)


def dense(p: LaurentPoly) -> tuple[Fraction, ...]:
    """Coefficients of a polynomial p, constant term first (the oracles' form)."""
    return trim(p[k] for k in range(max(p.coeffs, default=-1) + 1))


def top(p: LaurentPoly) -> int:
    return max(p.coeffs)


class TestDivisionAndDerivative:
    @settings(max_examples=200, deadline=None, database=None)
    @given(polynomials, polynomials.filter(bool))
    def test_divmod_equals_dense_long_division(self, a, b):
        q, r = divmod(a, b)
        assert (dense(q), dense(r)) == divmod_poly(dense(a), dense(b))

    @settings(max_examples=200, deadline=None, database=None)
    @given(laurent_polys(), nonzero)
    def test_division_identity_and_remainder_degree(self, a, b):
        q, r = divmod(a, b)
        assert a == q * b + r
        assert r.is_zero() or top(r) < top(b)

    @settings(max_examples=200, deadline=None, database=None)
    @given(laurent_polys(), nonzero)
    def test_exact_multiple_leaves_zero_remainder(self, q, b):
        a = q * b
        if a and min(a.coeffs) >= 0 and min(q.coeffs) < 0:
            # a polynomial multiple of a non-polynomial q: polynomial division applies
            quot, rem = divmod(a, b)
            assert a == quot * b + rem and min(quot.coeffs, default=0) >= 0
            return
        assert divmod(a, b) == (q, LaurentPoly.zero())

    def test_exact_division_with_negative_exponents(self):
        b = P({-2: Fraction(1, 3), 0: -1, 1: 2})
        q = P({-3: 5, -1: Fraction(-1, 2), 2: 1})
        assert divmod(q * b, b) == (q, 0)
        assert divmod(P({-1: 1}), P({1: 1})) == (P({-2: 1}), 0)

    def test_polynomial_dividend_keeps_polynomial_division(self):
        # 1 = 0 * z + 1 as polynomials, although z^-1 * z = 1 in the Laurent ring
        assert divmod(P({0: 1}), P({1: 1})) == (0, 1)

    @pytest.mark.parametrize("a", [P({}), P({0: 1}), P({-2: 1, 3: Fraction(1, 2)})])
    def test_zero_divisor_raises(self, a):
        with pytest.raises(ZeroDivisionError):
            divmod(a, LaurentPoly.zero())

    @settings(max_examples=200, deadline=None, database=None)
    @given(laurent_polys(), laurent_polys())
    def test_derivative_product_rule(self, a, b):
        assert (a * b).derivative() == a.derivative() * b + a * b.derivative()

    def test_derivative_of_monomials(self):
        assert P({3: 2, -1: Fraction(1, 2), 0: 7}).derivative() == P({2: 6, -2: Fraction(-1, 2)})

    @settings(max_examples=200, deadline=None, database=None)
    @given(polynomials, rationals)
    def test_eval_rational_equals_horner_oracle(self, p, x):
        assert p.eval_rational(x) == evaluate(dense(p), x)

    @settings(max_examples=200, deadline=None, database=None)
    @given(laurent_polys(), rationals.filter(bool))
    def test_eval_rational_with_negative_exponents(self, p, x):
        expected = sum((c * x**k for k, c in p.coeffs.items()), Fraction(0))
        assert p.eval_rational(x) == expected

    @settings(max_examples=100, deadline=None, database=None)
    @given(laurent_polys(lo=-4, hi=-1, min_size=1).filter(bool), polynomials)
    def test_eval_rational_at_zero_needs_nonnegative_exponents(self, neg, p):
        assert p.eval_rational(0) == p[0]
        with pytest.raises(ZeroDivisionError):
            (neg + p).eval_rational(0)


matrices = st.tuples(st.integers(1, 3), st.integers(1, 3)).flatmap(
    lambda shape: st.lists(
        st.lists(laurent_polys(), min_size=shape[1], max_size=shape[1]), min_size=shape[0], max_size=shape[0]
    ).map(LaurentMatrix)
)


class TestTaps:
    @settings(max_examples=200, deadline=None, database=None)
    @given(matrices)
    def test_from_taps_inverts_taps(self, m):
        taps = m.taps()
        assert laurent_from_taps(m.rows, m.cols, taps) == m
        assert set(taps) == {k for row in m.entries for e in row for k in e.coeffs}
        for tap in taps.values():
            assert len(tap) == m.rows and all(len(row) == m.cols for row in tap)
            assert any(any(row) for row in tap)

    def test_from_taps_drops_zero_coefficients(self):
        m = laurent_from_taps(2, 1, {-1: [[0], [Fraction(1, 3)]], 2: [[0], [0]]})
        assert stores_no_zero(m)
        assert m == LaurentMatrix([[0], [P({-1: Fraction(1, 3)})]])
        assert m.taps() == {-1: [[0], [Fraction(1, 3)]]}

    def test_from_taps_rejects_floats(self):
        with pytest.raises(TypeError):
            laurent_from_taps(1, 1, {0: [[0.5]]})

    @pytest.mark.parametrize("module", ["masks", "modulation", "transform"])
    def test_taps_are_built_in_laurent_only(self, module):
        # a Laurent matrix is turned into taps by LaurentMatrix.taps;
        # hand-written tap builders filled a dict with setdefault
        tree = ast.parse((Path(__file__).parent.parent / f"src/quarklets/{module}.py").read_text())
        calls = [node for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr == "setdefault"]
        assert not calls


class TestCascade:
    def test_float_taps_are_read_only_coefficients(self):
        m = LaurentMatrix([[P({-1: Fraction(1, 2), 2: 3}), 0], [1, P({0: Fraction(1, 4)})]])
        lo, taps = float_taps(m)
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
        got = cascade(float_taps(haar), 1.0, xi, levels, np.ones(1))[:, 0]
        expected = (np.exp(-0.5j * xi * (1 - 2.0**-levels)) * np.sin(xi / 2)
                    / (2**levels * np.sin(xi / 2 ** (levels + 1))))
        assert np.max(np.abs(got - expected)) < 1e-14


# mixed small and large denominators, zero numerators included (they must be dropped)
wide_rationals = st.builds(Fraction, st.integers(-10**20, 10**20) | st.integers(-3, 3), st.sampled_from(DENOMINATORS))
fraction_dicts = st.dictionaries(st.integers(-6, 6), wide_rationals, max_size=8)


def assert_canonical(p: LaurentPoly):
    """Integer numerators, none zero, over a positive denominator, in lowest terms."""
    assert type(p.den) is int and p.den > 0
    assert all(type(n) is int and n for n in p.nums.values())
    assert math.gcd(p.den, *p.nums.values()) == 1


class TestAgainstFractionDicts:
    """Every operation of the integer-numerator form against the Fraction-dict oracle."""

    @settings(max_examples=300, deadline=None, database=None)
    @given(fraction_dicts, fraction_dicts, wide_rationals, st.integers(-10**20, 10**20) | st.integers(-3, 3))
    def test_operations_equal_the_oracle(self, a, b, c, n):
        p, q = LaurentPoly(a), LaurentPoly(b)
        a, b = ({k: v for k, v in d.items() if v} for d in (a, b))
        cases = [
            (p, a), (p + q, fpoly_add(a, b)), (p - q, fpoly_add(a, fpoly_neg(b))), (-p, fpoly_neg(a)),
            (p * q, fpoly_mul(a, b)), (p * c, fpoly_scale(a, c)), (c * p, fpoly_scale(a, c)),
            (p * n, fpoly_scale(a, Fraction(n))), (n * p, fpoly_scale(a, Fraction(n))),
            (p + c, fpoly_add(a, {0: c} if c else {})), (c - p, fpoly_add({0: c} if c else {}, fpoly_neg(a))),
            (p.substitute_neg(), fpoly_substitute_neg(a)), (p.conj_on_circle(), fpoly_conj(a)),
            (p.derivative(), fpoly_derivative(a)),
        ]
        if b:
            # shifted to polynomials, where division is plain long division
            dividend, divisor = (r * LaurentPoly.monomial(1, 6) for r in (p, q))
            want = fpoly_divmod(*({k + 6: v for k, v in d.items()} for d in (a, b)))
            cases += zip(divmod(dividend, divisor), want)
        for got, want in cases:
            assert dict(got.coeffs) == want
            assert_canonical(got)
        if c:
            assert p.eval_rational(c) == fpoly_eval(a, c)
        assert (p == q) == (a == b)

    @settings(max_examples=200, deadline=None, database=None)
    @given(fraction_dicts, fraction_dicts, wide_rationals.filter(bool))
    def test_equal_polynomials_hash_equal(self, a, b, c):
        p, q = LaurentPoly(a), LaurentPoly(b)
        for same in ((p + q) - q, (p * c) * (1 / c), LaurentPoly(dict(p.coeffs)), -(-p)):
            assert same == p and hash(same) == hash(p)
            assert (same.nums, same.den) == (p.nums, p.den)

    def test_coeffs_view_is_read_only(self):
        p = LaurentPoly({-1: Fraction(1, 3), 2: 5})
        view = p.coeffs
        with pytest.raises(TypeError):
            view[0] = Fraction(1)
        with pytest.raises(TypeError):
            del view[2]
        with pytest.raises(AttributeError):
            p.coeffs = {}
        assert p == LaurentPoly({-1: Fraction(1, 3), 2: 5}) and dict(view) == {-1: Fraction(1, 3), 2: Fraction(5)}

    def test_numerators_are_read_only(self):
        p = LaurentPoly({-1: Fraction(1, 3), 2: 5})
        # built by the constructor, by _raw (negation) and by _from_int (product)
        for poly in (p, -p, p * p):
            with pytest.raises(TypeError):
                poly.nums[2] = 1
            for name, value in (("nums", {}), ("den", 1)):
                with pytest.raises(AttributeError):
                    setattr(poly, name, value)
                with pytest.raises(AttributeError):
                    delattr(poly, name)
        assert (dict(p.nums), p.den) == ({-1: 1, 2: 15}, 3)

    def test_cached_bundle_cannot_be_changed_through_a_numerator(self):
        masks = build_modulation(2, 2, 1).dual_scaling_masks
        before = json.dumps(serialize.mask_json(masks))
        e = masks.symbol.entries[0][0]
        with pytest.raises(TypeError):
            e.nums[next(iter(e.nums))] += 1
        assert json.dumps(serialize.mask_json(build_modulation(2, 2, 1).dual_scaling_masks)) == before

    def test_matrix_fields_are_read_only(self):
        m = LaurentMatrix([[1, LaurentPoly({1: Fraction(1, 2)})], [0, -1]])
        for name, value in (("entries", ((LaurentPoly.one(),),)), ("rows", 1), ("cols", 1)):
            with pytest.raises(AttributeError):
                setattr(m, name, value)
            with pytest.raises(AttributeError):
                delattr(m, name)
        with pytest.raises(TypeError):
            m.entries[0] = m.entries[1]
        assert (m.rows, m.cols) == (2, 2) and m == LaurentMatrix([[1, LaurentPoly({1: Fraction(1, 2)})], [0, -1]])
        back = pickle.loads(pickle.dumps(m))
        assert back == m and hash(back) == hash(m)
        with pytest.raises(AttributeError):
            back.entries = ()

    def test_cached_bundle_cannot_be_changed_through_a_matrix_field(self):
        bundle = build_modulation(2, 2, 1)
        before = json.dumps(serialize.mask_json(bundle.scaling_masks))
        with pytest.raises(AttributeError):
            bundle.scaling_symbol.entries = bundle.scaling_symbol.entries[::-1]
        again = build_modulation(2, 2, 1)
        assert again is bundle
        assert json.dumps(serialize.mask_json(again.scaling_masks)) == before

    @settings(max_examples=100, deadline=None, database=None)
    @given(fraction_dicts)
    def test_pickle_round_trip(self, a):
        p = LaurentPoly(a)
        back = pickle.loads(pickle.dumps(p))
        assert back == p and hash(back) == hash(p)
        assert_canonical(back)
        with pytest.raises(TypeError):
            back.nums[0] = 1
