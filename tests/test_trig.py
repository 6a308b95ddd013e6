"""Shift Gram symbols and the exact circle-positivity decision."""

import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from helpers import (
    all_roots_in_open_unit_disk,
    chebyshev_t,
    cosine_polynomial_by_chebyshev,
    count_roots_closed,
    is_positive_on_circle_by_sturm,
    isolate_roots_by_sturm,
    poly_value,
    shift_gram_symbol,
    shift_gram_symbol_by_translates,
    trim,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from quarklets import realroots, trig
from quarklets.cdf import quarklets
from quarklets.laurent import LaurentPoly
from quarklets.piecewise import PiecewisePoly, inner_product
from quarklets.splines import bspline, quark
from quarklets.stability import gram_symbol_matrix, trig_determinant
from quarklets.trig import gram_matrix, is_positive_on_circle, to_cosine_polynomial


class TestShiftGramSymbol:
    def test_orthonormal_shifts_give_constant_one(self):
        f = PiecewisePoly.indicator(0, 1)
        assert shift_gram_symbol(f, f) == LaurentPoly({0: 1})

    def test_hat_autocorrelation(self):
        # coefficients 2/3 at n=0 and 1/6 at n=+-1 (hand integrals)
        f = bspline(2)
        assert shift_gram_symbol(f, f) == LaurentPoly(
            {0: Fraction(2, 3), 1: Fraction(1, 6), -1: Fraction(1, 6)}
        )

    def test_disjoint_translates_fold_to_zero(self):
        f = bspline(2)
        theta = shift_gram_symbol(f, f.translate(2))
        assert theta[2] == 0

    def test_coefficients_are_lattice_inner_products(self):
        f = bspline(3)
        g = bspline(2)
        theta = shift_gram_symbol(f, g)
        for n in range(-4, 5):
            assert theta[n] == inner_product(f, g.translate(n))

    def test_autocorrelation_real_and_nonneg_on_samples(self):
        for m in (1, 2, 3, 4):
            f = bspline(m)
            theta = shift_gram_symbol(f, f)
            assert theta.conj_on_circle() == theta
            for i in range(33):
                t = 2 * math.pi * i / 32
                val = poly_value(theta, cmath.exp(-1j * t))
                assert abs(val.imag) < 1e-12
                assert val.real >= -1e-12


class TestGramAgainstTranslates:
    @pytest.mark.parametrize("m", range(1, 9))
    def test_quark_pairs(self, m):
        # the oracle runs on the upper triangle; <g, f(. - n)> = <f, g(. + n)> gives the rest
        quarks = [quark(m, q) for q in range(7)]
        for i, f in enumerate(quarks):
            for g in quarks[i:]:
                theta = shift_gram_symbol(f, g)
                assert theta == shift_gram_symbol_by_translates(f, g)
                assert shift_gram_symbol(g, f) == theta.conj_on_circle()

    def test_non_integer_breakpoints(self):
        # dilated and shifted quarks: pieces of f and of the translates of g
        # overlap in part, so both local pieces are Taylor-shifted
        rng = random.Random(8)

        def composed():
            scale = Fraction(2) ** rng.randint(-2, 2)
            shift = Fraction(rng.randint(-8, 8), 2 ** rng.randint(0, 3))
            return quark(rng.randint(1, 5), rng.randint(0, 3)).compose_linear(scale, shift)

        for _ in range(40):
            f, g = composed(), composed()
            assert shift_gram_symbol(f, g) == shift_gram_symbol_by_translates(f, g)

    def test_zero_pieces_and_zero_functions(self):
        f = PiecewisePoly([Fraction(-1, 2), 0, Fraction(3, 4), 2], [(1, 2), (), (Fraction(1, 3), 0, -1)])
        g = bspline(3).compose_linear(2, Fraction(1, 8))
        assert shift_gram_symbol(f, g) == shift_gram_symbol_by_translates(f, g)
        assert shift_gram_symbol(f, PiecewisePoly.zero()) == LaurentPoly.zero()
        assert shift_gram_symbol(PiecewisePoly.zero(), g) == LaurentPoly.zero()

    def test_quarklet_gram_matrix(self):
        # quarklet breakpoints are half-integers, so pieces overlap translates in part
        family = quarklets(2, 2, 2)
        assert any(b.denominator == 2 for f in family for b in f.breakpoints)
        gram = gram_matrix(family)
        for i, f in enumerate(family):
            for j, g in enumerate(family):
                assert gram[i][j] == shift_gram_symbol_by_translates(f, g), (i, j)

    def test_gram_matrix_of_no_function_raises(self):
        with pytest.raises(ValueError, match="at least one function"):
            gram_matrix(())


class TestPositivity:
    def test_constant_one(self):
        res = is_positive_on_circle(LaurentPoly({0: 1}))
        assert res.positive

    def test_hat_symbol_min_third_at_pi(self):
        # 2/3 + (1/3) cos t has minimum 1/3 at t = pi
        theta = LaurentPoly({0: Fraction(2, 3), 1: Fraction(1, 6), -1: Fraction(1, 6)})
        res = is_positive_on_circle(theta)
        assert res.positive
        assert abs(res.location - math.pi) < 1e-6
        assert abs(res.value - 1 / 3) < 1e-9

    def test_touching_zero_detected(self):
        # (1 - cos t)/15: autocorrelation shape of the unstable m=2 degree-1 quark
        theta = LaurentPoly({0: Fraction(1, 15), 1: Fraction(-1, 30), -1: Fraction(-1, 30)})
        res = is_positive_on_circle(theta)
        assert not res.positive
        assert abs(res.location - 0.0) < 1e-9

    def test_interior_zero_detected(self):
        # 1/2 + cos t vanishes at t = 2 pi / 3 (x = -1/2 exactly)
        theta = LaurentPoly({0: Fraction(1, 2), 1: Fraction(1, 2), -1: Fraction(1, 2)})
        res = is_positive_on_circle(theta)
        assert not res.positive
        assert abs(res.location - 2 * math.pi / 3) < 1e-6

    def test_negative_region_without_symmetric_zero(self):
        theta = LaurentPoly({0: Fraction(-1)})
        res = is_positive_on_circle(theta)
        assert not res.positive

    def test_asymmetric_coefficients_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            to_cosine_polynomial(LaurentPoly({1: 1}))

    def test_cosine_polynomial_of_single_quarks_equals_the_chebyshev_sum(self):
        # every autocorrelation symbol behind stability_table(10, 10)
        for m in range(1, 11):
            for q in range(11):
                phi = quark(m, q)
                theta = shift_gram_symbol(phi, phi)
                assert to_cosine_polynomial(theta) == cosine_polynomial_by_chebyshev(theta), (m, q)

    def test_cosine_polynomial_of_vector_determinants_equals_the_chebyshev_sum(self):
        for m in range(1, 7):
            for p in range(7):
                det = trig_determinant(gram_symbol_matrix(m, p))
                assert to_cosine_polynomial(det) == cosine_polynomial_by_chebyshev(det), (m, p)

    def test_symmetry_is_checked_before_the_endpoint_value(self):
        # theta(1) = 0, but theta is not even
        with pytest.raises(ValueError, match="symmetric"):
            is_positive_on_circle(LaurentPoly({0: -1, 1: 1}))

    def test_zero_at_t_zero_needs_no_root_search(self, monkeypatch):
        # (1 - cos t)^2 (2 + cos t): theta(1) = 0 decides before the cosine polynomial is built
        def never(*args):
            raise AssertionError("theta(1) = 0 must decide alone")

        theta = cosine_factors([1, 1, -2])
        expected = is_positive_on_circle_by_sturm(theta)
        monkeypatch.setattr(trig, "to_cosine_polynomial", never)
        monkeypatch.setattr(realroots, "isolate_roots", never)
        res = is_positive_on_circle(theta)
        assert res == expected == trig.CirclePositivity(False, 0.0, 0.0, "zero on the unit circle near t = 0")


def cosine_factors(roots) -> LaurentPoly:
    """prod_r (cos t - r) as a Laurent polynomial in z = exp(-i t)."""
    out = LaurentPoly.one()
    for r in roots:
        out = out * LaurentPoly({-1: Fraction(1, 2), 0: -Fraction(r), 1: Fraction(1, 2)})
    return out


@pytest.fixture
def square_free_calls(monkeypatch):
    """Polynomials handed to ``realroots.square_free`` while the fixture is active."""
    calls = []
    original = realroots.square_free
    monkeypatch.setattr(realroots, "square_free", lambda p: calls.append(p) or original(p))
    return calls


def decide_both_ways(theta: LaurentPoly, calls: list) -> tuple:
    """(Descartes verdict, number of square-free fallbacks it took, Sturm verdict)."""
    before = len(calls)
    res = is_positive_on_circle(theta)
    fallbacks = len(calls) - before
    return res, fallbacks, is_positive_on_circle_by_sturm(theta)


class TestDescartesAgainstSturm:
    """Verdict, location, value and certificate ``==`` to the Sturm-chain path."""

    def test_single_quarks(self, square_free_calls):
        for m in range(1, 11):
            for q in range(11):
                phi = quark(m, q)
                res, fallbacks, sturm = decide_both_ways(shift_gram_symbol(phi, phi), square_free_calls)
                assert res == sturm, (m, q)
                assert fallbacks == 0

    def test_quark_vectors(self, square_free_calls):
        for m in range(1, 7):
            for p in range(7):
                res, fallbacks, sturm = decide_both_ways(trig_determinant(gram_symbol_matrix(m, p)),
                                                         square_free_calls)
                assert res == sturm, (m, p)
                assert res.positive == (m == 1 or p == 0)
                assert fallbacks == 0

    def test_quarklet_vector_gram_determinant(self, square_free_calls):
        # stable but poorly conditioned: its minimum is about 1.7e-32, near t = 0.011
        family = quarklets(3, 5, 5)
        det = trig_determinant([[shift_gram_symbol(f, g) for g in family] for f in family])
        res = is_positive_on_circle(det)
        assert res.positive and not square_free_calls

    @pytest.mark.parametrize("roots, fallback", [
        ([Fraction(1, 3), Fraction(1, 3), 2], True),                      # interior double root
        ([Fraction(-2, 5), Fraction(-2, 5), Fraction(5, 7), Fraction(5, 7)], True),
        ([Fraction(1, 2), Fraction(1, 2), -3], False),                    # double root on a midpoint
        ([Fraction(1, 2), Fraction(-1, 3)], False),                       # simple root on a midpoint
        ([-1, Fraction(3, 8), 2], False),                                 # root at x = -1
        ([-1, -1, 3], False),
        ([1, Fraction(1, 5)], False),                                     # root at x = 1
        ([Fraction(1, 3), Fraction(1, 3) + Fraction(1, 2**45)], False),   # closer than 2^-40
    ])
    def test_cosine_products(self, roots, fallback, square_free_calls):
        res, fallbacks, sturm = decide_both_ways(cosine_factors(roots), square_free_calls)
        assert res == sturm
        assert (fallbacks > 0) == fallback

    @settings(max_examples=60, deadline=None, database=None)
    @given(
        st.lists(st.fractions(-1, 1, max_denominator=12), min_size=1, max_size=5),
        st.lists(st.fractions(1, 3, max_denominator=6), max_size=2),
        st.booleans(),
        st.integers(0, 2),
    )
    def test_random_cosine_products(self, inside, outside, flip, doubled):
        # factors with |r| > 1 have no zero on the circle; doubled roots are multiple roots of q
        roots = inside + inside[:doubled] + [-r if flip else r for r in outside]
        calls = []
        original = realroots.square_free
        realroots.square_free = lambda p: calls.append(p) or original(p)
        try:
            res, fallbacks, sturm = decide_both_ways(cosine_factors(roots), calls)
        finally:
            realroots.square_free = original
        assert res == sturm
        interior_double = any(-1 < r < 1 and r.denominator & (r.denominator - 1) for r in inside[:doubled])
        if interior_double and 1 not in roots:
            assert fallbacks > 0


class TestRealRoots:
    def test_count_and_isolate_simple(self):
        # (x - 1/2)(x + 3/4) x
        p = LaurentPoly({1: Fraction(-3, 8), 2: Fraction(1, 4), 3: Fraction(1)})
        # p = x^3 + x^2/4 - 3x/8: roots 0, 1/2, -3/4
        roots = realroots.isolate_roots(p, Fraction(-1), Fraction(1))
        assert len(roots) == 3
        for r, expected in zip(roots, [-0.75, 0.0, 0.5]):
            assert abs(float(r) - expected) < 1e-9

    @pytest.mark.parametrize("a, b", [(1, 1), (2, 0)])
    def test_empty_interval_rejected(self, a, b):
        with pytest.raises(ValueError, match="a < b"):
            realroots.isolate_roots(LaurentPoly({0: -1, 1: 1}), Fraction(a), Fraction(b))

    def test_multiple_root_counted_once(self):
        # (x - 1/2)^2
        p = LaurentPoly({0: Fraction(1, 4), 1: Fraction(-1), 2: Fraction(1)})
        assert count_roots_closed(p, Fraction(-1), Fraction(1)) == 1

    def test_endpoint_root(self):
        p = LaurentPoly({0: Fraction(-1), 1: Fraction(1)})  # x - 1
        assert count_roots_closed(p, Fraction(-1), Fraction(1)) == 1
        assert count_roots_closed(p, Fraction(-1), Fraction(1, 2)) == 0

    def test_isolation_against_numpy(self):
        rng = random.Random(41)
        for _ in range(20):
            coeffs = [Fraction(rng.randint(-8, 8), rng.randint(1, 3)) for _ in range(rng.randint(2, 6))]
            p = trim(coeffs)
            if len(p) < 2:
                continue
            poly = LaurentPoly(dict(enumerate(p)))
            ours = [float(r) for r in realroots.isolate_roots(poly, Fraction(-1), Fraction(1))]
            numpy_roots = np.roots([float(c) for c in reversed(p)])
            reals = sorted(
                r.real
                for r in numpy_roots
                if abs(r.imag) < 1e-9 and -1 - 1e-9 <= r.real <= 1 + 1e-9
            )
            dedup = []
            for r in reals:
                if not dedup or r - dedup[-1] > 1e-8:
                    dedup.append(r)
            assert len(ours) == len(dedup)
            for a, b in zip(ours, dedup):
                assert abs(a - b) < 1e-6

    @settings(max_examples=80, deadline=None, database=None)
    @given(
        st.lists(st.fractions(-2, 2, max_denominator=16), min_size=1, max_size=6),
        st.lists(st.integers(-9, 9), max_size=3),
        st.sampled_from([(Fraction(-1), Fraction(1)), (Fraction(-1, 3), Fraction(5, 4)), (Fraction(0), Fraction(1, 2))]),
    )
    def test_isolation_equals_sturm_bisection(self, roots, extra, interval):
        # (x - r) factors, with repeats, times a random integer polynomial
        p = LaurentPoly(dict(enumerate(extra))) or LaurentPoly.one()
        for r in roots + roots[:2]:
            p = p * LaurentPoly({0: -r, 1: 1})
        assert realroots.isolate_roots(p, *interval) == isolate_roots_by_sturm(p, *interval)

    def test_simple_roots_narrowed_to_their_dyadic_interval(self):
        # products of rational linear factors, repeats included: each distinct root r in (-1, 1] is the
        # right end of its depth-41 dyadic interval of (-1, 1], width 2^-40; a root at -1 is -1 itself
        rng = random.Random(26)
        width = realroots._ROOT_TOL
        for _ in range(150):
            roots = [Fraction(rng.randint(-24, 24), rng.randint(1, 25)) for _ in range(rng.randint(3, 9))]
            roots = [1 / r if abs(r) > 1 else r for r in roots]
            p = LaurentPoly.one()
            for r in roots:
                c = rng.choice([1, Fraction(-2, 3), 5])
                p = p * LaurentPoly({0: -r * c, 1: c})
            expected = sorted({r if r == -1 else -1 + math.ceil((r + 1) / width) * width for r in roots})
            assert realroots.isolate_roots(p, Fraction(-1), Fraction(1)) == expected, roots

    def test_chebyshev_identity(self):
        # T_n(cos t) = cos(n t) at a few angles
        for n in range(6):
            tn = chebyshev_t(n)
            for t in (0.3, 1.1, 2.9):
                assert abs(poly_value(tn, math.cos(t)) - math.cos(n * t)) < 1e-12

    def test_schur_cohn_against_numpy(self):
        rng = random.Random(53)
        checked = 0
        for _ in range(200):
            deg = rng.randint(1, 6)
            p = trim([Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(deg + 1)])
            if len(p) < 2:
                continue
            roots = np.roots([float(c) for c in reversed(p)])
            moduli = np.abs(roots)
            if np.any(np.abs(moduli - 1.0) < 1e-9):
                continue  # too close to the circle for a float oracle
            checked += 1
            assert all_roots_in_open_unit_disk(p) == bool(np.all(moduli < 1.0))
        assert checked > 100
