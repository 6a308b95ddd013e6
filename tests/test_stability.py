"""Stability decisions, Fourier zero scans, Condition E, dual spectrum."""

import ast
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from helpers import (
    cofactor_determinant,
    coefficient_matrix,
    condition_e_reference,
    eval_rational,
    ft_zero_scan_full_zoom,
    invert_lower_triangular,
    quark_ft_fixed_depth,
    shift_gram_symbol,
    shift_gram_symbol_by_translates,
)

from quarklets import duals, stability
from quarklets.cdf import quarklets
from quarklets.laurent import LaurentMatrix, LaurentPoly
from quarklets.splines import quark, refinement_symbol
from quarklets.trig import is_positive_on_circle
from quarklets.stability import (
    condition_e,
    dual_symbol_at_one,
    dual_symbol_eigenvalues,
    ft_zero_scan,
    gram_symbol_matrix,
    is_stable_single,
    is_stable_vector,
    stability_table,
    trig_determinant,
)

PAIRS = [(1, 1), (2, 2), (3, 3), (2, 4), (3, 5)]

# stability grid for orders 1..4 and degrees 0..3
EXPECTED_TABLE = {
    1: [True, True, True, True],
    2: [True, False, True, True],
    3: [True, True, True, True],
    4: [True, False, True, False],
}


class TestSingleQuark:
    @pytest.mark.parametrize("m,q,stable", [(2, 1, False), (3, 1, True), (4, 3, False)])
    def test_marked_cases(self, m, q, stable):
        report = is_stable_single(m, q)
        assert report.stable is stable

    def test_unstable_certificate_locates_circle_zero(self):
        report = is_stable_single(2, 1)
        assert not report.stable
        assert abs(report.location) < 1e-9  # autocorrelation vanishes at frequency 0

    def test_stable_certificate_positive_minimum(self):
        report = is_stable_single(2, 0)
        assert report.stable
        assert report.value > 0

    def test_table_matches(self):
        table = stability_table(4, 3)
        for m, row in EXPECTED_TABLE.items():
            for p, expected in enumerate(row):
                assert table[(m, p)] is expected, (m, p)

    def test_table_validates_bounds(self):
        with pytest.raises(ValueError):
            stability_table(0, 3)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_degree_zero_always_stable(self, m):
        assert is_stable_single(m, 0).stable

    @pytest.mark.parametrize("m,stable", [(3, True), (5, True), (2, False), (4, False), (6, False)])
    def test_degree_one_parity_law(self, m, stable):
        # odd orders keep stable degree-1 quarks, even orders lose them
        assert is_stable_single(m, 1).stable is stable

    def test_unstable_autocorrelation_closed_form(self):
        # order 2, degree 1: coefficients 1/15 and -1/30 by direct integrals,
        # so the symbol is (1 - cos t)/15 with its zero at t = 0
        theta = shift_gram_symbol(quark(2, 1), quark(2, 1))
        assert theta.coeffs == {
            0: Fraction(1, 15),
            1: Fraction(-1, 30),
            -1: Fraction(-1, 30),
        }


class TestVector:
    @pytest.mark.parametrize(
        "m,p,stable",
        [(1, 3, True), (2, 1, False), (3, 0, True), (3, 1, False), (4, 1, False)],
    )
    def test_marked_cases(self, m, p, stable):
        assert is_stable_vector(m, p).stable is stable

    def test_degree_zero_agrees_with_single(self):
        for m in range(1, 5):
            assert is_stable_vector(m, 0).stable == is_stable_single(m, 0).stable

    def test_gram_matrix_hermitian_coefficients(self):
        g = gram_symbol_matrix(3, 2)
        for i in range(3):
            for j in range(3):
                for n, c in g[i][j].coeffs.items():
                    assert g[j][i][-n] == c

    @pytest.mark.parametrize("m,p", [(2, 2), (3, 3)])
    def test_gram_lower_triangle_matches_direct_integrals(self, m, p):
        quarks = [quark(m, q) for q in range(p + 1)]
        g = gram_symbol_matrix(m, p)
        for i in range(p + 1):
            for j in range(p + 1):
                assert g[i][j] == shift_gram_symbol(quarks[i], quarks[j])

    def test_gram_det_zero_at_origin_for_unstable_pair(self):
        # order 2, degrees {0, 1}: the lattice transform sequence of the
        # degree-1 quark vanishes identically, so the determinant has an
        # exact circle zero at frequency 0
        det = trig_determinant(gram_symbol_matrix(2, 1))
        value_at_zero = sum(det.coeffs.values())
        assert value_at_zero == 0

    def test_determinant_of_diagonal_case(self):
        # order 1: translates of distinct degrees overlap only at k = 0, so
        # the Gram symbol matrix is constant; determinant equals the plain
        # Gram determinant of monomials on [0, 1]
        det = trig_determinant(gram_symbol_matrix(1, 1))
        # gram of (1, x) on [0,1]: [[1, 1/2], [1/2, 1/3]] -> det = 1/12
        assert det.coeffs == {0: Fraction(1, 12)}


class TestBareiss:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_gram_determinants_equal_the_cofactor_oracle(self, m):
        for p in range(6):
            gram = gram_symbol_matrix(m, p)
            assert trig_determinant(gram) == cofactor_determinant(gram), p

    def test_random_matrices_with_zero_pivots(self):
        # sparse rational Laurent matrices: zero pivots force row swaps, and
        # repeated rows make some of them singular
        rng = random.Random(12)
        for _ in range(60):
            n = rng.randint(1, 5)
            mat = [
                [LaurentPoly({k: Fraction(rng.randint(-5, 5), rng.randint(1, 6))
                              for k in rng.sample(range(-3, 4), rng.randint(0, 3))})
                 if rng.random() < 0.6 else LaurentPoly.zero() for _ in range(n)]
                for _ in range(n)
            ]
            if n > 1 and rng.random() < 0.2:
                mat[-1] = list(mat[0])
            assert trig_determinant(mat) == cofactor_determinant(mat)

    def test_zero_pivots_swap_rows_and_flip_the_sign(self):
        one, zero, z = LaurentPoly.one(), LaurentPoly.zero(), LaurentPoly.monomial(1, 1)
        assert trig_determinant([[zero, z], [one, zero]]) == -z
        # the second pivot, 1 * 1 - 1 * 1, vanishes after the first step
        assert trig_determinant([[one, one, zero], [one, one, z], [zero, one, one]]) == -z
        assert trig_determinant([[zero, one], [zero, z]]) == zero

    def test_lowest_power_of_the_divisor_is_factored_out(self):
        # from the top, (1 + z) / (z + z^2) leaves the remainder 1 + z
        assert stability._exact_quotient({0: 1, 1: 1}, {1: 1, 2: 1}) == {-1: 1}
        assert stability._exact_quotient({-2: 3, 0: -3}, {-1: 1, 1: -1}) == {-1: 3}

    @pytest.mark.parametrize(
        "num,den", [({0: 1, 2: 1}, {0: 1, 1: 1}), ({0: 1}, {0: 2}), ({5: 1}, {0: 1, 3: 1})]
    )
    def test_nonzero_remainder_raises(self, num, den):
        with pytest.raises(ArithmeticError, match="nonzero remainder"):
            stability._exact_quotient(num, den)

    @pytest.mark.parametrize("m,p", [(m, p) for m in range(1, 6) for p in range(5)])
    def test_reports_equal_the_oracle_path(self, m, p):
        quarks = [quark(m, q) for q in range(p + 1)]
        gram = [[shift_gram_symbol_by_translates(f, g) for g in quarks] for f in quarks]
        res = is_positive_on_circle(cofactor_determinant(gram))
        report = is_stable_vector(m, p)
        assert (report.stable, report.certificate, report.location, report.value) == (
            res.positive, "Gram determinant: " + res.certificate, res.location, res.value
        )

    def test_negative_degree_raises(self):
        # an empty quark vector has no Gram determinant (it read "identically zero")
        with pytest.raises(ValueError, match="degree must be >= 0"):
            is_stable_vector(2, -1)

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_decides_at_degree_eight(self, m):
        report = is_stable_vector(m, 8)
        assert not report.stable
        assert report.certificate.startswith("Gram determinant: zero on the unit circle")


class TestFamily:
    @pytest.mark.parametrize("m,mt", [(1, 1), (1, 3), (2, 2), (2, 4), (3, 3), (3, 5)])
    def test_quarklet_families_are_stable(self, m, mt, monkeypatch):
        # each determinant is nonzero at t = 0, so Descartes bisection decides every cell
        dets = []
        decide = stability.is_positive_on_circle
        monkeypatch.setattr(stability, "is_positive_on_circle", lambda det: dets.append(det) or decide(det))
        for p in range(5):
            report = stability.is_stable(quarklets(m, mt, p), f"quarklets({m}, {mt}, {p})")
            assert report.stable, p
            assert report.certificate.startswith("Gram determinant: positive minimum")
            assert sum(dets[-1].coeffs.values()) != 0

    @pytest.mark.parametrize("m", range(1, 7))
    def test_one_function_is_its_autocorrelation(self, m):
        # the 1 x 1 Bareiss determinant is the entry itself
        for q in range(7):
            phi = quark(m, q)
            report = stability.is_stable((phi,), f"quark(m={m}, q={q})")
            res = is_positive_on_circle(shift_gram_symbol(phi, phi))
            assert report == is_stable_single(m, q)
            assert (report.stable, report.certificate, report.location, report.value) == (
                res.positive, "Gram determinant: " + res.certificate, res.location, res.value
            )


class TestFtZeroScan:
    def test_order2_degree2_values(self):
        zeros = ft_zero_scan(2, 2, -12, 12)
        expected = [-10.562, -7.414, -2.606, 2.606, 7.414, 10.562]
        assert len(zeros) == len(expected)
        for z, e in zip(zeros, expected):
            assert abs(z - e) < 1e-3

    def test_order2_degree3_values(self):
        zeros = ft_zero_scan(2, 3, -2 * math.pi, 2 * math.pi)
        expected = [-4.639, 0.0, 4.639]
        assert len(zeros) == len(expected)
        for z, e in zip(zeros, expected):
            assert abs(z - e) < 1e-3

    def test_haar_degrees_no_zeros(self):
        assert ft_zero_scan(1, 1, -10, 10) == []
        assert ft_zero_scan(1, 2, -7, 7) == []

    def test_order4_degree2_values(self):
        # aperiodic zeros plus the 2 pi k spline zeros from the sin^2 factor
        zeros = ft_zero_scan(4, 2, -11, 11)
        expected = [-10.036, -7.938, -2 * math.pi, -1.780, 1.780, 2 * math.pi, 7.938, 10.036]
        assert len(zeros) == len(expected)
        for z, e in zip(zeros, expected):
            assert abs(z - e) < 1e-3

    # placement error at the zeros +-2 pi k (multiplicity m) of quark(m, 0) on [-20, 20]:
    # about twice the 0, 4.2e-8, 1.6e-5, 6.5e-4, 1.6e-3, 1.5e-2 of a ternary search, against
    # the measured 2.7e-15, 2.8e-8, 6.6e-8, 2.7e-4, 1.4e-3, 1.4e-2 of Newton with the zoom fallback
    @pytest.mark.parametrize(
        "m,bound", [(1, 1e-12), (2, 1e-7), (3, 3.2e-5), (4, 1.3e-3), (5, 3.2e-3), (6, 3e-2)]
    )
    def test_multiple_zeros_of_degree_zero_quarks(self, m, bound):
        zeros = ft_zero_scan(m, 0, -20, 20)
        expected = sorted(s * 2 * math.pi * k for s in (-1, 1) for k in (1, 2, 3))
        assert len(zeros) == 6
        assert max(abs(z - e) for z, e in zip(zeros, expected)) <= bound

    def test_early_stop_equals_the_full_zoom(self):
        # Newton finds the zoom's zeros: the same count everywhere, and on the listed cases the
        # same places to 1e-6 (measured: at most 5.2e-8, at the multiple zeros of (7, 5)).
        # (5, 7, ...) has three minima with |F| about 1e-8, zeros below the relative tolerance;
        # in (5, 4, ...) a grid step of 0.6 brackets a nonzero minimum next to the zero -2 pi,
        # which the zoom reaches from the same grid point
        rng = random.Random(3)
        cases = [(2, 2, -12, 12, 4000), (7, 0, -20, 20, 4000), (1, 1, -10, 10, 1000)] + [
            (rng.randint(1, 8), rng.randint(0, 6), -rng.uniform(1, 25), rng.uniform(1, 25),
             rng.choice([50, 300, 1000]))
            for _ in range(20)
        ] + [(5, 7, -27.672984367787095, 7.330541144796195, 50), (5, 4, -13.466962408071709, 16.34203001357865, 50)]
        for case in cases:
            zeros, oracle = ft_zero_scan(*case), ft_zero_scan_full_zoom(*case)
            assert len(zeros) == len(oracle)
            assert all(abs(a - b) <= 1e-6 for a, b in zip(zeros, oracle))
        assert len(zeros) == 4
        rng = random.Random(5)
        for _ in range(20):  # wider orders; multiple zeros at the float floor may sit elsewhere
            case = (rng.randint(1, 12), rng.randint(0, 10), -rng.uniform(1, 25), rng.uniform(1, 25),
                    rng.choice([50, 300, 1000]))
            assert len(ft_zero_scan(*case)) == len(ft_zero_scan_full_zoom(*case))

    def test_fixed_depth_transform_gives_the_same_zeros(self, monkeypatch):
        # measured: equal on every fixed input but (4, 2, -11, 11), whose zero near 10.036
        # moves by 1.8e-15; at most 2.6e-14 apart on the random ones
        fixed = [(2, 2, -12, 12), (2, 3, -2 * math.pi, 2 * math.pi), (1, 1, -10, 10), (1, 2, -7, 7),
                 (4, 2, -11, 11), (7, 0, -20, 20), (1, 1, -10, 10, 1000)] + [(m, 0, -20, 20) for m in range(1, 7)]
        rng = random.Random(3)  # the random cases of test_early_stop_equals_the_full_zoom
        randomized = [
            (rng.randint(1, 8), rng.randint(0, 6), -rng.uniform(1, 25), rng.uniform(1, 25),
             rng.choice([50, 300, 1000]))
            for _ in range(20)
        ]
        adaptive = [ft_zero_scan(*case) for case in fixed + randomized]
        monkeypatch.setattr(duals, "quark_ft", quark_ft_fixed_depth)
        for k, (case, zeros) in enumerate(zip(fixed + randomized, adaptive)):
            reference = ft_zero_scan(*case)
            assert len(reference) == len(zeros)
            assert all(abs(a - b) <= (1e-14 if k < len(fixed) else 1e-9) for a, b in zip(reference, zeros))

    def test_scan_runs_only_as_deep_as_its_interval(self, monkeypatch):
        # 2 ceil(3/2) 10.5 = 42 <= 2^6
        levels = []
        cascade = duals.cascade
        monkeypatch.setattr(duals, "cascade", lambda taps, scale, xi, depth, start:
                            levels.append(depth) or cascade(taps, scale, xi, depth, start))
        ft_zero_scan(3, 2, -10.5, 10.5, 1000)
        assert levels and max(levels) <= 6

    # the grid pass, one call per round and the zero test
    @pytest.mark.parametrize("case,calls", [
        ((3, 2, -10.5, 10.5, 1000), 6), ((2, 2, -12, 12), 5),
        ((2, 3, -2 * math.pi, 2 * math.pi), 5),  # the minimum at 0 stops where F = 0
        ((3, 0, -10, 10, 1000), 30),  # the triple zeros +-2 pi stall at the float floor and are zoomed
        ((1, 1, -10, 10), 2),  # no minimum on the grid: the grid pass and the empty zero test
        # a minimum at 0 at the float floor: 25 zoom rounds bring it within ulp(24.43) of 0, and it stops
        ((10, 9, -10.520331391618724, 24.43012253423008, 50), 33),
    ])
    def test_zoom_calls_the_transform_once_per_round(self, monkeypatch, case, calls):
        count = []
        jets = duals._quark_jets  # quark_ft calls it too
        monkeypatch.setattr(duals, "_quark_jets", lambda *args: count.append(1) or jets(*args))
        ft_zero_scan(*case)
        assert len(count) == calls

    def test_zoomed_minimum_at_0_stops_at_the_interval_spacing(self):
        hi = 24.43012253423008
        zeros = ft_zero_scan(10, 9, -10.520331391618724, hi, 50)
        assert len(zeros) == 9 and sum(abs(z) < math.ulp(hi) for z in zeros) == 1

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            ft_zero_scan(1, 0, 3, 3)

    @pytest.mark.parametrize("samples", [-5, 0, 1, 2])
    def test_needs_interior_samples(self, samples):
        with pytest.raises(ValueError, match="at least 3 samples"):
            ft_zero_scan(2, 2, -12, 12, samples=samples)


class TestConditionE:
    def test_identity_one(self):
        assert condition_e([[1]])

    def test_diag_one_half(self):
        assert condition_e([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1, 2)]])

    def test_eigenvalue_two_fails(self):
        for p in (1, 2, 3):
            assert not condition_e(dual_symbol_at_one(1, 1, p))

    def test_degree_zero_dual_symbol_satisfies(self):
        assert condition_e(dual_symbol_at_one(1, 1, 0))
        assert condition_e(dual_symbol_at_one(2, 2, 0))

    def test_no_eigenvalue_one(self):
        assert not condition_e([[Fraction(1, 2)]])

    def test_double_eigenvalue_one(self):
        assert not condition_e([[1, 0], [0, 1]])

    def test_nontriangular_exact_path(self):
        # rotation-like contraction: eigenvalues 0.5 e^{+- i pi/4} scaled
        mat = [[Fraction(1, 2), Fraction(-1, 2)], [Fraction(1, 2), Fraction(1, 2)]]
        # char poly x^2 - x + 1/2: roots modulus sqrt(1/2) < 1, but no eigenvalue 1
        assert not condition_e_reference(mat)
        # embed eigenvalue 1 via block diag
        big = [
            [Fraction(1), Fraction(0), Fraction(0)],
            [Fraction(0), Fraction(1, 2), Fraction(-1, 2)],
            [Fraction(0), Fraction(1, 2), Fraction(1, 2)],
        ]
        assert condition_e_reference(big)
        # the library reads the diagonal of triangular input only
        for m in (mat, big):
            with pytest.raises(ValueError, match="triangular"):
                condition_e(m)

    def test_large_nontriangular_rational_input_is_exact(self, monkeypatch):
        def no_float_path(_):
            raise AssertionError("rational input reached the float eigenvalue path")

        monkeypatch.setattr(np.linalg, "eigvals", no_float_path)
        # eigenvalue 1 - 2^-40 sits inside the float path's 1e-10 tolerance band
        # around 1, so only the exact path says that Condition E holds
        near_one = [Fraction(1), 1 - Fraction(1, 2**40)] + [Fraction(k, 9) for k in range(-3, 4)]
        mat = _similar_to_diagonal(near_one)
        assert len(mat) == 9
        assert any(mat[i][j] for i in range(9) for j in range(i))  # nonzero below the diagonal
        assert any(mat[j][i] for i in range(9) for j in range(i))  # nonzero above the diagonal
        negative = _similar_to_diagonal([Fraction(-1)] + near_one[:-1])
        double_one = _similar_to_diagonal([Fraction(1)] + near_one[:-1])
        assert condition_e_reference(mat)
        assert not condition_e_reference(negative)
        assert not condition_e_reference(double_one)
        for m in (mat, negative, double_one):
            with pytest.raises(ValueError, match="triangular"):
                condition_e(m)

    def test_large_dual_symbol_skips_float_path(self, monkeypatch):
        def no_float_path(_):
            raise AssertionError("rational input reached the float eigenvalue path")

        monkeypatch.setattr(np.linalg, "eigvals", no_float_path)
        # 9x9 with eigenvalues 1, 2, ..., 2^8: the eigenvalue 2 breaks Condition E
        assert not condition_e(dual_symbol_at_one(2, 2, 8))

    def test_float_input_raises_type_error(self):
        laurent_entry = [[LaurentPoly({0: 1})]]
        for mat in ([[1.0]], [[1.0, 0.0], [0.0, 0.5]], np.eye(3) / 2, [[Fraction(1), 0.5], [0, Fraction(1, 2)]],
                    laurent_entry):
            with pytest.raises(TypeError):
                condition_e(mat)

    def test_non_square_input_raises_value_error(self):
        for mat in ([[1, 0]], [[1], [0]], [], [[1, 0], [0]]):
            with pytest.raises(ValueError):
                condition_e(mat)

    @pytest.mark.parametrize("m,mt", PAIRS)
    @pytest.mark.parametrize("p", range(6))
    def test_read_off_matches_characteristic_polynomial(self, m, mt, p):
        mat = dual_symbol_at_one(m, mt, p)
        assert condition_e(mat) == condition_e_reference(mat)


def _similar_to_diagonal(diag):
    # D conjugated by elementary matrices E = I + c e_i e_j^T: row i += c row j,
    # then column j -= c column i; the spectrum stays exactly diag
    rng = random.Random(61)
    n = len(diag)
    a = [[d if i == j else Fraction(0) for j, d in enumerate(diag)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        c = Fraction(rng.choice([-2, -1, 1, 2]), rng.choice([1, 2, 3]))
        for k in range(n):
            a[i][k] += c * a[j][k]
        for k in range(n):
            a[k][j] -= c * a[k][i]
    return tuple(tuple(row) for row in a)


class TestDualSpectrum:
    def test_degree_zero(self):
        assert dual_symbol_eigenvalues(1, 1, 0) == [1]

    def test_haar_degree_three(self):
        assert dual_symbol_eigenvalues(1, 1, 3) == [1, 2, 4, 8]

    def test_order_two_degree_two(self):
        assert dual_symbol_eigenvalues(2, 2, 2) == [1, 2, 4]

    @pytest.mark.parametrize("m,mt", [(1, 1), (2, 2), (3, 3), (2, 4), (3, 5)])
    def test_parameter_independent(self, m, mt):
        for p in range(4):
            assert dual_symbol_eigenvalues(m, mt, p) == [Fraction(2) ** q for q in range(p + 1)]

    def test_symbol_at_one_is_the_forward_substitution_inverse(self):
        # S(1)^{-1} from the binomial-convolution inverse of g_j(1) against forward
        # substitution on the dense S(1), over the CLI's whole (m, p) range
        for m in range(1, 17):
            for p in range(15):
                s_one = LaurentMatrix(eval_rational(refinement_symbol(m, p), 1))
                st_one = coefficient_matrix(invert_lower_triangular(s_one).transpose(), 0)
                assert dual_symbol_at_one(m, m, p) == st_one, (m, p)

    @pytest.mark.parametrize("m,mt", [(0, 2), (2, 1), (2, 3)])
    def test_orders_validated_although_mt_is_unused(self, m, mt):
        with pytest.raises(ValueError):
            dual_symbol_at_one(m, mt, 1)

    def test_stability_does_not_import_the_bundle(self):
        # St(1) = S(1)^{-T} needs the refinement masks only, not T^{-1}
        tree = ast.parse((Path(__file__).parent.parent / "src/quarklets/stability.py").read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                imported.add(node.module or "")
                imported.update(f"{node.module or ''}.{a.name}" for a in node.names)
            elif isinstance(node, ast.Import):
                imported.update(a.name for a in node.names)
        assert not [name for name in imported if "modulation" in name.split(".")]


class TestConcurrency:
    def test_table_cells_are_independent(self):
        # cells may be evaluated in parallel: results must match the serial run
        from concurrent.futures import ThreadPoolExecutor

        cells = [(m, p) for m in range(1, 5) for p in range(4)]
        serial = {cell: is_stable_single(*cell).stable for cell in cells}
        with ThreadPoolExecutor(max_workers=8) as pool:
            parallel = dict(zip(cells, pool.map(lambda c: is_stable_single(*c).stable, cells)))
        assert parallel == serial
