"""Acceptance criteria.

One test per criterion, each printing a single PASS/FAIL line (run with
``pytest -rA`` or ``-s`` to see every line).  All tolerances are pinned here.

Criterion 10 checks the truncated dual product, which acts on the exact
first-order Taylor polynomial of its tail.  The raw product, with the
eigenvector alone in the tail, would carry a phase-truncation floor of
sup|sin(xi/2)| * 2^{-J}, which is 2.98e-8 > 1e-8 at J = 25, with
consecutive-level deltas near 2^{-J-1}; it survives only as the test oracle
``helpers.dual_quark_ft_loop(..., tail="none")``.  The first-order tail
removes that floor, leaving an error of order 4^{-J}, so the stated
tolerances hold for the complex values; the modulus error is reported
alongside.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from quarklets.cdf import _cdf_cached, cdf_masks, quarklets, scalar_pr_defect
from quarklets.duals import convergence_probe, dual_quark_ft, dyadic_grid, eigen_residual
from quarklets.laurent import LaurentMatrix, LaurentPoly
from quarklets.modulation import (
    _build_cached,
    build_modulation,
    check_product_is_identity,
    decomposition_filters,
    splitting_identity_defect,
)
from quarklets.stability import (
    condition_e,
    dual_symbol_at_one,
    dual_symbol_eigenvalues,
    ft_zero_scan,
    is_stable_vector,
    stability_table,
)
from quarklets.transform import CoefficientFrame, decompose, orthogonalize_haar, reconstruct
from quarklets.piecewise import inner_product

PAIRS = [(1, 1), (2, 2), (3, 3), (2, 4), (3, 5)]
SPLIT_SETS = [(1, 1, 0), (1, 1, 2), (2, 2, 1), (3, 3, 1)]


def report(number: int, name: str, ok: bool, extra: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({extra})" if extra else ""
    print(f"ACCEPTANCE {number:02d} [{name}]: {status}{suffix}")


def test_criterion_01_perfect_reconstruction_exact():
    _build_cached.cache_clear()
    _cdf_cached.cache_clear()
    start = time.time()
    ok = True
    for m, mt in PAIRS:
        for p in range(6):
            bundle = build_modulation(m, mt, p)
            residuals = check_product_is_identity(bundle.modulation, bundle.modulation_inv)
            ok &= not residuals
    elapsed = time.time() - start
    ok &= elapsed < 10.0
    report(1, "perfect reconstruction, exact", ok, f"{elapsed:.2f}s for 30 parameter sets")
    assert ok


def test_criterion_02_explicit_matrices_exact():
    bundle = build_modulation(1, 1, 1)

    def lp(d):
        return LaurentPoly({k: Fraction(*v) if isinstance(v, tuple) else Fraction(v) for k, v in d.items()})

    x_expected = LaurentMatrix(
        [
            [lp({0: (1, 2), 1: (1, 2)}), lp({}), lp({0: (1, 2), 1: (-1, 2)}), lp({})],
            [lp({1: (1, 4)}), lp({0: (1, 4), 1: (1, 4)}), lp({1: (-1, 4)}), lp({0: (1, 4), 1: (-1, 4)})],
            [lp({0: (1, 2), 1: (-1, 2)}), lp({}), lp({0: (1, 2), 1: (1, 2)}), lp({})],
            [lp({}), lp({0: (1, 2), 1: (-1, 2)}), lp({}), lp({0: (1, 2), 1: (1, 2)})],
        ]
    )
    xinv_expected = (
        LaurentMatrix(
            [
                [lp({-1: 1, 0: 1}), lp({}), lp({-1: -1, 0: 1}), lp({})],
                [lp({-1: (-1, 2), 0: (-1, 2)}), lp({-1: 2, 0: 2}), lp({-1: (1, 2), 0: (1, 2)}), lp({-1: -1, 0: 1})],
                [lp({-1: -1, 0: 1}), lp({}), lp({-1: 1, 0: 1}), lp({})],
                [lp({-1: (1, 2), 0: (-1, 2)}), lp({-1: -2, 0: 2}), lp({-1: (-1, 2), 0: (1, 2)}), lp({-1: 1, 0: 1})],
            ]
        )
        * Fraction(1, 2)
    )
    at = ((Fraction(1), Fraction(-1, 2)), (Fraction(0), Fraction(2)))
    bt0 = ((Fraction(1), Fraction(1, 2)), (Fraction(0), Fraction(1)))
    bt1 = ((Fraction(-1), Fraction(1, 2)), (Fraction(0), Fraction(-1)))

    ok = bundle.modulation == x_expected
    ok &= bundle.modulation_inv == xinv_expected
    ok &= bundle.dual_scaling_masks[0] == at and bundle.dual_scaling_masks[1] == at
    ok &= bundle.dual_detail_masks[0] == bt0 and bundle.dual_detail_masks[1] == bt1
    ok &= bundle.dual_scaling_masks.indices() == [0, 1]
    ok &= bundle.dual_detail_masks.indices() == [0, 1]
    report(2, "explicit matrices for orders (1,1), degree 1", ok)
    assert ok


def test_criterion_03_stability_table():
    expected = {
        1: [True, True, True, True],
        2: [True, False, True, True],
        3: [True, True, True, True],
        4: [True, False, True, False],
    }
    table = stability_table(4, 3)
    ok = all(table[(m, p)] is expected[m][p] for m in range(1, 5) for p in range(4))
    report(3, "single-quark stability grid (m <= 4, p <= 3)", ok)
    assert ok


def test_criterion_04_vector_stability():
    ok = all(is_stable_vector(1, p).stable for p in range(5))
    for m, p in [(2, 1), (2, 2), (3, 1), (4, 1)]:
        ok &= not is_stable_vector(m, p).stable
    report(4, "quark-vector stability decisions", ok)
    assert ok


def test_criterion_05_dual_eigen_structure():
    ok = True
    for m, mt in PAIRS:
        for p in range(6):
            ok &= dual_symbol_eigenvalues(m, mt, p) == [Fraction(2) ** q for q in range(p + 1)]
            has_e = condition_e(dual_symbol_at_one(m, mt, p))
            ok &= has_e is (p == 0)
    report(5, "dual symbol spectrum {2^q} and Condition E iff p = 0", ok)
    assert ok


def test_criterion_06_orthogonalized_quarklets():
    ortho = orthogonalize_haar(1, 3)
    ok = ortho.to_plain[2] == (Fraction(1, 6), Fraction(-1), Fraction(1), Fraction(0))
    ok &= ortho.to_plain[3] == (Fraction(-1, 20), Fraction(3, 5), Fraction(-3, 2), Fraction(1))
    for q in range(4):
        for r in range(4):
            ip = inner_product(ortho.members[q], ortho.members[r])
            if q == r:
                ok &= ip == ortho.norms[q] and ip > 0
            else:
                ok &= ip == 0
    report(6, "orthogonalized quarklet coefficients and exact orthogonality", ok)
    assert ok


def test_criterion_07_decomposition_identity_and_growth():
    ok = True
    for m, mt, p in SPLIT_SETS:
        bundle = build_modulation(m, mt, p)
        filters = decomposition_filters(bundle)
        for parity in (0, 1):
            defects = splitting_identity_defect(bundle, filters, parity)
            ok &= all(d.is_zero() for d in defects)
    # support lengths for p <= 6 grow at most linearly: frozen exact patterns
    expected_lengths = {
        (1, 1): [2, 2, 2, 2, 2, 2, 2],
        (2, 2): [6, 10, 14, 18, 22, 26, 30],
        (3, 3): [10, 18, 26, 34, 42, 50, 58],
    }
    for (m, mt), expected in expected_lengths.items():
        lengths = [
            decomposition_filters(build_modulation(m, mt, p)).coarse.length() for p in range(7)
        ]
        ok &= lengths == expected
        increments = [b - a for a, b in zip(lengths, lengths[1:])]
        ok &= len(set(increments[1:])) == 1  # constant increment = linear growth
    report(7, "two-scale splitting identity and linear filter growth", ok)
    assert ok


def test_criterion_08_roundtrip_random_frames():
    rng = random.Random(20240817)
    ok = True
    for m, mt, p in SPLIT_SETS:
        bundle = build_modulation(m, mt, p)
        filters = decomposition_filters(bundle)
        for _ in range(100):
            coeffs = {}
            for _ in range(rng.randint(1, 5)):
                k = rng.randint(-16, 16)
                coeffs[k] = tuple(
                    Fraction(rng.randint(-99, 99), rng.randint(1, 64)) for _ in range(p + 1)
                )
            frame = CoefficientFrame(1, p + 1, coeffs)
            s, d = decompose(frame, filters)
            ok &= reconstruct(s, d, bundle) == frame
    report(8, "exact analysis/synthesis round trip on 400 random frames", ok)
    assert ok


def test_criterion_09_fourier_zero_scan():
    ok = True
    zeros = ft_zero_scan(2, 2, -12, 12)
    expected = [-10.562, -7.414, -2.606, 2.606, 7.414, 10.562]
    ok &= len(zeros) == len(expected) and all(
        abs(z - e) < 1e-3 for z, e in zip(zeros, expected)
    )
    zeros = ft_zero_scan(2, 3, -2 * math.pi, 2 * math.pi)
    expected = [-4.639, 0.0, 4.639]
    ok &= len(zeros) == len(expected) and all(
        abs(z - e) < 1e-3 for z, e in zip(zeros, expected)
    )
    ok &= ft_zero_scan(1, 1, -10, 10) == []
    ok &= ft_zero_scan(1, 2, -7, 7) == []
    report(9, "quark transform zero locations", ok)
    assert ok


def test_criterion_10_dual_convergence_desk_scale():
    start = time.time()
    grid = dyadic_grid(4, 6)  # t = k/64, |k| <= 256: 513 points, xi in [-8 pi, 8 pi]
    approx = dual_quark_ft(1, 1, 0, 25, grid)
    sup = 0.0
    sup_mod = 0.0
    for t in grid:
        xi = 2 * math.pi * float(t)
        target = 1.0 if xi == 0 else np.exp(-1j * xi / 2) * math.sin(xi / 2) / (xi / 2)
        got = approx.values[t][0]
        sup = max(sup, abs(got - target))
        sup_mod = max(sup_mod, abs(abs(got) - abs(target)))
    probe = convergence_probe(1, 1, 0, grid, [20, 21, 22, 23, 24, 25])
    elapsed = time.time() - start

    # property suite half of the criterion (valid for p >= 1 as well)
    props = True
    for m, mt in PAIRS:
        for p in range(3):
            props &= all(r == 0 for r in eigen_residual(m, mt, p))

    match_ok = sup <= 1e-8
    deltas_ok = all(d <= 1e-8 for d in probe.deltas)
    ok = match_ok and deltas_ok and props and elapsed < 5.0
    report(
        10,
        "dual truncated-product convergence",
        ok,
        f"sup |err| = {sup:.3e} (modulus {sup_mod:.3e}), deltas from J=20: "
        f"{probe.deltas[0]:.3e} (modulus {probe.modulus_deltas[0]:.3e}), {elapsed:.2f}s",
    )
    assert props and elapsed < 5.0
    assert match_ok, (
        f"complex sup-norm {sup:.3e} exceeds 1e-8: the truncated product keeps a "
        f"phase offset of order 2^-J (2^-25 = 2.98e-8); the modulus matches to {sup_mod:.3e}"
    )
    assert deltas_ok, (
        f"consecutive-level complex deltas from J=20 are near 2^-21 = 4.8e-7 "
        f"(measured {probe.deltas[0]:.3e}); modulus deltas are {probe.modulus_deltas[0]:.3e}"
    )


def test_criterion_11_scalar_cdf_sanity():
    ok = True
    for m, mt in PAIRS:
        pair = cdf_masks(m, mt)
        ok &= scalar_pr_defect(pair.primal_symbol, pair.dual_symbol).is_zero()
        ok &= pair.dual_symbol.eval_rational(1) == 1
        psi0 = quarklets(m, mt, 0)[0]
        ok &= all(psi0.moment(n) == 0 for n in range(mt))
        ok &= psi0.moment(mt) != 0
    report(11, "scalar filter identities and exact vanishing moments", ok)
    assert ok
