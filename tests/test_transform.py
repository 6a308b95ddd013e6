"""Frame transforms, orthogonalized quarklets, detail-space projection."""

import random
from fractions import Fraction
from functools import lru_cache

import pytest
from helpers import reference_decompose, reference_reconstruct
from hypothesis import given, settings
from hypothesis import strategies as st

from quarklets.cdf import quarklets
from quarklets.modulation import build_modulation, decomposition_filters
from quarklets.piecewise import PiecewisePoly, inner_product
from quarklets.splines import quark_family
from quarklets.transform import (
    CoefficientFrame,
    decompose,
    frame_function,
    from_orthogonal_frames,
    orthogonalize_haar,
    project_detail,
    reconstruct,
    to_orthogonal_frames,
)


PAIRS = [(1, 1), (2, 2), (3, 3), (2, 4), (3, 5)]


def random_frame(rng, width, level=0, taps=4) -> CoefficientFrame:
    coeffs = {}
    for _ in range(taps):
        k = rng.randint(-8, 8)
        coeffs[k] = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(width))
    return CoefficientFrame(level, width, coeffs)


class TestReconstruct:
    def test_haar_refinement_of_single_scaling(self):
        bundle = build_modulation(1, 1, 0)
        s = CoefficientFrame.unit(0, 1, 0, 0)
        d = CoefficientFrame.zero(0, 1)
        c = reconstruct(s, d, bundle)
        assert c == CoefficientFrame(1, 1, {0: (Fraction(1),), 1: (Fraction(1),)})

    def test_haar_wavelet_coefficients(self):
        bundle = build_modulation(1, 1, 0)
        s = CoefficientFrame.zero(0, 1)
        d = CoefficientFrame.unit(0, 1, 0, 0)
        c = reconstruct(s, d, bundle)
        assert c == CoefficientFrame(1, 1, {0: (Fraction(1),), 1: (Fraction(-1),)})

    def test_level_mismatch_rejected(self):
        bundle = build_modulation(1, 1, 0)
        with pytest.raises(ValueError):
            reconstruct(CoefficientFrame.zero(0, 1), CoefficientFrame.zero(1, 1), bundle)

    def test_width_mismatch_rejected(self):
        bundle = build_modulation(1, 1, 1)
        with pytest.raises(ValueError):
            reconstruct(CoefficientFrame.zero(0, 1), CoefficientFrame.zero(0, 1), bundle)

    @pytest.mark.parametrize("m,mt,p", [(1, 1, 1), (2, 2, 1), (1, 1, 3)])
    def test_function_preserved(self, m, mt, p):
        rng = random.Random(100 * m + p)
        bundle = build_modulation(m, mt, p)
        quarks = quark_family(m, p)
        wavelets = quarklets(m, mt, p)
        for _ in range(5):
            s = random_frame(rng, p + 1)
            d = random_frame(rng, p + 1)
            c = reconstruct(s, d, bundle)
            f_coarse = frame_function(s, quarks) + frame_function(d, wavelets)
            f_fine = frame_function(c, quarks)
            assert f_fine == f_coarse


class TestDecompose:
    def test_pure_scaling_roundtrip(self):
        bundle = build_modulation(1, 1, 0)
        filters = decomposition_filters(bundle)
        s = CoefficientFrame.unit(0, 1, 0, 0)
        d = CoefficientFrame.zero(0, 1)
        c = reconstruct(s, d, bundle)
        s2, d2 = decompose(c, filters)
        assert s2 == s and d2 == d

    def test_haar_wavelet_detected(self):
        bundle = build_modulation(1, 1, 0)
        filters = decomposition_filters(bundle)
        c = CoefficientFrame(1, 1, {0: (Fraction(1),), 1: (Fraction(-1),)})
        s, d = decompose(c, filters)
        assert s.is_zero()
        assert d == CoefficientFrame.unit(0, 1, 0, 0)

    @pytest.mark.parametrize("m,mt,p", [(1, 1, 2), (2, 2, 1), (3, 3, 1)])
    def test_random_roundtrips(self, m, mt, p):
        rng = random.Random(7 * m + mt + p)
        bundle = build_modulation(m, mt, p)
        filters = decomposition_filters(bundle)
        for _ in range(25):
            c = random_frame(rng, p + 1, level=1)
            s, d = decompose(c, filters)
            assert reconstruct(s, d, bundle) == c

    def test_two_level_cascade_roundtrip(self):
        rng = random.Random(91)
        bundle = build_modulation(2, 2, 1)
        filters = decomposition_filters(bundle)
        c2 = random_frame(rng, 2, level=2, taps=6)
        c1, d1 = decompose(c2, filters)
        c0, d0 = decompose(c1, filters)
        assert c0.level == 0 and d1.level == 1
        back1 = reconstruct(c0, d0, bundle)
        assert back1 == c1
        assert reconstruct(back1, d1, bundle) == c2

    def test_function_preserved_by_split(self):
        m = mt = 1
        p = 2
        rng = random.Random(31)
        bundle = build_modulation(m, mt, p)
        filters = decomposition_filters(bundle)
        quarks = quark_family(m, p)
        wavelets = quarklets(m, mt, p)
        c = random_frame(rng, p + 1, level=1)
        s, d = decompose(c, filters)
        assert frame_function(c, quarks) == frame_function(s, quarks) + frame_function(d, wavelets)


@lru_cache(maxsize=None)
def cached_filters(m, mt, p):
    return decomposition_filters(build_modulation(m, mt, p))


class TestPolyphaseTransform:
    @pytest.mark.parametrize("m,mt", PAIRS)
    @pytest.mark.parametrize("p", [0, 1, 2, 3])
    def test_frames_equal_per_translate_loops(self, m, mt, p):
        rng = random.Random(1000 * m + 100 * mt + p)
        bundle = build_modulation(m, mt, p)
        filters = cached_filters(m, mt, p)
        for _ in range(3):
            c = random_frame(rng, p + 1, level=1, taps=6)
            assert decompose(c, filters) == reference_decompose(c, filters)
            s, d = random_frame(rng, p + 1, taps=5), random_frame(rng, p + 1, taps=5)
            assert reconstruct(s, d, bundle) == reference_reconstruct(s, d, bundle)

    def test_zero_frames(self):
        bundle = build_modulation(2, 2, 1)
        zero = CoefficientFrame.zero(0, 2)
        assert reconstruct(zero, zero, bundle) == CoefficientFrame.zero(1, 2)
        assert decompose(CoefficientFrame.zero(1, 2), cached_filters(2, 2, 1)) == (zero, zero)

    def test_coefficients_are_read_only(self):
        frame = CoefficientFrame.unit(0, 2, 3, 1)
        with pytest.raises(TypeError):
            frame.coefficients[3] = (Fraction(1), Fraction(1))
        assert frame == CoefficientFrame.unit(0, 2, 3, 1)


ORDERS = [(m, mt) for m in (1, 2, 3) for mt in range(m, 6) if (m + mt) % 2 == 0]
small_rationals = st.fractions(min_value=-9, max_value=9, max_denominator=12)


@st.composite
def bank_and_frames(draw):
    """Random (m, mt, p) with m <= 3, p <= 3 and three sparse coefficient maps."""
    m, mt = draw(st.sampled_from(ORDERS))
    p = draw(st.integers(0, 3))
    vectors = st.tuples(*[small_rationals] * (p + 1))
    coeffs = st.dictionaries(st.integers(-12, 12), vectors, max_size=5)
    return m, mt, p, draw(coeffs), draw(coeffs), draw(coeffs)


@settings(max_examples=40, deadline=None, database=None)
@given(bank_and_frames())
def test_transform_round_trips(case):
    m, mt, p, fine, coarse, detail = case
    bundle = build_modulation(m, mt, p)
    filters = cached_filters(m, mt, p)
    c = CoefficientFrame(1, p + 1, fine)
    assert reconstruct(*decompose(c, filters), bundle) == c
    s, d = CoefficientFrame(0, p + 1, coarse), CoefficientFrame(0, p + 1, detail)
    assert decompose(reconstruct(s, d, bundle), filters) == (s, d)


class TestOrthogonalize:
    def test_degree_zero_unchanged(self):
        ortho = orthogonalize_haar(1, 0)
        assert ortho.members[0] == quarklets(1, 1, 0)[0]

    def test_degree_two_closed_form(self):
        # psi2* = psi2 - psi1 + (1/6) psi0, equal to
        # 4x^2 - 2x + 1/6 on [0, 1/2) and -4x^2 + 6x - 13/6 on [1/2, 1)
        ortho = orthogonalize_haar(1, 2)
        expected = PiecewisePoly(
            [0, Fraction(1, 2), 1],
            [(Fraction(1, 6), -2, 4), (Fraction(-13, 6), 6, -4)],
        )
        assert ortho.members[2] == expected
        fam = quarklets(1, 1, 2)
        combo = fam[2] - fam[1] + fam[0] * Fraction(1, 6)
        assert ortho.members[2] == combo

    def test_degree_three_coefficients(self):
        # psi3* = psi3 - (3/2) psi2 + (3/5) psi1 - (1/20) psi0
        ortho = orthogonalize_haar(1, 3)
        assert ortho.to_plain[3] == (
            Fraction(-1, 20),
            Fraction(3, 5),
            Fraction(-3, 2),
            Fraction(1),
        )

    def test_pairwise_orthogonal_and_cross_shift(self):
        ortho = orthogonalize_haar(1, 3)
        for qd in range(4):
            for r in range(4):
                for k in (-1, 0, 1):
                    ip = inner_product(ortho.members[qd], ortho.members[r].translate(k))
                    if qd == r and k == 0:
                        assert ip == ortho.norms[qd] > 0
                    else:
                        assert ip == 0

    def test_span_preserved_both_ways(self):
        ortho = orthogonalize_haar(1, 3)
        fam = ortho.plain
        for qd in range(4):
            rebuilt = PiecewisePoly.zero()
            for l in range(qd + 1):
                rebuilt = rebuilt + fam[l] * ortho.to_plain[qd][l]
            assert rebuilt == ortho.members[qd]
            back = PiecewisePoly.zero()
            for l in range(qd + 1):
                back = back + ortho.members[l] * ortho.from_plain[qd][l]
            assert back == fam[qd]

    def test_even_dual_order_rejected(self):
        with pytest.raises(ValueError):
            orthogonalize_haar(2, 1)

    def test_cubic_member_sample_values(self):
        # endpoint values of the cubic member: 8x^3 - 6x^2 + (6/5)x - 1/20 at 0 is -1/20
        ortho = orthogonalize_haar(1, 3)
        assert ortho.members[3](Fraction(0)) == Fraction(-1, 20)
        assert ortho.members[3](Fraction(1, 4)) == Fraction(
            8, 64
        ) - Fraction(6, 16) + Fraction(6, 20) - Fraction(1, 20)


class TestProjection:
    def test_quarklet_fixed(self):
        ortho = orthogonalize_haar(1, 1)
        psi1 = ortho.plain[1]
        assert project_detail(psi1, ortho) == psi1

    def test_scaling_function_annihilated(self):
        ortho = orthogonalize_haar(1, 0)
        haar_scaling = PiecewisePoly.indicator(0, 1)
        assert project_detail(haar_scaling, ortho).is_zero()

    def test_idempotent(self):
        ortho = orthogonalize_haar(1, 3)
        f = PiecewisePoly([0, 1], [(0, 0, 1)])  # x^2 on [0, 1)
        once = project_detail(f, ortho)
        assert project_detail(once, ortho) == once

    def test_residual_orthogonal_to_detail_space(self):
        ortho = orthogonalize_haar(1, 2)
        f = PiecewisePoly([-1, 0, 1], [(1, 1), (0, 0, 3)])
        residual = f - project_detail(f, ortho)
        for qd in range(3):
            for k in (-2, -1, 0, 1):
                assert inner_product(residual, ortho.members[qd].translate(k)) == 0

    def test_requires_unit_dual_order(self):
        ortho = orthogonalize_haar(3, 1)
        with pytest.raises(ValueError):
            project_detail(PiecewisePoly.indicator(0, 1), ortho)


class TestOrthogonalFrames:
    def test_single_quarklet_rebased(self):
        ortho = orthogonalize_haar(1, 2)
        # frame expressing psi_2 itself: psi2 = psi2* + psi1* + (1/3) psi0*
        frame = CoefficientFrame.unit(0, 3, 0, 2)
        frames = to_orthogonal_frames(frame, ortho)
        assert frames[0] == {0: Fraction(1, 3)}
        assert frames[1] == {0: Fraction(1)}
        assert frames[2] == {0: Fraction(1)}

    def test_degree_zero_passthrough(self):
        ortho = orthogonalize_haar(1, 2)
        frame = CoefficientFrame.unit(0, 3, 5, 0)
        frames = to_orthogonal_frames(frame, ortho)
        assert frames[0] == {5: Fraction(1)}
        assert frames[1] == {} and frames[2] == {}

    def test_roundtrip_random(self):
        rng = random.Random(77)
        ortho = orthogonalize_haar(1, 3)
        for _ in range(20):
            frame = random_frame(rng, 4)
            back = from_orthogonal_frames(to_orthogonal_frames(frame, ortho), ortho)
            assert back == frame

    def test_function_preserved(self):
        rng = random.Random(78)
        ortho = orthogonalize_haar(1, 2)
        frame = random_frame(rng, 3)
        frames = to_orthogonal_frames(frame, ortho)
        direct = frame_function(frame, ortho.plain)
        rebased = PiecewisePoly.zero()
        for qd, scalar in enumerate(frames):
            for k, c in scalar.items():
                rebased = rebased + ortho.members[qd].translate(k) * c
        assert direct == rebased

    @pytest.mark.parametrize("c", [0.0, 0.5])
    def test_float_coefficients_raise(self, c):
        # the exact core takes no floats, not even a zero one
        with pytest.raises(TypeError):
            from_orthogonal_frames([{0: c}, {}], orthogonalize_haar(1, 1))
