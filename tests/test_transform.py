"""Frame transforms, orthogonalized quarklets, detail-space projection."""

import json
import math
import pickle
import random
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache

import pytest
from helpers import (
    fraction_decompose,
    fraction_reconstruct,
    frame_function,
    frame_json_by_fractions,
    from_orthogonal_frames,
    project_detail,
    reference_decompose,
    reference_reconstruct,
    to_orthogonal_frames,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from quarklets import laurent, modulation, serialize
from quarklets.cdf import quarklets
from quarklets.laurent import LaurentPoly
from quarklets.modulation import build_modulation, decomposition_filters
from quarklets.piecewise import PiecewisePoly, inner_product
from quarklets.splines import quark_family
from quarklets.transform import CoefficientFrame, decompose, orthogonalize_haar, reconstruct


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

    def test_polyphase_column_cores_are_derived_once(self, monkeypatch):
        # a fresh copy, so no earlier call has filled its caches: reconstruct takes the column cores
        # of P, decompose the lifting cores read off g, h and b, each derived once
        bundle = replace(build_modulation(3, 5, 2))
        filters = decomposition_filters(bundle)
        columns = list(zip(*bundle.synthesis_matrix.entries))
        int_cores, seen = laurent._int_cores, []
        monkeypatch.setattr(laurent, "_int_cores", lambda polys: seen.append(tuple(polys)) or int_cores(polys))
        scaling_sequence, read = modulation._scaling_sequence, []
        monkeypatch.setattr(modulation, "_scaling_sequence", lambda s: read.append(s) or scaling_sequence(s))
        rng = random.Random(5)
        frames = [[random_frame(rng, 3, level=1, taps=6) for _ in range(3)] for _ in range(3)]
        out = [(decompose(c, filters), reconstruct(s, d, bundle)) for c, s, d in frames]
        monkeypatch.undo()
        assert [seen.count(col) for col in columns] == [1] * len(columns)
        assert read == [bundle.scaling_symbol]
        # decompose applies the factors of X^{-1}: the bundle holds their cores, but neither X^{-1} nor P^{-1}
        assert "lifting_cores" in vars(bundle)
        assert not {"modulation_inv", "polyphase_inv"} & vars(bundle).keys()
        assert out == [(reference_decompose(c, filters), reference_reconstruct(s, d, bundle)) for c, s, d in frames]
        # and the reverse: the splitting filters C_n, D_n are read off P^{-1} and build no lifting cores
        fresh = replace(bundle)
        assert fresh.coarse.length() > 0 and fresh.detail.length() > 0
        assert "polyphase_inv" in vars(fresh) and "lifting_cores" not in vars(fresh)

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
        # the stored row too: no field can be set or deleted, no component's numerator map takes a write
        frame = CoefficientFrame(0, 2, {-3: (Fraction(1, 2), 0), 4: (1, Fraction(-1, 3))})
        for name, value in (("level", 1), ("width", 3), ("row", ()), ("coefficients", {})):
            with pytest.raises(AttributeError):
                setattr(frame, name, value)
            with pytest.raises(AttributeError):
                delattr(frame, name)
        for component in frame.row:
            for k in (-3, 4, 5):
                with pytest.raises(TypeError):
                    component.nums[k] = 1
        with pytest.raises(TypeError):
            frame.coefficients[4] = (Fraction(1), Fraction(1))
        assert frame.row == (LaurentPoly({-3: Fraction(1, 2), 4: 1}), LaurentPoly({4: Fraction(-1, 3)}))
        assert frame == CoefficientFrame(0, 2, {-3: (Fraction(1, 2), 0), 4: (1, Fraction(-1, 3))})

    def test_equal_frames_hash_equal_and_pickle(self):
        a, b = (random_frame(random.Random(13), 3, taps=6) for _ in range(2))  # equal, built apart
        zero = CoefficientFrame.zero(2, 1)
        assert a is not b and a == b and hash(a) == hash(b)
        assert {a, b, zero} == {a, zero} and len({a, b, zero}) == 2
        # before the Fraction view is read, then after it is cached
        for read in (False, True):
            for frame in (a, zero):
                if read:
                    assert frame.coefficients is frame.coefficients
                back = pickle.loads(pickle.dumps(frame))
                assert back == frame and hash(back) == hash(frame) and back.coefficients == frame.coefficients

    @pytest.mark.parametrize("component", [-1, 3])
    def test_unit_component_within_the_width(self, component):
        with pytest.raises(ValueError, match=f"component must lie in 0 .. 2, got {component}"):
            CoefficientFrame.unit(0, 3, 0, component)

    @pytest.mark.parametrize("width", [0, -2])
    def test_width_at_least_one(self, width):
        # before any other check: a float coefficient or a vector of the wrong length comes second
        for coefficients in ({}, {0: (0.5,)}, {0: (1, 2, 3)}):
            with pytest.raises(ValueError, match=f"frame width must be at least 1, got {width}"):
                CoefficientFrame(0, width, coefficients)


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
    # the translates in [-12, 12] pair the phases at negative odd indices too
    assert (decompose(c, filters), reconstruct(s, d, bundle)) == (
        reference_decompose(c, filters), reference_reconstruct(s, d, bundle))


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


# -- integer frames against the Fraction path ----------------------------------------------


def json_bytes(payload) -> str:
    """The CLI's rendering of a JSON payload."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def assert_canonical(frame: CoefficientFrame):
    """A row of ``width`` polynomials, each integer numerators over a positive denominator, in lowest terms."""
    assert type(frame.row) is tuple and len(frame.row) == frame.width
    for c in frame.row:
        assert type(c) is LaurentPoly and type(c.den) is int and c.den > 0
        assert all(type(k) is int and type(n) is int and n for k, n in c.nums.items())
        assert math.gcd(c.den, *c.nums.values()) == 1


def assert_as_fraction_path(frame: CoefficientFrame, expected: CoefficientFrame):
    """The same frame as the Fraction path's, in canonical form, with the same JSON bytes."""
    assert frame == expected
    assert_canonical(frame)
    # component j is the Fraction path's j-th coefficients, translate by translate
    assert [dict(c.coeffs) for c in frame.row] == [
        {k: vec[j] for k, vec in expected.coefficients.items() if vec[j]} for j in range(expected.width)]
    assert frame.coefficients == expected.coefficients
    assert json_bytes(serialize.frame_json(frame)) == json_bytes(frame_json_by_fractions(expected))


def cascade_as_fraction_path(frame: CoefficientFrame, m: int, mt: int, levels: int):
    """``levels`` decompositions, then as many reconstructions, each step checked against the
    Fraction path on the same input; the round trip gives the input back."""
    bundle, filters = build_modulation(m, mt, frame.width - 1), cached_filters(m, mt, frame.width - 1)
    down, details = [frame], []
    for _ in range(levels):
        coarse, detail = decompose(down[-1], filters)
        for got, expected in zip((coarse, detail), fraction_decompose(down[-1], filters)):
            assert_as_fraction_path(got, expected)
        down.append(coarse)
        details.append(detail)
    up = down[-1]
    for detail in reversed(details):
        expected = fraction_reconstruct(up, detail, bundle)
        up = reconstruct(up, detail, bundle)
        assert_as_fraction_path(up, expected)
    assert up == frame


def frame_spectral_frames() -> list[tuple[int, int, CoefficientFrame]]:
    """The frame inputs of the benchmark's frame_spectral workload at seed 1: 36 dense (2,2,2)
    frames of 32 translates and 6 dense (3,5,5) frames of 16, numerators in [-99, 99] over
    denominators in [1, 64], at level 3, drawn in this order."""
    rng, out = random.Random(1), []
    for m, mt, p, translates, count in ((2, 2, 2, 32, 36), (3, 5, 5, 16, 6)):
        for _ in range(count):
            coeffs = {}
            for k in range(translates):
                vec = [Fraction(rng.randint(-99, 99), rng.randint(1, 64)) for _ in range(p + 1)]
                if not any(vec):
                    vec[0] = Fraction(1)
                coeffs[k] = tuple(vec)
            out.append((m, mt, CoefficientFrame(3, p + 1, coeffs)))
    return out


big_ints = st.integers(-(2**200), 2**200)


@st.composite
def wide_frames(draw):
    """(m, mt, fine, detail): widths 1-9, negative translates, all-zero vectors, entries up to 200 bits."""
    m, mt = draw(st.sampled_from([(1, 1), (2, 2), (2, 4), (3, 5)]))
    width, level = draw(st.integers(1, 9)), draw(st.integers(-2, 2))
    entry = st.one_of(st.just(Fraction(0)), st.builds(Fraction, big_ints, st.integers(1, 2**200)))
    vectors = st.one_of(st.just((0,) * width), st.tuples(*[entry] * width))
    coeffs = st.dictionaries(st.integers(-9, 9), vectors, max_size=5)
    return m, mt, CoefficientFrame(level, width, draw(coeffs)), CoefficientFrame(level, width, draw(coeffs))


class TestIntegerFrames:
    """Frames as rows of integer-numerator polynomials: every transform output == the Fraction path's,
    component by component, JSON byte for byte."""

    def test_frame_spectral_inputs(self):
        frames = frame_spectral_frames()
        assert len(frames) == 42
        assert [(m, f.width, len(f.coefficients)) for m, _, f in frames[35:37]] == [(2, 3, 32), (3, 6, 16)]
        for m, mt, frame in frames:
            text = json_bytes(serialize.frame_json(frame))
            assert text == json_bytes(frame_json_by_fractions(frame))
            assert serialize.frame_from_json(json.loads(text)) == frame
            cascade_as_fraction_path(frame, m, mt, 3)

    @settings(max_examples=60, deadline=None, database=None)
    @given(wide_frames())
    def test_wide_frames_with_large_entries(self, case):
        m, mt, fine, detail = case
        bundle, filters = build_modulation(m, mt, fine.width - 1), cached_filters(m, mt, fine.width - 1)
        assert_canonical(fine)
        cascade_as_fraction_path(fine, m, mt, 1)
        c = reconstruct(fine, detail, bundle)
        assert_as_fraction_path(c, fraction_reconstruct(fine, detail, bundle))
        assert decompose(c, filters) == (fine, detail)

    @pytest.mark.parametrize("m,mt,p", [(2, 2, 2), (3, 5, 5)])
    def test_three_level_round_trips(self, m, mt, p):
        rng = random.Random(10 * m + mt)
        for _ in range(4):
            coeffs = {rng.randint(-20, 20): tuple(Fraction(rng.randint(-2**90, 2**90), rng.randint(1, 2**70))
                                                  for _ in range(p + 1)) for _ in range(7)}
            cascade_as_fraction_path(CoefficientFrame(3, p + 1, coeffs), m, mt, 3)

    # every (m, mt) pair of the design box m <= 5, m <= mt <= 7, m + mt even, at every p <= 8
    @pytest.mark.parametrize("m,mt,p", [(m, mt, p) for m in range(1, 6) for mt in range(m, 8) if (m + mt) % 2 == 0
                                        for p in range(9)])
    def test_three_level_cascades_equal_the_inverse_product(self, m, mt, p):
        # each level's decompose against the P^{-1} product of the Fraction path, translates from -8 to 8
        bundle, filters = build_modulation(m, mt, p), cached_filters(m, mt, p)
        frame = random_frame(random.Random(100 * m + 10 * mt + p), p + 1, level=3, taps=6)
        for _ in range(3):
            coarse, detail = decompose(frame, filters)
            assert (coarse, detail) == fraction_decompose(frame, filters)
            assert reconstruct(coarse, detail, bundle) == frame
            frame = coarse
