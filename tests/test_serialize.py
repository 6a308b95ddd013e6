"""Canonical JSON forms: exact rationals, stable layouts, and the strict frame reader."""

import json
import random
from fractions import Fraction

import pytest
from helpers import frame_from_json_by_fractions, frame_json_by_fractions, mask_json_by_taps, rational_from_json
from hypothesis import given, settings
from hypothesis import strategies as st

from quarklets import serialize
from quarklets.cdf import cdf_masks
from quarklets.laurent import LaurentPoly
from quarklets.masks import MaskSequence
from quarklets.modulation import build_modulation, decomposition_filters
from quarklets.piecewise import PiecewisePoly
from quarklets.transform import CoefficientFrame


DESIGN_BOX = [(m, mt, p) for m in range(1, 6) for mt in range(m, 8) if (m + mt) % 2 == 0 for p in range(9)]


def through_json(obj):
    return json.loads(json.dumps(obj))


def frame_obj(coefficients, level=1, width=1):
    """The JSON object of a frame, as ``frame_from_json`` reads it."""
    return {"level": level, "width": width, "coefficients": coefficients}


class TestScalars:
    def test_rational(self):
        x = Fraction(-3, 7)
        assert rational_from_json(through_json(serialize.rational_json(x))) == x

    @pytest.mark.parametrize(
        "obj", [[1.5, 2], [1, 2.0], [1, 0], [True, 2], [1, False], 5, [1], [1, 2, 3], "1/2"]
    )
    def test_malformed_rational_rejected(self, obj):
        with pytest.raises(ValueError, match="malformed input"):
            rational_from_json(obj)

    @pytest.mark.parametrize(
        "obj",
        [
            frame_obj([[1.0, [[1, 2]]]]),
            frame_obj([[True, [[1, 2]]]]),
            frame_obj([["1", [[1, 2]]]]),
            frame_obj([5]),
            frame_obj([[0.5, [[1, 1]]]]),
            frame_obj([[0, [[1, 1]]]], level=1.0),
            frame_obj([[0, [[1, 1]]]], width=True),
            frame_obj([["0", [[1, 1]]]]),
            frame_obj([[0]]),
        ],
        ids=["float index", "bool index", "string index", "bare number", "fractional index",
             "float level", "bool width", "string zero index", "one-element entry"],
    )
    def test_non_int_index_or_shape_rejected(self, obj):
        with pytest.raises(ValueError, match="malformed input"):
            serialize.frame_from_json(obj)

    @pytest.mark.parametrize(
        "obj",
        [
            frame_obj([[1, [[1, 2]]], [1, [[1, 3]]]]),
            frame_obj([[0, [[1, 2]]], [1, [[1, 2]]], [0, [[1, 2]]]]),
            frame_obj([[2, [[1, 1]]], [2, [[1, 2]]]]),
            frame_obj([[0, [[1, 2]]], [0, [[1, 3]]]]),
        ],
        ids=["adjacent", "apart, equal values", "adjacent, one value", "at zero"],
    )
    def test_repeated_index_rejected(self, obj):
        with pytest.raises(ValueError, match="malformed input: index .* is repeated"):
            serialize.frame_from_json(obj)

    def test_real_coefficient_stays_pair_form(self):
        assert serialize.laurent_poly_json(LaurentPoly({1: Fraction(2, 3)}))["terms"] == [[1, [2, 3]]]


class TestCompound:
    def test_piece_layout_is_dense_constant_term_first(self):
        # the interior zero piece is an empty list; zeros below the top coefficient are kept
        f = PiecewisePoly([-1, 0, 1, 2], [(0, 1), (), (0, 0, 3)])
        pieces = serialize.piecewise_json(f)["pieces"]
        assert pieces == [[[0, 1], [1, 1]], [], [[0, 1], [0, 1], [3, 1]]]

    def test_frame(self):
        rng = random.Random(55)
        coeffs = {
            rng.randint(-9, 9): tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(3))
            for _ in range(5)
        }
        frame = CoefficientFrame(2, 3, coeffs)
        back = serialize.frame_from_json(through_json(serialize.frame_json(frame)))
        assert back == frame

    def test_frame_object_is_its_json_text_and_reads_back_without_it(self):
        # zero components inside a nonzero vector render as lists too
        frame = CoefficientFrame(0, 3, {0: (0, Fraction(1, 2), 0), -2: (3, 0, 0)})
        obj = serialize.frame_json(frame)
        assert obj == through_json(obj)
        assert serialize.frame_from_json(obj) == frame

    def test_sorted_output_is_stable(self):
        mask = MaskSequence(1, 1, {3: ((1,),), -3: ((2,),)})
        taps = serialize.mask_json(mask)["taps"]
        assert [t[0] for t in taps] == [-3, 3]



def read_as_fraction_path(obj):
    """frame_from_json gives the Fraction-path reader's frame, in JSON bytes too, or its error."""
    try:
        expected = frame_from_json_by_fractions(obj)
    except (ValueError, TypeError, KeyError) as exc:
        with pytest.raises(type(exc)) as got:
            serialize.frame_from_json(obj)
        assert str(got.value) == str(exc)
        return None
    frame = serialize.frame_from_json(obj)
    assert frame == expected and frame.row == expected.row
    assert [dict(c.coeffs) for c in frame.row] == [
        {k: vec[j] for k, vec in expected.coefficients.items() if vec[j]} for j in range(expected.width)]
    text = json.dumps(serialize.frame_json(frame), indent=2, sort_keys=True)
    assert text == json.dumps(frame_json_by_fractions(expected), indent=2, sort_keys=True)
    return frame


class TestFrameReader:
    """The integer frame reader against the Fraction-path reader: the same frame or the same error."""

    @pytest.mark.parametrize(
        "obj",
        [
            frame_obj([[0, [[2, 4], [6, 3]]]], width=2),
            frame_obj([[0, [[1, -2], [-3, -9]]], [-1, [[0, -5], [4, -8]]]], width=2),
            frame_obj([[0, [[True, 2]]]]),
            frame_obj([[0, [[1, True]]]]),
            frame_obj([[0, [[1, 0]]]]),
            frame_obj([[0, [[0, 0]]]]),
            frame_obj([[0, [[1, 2]]], [0, [[1, 3]]]]),
            frame_obj([[0, [[1, 2], [1, 2]]]]),
            frame_obj([[0, []]]),
            frame_obj([[0, [[0, 3], [0, -1]]]], width=2),
            frame_obj([[-4, [[0, 1]]], [2, [[5, 10]]]]),
            frame_obj([[0, [[0, 1], [0, 1]]], [1, [[1, 1]]]]),
            frame_obj([[0, [[1, 1], [1, 1]]], [1, [[1, 0]]]]),
            frame_obj([[0, [[0, 1]]]], width=2),
            frame_obj([]),
            frame_obj([[0, [[1, 1]]]], width=-1),
            {"level": 0, "coefficients": []},
            [0, 1, []],
            frame_obj([[[0], [[1, 2]]]]),
            frame_obj({"0": [[1, 2]]}),
            frame_obj([[0, [[1, 2], [1, 0]]], [0, [[1, 2]]]]),
            frame_obj([[0, [[1, 2]]], [1, [[1, 2], [3, 4]]], [2, [1, 2]]]),
        ],
        ids=["unreduced", "negative denominators", "bool numerator", "bool denominator", "zero denominator",
             "zero over zero", "repeated index", "long vector", "empty vector", "all-zero vector",
             "all-zero beside nonzero", "all-zero vector too long", "bad pair after a long vector",
             "all-zero vector too short", "no coefficients", "negative width", "no width", "not an object",
             "list index", "object of vectors", "repeated index after a bad pair", "bare pair after a long vector"],
    )
    def test_same_frame_or_error_as_the_fraction_path(self, obj):
        read_as_fraction_path(obj)

    def test_unreduced_and_negative_pairs_read_in_lowest_terms(self):
        frame = read_as_fraction_path(frame_obj([[0, [[2, 4], [6, -3]]], [-1, [[0, -5], [0, 7]]]], width=2))
        assert [(dict(c.nums), c.den) for c in frame.row] == [({0: 1}, 2), ({0: -2}, 1)]
        for c in frame.row:
            with pytest.raises(TypeError):
                c.nums[0] = 1

    @settings(max_examples=150, deadline=None, database=None)
    @given(st.integers(1, 9).flatmap(lambda width: st.lists(
        st.tuples(st.integers(-9, 9), st.lists(st.one_of(
            st.tuples(st.just(0), st.integers(-3, 3).filter(bool)),
            st.tuples(st.integers(-(2**200), 2**200), st.integers(-(2**200), 2**200).filter(bool))),
            min_size=width, max_size=width)),
        max_size=6, unique_by=lambda e: e[0]).map(lambda entries: (width, entries))))
    def test_random_pairs(self, case):
        width, entries = case
        obj = through_json(frame_obj([[k, [list(pair) for pair in vec]] for k, vec in entries], width=width))
        frame = read_as_fraction_path(obj)
        assert serialize.frame_from_json(through_json(serialize.frame_json(frame))) == frame


def same_bytes_as_fraction_taps(mask: MaskSequence):
    """mask_json renders the integers to the bytes the dense Fraction taps render to."""
    def text(obj):
        return json.dumps(obj, indent=2, sort_keys=True)

    assert text(serialize.mask_json(mask)) == text(mask_json_by_taps(mask))


def design_masks(m, mt, p) -> dict:
    bundle = build_modulation(m, mt, p)
    filters = decomposition_filters(bundle)
    return {"scaling": bundle.scaling_masks, "dual scaling": bundle.dual_scaling_masks,
            "dual detail": bundle.dual_detail_masks, "coarse": filters.coarse, "detail": filters.detail}


class TestMaskBytes:
    """The integer mask renderer against the dense Fraction-tap renderer, byte for byte."""

    @pytest.mark.parametrize("design", DESIGN_BOX, ids=str)
    def test_design_box(self, design):
        assert len(DESIGN_BOX) == 126
        for mask in design_masks(*design).values():
            same_bytes_as_fraction_taps(mask)

    @pytest.mark.parametrize("name", ["scaling", "dual scaling", "dual detail", "coarse", "detail"])
    def test_cli_corner(self, name):
        same_bytes_as_fraction_taps(design_masks(16, 16, 14)[name])

    @pytest.mark.parametrize("m,mt", sorted({(m, mt) for m, mt, _ in DESIGN_BOX} | {(16, 16)}))
    def test_cdf_masks(self, m, mt):
        pair = cdf_masks(m, mt)
        for mask in (pair.primal, pair.dual, pair.wavelet, pair.dual_wavelet):
            assert mask.rows == mask.cols == 1
            same_bytes_as_fraction_taps(mask)

    @settings(max_examples=150, deadline=None, database=None)
    @given(st.data())
    def test_random_masks(self, data):
        rows, cols = data.draw(st.sampled_from([(1, 1), (1, 3), (2, 2), (3, 2)]))
        rational = st.fractions(min_value=-4, max_value=4, max_denominator=12) | st.just(Fraction(0))
        matrix = st.lists(st.lists(rational, min_size=cols, max_size=cols), min_size=rows, max_size=rows)
        taps = data.draw(st.dictionaries(st.integers(-7, 5), matrix, max_size=6))
        mask = MaskSequence(rows, cols, taps)
        assert mask.factor == 1 and dict(mask.entries) == {
            k: tuple(map(tuple, tap)) for k, tap in taps.items() if any(map(any, tap))}
        same_bytes_as_fraction_taps(mask)
        factor = data.draw(st.sampled_from([2, -3]))
        scaled = MaskSequence.from_symbol(mask.symbol, factor)
        assert scaled.entries == {k: tuple(tuple(c * factor for c in row) for row in tap)
                                  for k, tap in mask.entries.items()}
        same_bytes_as_fraction_taps(scaled)
