"""Canonical JSON forms: exact rationals, stable layouts, and the strict frame reader."""

import json
import random
from fractions import Fraction

import pytest

from quarklets import serialize
from quarklets.laurent import LaurentPoly
from quarklets.masks import MaskSequence
from quarklets.piecewise import PiecewisePoly
from quarklets.transform import CoefficientFrame


def through_json(obj):
    return json.loads(json.dumps(obj))


def frame_obj(coefficients, level=1, width=1):
    """The JSON object of a frame, as ``frame_from_json`` reads it."""
    return {"level": level, "width": width, "coefficients": coefficients}


class TestScalars:
    def test_rational(self):
        x = Fraction(-3, 7)
        assert serialize.rational_from_json(through_json(serialize.rational_json(x))) == x

    @pytest.mark.parametrize(
        "obj", [[1.5, 2], [1, 2.0], [1, 0], [True, 2], [1, False], 5, [1], [1, 2, 3], "1/2"]
    )
    def test_malformed_rational_rejected(self, obj):
        with pytest.raises(ValueError, match="malformed input"):
            serialize.rational_from_json(obj)

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

    def test_sorted_output_is_stable(self):
        mask = MaskSequence(1, 1, {3: ((1,),), -3: ((2,),)})
        taps = serialize.mask_json(mask)["taps"]
        assert [t[0] for t in taps] == [-3, 3]

