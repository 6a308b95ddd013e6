"""Canonical JSON forms round-trip exactly."""

import json
import random
from fractions import Fraction

import pytest

from quarklets import serialize
from quarklets.laurent import LaurentPoly
from quarklets.masks import MaskSequence
from quarklets.piecewise import PiecewisePoly
from quarklets.splines import refinement_masks
from quarklets.transform import CoefficientFrame


def through_json(obj):
    return json.loads(json.dumps(obj))


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
        "read,obj",
        [
            ("laurent", {"terms": [[1.0, [1, 2]]]}),
            ("laurent", {"terms": [[True, [1, 2]]]}),
            ("laurent", {"terms": [["1", [1, 2]]]}),
            ("laurent", {"terms": [5]}),
            ("mask", {"kind": "scalar", "taps": [[0.5, [1, 1]]]}),
            ("mask", {"kind": "matrix", "rows": 1.0, "cols": 1, "taps": [[0, [[[1, 1]]]]]}),
            ("mask", {"kind": "matrix", "rows": 1, "cols": True, "taps": [[0, [[[1, 1]]]]]}),
            ("mask", {"kind": "matrix", "rows": 1, "cols": 1, "taps": [["0", [[[1, 1]]]]]}),
            ("mask", {"kind": "matrix", "rows": 1, "cols": 1, "taps": [[0]]}),
        ],
    )
    def test_non_int_index_or_shape_rejected(self, read, obj):
        reader = {"laurent": serialize.laurent_poly_from_json, "mask": serialize.mask_from_json}[read]
        with pytest.raises(ValueError, match="malformed input"):
            reader(obj)

    @pytest.mark.parametrize(
        "read,obj",
        [
            ("laurent", {"terms": [[1, [1, 2]], [1, [1, 3]]]}),
            ("mask", {"kind": "scalar", "taps": [[0, [1, 2]], [1, [1, 2]], [0, [1, 2]]]}),
            ("mask", {"kind": "matrix", "rows": 1, "cols": 1, "taps": [[2, [[[1, 1]]]], [2, [[[1, 2]]]]]}),
            ("frame", {"level": 1, "width": 1, "coefficients": [[0, [[1, 2]]], [0, [[1, 3]]]]}),
        ],
    )
    def test_repeated_index_rejected(self, read, obj):
        reader = {"laurent": serialize.laurent_poly_from_json, "mask": serialize.mask_from_json,
                  "frame": serialize.frame_from_json}[read]
        with pytest.raises(ValueError, match="malformed input: index .* is repeated"):
            reader(obj)

    def test_real_coefficient_stays_pair_form(self):
        assert serialize.laurent_poly_json(LaurentPoly({1: Fraction(2, 3)}))["terms"] == [[1, [2, 3]]]


class TestCompound:
    def test_laurent_poly(self):
        p = LaurentPoly({-2: Fraction(1, 3), 0: -4, 5: Fraction(-7, 2)})
        back = serialize.laurent_poly_from_json(through_json(serialize.laurent_poly_json(p)))
        assert back == p

    def test_piece_layout_is_dense_constant_term_first(self):
        # the interior zero piece is an empty list; zeros below the top coefficient are kept
        f = PiecewisePoly([-1, 0, 1, 2], [(0, 1), (), (0, 0, 3)])
        pieces = serialize.piecewise_json(f)["pieces"]
        assert pieces == [[[0, 1], [1, 1]], [], [[0, 1], [0, 1], [3, 1]]]

    def test_scalar_mask(self):
        mask = MaskSequence.from_scalars({-1: Fraction(1, 2), 2: Fraction(-3)})
        back = serialize.mask_from_json(through_json(serialize.mask_json(mask)))
        assert back == mask

    def test_matrix_mask(self):
        mask = refinement_masks(2, 2)
        back = serialize.mask_from_json(through_json(serialize.mask_json(mask)))
        assert back == mask

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
        mask = MaskSequence.from_scalars({3: Fraction(1), -3: Fraction(2)})
        taps = serialize.mask_json(mask)["taps"]
        assert [t[0] for t in taps] == [-3, 3]

