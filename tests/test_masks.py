"""Mask sequences and their symbol conversions."""

from fractions import Fraction

import pytest
from helpers import mask_to_symbol

from quarklets.laurent import LaurentMatrix, LaurentPoly
from quarklets.masks import MaskSequence
from quarklets.splines import refinement_masks
from quarklets.transform import CoefficientFrame


class TestMaskSequence:
    def test_symbol_roundtrip(self):
        masks = refinement_masks(3, 2)
        back = MaskSequence.from_symbol(mask_to_symbol(masks))
        assert back == masks

    def test_missing_index_is_zero_matrix(self):
        masks = MaskSequence(2, 2, {0: ((1, 0), (0, 1))})
        assert masks[5] == ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(0)))

    def test_zero_matrices_not_stored(self):
        masks = MaskSequence(1, 1, {0: ((1,),), 3: ((0,),)})
        assert masks.indices() == [0]

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            MaskSequence(2, 2, {0: ((1, 0),)})
        with pytest.raises(ValueError):
            MaskSequence(0, 1)
        for entry in (((1, 0), (0,)), ((1, 0, 0), (0, 1, 0))):  # ragged, too wide
            with pytest.raises(ValueError):
                MaskSequence(2, 2, {0: entry})
        for entry in (((1.0, 0), (0, 1)), ((LaurentPoly({1: 1}), 0), (0, 1))):
            with pytest.raises(TypeError):
                MaskSequence(2, 2, {0: entry})

    def test_scalar_access_guards(self):
        matrix_mask = MaskSequence(2, 2, {0: ((1, 0), (0, 1))})
        with pytest.raises(ValueError):
            matrix_mask.scalar(0)
        with pytest.raises(ValueError):
            matrix_mask.scalars()

    def test_length_counts_span(self):
        masks = MaskSequence(1, 1, {-2: ((1,),), 3: ((1,),)})
        assert masks.length() == 6
        assert MaskSequence(1, 1).length() == 0

    def test_weighted_symbol(self):
        masks = MaskSequence(1, 1, {0: ((1,),), 1: ((1,),)})
        sym = LaurentMatrix([[LaurentPoly({0: Fraction(1, 2), 1: Fraction(1, 2)})]])  # (1/2)(1 + z)
        assert MaskSequence.from_symbol(sym) == masks
        assert mask_to_symbol(masks) == sym


@pytest.mark.parametrize(
    "build",
    [
        lambda k: LaurentPoly({0: 2, k: 1}),
        lambda k: MaskSequence(1, 1, {0: ((2,),), k: ((1,),)}),
        lambda k: CoefficientFrame(0, 1, {0: (2,), k: (1,)}),
    ],
    ids=["LaurentPoly", "MaskSequence", "CoefficientFrame"],
)
@pytest.mark.parametrize(
    "index", [0.5, 1.0, Fraction(1, 2), Fraction(1)], ids=["float", "whole float", "Fraction", "whole Fraction"]
)
def test_non_integer_index_is_refused(build, index):
    # truncating the index to int would merge it into the entry at 0 and lose data
    with pytest.raises(TypeError):
        build(index)
