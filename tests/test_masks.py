"""Mask sequences and their symbol conversions."""

from fractions import Fraction

import pytest

from quarklets.laurent import LaurentMatrix, LaurentPoly
from quarklets.masks import MaskSequence
from quarklets.splines import refinement_masks


class TestMaskSequence:
    def test_symbol_roundtrip(self):
        masks = refinement_masks(3, 2).matrices
        back = MaskSequence.from_symbol(masks.to_symbol())
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
        masks = MaskSequence.from_scalars({-2: Fraction(1), 3: Fraction(1)})
        assert masks.length() == 6
        assert MaskSequence(1, 1).length() == 0

    def test_weighted_symbol(self):
        masks = MaskSequence.from_scalars({0: Fraction(1), 1: Fraction(1)})
        sym = masks.to_symbol()  # (1/2)(1 + z)
        assert sym == LaurentMatrix([[LaurentPoly({0: Fraction(1, 2), 1: Fraction(1, 2)})]])
