"""Finitely supported integer-indexed sequences of rational matrices.

A mask {M_k} collects the coefficients of a two-scale relation.  The attached
symbol is the Laurent matrix (1/2) sum_k M_k z^k.  The library stores every
filter as its symbol and reads masks off it, M_k = 2 * (z^k coefficient),
only where a caller asks for them (:func:`mask_view`); nothing converts
back.  Scalar masks are stored as 1x1 matrices.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType
from typing import Iterator, Mapping, Sequence

from .laurent import LaurentMatrix, LaurentPoly, as_rational

Mat = tuple[tuple[Fraction, ...], ...]


class MaskSequence:
    """Read-only sparse map k -> (rows x cols) rational matrix; zero matrices not stored."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Mapping[int, Sequence[Sequence]] | None = None):
        if rows < 1 or cols < 1:
            raise ValueError("mask matrices must have positive dimensions")
        self.rows, self.cols = rows, cols
        clean: dict[int, Mat] = {}
        if entries:
            for k, m in entries.items():
                mat = tuple(tuple(as_rational(c) for c in row) for row in m)
                if len(mat) != rows or any(len(row) != cols for row in mat):
                    raise ValueError(f"entry at k={k} has wrong shape")
                if any(any(row) for row in mat):
                    clean[operator.index(k)] = mat
        self.entries = MappingProxyType(clean)

    @staticmethod
    def from_taps(rows: int, cols: int, taps: Mapping[int, Sequence[Sequence[Fraction]]]) -> "MaskSequence":
        """The mask of ``LaurentMatrix.taps`` of a rows x cols matrix, taken without re-validation.

        Every tap must be a nonzero rows x cols matrix of Fractions, as ``taps`` gives them.
        """
        mask = MaskSequence.__new__(MaskSequence)
        mask.rows, mask.cols = rows, cols
        mask.entries = MappingProxyType({k: tuple(map(tuple, taps[k])) for k in sorted(taps)})
        return mask

    @staticmethod
    def from_symbol(symbol: LaurentMatrix) -> "MaskSequence":
        """Masks M_k = 2 * (z^k coefficient of the symbol), read off the nonzero terms only."""
        return MaskSequence.from_taps(symbol.rows, symbol.cols, (symbol * 2).taps())

    def __getitem__(self, k: int) -> Mat:
        return self.entries.get(k, ((Fraction(0),) * self.cols,) * self.rows)

    def scalar(self, k: int) -> Fraction:
        if self.rows != 1 or self.cols != 1:
            raise ValueError("scalar access on a matrix mask")
        return self[k][0][0]

    def scalars(self) -> dict[int, Fraction]:
        if self.rows != 1 or self.cols != 1:
            raise ValueError("scalar access on a matrix mask")
        return {k: m[0][0] for k, m in sorted(self.entries.items())}

    def items(self) -> Iterator[tuple[int, Mat]]:
        return iter(sorted(self.entries.items()))

    def indices(self) -> list[int]:
        return sorted(self.entries)

    def support(self) -> tuple[int, int]:
        if not self.entries:
            return (0, -1)
        ks = self.entries.keys()
        return (min(ks), max(ks))

    def length(self) -> int:
        """Number of taps spanned, endpoints included."""
        lo, hi = self.support()
        return max(0, hi - lo + 1)

    def __eq__(self, other):
        if not isinstance(other, MaskSequence):
            return NotImplemented
        return (self.rows, self.cols, self.entries) == (other.rows, other.cols, other.entries)

    def __repr__(self):
        lo, hi = self.support()
        return f"MaskSequence({self.rows}x{self.cols}, support [{lo},{hi}])"


def mask_view(symbol_field: str, doc: str) -> cached_property:
    """A cached property: the masks of the symbol in ``symbol_field`` (a scalar symbol as 1x1), on first read."""

    def read(self) -> MaskSequence:
        symbol = getattr(self, symbol_field)
        return MaskSequence.from_symbol(LaurentMatrix([[symbol]]) if isinstance(symbol, LaurentPoly) else symbol)

    read.__doc__ = doc
    return cached_property(read)
