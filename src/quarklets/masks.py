"""Finitely supported integer-indexed sequences of rational matrices.

A mask {M_k} collects the coefficients of a two-scale relation.  The attached
symbol is the Laurent matrix (1/2) sum_k M_k z^k.  The library stores every
filter as its symbol, and a :class:`MaskSequence` keeps that symbol as it is:
integer numerators over one denominator per entry, plus an integer factor,
M_k = factor * (z^k coefficient); the factor is 2 for :meth:`MaskSequence.from_symbol`.
Reading masks off a symbol (:func:`mask_view`) thus copies nothing, and
nothing converts back.  The dense ``Fraction`` taps (``entries`` and what
reads it) are a read-only view built on first read; :func:`quarklets.serialize.mask_json`
renders the integers without it.  Scalar masks are stored as 1x1 matrices.
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
    """Read-only sparse map k -> (rows x cols) rational matrix, M_k = factor * (z^k coefficient of symbol)."""

    __slots__ = ("rows", "cols", "symbol", "factor", "_entries")

    def __init__(self, rows: int, cols: int, entries: Mapping[int, Sequence[Sequence]] | None = None):
        if rows < 1 or cols < 1:
            raise ValueError("mask matrices must have positive dimensions")
        taps: dict[int, Mat] = {}
        for k, m in (entries or {}).items():
            mat = tuple(tuple(as_rational(c) for c in row) for row in m)
            if len(mat) != rows or any(len(row) != cols for row in mat):
                raise ValueError(f"entry at k={k} has wrong shape")
            taps[operator.index(k)] = mat
        symbol = LaurentMatrix([[LaurentPoly({k: tap[i][j] for k, tap in taps.items()}) for j in range(cols)]
                                for i in range(rows)])
        self._init(symbol, 1)

    def _init(self, symbol: LaurentMatrix, factor: int):
        for name, value in (("rows", symbol.rows), ("cols", symbol.cols), ("symbol", symbol),
                            ("factor", factor), ("_entries", None)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"MaskSequence is read-only: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    @staticmethod
    def from_symbol(symbol: LaurentMatrix, factor: int = 2) -> "MaskSequence":
        """Masks M_k = factor * (z^k coefficient of the symbol), kept as the symbol itself."""
        mask = MaskSequence.__new__(MaskSequence)
        mask._init(symbol, factor)
        return mask

    @property
    def entries(self) -> Mapping[int, Mat]:
        """Read-only view k -> dense Fraction matrix, nonzero taps only, in k order; built on first read."""
        if self._entries is None:
            taps = (self.symbol * self.factor).taps()
            view = MappingProxyType({k: tuple(map(tuple, taps[k])) for k in sorted(taps)})
            object.__setattr__(self, "_entries", view)
        return self._entries

    def __getitem__(self, k: int) -> Mat:
        return self.entries.get(k, ((Fraction(0),) * self.cols,) * self.rows)

    def scalar(self, k: int) -> Fraction:
        if self.rows != 1 or self.cols != 1:
            raise ValueError("scalar access on a matrix mask")
        return self[k][0][0]

    def scalars(self) -> dict[int, Fraction]:
        if self.rows != 1 or self.cols != 1:
            raise ValueError("scalar access on a matrix mask")
        return {k: m[0][0] for k, m in self.entries.items()}

    def items(self) -> Iterator[tuple[int, Mat]]:
        return iter(self.entries.items())

    def indices(self) -> list[int]:
        return list(self.entries)

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
        return (self.rows, self.cols) == (other.rows, other.cols) and (
            self.symbol * self.factor == other.symbol * other.factor)

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
