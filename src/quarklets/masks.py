"""Finitely supported integer-indexed sequences of rational matrices.

A mask {M_k} collects the coefficients of a two-scale relation.  The attached
symbol is the Laurent matrix (1/2) sum_k M_k z^k; masks and symbols convert
losslessly in both directions.  Scalar masks are stored as 1x1 matrices.
"""

from __future__ import annotations

from fractions import Fraction
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
                    clean[int(k)] = mat
        self.entries = MappingProxyType(clean)

    @staticmethod
    def from_scalars(values: Mapping[int, object]) -> "MaskSequence":
        return MaskSequence(1, 1, {k: ((as_rational(v),),) for k, v in values.items()})

    @staticmethod
    def from_symbol(symbol: LaurentMatrix) -> "MaskSequence":
        """Masks M_k = 2 * (z^k coefficient of the symbol), read off the nonzero terms only."""
        zero = Fraction(0)
        out: dict[int, list[list[Fraction]]] = {}
        for i, row in enumerate(symbol.entries):
            for j, entry in enumerate(row):
                for k, c in entry.coeffs.items():
                    out.setdefault(k, [[zero] * symbol.cols for _ in range(symbol.rows)])[i][j] = 2 * c
        return MaskSequence(symbol.rows, symbol.cols, {k: out[k] for k in sorted(out)})

    def to_symbol(self) -> LaurentMatrix:
        """The symbol, the Laurent matrix (1/2) sum_k M_k z^k."""
        taps = self.entries.items()
        return LaurentMatrix([
            [LaurentPoly({k: m[i][j] / 2 for k, m in taps if m[i][j]}) for j in range(self.cols)]
            for i in range(self.rows)
        ])

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
