"""Canonical JSON forms of the exact types.

Rationals are ``[numerator, denominator]`` integer pairs.  Sparse
integer-indexed collections are emitted as sorted ``[index, value]`` pair
lists so output is byte-stable.  A mask's symbol (:func:`mask_json`) and a
frame's row (:func:`frame_json`, a 1 x width matrix) are rendered as dense tap
matrices straight off the integer numerators, one gcd per nonzero entry, with
no ``Fraction``; a mask pads with one shared immutable zero pair and zero row,
a frame with ``[0, 1]`` lists.  The one reader, :func:`frame_from_json`, is
strict and builds the row directly.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .laurent import LaurentPoly, _from_int
from .masks import MaskSequence
from .piecewise import PiecewisePoly
from .transform import CoefficientFrame, _checked_length, _checked_width, _frame


def rational_json(x: Fraction) -> list[int]:
    return [*x.as_integer_ratio()]


def _pair(obj) -> list[int]:
    """An ``[int, int]`` pair with a nonzero denominator, as it is; bools are not ints."""
    pair = isinstance(obj, list) and len(obj) == 2 and all(type(x) is int for x in obj)
    if not pair or not obj[1]:
        raise ValueError(f"malformed input: {obj!r} is not an [int, int] pair, denominator nonzero")
    return obj


def _int(obj) -> int:
    """A JSON int; bools and floats are not ints."""
    if type(obj) is not int:
        raise ValueError(f"malformed input: {obj!r} is not an int")
    return obj


def _entries(obj) -> list:
    """The ``[index, list]`` entries of a sparse collection, each index a JSON int, none repeated."""
    seen = set()
    for e in obj if isinstance(obj, list) else [obj]:
        if not (isinstance(e, list) and len(e) == 2 and type(e[0]) is int and isinstance(e[1], list)):
            raise ValueError(f"malformed input: {e!r} is not an [int, list] entry")
        if e[0] in seen:
            raise ValueError(f"malformed input: index {e[0]} is repeated")
        seen.add(e[0])
    return obj


def laurent_poly_json(p: LaurentPoly) -> dict:
    return {"terms": [[k, rational_json(c)] for k, c in p.items()]}


def matrix_json(mat) -> list:
    return [[[*x.as_integer_ratio()] for x in row] for row in mat]


# the zero pair of every dense tap, shared; a tuple, which no payload can change and ``json`` prints as a list
_ZERO_PAIR = (0, 1)


def _tap_pairs(grid: Sequence[Sequence[LaurentPoly]], factor: int) -> dict[int, list]:
    """Exponent -> dense tap matrix of ``[num, den]`` pairs of factor times ``grid``, sorted by exponent."""
    # a row of a tap stays the shared zero row until an entry of it is set
    zero_row = (_ZERO_PAIR,) * len(grid[0])
    taps = {k: [zero_row] * len(grid) for k in sorted({k for row in grid for e in row for k in e.nums})}
    for i, row in enumerate(grid):
        for j, e in enumerate(row):
            den = e.den
            for k, n in e.nums.items():
                n *= factor
                g = gcd(n, den)
                tap = taps[k]
                if tap[i] is zero_row:
                    tap[i] = list(zero_row)
                tap[i][j] = [n // g, den // g]
    return taps


def mask_json(mask: MaskSequence) -> dict:
    taps = _tap_pairs(mask.symbol.entries, mask.factor)
    if mask.rows == 1 and mask.cols == 1:
        return {"kind": "scalar", "taps": [[k, tap[0][0]] for k, tap in taps.items()]}
    return {"kind": "matrix", "rows": mask.rows, "cols": mask.cols, "taps": [[k, tap] for k, tap in taps.items()]}


def piecewise_json(f: PiecewisePoly) -> dict:
    return {
        "breakpoints": [rational_json(b) for b in f.breakpoints],
        "pieces": [
            [rational_json(p[k]) for k in range(max(p.nums, default=-1) + 1)] for p in f.pieces
        ],
    }


def frame_json(frame: CoefficientFrame) -> dict:
    taps = _tap_pairs((frame.row,), 1)
    # zero pairs as lists, so the object equals its JSON text's and reads back as it is
    vecs = [[k, [[0, 1] if c is _ZERO_PAIR else c for c in tap[0]]] for k, tap in taps.items()]
    return {"level": frame.level, "width": frame.width, "coefficients": vecs}


def frame_from_json(obj) -> CoefficientFrame:
    if not isinstance(obj, dict):
        raise ValueError("malformed input: a frame is a JSON object")
    level, width = _int(obj["level"]), _checked_width(_int(obj["width"]))
    pairs = {k: [_pair(c) for c in vec] for k, vec in _entries(obj["coefficients"])}
    for k, vec in pairs.items():
        _checked_length(k, vec, width)
    return _frame(level, (_poly_from_pairs({k: vec[j] for k, vec in pairs.items()}) for j in range(width)))


def _poly_from_pairs(pairs: dict[int, list[int]]) -> LaurentPoly:
    # over a common multiple of the denominators, reduced once
    den = lcm(*(abs(d) for _, d in pairs.values()))
    return _from_int({k: n * (den // d) for k, (n, d) in pairs.items()}, den)
