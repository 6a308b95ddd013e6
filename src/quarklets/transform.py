"""Multiscale decomposition/reconstruction of coefficient frames, and
orthogonalized Haar quarklets.

A coefficient frame holds finitely many rational vectors c_k of length p+1 at
one dyadic level j, for sum_k c_k^T Phi(2^j x - k) (scaling) or
sum_k d_k^T Psi(2^j x - k) (quarklets), as its row c(z) = sum_k c_k z^k of
Laurent polynomials (the row-vector polyphase form of Strang & Nguyen,
*Wavelets and Filter Banks*, 1996).

Synthesis and analysis take the bundle, which caches the read-only integer cores they
apply, and read each component in one packed form (:mod:`quarklets.laurent`): its slots as
big-endian bytes by run, laid out at the call's slot width (``_lay_out``) and evaluated at
z = X = 2^W as one int, so every product with a filter runs in CPython's big-int arithmetic,
one tap at a time.  A transform puts its products back into that form as it returns
(``_slice_out``), trimmed and divided by the power of two that divides every slot and the
denominator; a frame built from a row gets it on first use (``_chunked``), and a frame that a
transform returns reads its row on demand (``_unpack``, one gcd per component).
Synthesis, with S the scaling symbol and b the wavelet symbol, is

    reconstruct:  c_j(z) = 2 sum_i s_i(z^2) S_ij(z) + 2 d_j(z^2) b(z),

the coarse rows packed with slots twice as wide, which evaluates them at X^2.  Analysis
never forms P(z)^{-1}: ``decompose(frame, bundle)`` applies the factors of X(z)^{-1}
(:mod:`quarklets.modulation`) by back substitution on the p + 1 short polynomials h,
then takes the products with b(-z) and g(-z) and reads off their odd slots: lifting
(Daubechies & Sweldens, J. Fourier Anal. Appl. 4, 1998) in the Pascal ring.  The slot
width W covers every slot of every output product (``_packed``), and a frame whose
translates lie far apart is packed by runs, so its cost follows its nonzero entries.

For order m = 1 the quarklets supported on one period can be orthogonalized
degree by degree with plain rational Gram-Schmidt.
"""

from __future__ import annotations

import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .cdf import quarklets
from .laurent import LaurentPoly, _chunked, _lay_out, _shift_add, _slice_out, _unpack, as_rational
from .masks import Mat
from .modulation import ModulationBundle
from .piecewise import PiecewisePoly, inner_product

Vector = tuple[Fraction, ...]


@dataclass(frozen=True, init=False)
class CoefficientFrame:
    """Finitely supported map translate -> rational coefficient vector (read-only).

    Its value is ``row``, the ``width`` Laurent polynomials c(z) = sum_k c_k z^k of its
    components, which ``==``, ``hash`` and pickling read; the transforms read ``_forms``, their
    packed forms (:mod:`quarklets.laurent`).  A frame holds one and derives the other on first
    use; ``coefficients`` is the read-only ``Fraction`` view, built on first read.
    """

    level: int
    width: int

    def __init__(self, level: int, width: int, coefficients: Mapping[int, Sequence]):
        _checked_width(width)
        vecs = {}
        for k, v in coefficients.items():
            vec = _checked_length(k, tuple(as_rational(c) for c in v), width)
            if any(vec):
                vecs[operator.index(k)] = vec
        row = (LaurentPoly({k: vec[j] for k, vec in vecs.items()}) for j in range(width))
        self.__dict__.update(level=level, width=width, row=tuple(row))

    def __reduce__(self):
        return _frame, (self.level, self.row)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.level == other.level and self.row == other.row

    def __hash__(self):
        return hash((self.level, self.row))

    def __repr__(self):
        return f"CoefficientFrame(level={self.level!r}, row={self.row!r})"

    @staticmethod
    def zero(level: int, width: int) -> "CoefficientFrame":
        return CoefficientFrame(level, width, {})

    @staticmethod
    def unit(level: int, width: int, k: int, component: int) -> "CoefficientFrame":
        if not 0 <= component < _checked_width(width):
            raise ValueError(f"component must lie in 0 .. {width - 1}, got {component}")
        vec = [0] * width
        vec[component] = 1
        return CoefficientFrame(level, width, {k: vec})

    @cached_property
    def row(self) -> tuple[LaurentPoly, ...]:
        """The components, read off their packed forms with one gcd each (``laurent._unpack``) on first use."""
        return tuple(map(_unpack, self._forms))

    @cached_property
    def _forms(self) -> tuple[tuple, ...]:
        """The packed forms of the components (``laurent._chunked``), built on first use."""
        return tuple(map(_chunked, self.row))

    @cached_property
    def coefficients(self) -> Mapping[int, Vector]:
        """Read-only view translate -> Fraction vector, built on first read."""
        row = self.row
        support = sorted(set().union(*(c.nums for c in row)))
        return MappingProxyType({k: tuple(c[k] for c in row) for k in support})

    def __getitem__(self, k: int) -> Vector:
        return self.coefficients.get(k, (Fraction(0),) * self.width)

    def items(self):
        return sorted(self.coefficients.items())

    def is_zero(self) -> bool:
        return not any(self.row)


def _checked_width(width: int) -> int:
    if width < 1:
        raise ValueError(f"frame width must be at least 1, got {width}")
    return width


def _checked_length(k: int, vec: Sequence, width: int) -> Sequence:
    if len(vec) != width:
        raise ValueError(f"coefficient at k={k} has length {len(vec)}, expected {width}")
    return vec


def _frame(level: int, row: Iterable[LaurentPoly] = (), forms: Iterable[tuple] = ()) -> CoefficientFrame:
    """The frame with this row, unchecked, or with these packed forms; the class is frozen, so fields go in
    its dict."""
    row, forms = tuple(row), tuple(forms)
    frame = CoefficientFrame.__new__(CoefficientFrame)
    frame.__dict__.update({"row": row} if row else {"_forms": forms}, level=level, width=len(row or forms))
    return frame


def reconstruct(
    scaling: CoefficientFrame, detail: CoefficientFrame, bundle: ModulationBundle
) -> CoefficientFrame:
    """One synthesis step, c_j(z) = 2 sum_i s_i(z^2) S_ij(z) + 2 d_j(z^2) b(z), on packed rows."""
    if scaling.level != detail.level:
        raise ValueError("frames must live on the same level")
    width = bundle.size
    if scaling.width != width or detail.width != width:
        raise ValueError("frame width does not match the bundle degree")
    columns, gain, reach = bundle.synthesis_cores
    den, nb, runs = _packed(scaling._forms + detail._forms, gain, reach, 2)
    parts: list[list] = [[] for _ in columns]
    for vals in runs:
        for (column, _), out in zip(columns, parts):
            out.append(_shift_add(vals, column, nb))
    return _frame(scaling.level + 1, forms=[_slice_out(out, nb, 0, den * d) for out, (_, d) in zip(parts, columns)])


def decompose(frame: CoefficientFrame, bundle: ModulationBundle) -> tuple[CoefficientFrame, CoefficientFrame]:
    """One analysis step, [s^T, d^T](z^2) = (1/2) [c^T(z), c^T(-z)] X(z)^{-1}, through X^{-1}'s factors.

    X^{-1} = [[L, R(-z)], [L(-z), R]] with L = b(-z) M_k D^{-1} and R = M_k M_g, and k is odd,
    so with y = c M_k:  s_j = 2^j even(b(-z) y_j)  and  d_j = -even(sum_{i>=j} C(i, j) g_{i-j}(-z) y_i),
    where y solves y M_h = c from j = p down:  y_j = z^{-1} (c_j - sum_{i>j} C(i, j) h_{i-j} y_i).
    """
    if frame.width != bundle.size:
        raise ValueError("frame width does not match the bundle degree")
    columns, gain, reach = bundle.lifting_cores
    den, nb, runs = _packed(frame._forms, gain, reach, 1)
    coarse: list[list] = [[] for _ in columns]
    detail: list[list] = [[] for _ in columns]
    for vals in runs:
        for column in reversed(columns):  # u_p, ..., u_0
            vals.append(_shift_add(vals, column[0], nb))
        for (_, s_col, d_col, _, _), s, d in zip(columns, coarse, detail):
            s.append(_shift_add(vals, s_col, nb))
            d.append(_shift_add(vals, d_col, nb))
    # u_j = z y_j, so the even powers of y_j's products are the odd slots of u_j's
    level = frame.level - 1
    return (_frame(level, forms=[_slice_out(s, nb, 1, den * column[3]) for s, column in zip(coarse, columns)]),
            _frame(level, forms=[_slice_out(d, nb, 1, den * column[4]) for d, column in zip(detail, columns)]))


def _packed(forms: Sequence[tuple], gain: int, reach: int, step: int) -> tuple[int, int, list[list[tuple]]]:
    """The components of their packed forms (``laurent``) over their common denominator as packed rows, with
    that denominator and the slot bytes nb that hold gain times its largest numerator, sign included.

    The runs of every form are joined into spans where two lie at most ``reach`` apart, so the spans' outputs
    share no exponent and each is transformed on its own.  Per span, every component is laid out on its own
    runs there by one ``_lay_out``, its translate k on z^{step k} in slots of step nb bytes, no fewer than the
    form has; (0, 0, 0) where it has none.
    """
    den = lcm(*[form[3] for form in forms])
    scales = [den // form[3] for form in forms]
    top = max([form[4] * scale for form, scale in zip(forms, scales)])
    nb = max(((gain * top).bit_length() + 8) // 8, *[-(-form[1] // step) for form in forms])
    starts = [[run[0] for run in form[0]] for form in forms]
    # with starts and ends sorted apart, a span ends at the i-th end exactly when the next start lies more than
    # reach past it, as the i smallest ends are then those of the i smallest starts
    spans: list[list[int]] = []
    for first, last in zip(sorted([k for keys in starts for k in keys]),
                           sorted([run[1] for form in forms for run in form[0]])):
        if spans and first - spans[-1][1] <= reach:
            spans[-1][1] = last
        else:
            spans.append([first, last])
    runs = []
    for lo, hi in spans:
        vals = []
        for (parts, nb_in, shift, _, _), keys, scale in zip(forms, starts, scales):
            a, b = bisect_left(keys, lo), bisect_right(keys, hi)
            if a == b:
                vals.append((0, 0, 0))
                continue
            n, first, last = _lay_out(parts[a:b], nb_in, step * nb, shift)
            vals.append((n * scale, step * first, step * last))
        runs.append(vals)
    return den, nb, runs


# -- orthogonalized Haar quarklets ---------------------------------------------------


@dataclass(frozen=True)
class OrthoQuarklets:
    """Gram-Schmidt orthogonalized quarklets for order m = 1.

    ``to_plain[q][l]`` expresses member q over the plain quarklets
    (psi*_q = sum_l to_plain[q][l] psi_l, lower unitriangular), and
    ``from_plain`` is its exact inverse.
    """

    mt: int
    p: int
    members: tuple[PiecewisePoly, ...]
    norms: tuple[Fraction, ...]  # <psi*_q, psi*_q>
    to_plain: Mat
    from_plain: Mat
    plain: tuple[PiecewisePoly, ...]


def orthogonalize_haar(mt: int, p: int) -> OrthoQuarklets:
    """Degree-by-degree rational Gram-Schmidt of the order-1 quarklets.

    Requires mt odd (the order-1 filter pairs all have odd mt).  For mt = 1
    the quarklets live on [0, 1], so translates are orthogonal as well and
    the family spans the same detail space with a fully orthogonal system.
    """
    if mt % 2 == 0:
        raise ValueError("order 1 pairs with odd dual order only")
    family = quarklets(1, mt, p)
    members: list[PiecewisePoly] = []
    rows: list[tuple[Fraction, ...]] = []
    lines: list[tuple[Fraction, ...]] = []
    norms: list[Fraction] = []
    for q in range(p + 1):
        # psi*_q = psi_q - sum_l row[l] psi*_l: row is line q of from_plain, e_q - sum_l row[l] lines[l] that of to_plain
        row = [inner_product(family[q], members[l]) / norms[l] for l in range(q)]
        f = family[q] - sum((g * c for g, c in zip(members, row) if c), PiecewisePoly.zero())
        members.append(f)
        rows.append((*row, Fraction(1)) + (Fraction(0),) * (p - q))
        lines.append(tuple(Fraction(int(i == q)) - sum((c * line[i] for c, line in zip(row, lines)), Fraction(0))
                           for i in range(p + 1)))
        norm = inner_product(f, f)
        if norm == 0:
            raise AssertionError(f"degenerate quarklet family: member {q} vanished")
        norms.append(norm)
    return OrthoQuarklets(
        mt=mt,
        p=p,
        members=tuple(members),
        norms=tuple(norms),
        to_plain=tuple(lines),
        from_plain=tuple(rows),
        plain=family,
    )
