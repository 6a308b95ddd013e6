"""Laurent polynomials over the rationals, and matrices of them.

A Laurent polynomial sum_k c_k z^k with finitely many nonzero c_k is stored as
integer numerators over one denominator: ``nums = {exponent: numerator}``
with no zero entries and ``den > 0``, in lowest terms (gcd(den, *nums) = 1).
Both fields are read-only.  That form is canonical, so ``==`` and ``hash``
compare it structurally, and ``coeffs`` is a read-only ``Fraction`` view built
on demand.  On the unit circle |z| = 1 conjugation acts by c_k z^{-k} (the
coefficients are real), which is what :meth:`LaurentPoly.conj_on_circle`
implements.  Evaluated at z = exp(-i t), the same object is the trigonometric
polynomial sum_k c_k exp(-i k t).

All arithmetic is exact and runs on integers, with one reduction per result: sums,
scalar multiples, z -> -z, z -> 1/z and the derivative act on the numerators, and a
scalar a/b needs only gcd(den, a) and gcd(b, *nums) for it.
A matrix product scales each row of the left factor and each column of the
right one to one common denominator (``_int_cores``), accumulates every
output entry in ``int`` (``_dot``) and reduces it once (``_from_int``), row
by row (``_row_times``, which also takes column cores kept from earlier).  A
polynomial product is its 1x1 case.  The Pascal-type matrices
M_g = [C(i, j) g_{i-j}] multiply as M_g M_h = M_{g * h},
(g * h)_n = sum_s C(n, s) g_{n-s} h_s (Call & Velleman, Amer. Math. Monthly
100, 1993), so :func:`pascal_product` and :func:`pascal_inverse` run on the
p + 1 polynomials g_n, on the same kernel, and :func:`pascal_matrix` expands
them.
The module imports no numpy: the float taps of a Laurent matrix and every
Fourier-domain value are taken in :mod:`quarklets.duals`.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import comb, gcd, lcm
from types import MappingProxyType
from typing import Iterator, Mapping, Sequence


def as_rational(value) -> Fraction:
    """Coerce an int or Fraction to Fraction; floats never enter the exact core."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


class LaurentPoly:
    """Finitely supported Laurent polynomial sum_k (nums[k] / den) z^k, in lowest terms."""

    __slots__ = ("nums", "den")

    def __init__(self, coeffs: Mapping[int, object] | None = None):
        clean: dict[int, Fraction] = {}
        if coeffs:
            for k, c in coeffs.items():
                c = as_rational(c)
                if c:
                    clean[operator.index(k)] = c
        # over the lcm of reduced denominators the numerators share no factor with it
        den = lcm(*(c.denominator for c in clean.values()))
        _set_nums(self, MappingProxyType({k: c.numerator * (den // c.denominator) for k, c in clean.items()}))
        _set_den(self, den)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"LaurentPoly is read-only: {name!r} cannot be set or deleted")

    __delattr__ = __setattr__

    def __reduce__(self):
        return _raw, (dict(self.nums), self.den)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero() -> "LaurentPoly":
        return LaurentPoly()

    @staticmethod
    def one() -> "LaurentPoly":
        return _raw({0: 1}, 1)

    @staticmethod
    def monomial(c, k: int = 0) -> "LaurentPoly":
        return LaurentPoly({k: c})

    # -- basic queries -------------------------------------------------------

    @property
    def coeffs(self) -> Mapping[int, Fraction]:
        """Read-only view {exponent: coefficient}, one Fraction per nonzero term."""
        den = self.den
        return MappingProxyType({k: Fraction(n, den) for k, n in self.nums.items()})

    def is_zero(self) -> bool:
        return not self.nums

    def __bool__(self) -> bool:
        return bool(self.nums)

    def __getitem__(self, k: int) -> Fraction:
        return Fraction(self.nums.get(k, 0), self.den)

    def items(self) -> Iterator[tuple[int, Fraction]]:
        return iter(sorted(self.coeffs.items()))

    def is_monomial(self) -> bool:
        return len(self.nums) == 1

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        return _add(self, other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return _add(self, other, -1)

    def __rsub__(self, other):
        return -self + other

    def __neg__(self):
        return _raw({k: -n for k, n in self.nums.items()}, self.den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            # gcd(den, *nums) = 1 and other = a/b in lowest terms, so gcd(den, a) gcd(b, *nums) is the
            # gcd of den b and every n a: one gcd each, no pass to find it
            a, b = other.numerator, other.denominator
            ga, gb = gcd(self.den, a), gcd(b, *self.nums.values())
            a //= ga
            return _raw({k: n // gb * a for k, n in self.nums.items()} if a else {}, self.den // ga * (b // gb))
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return _from_int(_dot((self.nums,), (other.nums,)), self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            if self.is_monomial():
                k, c = next(iter(self.nums.items()))
                return LaurentPoly({-k: Fraction(self.den, c)}) ** (-n)
            raise ValueError("negative powers require a monomial")
        out = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def __divmod__(self, other):
        """(q, r) with self = q*other + r and r's top exponent below other's.

        Long division from the top exponent.  q collects terms down to the
        exponent 0 if self is a polynomial, so on polynomials this is
        polynomial division, and down to lo(self) - lo(other) if self has a
        negative exponent.  An exact multiple q*other thus leaves r = 0 unless
        it is a polynomial while q is not (z does not divide 1 as polynomials).
        """
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        if not other:
            raise ZeroDivisionError("division by the zero polynomial")
        terms = other.coeffs
        top = max(terms)
        lead = terms[top]
        rem, quot = dict(self.coeffs), {}
        floor = min(0, min(rem) - min(terms)) if rem and min(rem) < 0 else 0
        while rem and max(rem) - top >= floor:
            shift = max(rem) - top
            f = quot[shift] = rem[top + shift] / lead
            for k, c in terms.items():
                v = rem.get(k + shift, 0) - f * c
                if v:
                    rem[k + shift] = v
                else:
                    del rem[k + shift]
        return LaurentPoly(quot), LaurentPoly(rem)

    # -- structural operations ------------------------------------------------

    def derivative(self) -> "LaurentPoly":
        """d/dz, term by term."""
        return _from_int({k - 1: k * n for k, n in self.nums.items() if k}, self.den)

    def substitute_neg(self) -> "LaurentPoly":
        """z -> -z: flip the sign of every odd-exponent coefficient."""
        return _raw({k: (-n if k & 1 else n) for k, n in self.nums.items()}, self.den)

    def conj_on_circle(self) -> "LaurentPoly":
        """Pointwise conjugate on |z| = 1, i.e. the reflection c_k z^k -> c_k z^{-k}."""
        return _raw({-k: n for k, n in self.nums.items()}, self.den)

    # -- evaluation ------------------------------------------------------------

    def eval_rational(self, x: Fraction | int) -> Fraction:
        """Exact value at a rational point, by Horner's rule on the integer numerators."""
        x = as_rational(x)
        nums = self.nums
        if not nums:
            return Fraction(0)
        exps = sorted(nums, reverse=True)
        p, q = x.numerator, x.denominator
        # acc = sum_k nums[k] p^(k - lo) q^(hi - k), from the top exponent down
        acc, q_pow, prev = 0, 1, exps[0]
        for k in exps:
            q_pow *= q ** (prev - k)
            acc = acc * p ** (prev - k) + nums[k] * q_pow
            prev = k
        return Fraction(acc, self.den * q_pow) * x**prev

    # -- comparisons -----------------------------------------------------------

    def __eq__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self.den == other.den and self.nums == other.nums

    def __hash__(self):
        return hash((self.den, frozenset(self.nums.items())))

    def __repr__(self):
        if not self.nums:
            return "LaurentPoly(0)"
        terms = " + ".join(f"({c})z^{k}" if k else f"({c})" for k, c in self.items())
        return f"LaurentPoly({terms})"


def _as_poly(value):
    if isinstance(value, LaurentPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return LaurentPoly({0: value})
    return NotImplemented


def _add(p: LaurentPoly, other, sign: int):
    """p + sign * other on the numerators over one denominator; NotImplemented for a non-rational other."""
    other = _as_poly(other)
    if other is NotImplemented:
        return NotImplemented
    (a, b), den = _int_cores((p, other))
    out = dict(a)
    for k, n in b.items():
        out[k] = out.get(k, 0) + sign * n
    return _from_int(out, den)


def _int_cores(polys: Sequence[LaurentPoly]) -> tuple[list[dict[int, int]], int]:
    """Numerators of every polynomial over the lcm of their denominators, and that lcm (shared, not copied)."""
    den = lcm(*(p.den for p in polys))
    return [p.nums if p.den == den else {k: n * (den // p.den) for k, n in p.nums.items()} for p in polys], den


def _dot(row: Sequence[dict[int, int]], col: Sequence[dict[int, int]]) -> dict[int, int]:
    """sum_k row[k] * col[k] of integer cores, convolved and accumulated in int."""
    acc: dict[int, int] = {}
    get = acc.get
    for na, nb in zip(row, col):
        if na and nb:
            if len(na) > len(nb):  # the shorter core in the outer loop: fewer inner loops to start
                na, nb = nb, na
            terms = nb.items()
            for ka, ca in na.items():
                for kb, cb in terms:
                    k = ka + kb
                    acc[k] = get(k, 0) + ca * cb
    return acc


def _from_int(nums: Mapping[int, int], den: int) -> LaurentPoly:
    """The polynomial sum_k (nums[k] / den) z^k for any nonzero den, reduced by one gcd; zeros are dropped."""
    nums = {k: n for k, n in nums.items() if n}
    g = gcd(den, *nums.values())
    if den < 0:
        g = -g
    if g != 1:
        nums = {k: n // g for k, n in nums.items()}
        den //= g
    return _raw(nums, den)


def _interleave(a: LaurentPoly, b: LaurentPoly, step: int) -> LaurentPoly:
    """a(z^step) + z b(z^step) over the lcm of the denominators, for step 2 or even a, b; in lowest
    terms, as a prime power q^e exactly dividing the lcm exactly divides a.den, say, and q divides
    not every numerator of a."""
    (na, nb), den = _int_cores((a, b))
    return _raw({**{step * k: n for k, n in na.items()}, **{step * k + 1: n for k, n in nb.items()}}, den)


_set_nums, _set_den = LaurentPoly.nums.__set__, LaurentPoly.den.__set__


def _raw(nums: Mapping[int, int], den: int) -> LaurentPoly:
    """A LaurentPoly around ``nums`` (taken, not copied) over ``den``, which must already be canonical."""
    res = LaurentPoly.__new__(LaurentPoly)
    _set_nums(res, MappingProxyType(nums))
    _set_den(res, den)
    return res


def _row_times(row: Sequence[dict[int, int]], den: int,
               columns: Sequence[tuple[list[dict[int, int]], int]]) -> list[LaurentPoly]:
    """The row with integer cores ``row`` over ``den`` times the matrix with these column cores,
    one integer accumulation and one gcd per output entry."""
    return [_from_int(_dot(row, col), den * col_den) for col, col_den in columns]


def column_cores(matrix: "LaurentMatrix") -> list[tuple[list[dict[int, int]], int]]:
    """The integer cores of every column of ``matrix``, for ``_row_times``."""
    return [_int_cores(col) for col in zip(*matrix.entries)]


class LaurentMatrix:
    """Rectangular matrix with LaurentPoly entries; read-only, as its entries are."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence[object]]):
        grid = []
        for row in entries:
            grid.append(tuple(_coerce_entry(e) for e in row))
        if not grid or not grid[0]:
            raise ValueError("matrix must be nonempty")
        width = len(grid[0])
        if any(len(r) != width for r in grid):
            raise ValueError("ragged rows")
        _set_entries(self, tuple(grid))
        _set_rows(self, len(grid))
        _set_cols(self, width)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"LaurentMatrix is read-only: {name!r} cannot be set or deleted")

    __delattr__ = __setattr__

    def __reduce__(self):
        return LaurentMatrix, (self.entries,)

    # -- constructors -----------------------------------------------------------

    @staticmethod
    def scalar(poly: LaurentPoly, n: int) -> "LaurentMatrix":
        """poly times the n-by-n identity."""
        zero = LaurentPoly.zero()
        return LaurentMatrix([[poly if i == j else zero for j in range(n)] for i in range(n)])

    @staticmethod
    def block(blocks: Sequence[Sequence["LaurentMatrix"]]) -> "LaurentMatrix":
        rows: list[list[LaurentPoly]] = []
        for brow in blocks:
            height = brow[0].rows
            if any(b.rows != height for b in brow):
                raise ValueError("inconsistent block heights")
            for i in range(height):
                rows.append([e for b in brow for e in b.entries[i]])
        return LaurentMatrix(rows)

    # -- queries ------------------------------------------------------------------

    def __getitem__(self, ij: tuple[int, int]) -> LaurentPoly:
        i, j = ij
        return self.entries[i][j]

    def taps(self) -> dict[int, list[list[Fraction]]]:
        """Exponent -> dense coefficient matrix, for every exponent with a nonzero coefficient."""
        zero = Fraction(0)
        out: dict[int, list[list[Fraction]]] = {}
        for i, row in enumerate(self.entries):
            for j, e in enumerate(row):
                den = e.den
                for k, n in e.nums.items():
                    tap = out.get(k)
                    if tap is None:
                        tap = out[k] = [[zero] * self.cols for _ in range(self.rows)]
                    tap[i][j] = Fraction(n, den)
        return out

    def exponent_range(self) -> tuple[int, int]:
        """Lowest and highest exponent over all entries; (0, 0) for the zero matrix."""
        exps = [k for row in self.entries for e in row for k in e.nums]
        return (min(exps), max(exps)) if exps else (0, 0)

    # -- arithmetic -----------------------------------------------------------------

    def __add__(self, other: "LaurentMatrix") -> "LaurentMatrix":
        self._same_shape(other)
        return LaurentMatrix([[a + b for a, b in zip(r, s)] for r, s in zip(self.entries, other.entries)])

    def __sub__(self, other: "LaurentMatrix") -> "LaurentMatrix":
        self._same_shape(other)
        return LaurentMatrix([[a - b for a, b in zip(r, s)] for r, s in zip(self.entries, other.entries)])

    def __neg__(self) -> "LaurentMatrix":
        return LaurentMatrix([[-e for e in row] for row in self.entries])

    def __matmul__(self, other: "LaurentMatrix") -> "LaurentMatrix":
        if self.cols != other.rows:
            raise ValueError(f"dimension mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        cols = column_cores(other)
        return LaurentMatrix([_row_times(*_int_cores(row), cols) for row in self.entries])

    def __mul__(self, other) -> "LaurentMatrix":
        if isinstance(other, (int, Fraction, LaurentPoly)):
            return LaurentMatrix([[e * other for e in row] for row in self.entries])
        return NotImplemented

    __rmul__ = __mul__

    # -- structural operations ---------------------------------------------------------

    def transpose(self) -> "LaurentMatrix":
        return LaurentMatrix(list(zip(*self.entries)))

    def substitute_neg(self) -> "LaurentMatrix":
        return LaurentMatrix([[e.substitute_neg() for e in row] for row in self.entries])

    def conj_on_circle(self) -> "LaurentMatrix":
        """Entrywise conjugation on |z| = 1 (no transpose)."""
        return LaurentMatrix([[e.conj_on_circle() for e in row] for row in self.entries])

    def conj_transpose(self) -> "LaurentMatrix":
        """conj(M)^T on the unit circle."""
        return self.conj_on_circle().transpose()

    # -- comparisons -----------------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, LaurentMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"LaurentMatrix({self.rows}x{self.cols})"

    def _same_shape(self, other: "LaurentMatrix"):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError(
                f"dimension mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )


_set_entries, _set_rows, _set_cols = (getattr(LaurentMatrix, name).__set__ for name in ("entries", "rows", "cols"))


def _coerce_entry(e) -> LaurentPoly:
    if isinstance(e, LaurentPoly):
        return e
    if isinstance(e, (int, Fraction)):
        return LaurentPoly({0: e})
    raise TypeError(f"cannot use {type(e).__name__} as a matrix entry")


# -- Pascal-type matrices M_g = [C(i, j) g_{i-j}] ----------------------------------------------


def pascal_product(g: Sequence[LaurentPoly], h: Sequence[LaurentPoly]) -> list[LaurentPoly]:
    """The binomial convolution (g * h)_n = sum_s C(n, s) g_{n-s} h_s, so M_g M_h = M_{g * h}."""
    (gc, gd), (hc, hd) = _int_cores(g), _int_cores(h)
    return [
        _from_int(_dot(gc[n::-1], [{k: comb(n, s) * c for k, c in hc[s].items()} for s in range(n + 1)]), gd * hd)
        for n in range(min(len(g), len(h)))
    ]


def pascal_inverse(h: Sequence[LaurentPoly]) -> list[LaurentPoly]:
    """k with M_k = M_h^{-1}: k_0 = 1/h_0 and k_n = -k_0 sum_{j=1..n} C(n, j) h_j k_{n-j}.

    h_0 must be a unit of the Laurent polynomials, a monomial c z^d.
    """
    if not h[0].is_monomial():
        raise ValueError(f"h_0 = {h[0]!r} is not a monomial; M_h is not invertible over Laurent polynomials")
    hc, hd = _int_cores(h)
    k = [h[0] ** -1]
    for n in range(1, len(h)):
        kc, kd = _int_cores(k[::-1])
        acc = _dot([{e: comb(n, j) * v for e, v in hc[j].items()} for j in range(1, n + 1)], kc)
        k.append(-k[0] * _from_int(acc, hd * kd))
    return k


def pascal_matrix(seq: Sequence[LaurentPoly], row: int | Fraction = 1, col: int | Fraction = 1) -> LaurentMatrix:
    """The dense lower-triangular [C(i, j) row^i col^j seq[i-j]], i.e. diag(row^i) M_seq diag(col^j)."""
    n, zero = len(seq), LaurentPoly.zero()
    return LaurentMatrix([[seq[i - j] * (comb(i, j) * row**i * col**j) if j <= i else zero for j in range(n)]
                          for i in range(n)])

