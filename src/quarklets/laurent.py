"""Laurent polynomials over the rationals, and matrices of them.

A Laurent polynomial sum_k c_k z^k with finitely many nonzero c_k is stored as
a sparse map ``{exponent: coefficient}`` with no zero entries.  On the unit
circle |z| = 1 conjugation acts by c_k z^{-k} (the coefficients are real),
which is what :meth:`LaurentPoly.conj_on_circle` implements.  Evaluated at
z = exp(-i t), the same object is the trigonometric polynomial
sum_k c_k exp(-i k t).

All arithmetic is exact.  Every product runs on an integer core, because
coefficient convolution dominates the cost of the perfect-reconstruction
checks and the frame transforms: a matrix product scales each row of the
left factor and each column of the right one to integer numerators over one
common denominator, accumulates every output entry in ``int`` and divides
once per coefficient.  A polynomial product is its 1x1 case, and triangular
inversion runs its forward substitution on the same kernel.

Every Fourier-domain value of the package comes from :func:`cascade`, the
float refinement product of a matrix symbol over a whole array of frequencies.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterator, Mapping, Sequence

import numpy as np


def as_rational(value) -> Fraction:
    """Coerce an int or Fraction to Fraction; floats never enter the exact core."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


class LaurentPoly:
    """Finitely supported Laurent polynomial sum_k c_k z^k."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, object] | None = None):
        clean: dict[int, Fraction] = {}
        if coeffs:
            for k, c in coeffs.items():
                c = as_rational(c)
                if c != 0:
                    clean[int(k)] = c
        self.coeffs = clean

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero() -> "LaurentPoly":
        return LaurentPoly()

    @staticmethod
    def one() -> "LaurentPoly":
        return LaurentPoly({0: Fraction(1)})

    @staticmethod
    def monomial(c, k: int = 0) -> "LaurentPoly":
        return LaurentPoly({k: c})

    # -- basic queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __getitem__(self, k: int) -> Fraction:
        return self.coeffs.get(k, Fraction(0))

    def items(self) -> Iterator[tuple[int, Fraction]]:
        return iter(sorted(self.coeffs.items()))

    def is_monomial(self) -> bool:
        return len(self.coeffs) == 1

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            s = out.get(k, 0) + c
            if s == 0:
                out.pop(k, None)
            else:
                out[k] = s
        return _from_dict(out)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __neg__(self):
        return _from_dict({k: -c for k, c in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = as_rational(other)
            if c == 0:
                return LaurentPoly.zero()
            return _from_dict({k: v * c for k, v in self.coeffs.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        na, da = _int_cores((self,))
        nb, db = _int_cores((other,))
        return _from_int(_dot(na, nb), da * db)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            if self.is_monomial():
                k, c = next(iter(self.coeffs.items()))
                return LaurentPoly({-k: Fraction(1) / c}) ** (-n)
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
        if not other.coeffs:
            raise ZeroDivisionError("division by the zero polynomial")
        top, terms = max(other.coeffs), other.coeffs.items()
        lead = other.coeffs[top]
        rem, quot = dict(self.coeffs), {}
        floor = min(0, min(rem) - min(other.coeffs)) if rem and min(rem) < 0 else 0
        while rem and max(rem) - top >= floor:
            shift = max(rem) - top
            f = quot[shift] = rem[top + shift] / lead
            for k, c in terms:
                v = rem.get(k + shift, 0) - f * c
                if v:
                    rem[k + shift] = v
                else:
                    del rem[k + shift]
        return _from_dict(quot), _from_dict(rem)

    # -- structural operations ------------------------------------------------

    def derivative(self) -> "LaurentPoly":
        """d/dz, term by term."""
        return _from_dict({k - 1: k * c for k, c in self.coeffs.items() if k})

    def substitute_neg(self) -> "LaurentPoly":
        """z -> -z: flip the sign of every odd-exponent coefficient."""
        return _from_dict({k: (-c if k & 1 else c) for k, c in self.coeffs.items()})

    def conj_on_circle(self) -> "LaurentPoly":
        """Pointwise conjugate on |z| = 1, i.e. the reflection c_k z^k -> c_k z^{-k}."""
        return _from_dict({-k: c for k, c in self.coeffs.items()})

    # -- evaluation ------------------------------------------------------------

    def __call__(self, z: complex) -> complex:
        return sum(float(c) * z**k for k, c in self.coeffs.items())

    def eval_rational(self, x: Fraction | int) -> Fraction:
        """Exact value at a rational point, by Horner's rule on the integer core."""
        x = Fraction(x)
        if not self.coeffs:
            return Fraction(0)
        (nums,), den = _int_cores((self,))
        exps = sorted(nums, reverse=True)
        p, q = x.numerator, x.denominator
        # acc = sum_k nums[k] p^(k - lo) q^(hi - k), from the top exponent down
        acc, q_pow, prev = 0, 1, exps[0]
        for k in exps:
            q_pow *= q ** (prev - k)
            acc = acc * p ** (prev - k) + nums[k] * q_pow
            prev = k
        return Fraction(acc, den * q_pow) * x**prev

    # -- comparisons -----------------------------------------------------------

    def __eq__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __repr__(self):
        if not self.coeffs:
            return "LaurentPoly(0)"
        terms = " + ".join(f"({c})z^{k}" if k else f"({c})" for k, c in self.items())
        return f"LaurentPoly({terms})"


def _as_poly(value):
    if isinstance(value, LaurentPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return LaurentPoly({0: value})
    return NotImplemented


def _int_cores(polys: Sequence[LaurentPoly]) -> tuple[list[dict[int, int]], int]:
    """Integer numerators of every polynomial over one common denominator of them all."""
    den = lcm(*(c.denominator for p in polys for c in p.coeffs.values()))
    return [{k: c.numerator * (den // c.denominator) for k, c in p.coeffs.items()} for p in polys], den


def _dot(row: Sequence[dict[int, int]], col: Sequence[dict[int, int]]) -> dict[int, int]:
    """sum_k row[k] * col[k] of integer cores, convolved and accumulated in int."""
    acc: dict[int, int] = {}
    get = acc.get
    for na, nb in zip(row, col):
        if na and nb:
            terms = nb.items()
            for ka, ca in na.items():
                for kb, cb in terms:
                    k = ka + kb
                    acc[k] = get(k, 0) + ca * cb
    return acc


def _from_int(nums: Mapping[int, int], den: int) -> LaurentPoly:
    """The polynomial sum_k (nums[k] / den) z^k; zero numerators are dropped."""
    return _from_dict({k: Fraction(n, den) for k, n in nums.items() if n})


def _from_dict(coeffs: dict[int, Fraction]) -> LaurentPoly:
    """A LaurentPoly around ``coeffs``, which must hold nonzero Fractions only."""
    res = LaurentPoly.__new__(LaurentPoly)
    res.coeffs = coeffs
    return res


class LaurentMatrix:
    """Rectangular matrix with LaurentPoly entries."""

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
        self.entries: tuple[tuple[LaurentPoly, ...], ...] = tuple(grid)
        self.rows = len(grid)
        self.cols = width

    # -- constructors -----------------------------------------------------------

    @staticmethod
    def identity(n: int) -> "LaurentMatrix":
        one, zero = LaurentPoly.one(), LaurentPoly.zero()
        return LaurentMatrix([[one if i == j else zero for j in range(n)] for i in range(n)])

    @staticmethod
    def zero(rows: int, cols: int) -> "LaurentMatrix":
        z = LaurentPoly.zero()
        return LaurentMatrix([[z] * cols for _ in range(rows)])

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

    def is_lower_triangular(self) -> bool:
        return all(
            self.entries[i][j].is_zero() for i in range(self.rows) for j in range(i + 1, self.cols)
        )

    def coefficient_matrix(self, k: int) -> tuple[tuple[Fraction, ...], ...]:
        """The rational matrix of z^k coefficients."""
        return tuple(tuple(e[k] for e in row) for row in self.entries)

    def exponent_range(self) -> tuple[int, int]:
        """Lowest and highest exponent over all entries; (0, 0) for the zero matrix."""
        exps = [k for row in self.entries for e in row for k in e.coeffs]
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
        # each row of self and each column of other over one denominator, so every
        # output entry is one integer accumulation and one division per coefficient
        rows = [_int_cores(row) for row in self.entries]
        cols = [_int_cores(col) for col in zip(*other.entries)]
        return LaurentMatrix([[_from_int(_dot(ra, cb), da * db) for cb, db in cols] for ra, da in rows])

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

    def invert_lower_triangular(self) -> "LaurentMatrix":
        """Exact inverse of a lower-triangular matrix with monomial diagonal.

        Monomials c z^d are the only units of the Laurent polynomial ring, so
        this precondition is exactly invertibility-with-Laurent-inverse.
        """
        if self.rows != self.cols:
            raise ValueError("matrix must be square")
        if not self.is_lower_triangular():
            raise ValueError("matrix must be lower triangular")
        n = self.rows
        diag_inv = []
        for i in range(n):
            d = self.entries[i][i]
            if not d.is_monomial():
                raise ValueError(f"diagonal entry ({i},{i}) is not a monomial; "
                                 "matrix is not invertible over Laurent polynomials")
            k, c = next(iter(d.coeffs.items()))
            diag_inv.append(LaurentPoly.monomial(1 / c, -k))
        zero = LaurentPoly.zero()
        inv: list[list[LaurentPoly]] = [[zero] * n for _ in range(n)]
        for i in range(n):
            inv[i][i] = diag_inv[i]
        # forward substitution, column by column:
        # inv[i][j] = sum_{j <= k < i} (-d_i^{-1} T[i][k]) inv[k][j]
        scaled = [_int_cores([-(diag_inv[i] * e) for e in self.entries[i][:i]]) for i in range(n)]
        for j in range(n):
            for i in range(j + 1, n):
                row, row_den = scaled[i]
                col, col_den = _int_cores([inv[k][j] for k in range(j, i)])
                inv[i][j] = _from_int(_dot(row[j:i], col), row_den * col_den)
        return LaurentMatrix(inv)

    # -- evaluation ----------------------------------------------------------------------

    def float_taps(self) -> tuple[int, np.ndarray]:
        """(lo, C) for :func:`cascade`: C[k - lo] is the float z^k coefficient matrix (read-only)."""
        lo, hi = self.exponent_range()
        coeffs = np.zeros((hi - lo + 1, self.rows, self.cols))
        for i, row in enumerate(self.entries):
            for j, e in enumerate(row):
                for k, c in e.coeffs.items():
                    coeffs[k - lo, i, j] = float(c)
        coeffs.flags.writeable = False
        return lo, coeffs

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


def _coerce_entry(e) -> LaurentPoly:
    if isinstance(e, LaurentPoly):
        return e
    if isinstance(e, (int, Fraction)):
        return LaurentPoly({0: e})
    raise TypeError(f"cannot use {type(e).__name__} as a matrix entry")


# Points per cascade block are chosen so that its work arrays hold about this
# many complex entries (512 KiB), whatever the grid, the depth or the matrix
# size; larger blocks raise peak memory more than they save in numpy calls.
_CASCADE_ENTRIES = 2**15


def cascade(taps, scale: float, xi: np.ndarray, levels: int, start: np.ndarray) -> np.ndarray:
    """prod_{j=1}^{levels} scale M(exp(-i xi / 2^j)) applied to ``start``, for every xi at once.

    ``taps`` is :meth:`LaurentMatrix.float_taps` of a square M, ``xi`` a 1-d
    float array and ``start`` a (len(xi) x n) array or one length-n vector.
    The levels act innermost first (j = levels down to 1), as matrix-vector
    products.
    """
    lo, coeffs = taps
    n_taps, n = coeffs.shape[:2]
    flat = scale * coeffs.reshape(n_taps, n * n)
    halvings = -1j * np.multiply.outer(0.5 ** np.arange(1, levels + 1), np.arange(lo, lo + n_taps))
    out = np.array(np.broadcast_to(start, (len(xi), n)), dtype=complex)
    block = max(1, _CASCADE_ENTRIES // (levels * (n_taps + n * n)))
    for s in range(0, len(xi), block):
        mats = (np.exp(np.multiply.outer(xi[s : s + block], halvings)) @ flat).reshape(-1, levels, n, n)
        v = out[s : s + block, :, None]
        for j in range(levels - 1, -1, -1):
            v = mats[:, j] @ v
        out[s : s + block] = v[:, :, 0]
    return out
