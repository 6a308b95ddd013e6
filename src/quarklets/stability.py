"""Shift-stability analysis of any finite family of functions: quarks, quark
vectors, quarklets.

The integer translates of a family of compactly supported L2 functions are
L2-stable iff the determinant of its Gram symbol matrix never vanishes on the
circle; for one function that determinant is its autocorrelation symbol.
:func:`is_stable` is the one exact decision: the Gram matrix
(:func:`quarklets.trig.gram_matrix`), its Bareiss determinant, then
:func:`quarklets.trig.is_positive_on_circle`, which checks the exact value at
t = 0 and then runs Descartes bisection in the cosine variable.

Also included: exact Condition E / eigenvalue read-offs for the dual refinement
symbol at z = 1, St(1) = S(1)^{-T}, upper triangular and built from p + 1 constants
by :func:`quarklets.laurent.pascal_inverse`, and its exact eigenvector for the
eigenvalue 2^p.  The module is exact and imports no numpy: ``stability.ft_zero_scan``,
the float zero scan, resolves to :func:`quarklets.duals.ft_zero_scan` on first use.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .cdf import validate_orders
from .laurent import LaurentPoly, _dot, _from_int, _int_cores, as_rational, pascal_inverse, pascal_matrix
from .masks import Mat
from .piecewise import PiecewisePoly
from .splines import quark, quark_family, refinement_symbol
from .trig import gram_matrix, is_positive_on_circle


# Largest |xi| of ``duals.quark_ft`` and so of ``ft_zero_scan``.  Its cascade runs
# the smallest depth L with 2 ceil(m/2) max|xi| <= 2^L, so at m <= 16 every
# accepted call runs at most 20 levels.  At the CLI's corner ``ft-zeros --m 16
# --q 14 --lo -30 --hi 30 --samples 131073`` (9 levels) took 2.1-2.4 s with the
# Newton refinement, 2.2-2.4 s with the zoom alone, on a shared 2-core x86_64
# host, against 8.2-13.0 s with a fixed 20-level cascade and a ternary search.
MAX_FT_FREQUENCY = 2**16


@dataclass(frozen=True)
class StabilityReport:
    subject: str
    stable: bool
    certificate: str
    location: float
    value: float


def is_stable(functions: Sequence[PiecewisePoly], subject: str) -> StabilityReport:
    """Exact L2-stability decision for the integer translates of a nonempty family.

    Stable iff the Gram determinant is positive on the whole circle; the report
    carries that determinant's positivity certificate.
    """
    res = is_positive_on_circle(trig_determinant(gram_matrix(functions)))
    return StabilityReport(subject, res.positive, "Gram determinant: " + res.certificate, res.location, res.value)


def is_stable_single(m: int, q: int) -> StabilityReport:
    """Exact L2-stability decision for the integer translates of one quark."""
    return is_stable((quark(m, q),), f"quark(m={m}, q={q})")


def is_stable_vector(m: int, p: int) -> StabilityReport:
    """Exact L2-stability decision for the quark vector of degrees 0..p.

    Runs up to p = 8 at least: (5, 8) decides in about 0.25 s and (8, 8) in
    0.6 to 1 s on a shared 2-core x86_64 host, all but about 1 ms of it Gram
    matrix (0.04 and 0.1 s) and Bareiss determinant (0.12 to 0.22 s and 0.5
    to 0.8 s); positivity is that 1 ms, since the determinant vanishes at
    t = 0.
    """
    return is_stable(quark_family(m, p), f"quark vector(m={m}, p={p})")


def gram_symbol_matrix(m: int, p: int) -> list[list[LaurentPoly]]:
    """:func:`quarklets.trig.gram_matrix` of the quark vector of degrees 0..p."""
    return gram_matrix(quark_family(m, p))


def trig_determinant(mat: Sequence[Sequence[LaurentPoly]]) -> LaurentPoly:
    """Exact determinant by fraction-free Bareiss elimination (Math. Comp. 22, 1968).

    On integer numerators over one denominator D, step k sets every entry below
    and right of the pivot to (a_ij a_kk - a_ik a_kj) / (previous pivot), an
    exact division since the result is a minor; a zero pivot swaps rows.
    """
    n = len(mat)
    cores, den = _int_cores([e for row in mat for e in row])
    a = [cores[i * n : (i + 1) * n] for i in range(n)]
    sign, prev = 1, {0: 1}
    for k in range(n - 1):
        if not a[k][k]:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return LaurentPoly.zero()
            a[k], a[swap], sign = a[swap], a[k], -sign
        neg = [{e: -c for e, c in x.items()} for x in a[k]]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = _dot([a[i][j], a[i][k]], [a[k][k], neg[j]])
                a[i][j] = _exact_quotient({e: c for e, c in num.items() if c}, prev)
        prev = a[k][k]
    return _from_int(a[-1][-1], sign * den**n)


def _exact_quotient(num: dict[int, int], den: dict[int, int]) -> dict[int, int]:
    """num / den for integer Laurent polynomials; a nonzero remainder raises ArithmeticError.

    Long division from the lowest exponent up, which factors den's lowest power
    of z out: from the top, (1 + z) / (z + z^2) would leave 1 + z, not z^-1.
    """
    rem, quot, lo = dict(num), {}, min(den)
    top = max(rem, default=0) - max(den)
    while rem and (low := min(rem)) - lo <= top:
        c, r = divmod(rem[low], den[lo])
        if r:
            break
        quot[low - lo] = c
        for e, d in den.items():
            k = e + low - lo
            v = rem.get(k, 0) - c * d
            if v:
                rem[k] = v
            else:
                del rem[k]
    if rem:
        raise ArithmeticError("Bareiss step left a nonzero remainder")
    return quot


def stability_table(max_m: int, max_p: int) -> dict[tuple[int, int], bool]:
    """Grid of single-quark stability decisions for 1 <= m <= max_m, 0 <= p <= max_p."""
    if max_m < 1 or max_p < 0:
        raise ValueError("bounds must cover at least one cell")
    return {
        (m, p): is_stable_single(m, p).stable
        for m in range(1, max_m + 1)
        for p in range(0, max_p + 1)
    }


def condition_e(matrix) -> bool:
    """True iff 1 is a simple eigenvalue and every other eigenvalue has modulus < 1.

    An exact read-off of the diagonal, so the input must be a square rational
    matrix that is upper or lower triangular, as St(1) is (see
    :func:`dual_symbol_at_one`).  Float and Laurent polynomial entries raise
    TypeError; any other shape raises ValueError.
    """
    mat = [[as_rational(c) for c in row] for row in matrix]
    n = len(mat)
    if not n or any(len(row) != n for row in mat):
        raise ValueError("matrix must be square and nonempty")
    below = any(mat[i][j] for i in range(n) for j in range(i))
    if below and any(mat[j][i] for i in range(n) for j in range(i)):
        raise ValueError("Condition E is read off the diagonal of a triangular matrix only")
    diag = [mat[i][i] for i in range(n)]
    return diag.count(1) == 1 and all(abs(d) < 1 for d in diag if d != 1)


def dual_symbol_at_one(m: int, mt: int, p: int) -> Mat:
    """The dual scaling symbol evaluated exactly at z = 1 (upper triangular).

    b(1) = 0 gives T(1) = b(-1) S(1), so St(1) = L(1)^T = S(1)^{-T}: it
    depends on (m, p) only, with diagonal 2^q, q = 0..p.
    """
    validate_orders(m, mt)
    return _symbol_at_one(m, p)


@lru_cache(maxsize=None)
def _symbol_at_one(m: int, p: int) -> Mat:
    """S(1)^{-T}: S(1) = (1/2) sum_k A_k = D M_g with D = diag(2^-q), g_j = 2^j S_{j0}(1), so S(1)^{-1} = M_k D^{-1}."""
    symbol = refinement_symbol(m, p)
    k = pascal_inverse([LaurentPoly.monomial(symbol[j, 0].eval_rational(1) * 2**j) for j in range(p + 1)])
    return tuple(tuple(e[0] for e in col) for col in zip(*pascal_matrix(k, col=2).entries))


def dual_symbol_eigenvalues(m: int, mt: int, p: int) -> list[Fraction]:
    """Exact eigenvalues of the dual scaling symbol at z = 1 (diagonal read-off)."""
    mat = dual_symbol_at_one(m, mt, p)
    return sorted(mat[i][i] for i in range(len(mat)))


def dual_eigenvector(m: int, mt: int, p: int) -> tuple[Fraction, ...]:
    """Exact right eigenvector v of 2^{-p} St(1) for eigenvalue 1, last component 1.

    2^{-p} St(1) is upper triangular with diagonal 2^{q-p}, q = 0..p, so the
    eigenvalue 1 sits in the last position and back-substitution suffices.
    """
    mat = dual_symbol_at_one(m, mt, p)
    v = [Fraction(0)] * p + [Fraction(1)]
    for i in range(p - 1, -1, -1):
        if mat[i][i] == 2**p:
            raise AssertionError("unexpected repeated eigenvalue 1 in the dual symbol")
        v[i] = sum((mat[i][j] * v[j] for j in range(i + 1, p + 1)), Fraction(0)) / (2**p - mat[i][i])
    return tuple(v)


def __getattr__(name: str):
    # the float zero scan lives with the rest of numpy in duals (PEP 562)
    if name == "ft_zero_scan":
        from .duals import ft_zero_scan

        return ft_zero_scan
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
