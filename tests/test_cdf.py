"""CDF biorthogonal filter pairs and quarklet assembly."""

import itertools
from fractions import Fraction

import pytest
from helpers import cdf_masks_by_scan

from quarklets import cdf
from quarklets.cdf import cdf_masks, quarklet, quarklets, scalar_pr_defect
from quarklets.laurent import LaurentPoly
from quarklets.piecewise import PiecewisePoly

PAIRS = [(1, 1), (2, 2), (3, 3), (2, 4), (3, 5)]


def bezout_solve_oracle_22() -> dict[int, Fraction]:
    """Independent derivation of the (2,2) dual mask from the PR identity.

    Unknowns are the symmetric taps u0 = at_0, u1 = at_{+-1}, u2 = at_{+-2}.
    Expand a(z) at(1/z) + a(-z) at(-1/z) with coefficients linear in the
    unknowns and solve the resulting exact linear system.
    """
    a = {k: Fraction(1, 2) * v for k, v in cdf_masks(2, 2).primal.scalars().items()}
    # dual symbol taps: exponent -> coefficient vector over (1, u0, u1, u2)
    half = Fraction(1, 2)
    dual_sym = {
        0: (Fraction(0), half, Fraction(0), Fraction(0)),
        1: (Fraction(0), Fraction(0), half, Fraction(0)),
        -1: (Fraction(0), Fraction(0), half, Fraction(0)),
        2: (Fraction(0), Fraction(0), Fraction(0), half),
        -2: (Fraction(0), Fraction(0), Fraction(0), half),
    }
    lhs: dict[int, list[Fraction]] = {}
    for negate in (False, True):
        for ka, ca in a.items():
            if negate and ka % 2:
                ca = -ca
            for kt, vec in dual_sym.items():
                exp = -kt  # at(1/z): tap at k contributes at exponent -k
                sign = -1 if (negate and exp % 2) else 1
                acc = lhs.setdefault(ka + exp, [Fraction(0)] * 4)
                for i in range(4):
                    acc[i] += ca * sign * vec[i]
    rows, rhs = [], []
    for k, vec in sorted(lhs.items()):
        rows.append(vec[1:])
        rhs.append((Fraction(1) if k == 0 else Fraction(0)) - vec[0])
    # order-2 dual: double zero of the symbol at z = -1 (two vanishing moments
    # for the primal wavelet); by symmetry at(-1) = 0 is the one extra equation
    rows.append([Fraction(1, 2), Fraction(-1), Fraction(1)])
    rhs.append(Fraction(0))

    def det3(mat):
        return (
            mat[0][0] * (mat[1][1] * mat[2][2] - mat[1][2] * mat[2][1])
            - mat[0][1] * (mat[1][0] * mat[2][2] - mat[1][2] * mat[2][0])
            + mat[0][2] * (mat[1][0] * mat[2][1] - mat[1][1] * mat[2][0])
        )

    for combo in itertools.combinations(range(len(rows)), 3):
        mat = [rows[i] for i in combo]
        d = det3(mat)
        if not d:
            continue
        b = [rhs[i] for i in combo]
        u = []
        for col in range(3):
            mm = [list(r) for r in mat]
            for i in range(3):
                mm[i][col] = b[i]
            u.append(det3(mm) / d)
        for row, target in zip(rows, rhs):  # the full system must be consistent
            assert row[0] * u[0] + row[1] * u[1] + row[2] * u[2] == target
        return {0: u[0], 1: u[1], -1: u[1], 2: u[2], -2: u[2]}
    raise AssertionError("no solvable subsystem found")


class TestCdfMasks:
    def test_orders_validation(self):
        with pytest.raises(ValueError):
            cdf_masks(2, 1)
        with pytest.raises(ValueError):
            cdf_masks(1, 2)
        with pytest.raises(ValueError):
            cdf_masks(0, 2)

    def test_haar_pair(self):
        pair = cdf_masks(1, 1)
        assert pair.primal.scalars() == {0: 1, 1: 1}
        assert pair.dual.scalars() == {0: 1, 1: 1}
        assert pair.wavelet.scalars() == {0: 1, 1: -1}
        assert pair.wavelet_symbol() == LaurentPoly({0: Fraction(1, 2), 1: Fraction(-1, 2)})

    def test_order_two_dual_matches_bezout_oracle(self):
        pair = cdf_masks(2, 2)
        expected = bezout_solve_oracle_22()
        assert pair.dual.scalars() == expected
        assert expected == {
            -2: Fraction(-1, 4),
            -1: Fraction(1, 2),
            0: Fraction(3, 2),
            1: Fraction(1, 2),
            2: Fraction(-1, 4),
        }

    def test_closed_form_shift_equals_scan(self):
        pairs = [(m, mt) for m in range(1, 13) for mt in range(m, 25, 2)]
        assert len(pairs) == 114
        for m, mt in pairs:
            assert cdf_masks(m, mt) == cdf_masks_by_scan(m, mt), (m, mt)

    def test_pr_defect_is_a_derivation_bug(self, monkeypatch):
        monkeypatch.setattr(cdf, "scalar_pr_defect", lambda a, at: LaurentPoly.one())
        with pytest.raises(AssertionError, match="derivation bug"):
            cdf._cdf_cached.__wrapped__(2, 2)

    @pytest.mark.parametrize("m,mt", PAIRS)
    def test_scalar_pr_identity_exact(self, m, mt):
        pair = cdf_masks(m, mt)
        assert scalar_pr_defect(pair.primal_symbol(), pair.dual_symbol()).is_zero()

    @pytest.mark.parametrize("m,mt", PAIRS)
    def test_dual_normalization(self, m, mt):
        pair = cdf_masks(m, mt)
        assert pair.dual_symbol().eval_rational(1) == 1
        assert sum(pair.dual.scalars().values()) == 2

    @pytest.mark.parametrize("m,mt", PAIRS)
    def test_wavelet_symbol_relation(self, m, mt):
        # b(-z) = z * at(1/z): the alternating-flip identity at symbol level
        pair = cdf_masks(m, mt)
        b = pair.wavelet_symbol()
        at = pair.dual_symbol()
        assert b.substitute_neg() == LaurentPoly({1: 1}) * at.conj_on_circle()

    @pytest.mark.parametrize("m,mt", PAIRS)
    def test_dual_wavelet_symbol_relation(self, m, mt):
        # bt(-z) = z * a(1/z)
        pair = cdf_masks(m, mt)
        bt = pair.dual_wavelet_symbol()
        a = pair.primal_symbol()
        assert bt.substitute_neg() == LaurentPoly({1: 1}) * a.conj_on_circle()


class TestQuarklets:
    def test_haar_wavelet(self):
        psi0 = quarklets(1, 1, 0)[0]
        expected = PiecewisePoly([0, Fraction(1, 2), 1], [(1,), (-1,)])
        assert psi0 == expected

    def test_haar_degree_one_explicit(self):
        # psi_1 = phi_1(2x) - phi_1(2x - 1): 2x on [0, 1/2), 1 - 2x on [1/2, 1)
        fam = quarklets(1, 1, 1)
        assert fam[1] == PiecewisePoly([0, Fraction(1, 2), 1], [(0, 2), (1, -2)])

    def test_haar_degree_one_orthogonalized_form(self):
        # psi_1 - psi_0 / 2 must equal the piecewise linear function
        # 2x - 1/2 on [0, 1/2) and -2x + 3/2 on [1/2, 1)
        fam = quarklets(1, 1, 1)
        combo = fam[1] - fam[0] * Fraction(1, 2)
        expected = PiecewisePoly(
            [0, Fraction(1, 2), 1],
            [(Fraction(-1, 2), 2), (Fraction(3, 2), -2)],
        )
        assert combo == expected

    @pytest.mark.parametrize("m,mt", PAIRS)
    def test_vanishing_moments_exact(self, m, mt):
        psi0 = quarklets(m, mt, 0)[0]
        for n in range(mt):
            assert psi0.moment(n) == 0
        assert psi0.moment(mt) != 0

    @pytest.mark.parametrize("m,mt,p", [(1, 1, 3), (2, 4, 2), (3, 5, 3), (4, 4, 1)])
    def test_single_quarklet_is_the_family_member(self, m, mt, p):
        family = quarklets(m, mt, p)
        assert [quarklet(m, mt, q) for q in range(p + 1)] == list(family)

    @pytest.mark.parametrize("m,mt,q", [(0, 1, 0), (2, 1, 0), (1, 2, 0), (1, 1, -1)])
    def test_single_quarklet_validates_its_arguments(self, m, mt, q):
        with pytest.raises(ValueError):
            quarklet(m, mt, q)

    def test_support_from_masks(self):
        fam = quarklets(2, 2, 1)
        b = cdf_masks(2, 2).wavelet.scalars()
        kmin, kmax = min(b), max(b)
        lo, hi = fam[0].support()
        assert lo == Fraction(kmin - 1, 2)
        assert hi == Fraction(kmax + 1, 2)
