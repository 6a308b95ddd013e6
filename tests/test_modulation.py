"""Modulation matrix assembly, inversion, duals, polyphase, splitting filters."""

import ast
import inspect
import json
import textwrap
from dataclasses import fields, replace
from fractions import Fraction
from functools import cached_property

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from helpers import (
    block_det,
    block_det_inv,
    coefficient_matrix,
    dual_modulation,
    eval_rational,
    fraction_matmul,
    invert_lower_triangular,
    is_lower_triangular,
    laurent_identity,
    mask_json_by_taps,
    modulation_inv_by_blocks,
    parity_exchange_inverse,
    parity_exchange_matrix,
    perturb_detail_block,
    polyphase_by_masks,
    polyphase_inv_by_product,
    reference_splitting_masks,
    sub_symbols,
    with_views,
)

from quarklets import cdf, duals, modulation, serialize, splines
from quarklets.cdf import cdf_masks
from quarklets.laurent import LaurentMatrix, LaurentPoly, pascal_product
from quarklets.masks import MaskSequence
from quarklets.modulation import (
    ModulationBundle,
    build_modulation,
    check_product_is_identity,
    decomposition_filters,
    polyphase,
    splitting_identity_defect,
    verify_perfect_reconstruction,
)
from quarklets.transform import CoefficientFrame, decompose, reconstruct

PAIRS = [(1, 1), (2, 2), (3, 3), (2, 4), (3, 5)]


def P(coeffs):
    return LaurentPoly({k: Fraction(v) if not isinstance(v, Fraction) else v for k, v in coeffs.items()})


def half(*pairs):
    return P({k: Fraction(num, den) for k, num, den in pairs})


class TestBundleStructure:
    def test_block_det_lower_triangular_and_odd(self):
        for (m, mt) in PAIRS:
            b = build_modulation(m, mt, 3)
            t = block_det(b)
            assert is_lower_triangular(t)
            assert t.substitute_neg() == -t
            for q in range(4):
                assert t[q, q] == LaurentPoly({1: Fraction(1, 2**q)})

    def test_block_det_inverse_is_laurent_and_odd(self):
        b = build_modulation(2, 2, 3)
        tinv = block_det_inv(b)
        assert is_lower_triangular(tinv)
        assert tinv.substitute_neg() == -tinv
        assert tinv @ block_det(b) == laurent_identity(4)

    @pytest.mark.parametrize("m,mt", PAIRS)
    @pytest.mark.parametrize("p", range(6))
    def test_inverting_block_det_on_the_integer_core(self, m, mt, p):
        # T^{-1} comes from the binomial-convolution inverse on integer cores; the kernel
        # product and the Fraction-accumulating one both certify it, and it is the
        # forward-substitution inverse
        b = build_modulation(m, mt, p)
        t, inv = block_det(b), block_det_inv(b)
        assert inv @ t == laurent_identity(p + 1)
        assert fraction_matmul(inv, t) == laurent_identity(p + 1)
        assert inv == invert_lower_triangular(t)

    def test_block_det_inv_is_the_forward_substitution_on_the_design_box(self):
        # every (m, mt, p) with m <= 5, m <= mt <= 7, m + mt even and p <= 8
        box = [(m, mt, p) for m in range(1, 6) for mt in range(m, 8) if (m + mt) % 2 == 0 for p in range(9)]
        assert len(box) == 126
        for design in box:
            b = build_modulation(*design)
            assert block_det_inv(b) == invert_lower_triangular(block_det(b)), design

    def test_sign_identities_of_inverse_blocks(self):
        # b(z) Tinv(-z) = -b(z) Tinv(z)  and  -Tinv(-z) S(z) = Tinv(z) S(z)
        b = build_modulation(1, 1, 2)
        bz = b.filters.wavelet_symbol
        tinv = block_det_inv(b)
        assert tinv.substitute_neg() * bz == -(tinv * bz)
        lhs = -(tinv.substitute_neg() @ b.scaling_symbol)
        assert lhs == tinv @ b.scaling_symbol

    def test_detail_block_is_scalar_wavelet_symbol(self):
        b = build_modulation(2, 4, 2)
        bz = b.filters.wavelet_symbol
        assert b.detail_symbol == LaurentMatrix.scalar(bz, 3)
        for _, mat in b.detail_masks.items():
            for i in range(3):
                for j in range(3):
                    if i != j:
                        assert mat[i][j] == 0

    def test_dual_symbol_at_one_upper_triangular_with_powers(self):
        for (m, mt) in PAIRS:
            b = build_modulation(m, mt, 4)
            at1 = eval_rational(b.dual_scaling_symbol, 1)
            for i in range(5):
                for j in range(i):
                    assert at1[i][j] == 0
                assert at1[i][i] == 2**i


class TestPaperScaleExample:
    """The explicit 4x4 matrices for m = mt = 1, p = 1."""

    def setup_method(self):
        self.bundle = build_modulation(1, 1, 1)

    def test_modulation_matrix_entrywise(self):
        z2 = Fraction(1, 2)
        q = Fraction(1, 4)
        expected = LaurentMatrix(
            [
                [half((0, 1, 2), (1, 1, 2)), P({}), half((0, 1, 2), (1, -1, 2)), P({})],
                [P({1: q}), half((0, 1, 4), (1, 1, 4)), P({1: -q}), half((0, 1, 4), (1, -1, 4))],
                [half((0, 1, 2), (1, -1, 2)), P({}), half((0, 1, 2), (1, 1, 2)), P({})],
                [P({}), half((0, 1, 2), (1, -1, 2)), P({}), half((0, 1, 2), (1, 1, 2))],
            ]
        )
        assert self.bundle.modulation == expected

    def test_inverse_entrywise(self):
        e = LaurentMatrix(
            [
                [half((-1, 1, 1), (0, 1, 1)), P({}), half((-1, -1, 1), (0, 1, 1)), P({})],
                [
                    half((-1, -1, 2), (0, -1, 2)),
                    half((-1, 2, 1), (0, 2, 1)),
                    half((-1, 1, 2), (0, 1, 2)),
                    half((-1, -1, 1), (0, 1, 1)),
                ],
                [half((-1, -1, 1), (0, 1, 1)), P({}), half((-1, 1, 1), (0, 1, 1)), P({})],
                [
                    half((-1, 1, 2), (0, -1, 2)),
                    half((-1, -2, 1), (0, 2, 1)),
                    half((-1, -1, 2), (0, 1, 2)),
                    half((-1, 1, 1), (0, 1, 1)),
                ],
            ]
        )
        expected = e * Fraction(1, 2)
        assert self.bundle.modulation_inv == expected

    def test_dual_masks_entrywise(self):
        at0 = ((Fraction(1), Fraction(-1, 2)), (Fraction(0), Fraction(2)))
        bt0 = ((Fraction(1), Fraction(1, 2)), (Fraction(0), Fraction(1)))
        bt1 = ((Fraction(-1), Fraction(1, 2)), (Fraction(0), Fraction(-1)))
        assert self.bundle.dual_scaling_masks[0] == at0
        assert self.bundle.dual_scaling_masks[1] == at0
        assert self.bundle.dual_detail_masks[0] == bt0
        assert self.bundle.dual_detail_masks[1] == bt1
        assert self.bundle.dual_scaling_masks.indices() == [0, 1]
        assert self.bundle.dual_detail_masks.indices() == [0, 1]


class TestPerfectReconstruction:
    @pytest.mark.parametrize("m,mt", PAIRS)
    @pytest.mark.parametrize("p", [0, 1, 2, 3, 5])
    def test_identity_exact_both_orders(self, m, mt, p):
        b = build_modulation(m, mt, p)
        assert not check_product_is_identity(b.modulation, b.modulation_inv)
        assert not check_product_is_identity(b.modulation_inv, b.modulation)

    def test_report_on_detail_perturbation(self):
        bad = perturb_detail_block(build_modulation(1, 1, 1))
        report = verify_perfect_reconstruction(bad)
        assert not report.identity_holds
        assert report.residuals

    @pytest.mark.parametrize("m,mt", PAIRS)
    @pytest.mark.parametrize("p", range(6))
    def test_read_offs_equal_multiplied_out_products(self, m, mt, p):
        b = build_modulation(m, mt, p)
        inv = modulation_inv_by_blocks(b)
        n = b.size
        assert b.modulation_inv == inv
        assert b.polyphase_inv == polyphase_inv_by_product(b)
        top_left, top_right = (LaurentMatrix([row[c : c + n] for row in inv.entries[:n]]) for c in (0, n))
        assert b.dual_scaling_symbol == top_left.conj_transpose()
        assert b.dual_detail_symbol == top_right.conj_transpose()

    def test_dual_modulation_assembles_to_inverse(self):
        b = build_modulation(2, 2, 2)
        assert dual_modulation(b).conj_transpose() == b.modulation_inv


# every (m, mt) pair of the design box m <= 5, m <= mt <= 7, m + mt even
BOX_PAIRS = [(m, mt) for m in range(1, 6) for mt in range(m, 8) if (m + mt) % 2 == 0]
DESIGN_BOX = [(m, mt, p) for m in range(1, 6) for mt in range(m, 8) if (m + mt) % 2 == 0 for p in range(9)]


def _with_inverse_entry(bundle, i, j, delta):
    rows = [list(row) for row in bundle.modulation_inv.entries]
    rows[i][j] = rows[i][j] + delta
    return with_views(bundle, modulation_inv=LaurentMatrix(rows))


def even_part(poly):
    return LaurentPoly({k: c for k, c in poly.coeffs.items() if k % 2 == 0})


class TestOneProductCertificate:
    """X X^{-1} = Id is proved on the p + 1 Pascal sequences g, h and k; a bundle failing any
    condition of that proof reports the residuals of the full product X X^{-1}."""

    @pytest.mark.parametrize("m,mt,p", [(m, mt, p) for m, mt in BOX_PAIRS for p in range(4)] + [(5, 7, 8)])
    def test_residuals_equal_the_full_product(self, m, mt, p):
        b = build_modulation(m, mt, p)
        report = verify_perfect_reconstruction(b)
        assert report.residuals == check_product_is_identity(b.modulation, b.modulation_inv) == ()
        assert report.identity_holds

    @pytest.mark.parametrize("design", DESIGN_BOX + [(16, 16, 14)])
    def test_the_certificate_holds_on_the_design_box(self, design):
        b = build_modulation(*design)
        delta = [LaurentPoly.one()] + [LaurentPoly.zero()] * b.p
        g = [b.scaling_symbol[j, 0] * 2**j for j in range(b.size)]
        b_neg = b.filters.wavelet_symbol.substitute_neg()
        # the diagonal blocks of X X^{-1} are Pascal-type in e_n = 2 even(b(-z) (g * k)_n)
        e = [2 * even_part(b_neg * gk) for gk in pascal_product(g, b.k)]
        assert e == pascal_product(b.h, b.k) == delta
        assert b.pr_certified

    @staticmethod
    def _count_products(monkeypatch) -> list:
        calls = []
        product = modulation.check_product_is_identity
        monkeypatch.setattr(modulation, "check_product_is_identity",
                            lambda x, xinv: calls.append((x, xinv)) or product(x, xinv))
        return calls

    @pytest.mark.parametrize("m,mt,p", [(1, 1, 1), (2, 4, 3), (3, 5, 2)])
    def test_negative_controls_fall_back_to_the_full_product(self, m, mt, p, monkeypatch):
        b = build_modulation(m, mt, p)
        shifted = with_views(b, modulation_inv=b.modulation_inv * LaurentPoly.monomial(1, 1))
        calls = self._count_products(monkeypatch)
        for bad in (perturb_detail_block(b), perturb_detail_block(b, p, 0), shifted):
            calls.clear()
            report = verify_perfect_reconstruction(bad)
            assert [(x is bad.modulation, xinv is bad.modulation_inv) for x, xinv in calls] == [(True, True)]
            assert report.residuals == check_product_is_identity(bad.modulation, bad.modulation_inv)
            assert report.residuals and not report.identity_holds

    def test_symmetric_perturbation_takes_the_full_product(self, monkeypatch):
        # nudging X^{-1}'s entry (0, c) by d(z) and (n, c) by d(-z) keeps P = X E and the -z
        # symmetry, but the top-left block is no longer L (c = 0) or the bottom-right one no
        # longer R (c = n): the full product X X^{-1} runs
        b = build_modulation(2, 2, 2)
        n, d = b.size, LaurentPoly({-1: Fraction(1, 3), 2: Fraction(-2, 5)})
        calls = self._count_products(monkeypatch)
        for c in (0, n):
            calls.clear()
            bad = _with_inverse_entry(_with_inverse_entry(b, 0, c, d), n, c, d.substitute_neg())
            report = verify_perfect_reconstruction(bad)
            assert calls == [(bad.modulation, bad.modulation_inv)] and bad.factorization_holds
            assert report.residuals == check_product_is_identity(bad.modulation, bad.modulation_inv)
            assert not report.identity_holds and not bad.pr_certified

    def test_no_matrix_product_on_a_fresh_bundle(self, monkeypatch):
        calls = self._count_products(monkeypatch)
        matmuls = []
        matmul = LaurentMatrix.__matmul__
        monkeypatch.setattr(LaurentMatrix, "__matmul__", lambda a, b: matmuls.append(a) or matmul(a, b))
        b = replace(build_modulation(3, 5, 4))  # a fresh copy: no cached certificate
        report = verify_perfect_reconstruction(b)
        pf = polyphase(b)
        assert report.identity_holds and pf.factorization_holds and pf.invertible
        assert calls == [] and matmuls == []


@settings(max_examples=30, deadline=None, database=None)
@given(
    st.sampled_from([(1, 1, 0), (1, 3, 2), (2, 2, 1), (3, 3, 2)]),
    st.integers(0, 7), st.integers(0, 7), st.integers(-3, 3),
    st.fractions(min_value=-2, max_value=2, max_denominator=9).filter(bool),
)
def test_perturbed_inverse_reports_the_full_product(design, i, j, k, c):
    b = build_modulation(*design)
    bad = _with_inverse_entry(b, i % b.modulation.rows, j % b.modulation.rows, LaurentPoly.monomial(c, k))
    report = verify_perfect_reconstruction(bad)
    assert report.residuals == check_product_is_identity(bad.modulation, bad.modulation_inv)
    assert not report.identity_holds


def _with_field_entry(bundle, name, i, j, delta):
    """A copy of the bundle with ``delta`` added to entry i of h or k, or to entry (i, j) of S."""
    n = bundle.size
    if name == "scaling_symbol":
        rows = [list(row) for row in bundle.scaling_symbol.entries]
        rows[i % n][j % n] += delta
        return replace(bundle, scaling_symbol=LaurentMatrix(rows))
    seq = list(getattr(bundle, name))
    seq[i % n] += delta
    return replace(bundle, **{name: tuple(seq)})


@settings(max_examples=40, deadline=None, database=None)
@example((3, 3, 2), "scaling_symbol", 2, 0, 0, Fraction(1))  # S = D M_g still holds, h is stale
@example((3, 3, 2), "scaling_symbol", 2, 1, 1, Fraction(1))  # g and h unchanged, S is no D M_g
@given(
    st.sampled_from([(1, 1, 0), (1, 3, 2), (2, 2, 1), (3, 3, 2)]),
    st.sampled_from(["h", "k", "scaling_symbol"]), st.integers(0, 3), st.integers(0, 3), st.integers(-3, 3),
    st.fractions(min_value=-2, max_value=2, max_denominator=9).filter(bool),
)
def test_perturbed_pascal_sequence_reports_the_full_product(design, name, i, j, k, c):
    bad = _with_field_entry(build_modulation(*design), name, i, j, LaurentPoly.monomial(c, k))
    report = verify_perfect_reconstruction(bad)
    assert not bad.pr_certified
    assert report.residuals == check_product_is_identity(bad.modulation, bad.modulation_inv)
    assert polyphase(bad).invertible == (not check_product_is_identity(bad.synthesis_matrix, bad.polyphase_inv))
    # X and X^{-1} are read off S, b and k, never off h: a perturbed h keeps the identity
    assert report.identity_holds == (name == "h")


class TestSubSymbolsAndPolyphase:
    def test_haar_scalar_sub_symbols(self):
        b = build_modulation(1, 1, 0)
        s0, w0 = sub_symbols(b, 0)
        s1, w1 = sub_symbols(b, 1)
        assert s0 == LaurentMatrix([[1]])
        assert s1 == LaurentMatrix([[1]])
        assert w0 == LaurentMatrix([[1]])
        assert w1 == LaurentMatrix([[-1]])

    @pytest.mark.parametrize("m,mt,p", [(1, 1, 1), (2, 2, 2), (3, 3, 1)])
    def test_parity_reassembly(self, m, mt, p):
        b = build_modulation(m, mt, p)
        s0, w0 = sub_symbols(b, 0)
        s1, w1 = sub_symbols(b, 1)
        z = LaurentPoly({1: 1})
        assert (s0 + s1 * z) * Fraction(1, 2) == b.scaling_symbol
        assert (w0 + w1 * z) * Fraction(1, 2) == b.detail_symbol
        for mat in (s0, s1, w0, w1):
            lo, hi = mat.exponent_range()
            for e in range(lo, hi + 1):
                if e % 2:
                    assert not any(any(row) for row in coefficient_matrix(mat, e))

    def test_exchange_inverse(self):
        for n in (1, 2, 3):
            e = parity_exchange_matrix(n)
            einv = parity_exchange_inverse(n)
            assert e @ einv == laurent_identity(2 * n)
            assert einv @ e == laurent_identity(2 * n)

    @pytest.mark.parametrize("m,mt,p", [(1, 1, 1), (2, 2, 2), (3, 3, 1)])
    def test_polyphase_factorization(self, m, mt, p):
        pf = polyphase(build_modulation(m, mt, p))
        assert pf.factorization_holds
        assert pf.invertible

    # P = X E is checked by rows: y = x(-z) for each row [x, y] of X, P's halves 2 even(x) and 2 z^-1 odd(x)
    @pytest.mark.parametrize("name,c", [("synthesis_matrix", 1), ("synthesis_matrix", 4),
                                        ("modulation", 1), ("modulation", 4)])
    def test_perturbed_half_fails_the_factorization(self, name, c):
        # an even power in P's left (c < n) or right half, or in X's x (c < n) or y half
        b = build_modulation(2, 2, 2)
        rows = [list(row) for row in getattr(b, name).entries]
        rows[4][c] += LaurentPoly.monomial(Fraction(1, 7), 2)
        bad = with_views(b, **{name: LaurentMatrix(rows)})
        assert b.factorization_holds and not bad.factorization_holds
        assert bad.synthesis_matrix != bad.modulation @ parity_exchange_matrix(b.size)

    def test_detail_perturbation_fails_the_factorization(self):
        # W nudged in X, at z and -z alike, while P keeps the filters' b
        b = build_modulation(2, 2, 2)
        for bad in (perturb_detail_block(b), perturb_detail_block(b, 2, 1)):
            assert not polyphase(bad).factorization_holds
            assert bad.synthesis_matrix != bad.modulation @ parity_exchange_matrix(b.size)


    @pytest.mark.parametrize("m,mt,p", [(1, 1, 0), (1, 1, 2), (2, 2, 2), (3, 3, 1), (2, 4, 2), (3, 5, 2)])
    def test_transform_matrices_are_certified(self, m, mt, p):
        # reconstruct applies the bundle's synthesis_matrix, decompose the factors of X^{-1} through
        # g, h and b, which the certificate behind polyphase().invertible (pr_certified) proves;
        # the filters' polyphase_inv, which the masks are read off, is the bundle's P^{-1}
        b = build_modulation(m, mt, p)
        pf = polyphase(b)
        assert pf.invertible
        assert pf.polyphase is b.synthesis_matrix
        assert pf.inverse == decomposition_filters(b).polyphase_inv

    def test_inverse_read_off_once_per_bundle(self):
        # a fresh copy: the cached bundle may already hold its P^{-1}
        b = replace(build_modulation(2, 2, 2))
        filters = decomposition_filters(b)
        pf = polyphase(b)
        frame = CoefficientFrame(1, 3, {0: (1, 2, 3), 5: (-1, 0, Fraction(1, 7))})
        assert decompose(frame, filters) == decompose(frame, filters)
        assert pf.inverse is filters.polyphase_inv is b.polyphase_inv

    def test_one_matrix_product_per_cold_bundle(self, monkeypatch):
        # T, T^{-1}, L and R = T^{-1} S are expanded from binomial convolutions, and P^{-1} is read off
        calls = []
        product = LaurentMatrix.__matmul__

        def counted(a, b):
            calls.append((a.rows, a.cols, b.rows, b.cols))
            return product(a, b)

        monkeypatch.setattr(LaurentMatrix, "__matmul__", counted)
        modulation._build_cached.cache_clear()
        cdf._cdf_cached.cache_clear()
        decomposition_filters(build_modulation(3, 5, 4))
        assert calls == []


class TestSymbolsOnly:
    """Every filter is stored as its symbol; masks are read off on first use, never turned back into symbols."""

    def test_synthesis_matrix_equals_the_masks_polyphase_matrix(self):
        # the parity read-off of S and b against P assembled from the masks' sub-symbols
        assert len(DESIGN_BOX) == 126
        for design in DESIGN_BOX + [(16, 16, 14)]:
            bundle = replace(build_modulation(*design))
            assert bundle.synthesis_matrix == polyphase_by_masks(bundle), design

    def test_no_stored_field_is_a_mask(self):
        bundle = build_modulation(2, 4, 2)
        for obj in (bundle.filters, bundle, decomposition_filters(bundle)):
            assert not any(isinstance(getattr(obj, f.name), MaskSequence) for f in fields(obj)), obj

    def test_cold_verify_and_transform_build_no_mask(self, monkeypatch):
        made = counted_masks(monkeypatch)
        for module in (cdf, modulation, splines):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()
        bundle = build_modulation(3, 5, 3)
        assert verify_perfect_reconstruction(bundle).identity_holds
        assert polyphase(bundle).invertible
        filters = decomposition_filters(bundle)
        frame = CoefficientFrame(2, 4, {-3: (1, 2, 3, 4), 0: (Fraction(1, 3), 0, -1, 5), 5: (0, 0, 7, 1)})
        assert reconstruct(*decompose(frame, filters), bundle) == frame
        assert made == []
        assert filters.coarse.length() > 0 and filters.coarse is filters.coarse and len(made) == 1


def counted_masks(monkeypatch) -> list:
    """The symbols of every MaskSequence made from here on, in order; each construction passes ``_init`` once."""
    made = []
    init = MaskSequence._init
    monkeypatch.setattr(MaskSequence, "_init", lambda self, symbol, factor: made.append(symbol) or init(self, symbol, factor))
    return made


class TestViews:
    """The bundle stores S, the filters, h and k; every dense matrix is read off them on first use."""

    def test_the_bundle_stores_s_h_and_k_only(self):
        assert [f.name for f in fields(ModulationBundle)] == ["m", "mt", "p", "filters", "scaling_symbol", "h", "k"]
        tree = ast.parse(textwrap.dedent(inspect.getsource(modulation._build_cached)))
        names = {node.attr if isinstance(node, ast.Attribute) else node.id
                 for node in ast.walk(tree) if isinstance(node, (ast.Attribute, ast.Name))}
        assert not names & {"pascal_matrix", "block"}

    def test_dual_and_frame_paths_build_no_dense_determinant(self, monkeypatch):
        bundle = replace(build_modulation(3, 5, 4))
        monkeypatch.setattr(duals, "build_modulation", lambda m, mt, p: bundle)
        duals._dual_cascade_data.cache_clear()  # what a cold call builds
        duals._dual_detail_taps.cache_clear()
        stored = {f.name for f in fields(bundle)}

        def built():
            return vars(bundle).keys() - stored

        grid = duals.dyadic_grid(1, 1)
        approx = duals.dual_quark_ft(3, 5, 4, 3, duals.with_halves(grid))
        assert built() == {"_left", "dual_scaling_symbol"}
        duals.dual_quarklet_ft(approx, grid)
        assert built() == {"_left", "_right", "dual_scaling_symbol", "dual_detail_symbol"}
        frame = CoefficientFrame(1, 5, {-2: (1, 0, 2, 0, Fraction(1, 3)), 3: (0, -1, 0, 4, 1)})
        assert reconstruct(*decompose(frame, decomposition_filters(bundle)), bundle) == frame
        assert not built() & {"modulation", "detail_symbol"}

    def test_views_are_read_once_and_a_copy_reads_them_equal(self):
        bundle = build_modulation(2, 4, 3)
        views = [name for name, attr in vars(ModulationBundle).items() if isinstance(attr, cached_property)]
        assert {"detail_symbol", "modulation", "modulation_inv",
                "dual_scaling_symbol", "dual_detail_symbol"} <= set(views)
        copy = replace(bundle)
        for name in views:
            assert getattr(bundle, name) is getattr(bundle, name), name
            assert getattr(copy, name) == getattr(bundle, name), name


    def test_rendering_the_design_sweep_masks_builds_no_fraction_tap(self, monkeypatch):
        # verify-pr plus filters --dual, cold: the dual, coarse and detail masks go to JSON off the integers
        taps_read, fractions = [], []
        taps = LaurentMatrix.taps
        monkeypatch.setattr(LaurentMatrix, "taps", lambda self: taps_read.append(self) or taps(self))
        modulation._build_cached.cache_clear()
        cdf._cdf_cached.cache_clear()
        bundle = build_modulation(5, 7, 8)
        assert verify_perfect_reconstruction(bundle).identity_holds
        filters = decomposition_filters(bundle)
        new = Fraction.__new__
        monkeypatch.setattr(Fraction, "__new__", lambda cls, *a, **kw: fractions.append(a) or new(cls, *a, **kw))
        masks = (bundle.dual_scaling_masks, bundle.dual_detail_masks, filters.coarse, filters.detail)
        payloads = [serialize.mask_json(mask) for mask in masks]
        assert taps_read == [] and fractions == []
        monkeypatch.undo()
        assert [json.dumps(p, indent=2, sort_keys=True) for p in payloads] == [
            json.dumps(mask_json_by_taps(mask), indent=2, sort_keys=True) for mask in masks]


class TestReadOnlyCaches:
    def test_cached_masks_reject_assignment(self):
        bundle = build_modulation(2, 2, 1)
        before = {name: dict(getattr(bundle, name).entries)
                  for name in ("scaling_masks", "detail_masks", "dual_scaling_masks", "dual_detail_masks")}
        for name in before:
            with pytest.raises(TypeError):
                getattr(bundle, name).entries[0] = ((1, 0), (0, 1))
        again = build_modulation(2, 2, 1)
        assert again is bundle
        assert {name: dict(getattr(again, name).entries) for name in before} == before

    def test_dual_masks_and_polyphase_built_on_first_use_only(self, monkeypatch):
        read = counted_masks(monkeypatch)
        modulation._build_cached.cache_clear()
        cdf._cdf_cached.cache_clear()
        bundle = build_modulation(2, 4, 2)
        assert read == []  # every mask is read off its symbol on first use
        masks = bundle.dual_scaling_masks
        assert bundle.dual_scaling_masks is masks and bundle.dual_detail_masks is bundle.dual_detail_masks
        assert read == [bundle.dual_scaling_symbol, bundle.dual_detail_symbol]
        assert masks.symbol is bundle.dual_scaling_symbol  # kept as it is, not copied
        assert bundle.synthesis_matrix is bundle.synthesis_matrix
        with pytest.raises(AttributeError):
            bundle.dual_scaling_masks = masks

    @pytest.mark.parametrize("name", ["synthesis_cores", "lifting_cores"])
    def test_transform_cores_reject_assignment(self, name):
        # every reconstruct and decompose on the cached bundle applies these cores
        bundle = build_modulation(2, 2, 2)
        frame = CoefficientFrame(1, 3, {0: (1, 2, 3), 5: (-1, 0, Fraction(1, 7))})
        cores = getattr(bundle, name)
        with pytest.raises(TypeError):
            cores[0][0][0][99] = 7
        with pytest.raises(TypeError):
            cores[0][0][0] = {99: 7}
        with pytest.raises(TypeError):
            cores[0] = cores[1]
        assert getattr(build_modulation(2, 2, 2), name) is cores
        assert reconstruct(*decompose(frame, bundle), bundle) == frame

    def test_stored_integer_form_and_entries_view_reject_mutation(self):
        bundle = build_modulation(2, 2, 1)
        filters = decomposition_filters(bundle)
        for mask in (bundle.scaling_masks, bundle.dual_scaling_masks, filters.coarse, cdf_masks(2, 2).dual):
            before = mask_json_by_taps(mask)
            for name in ("symbol", "factor", "rows", "cols", "entries"):
                with pytest.raises(AttributeError):
                    setattr(mask, name, None)
                with pytest.raises(AttributeError):
                    delattr(mask, name)
            with pytest.raises(TypeError):
                mask.symbol.entries[0] = mask.symbol.entries[0]
            with pytest.raises(TypeError):
                mask.symbol.entries[0][0] = LaurentPoly.one()
            k, tap = next(iter(mask.entries.items()))
            with pytest.raises(TypeError):
                mask.entries[k + 100] = tap
            with pytest.raises(TypeError):
                tap[0] = tap[0]
            with pytest.raises(TypeError):
                tap[0][0] = Fraction(7)
            assert mask.entries is mask.entries
            assert mask_json_by_taps(mask) == before

    def test_zero_pad_is_immutable_and_no_render_shares_an_edit(self):
        mask = decomposition_filters(build_modulation(3, 5, 3)).detail
        text = json.dumps(mask_json_by_taps(mask), indent=2, sort_keys=True)
        first = serialize.mask_json(mask)
        rows = [row for _, tap in first["taps"] for row in tap]
        zeros = [x for row in rows for x in row if x == (0, 1)]
        assert zeros and all(type(x) is tuple for x in zeros)
        for pad in zeros[:3]:
            with pytest.raises(TypeError):
                pad[0] = 1
        for row in rows:  # every editable part of the first payload
            if isinstance(row, list):
                for j, x in enumerate(row):
                    if isinstance(x, list):
                        x[0] += 1
                    else:
                        row[j] = [5, 7]
            else:
                with pytest.raises(TypeError):
                    row[0] = [5, 7]
        first["taps"].reverse()
        assert json.dumps(serialize.mask_json(mask), indent=2, sort_keys=True) == text

    def test_filter_masks_reject_assignment(self):
        filt = decomposition_filters(build_modulation(1, 1, 0))
        with pytest.raises(TypeError):
            filt.coarse.entries[5] = ((1,),)
        assert filt.coarse.scalars() == {0: Fraction(1, 2), 1: Fraction(1, 2)}


class TestDecompositionFilters:
    def test_the_bundle_holds_the_filters(self):
        # one filter-bank object: decompose takes the bundle, as reconstruct does
        b = build_modulation(2, 2, 1)
        assert decomposition_filters(b) is b

    def test_haar_split(self):
        filt = decomposition_filters(build_modulation(1, 1, 0))
        assert filt.coarse.scalars() == {0: Fraction(1, 2), 1: Fraction(1, 2)}
        assert filt.detail.scalars() == {0: Fraction(1, 2), 1: Fraction(-1, 2)}

    @pytest.mark.parametrize("m,mt,p", [(1, 1, 0), (1, 1, 1), (1, 1, 2), (2, 2, 1), (3, 3, 1)])
    @pytest.mark.parametrize("parity", [0, 1])
    def test_splitting_identity_exact(self, m, mt, p, parity):
        bundle = build_modulation(m, mt, p)
        filt = decomposition_filters(bundle)
        defects = splitting_identity_defect(bundle, filt, parity)
        assert all(d.is_zero() for d in defects)

    @pytest.mark.parametrize("m,mt", PAIRS)
    @pytest.mark.parametrize("p", [0, 1, 2, 3])
    def test_masks_equal_exponent_scan(self, m, mt, p):
        bundle = build_modulation(m, mt, p)
        filt = decomposition_filters(bundle)
        assert (filt.coarse, filt.detail) == reference_splitting_masks(bundle)

    def test_shifted_inverse_fails_both_certificates(self):
        # z X^{-1} is no inverse; the parity read-off gives even powers whatever it is
        # handed, so the exact certificates are what catch it
        b = build_modulation(2, 2, 1)
        shifted = with_views(b, modulation_inv=b.modulation_inv * LaurentPoly.monomial(1, 1))
        assert not polyphase(shifted).invertible
        assert not verify_perfect_reconstruction(shifted).identity_holds

    def test_support_growth_linear(self):
        for (m, mt) in [(1, 1), (3, 3)]:
            lengths = []
            for p in range(0, 7):
                filt = decomposition_filters(build_modulation(m, mt, p))
                lengths.append(max(filt.coarse.length(), filt.detail.length()))
            increments = [b - a for a, b in zip(lengths, lengths[1:])]
            # increments settle to a constant: growth is (eventually exactly) linear
            assert len(set(increments[2:])) == 1
            assert max(increments) <= increments[-1] + 2 * mt


@settings(max_examples=25, deadline=None, database=None)
@given(st.integers(1, 4), st.integers(0, 2), st.integers(0, 4))
def test_perfect_reconstruction_over_random_designs(m, extra, p):
    # valid designs with m <= 4, mt <= m + 4 and p <= 4; mt = m + 2 extra keeps m + mt even
    bundle = build_modulation(m, m + 2 * extra, p)
    report = verify_perfect_reconstruction(bundle)
    assert report.identity_holds
    assert report.residuals == ()
    assert bundle.modulation_inv == modulation_inv_by_blocks(bundle)
    assert bundle.polyphase_inv == polyphase_inv_by_product(bundle)
