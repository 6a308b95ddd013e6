"""Exact-arithmetic B-spline quark/quarklet multiwavelet filter banks.

Cardinal B-spline quarks (monomial-weighted symmetrized B-splines) and their
quarklets form a multiwavelet-style system: the quark vector is refinable,
the quark/quarklet modulation matrix satisfies the perfect reconstruction
identity with an explicitly invertible structure, and the resulting dual
masks define generalized (distributional) dual quarks.  This package builds
all of those objects in exact rational arithmetic, decides shift-stability
questions exactly, runs the multiscale transform on coefficient frames, and
orthogonalizes the order-1 quarklets.

The float diagnostics (quark Fourier transforms, their zero scan, the
truncated dual product) live in :mod:`quarklets.duals`, the one numpy module.
"""

from .cdf import CdfPair, cdf_masks, quarklet, quarklets, scalar_pr_defect
from .laurent import LaurentMatrix, LaurentPoly
from .masks import MaskSequence
from .modulation import (
    ModulationBundle,
    build_modulation,
    decomposition_filters,
    polyphase,
    verify_perfect_reconstruction,
)
from .piecewise import PiecewisePoly, inner_product
from .splines import bspline, quark, quark_family, refinement_masks
from .stability import (
    StabilityReport,
    condition_e,
    dual_eigenvector,
    dual_symbol_eigenvalues,
    is_stable,
    is_stable_single,
    is_stable_vector,
    stability_table,
)
from .transform import (
    CoefficientFrame,
    OrthoQuarklets,
    decompose,
    orthogonalize_haar,
    reconstruct,
)
from .trig import is_positive_on_circle

__version__ = "0.1.0"

# resolved from duals on first use (PEP 562), so that importing the package loads no numpy
_FLOAT_NAMES = {"DualApproximation", "convergence_probe", "dual_quark_ft", "dual_quarklet_ft",
                "dyadic_grid", "ft_zero_scan", "quark_ft", "with_halves"}


def __getattr__(name: str):
    if name in _FLOAT_NAMES:
        from . import duals

        return getattr(duals, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CdfPair",
    "CoefficientFrame",
    "DualApproximation",
    "LaurentMatrix",
    "LaurentPoly",
    "MaskSequence",
    "ModulationBundle",
    "OrthoQuarklets",
    "PiecewisePoly",
    "StabilityReport",
    "bspline",
    "build_modulation",
    "cdf_masks",
    "condition_e",
    "convergence_probe",
    "decompose",
    "decomposition_filters",
    "dual_eigenvector",
    "dual_quark_ft",
    "dual_quarklet_ft",
    "dual_symbol_eigenvalues",
    "dyadic_grid",
    "ft_zero_scan",
    "inner_product",
    "is_positive_on_circle",
    "is_stable",
    "is_stable_single",
    "is_stable_vector",
    "orthogonalize_haar",
    "polyphase",
    "quark",
    "quark_family",
    "quark_ft",
    "quarklet",
    "quarklets",
    "reconstruct",
    "refinement_masks",
    "scalar_pr_defect",
    "stability_table",
    "verify_perfect_reconstruction",
    "with_halves",
]
