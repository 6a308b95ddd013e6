"""Exact-arithmetic B-spline quark/quarklet multiwavelet filter banks.

Cardinal B-spline quarks (monomial-weighted symmetrized B-splines) and their
quarklets form a multiwavelet-style system: the quark vector is refinable,
the quark/quarklet modulation matrix satisfies the perfect reconstruction
identity with an explicitly invertible structure, and the resulting dual
masks define generalized (distributional) dual quarks.  This package builds
all of those objects in exact rational arithmetic, decides shift-stability
questions exactly, runs the multiscale transform on coefficient frames, and
orthogonalizes the order-1 quarklets.
"""

from .cdf import CdfPair, cdf_masks, quarklet, quarklets, scalar_pr_defect
from .duals import (
    DualApproximation,
    convergence_probe,
    dual_eigenvector,
    dual_quark_ft,
    dual_quarklet_ft,
    dyadic_grid,
    with_halves,
)
from .laurent import LaurentMatrix, LaurentPoly
from .masks import MaskSequence
from .modulation import (
    DecompositionFilters,
    ModulationBundle,
    build_modulation,
    decomposition_filters,
    polyphase,
    sub_symbols,
    verify_perfect_reconstruction,
)
from .piecewise import PiecewisePoly, inner_product
from .splines import (
    RefinementMasks,
    bspline,
    quark,
    quark_family,
    quark_ft,
    refinement_masks,
)
from .stability import (
    StabilityReport,
    condition_e,
    dual_symbol_eigenvalues,
    ft_zero_scan,
    is_stable_single,
    is_stable_vector,
    stability_table,
)
from .transform import (
    CoefficientFrame,
    OrthoQuarklets,
    decompose,
    frame_function,
    from_orthogonal_frames,
    orthogonalize_haar,
    project_detail,
    reconstruct,
    to_orthogonal_frames,
)
from .trig import is_positive_on_circle, shift_gram_symbol

__version__ = "0.1.0"

__all__ = [
    "CdfPair",
    "CoefficientFrame",
    "DecompositionFilters",
    "DualApproximation",
    "LaurentMatrix",
    "LaurentPoly",
    "MaskSequence",
    "ModulationBundle",
    "OrthoQuarklets",
    "PiecewisePoly",
    "RefinementMasks",
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
    "frame_function",
    "from_orthogonal_frames",
    "ft_zero_scan",
    "inner_product",
    "is_positive_on_circle",
    "is_stable_single",
    "is_stable_vector",
    "orthogonalize_haar",
    "polyphase",
    "project_detail",
    "quark",
    "quark_family",
    "quark_ft",
    "quarklet",
    "quarklets",
    "reconstruct",
    "refinement_masks",
    "scalar_pr_defect",
    "shift_gram_symbol",
    "stability_table",
    "sub_symbols",
    "to_orthogonal_frames",
    "verify_perfect_reconstruction",
    "with_halves",
]
