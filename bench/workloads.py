"""The benchmark workloads: inputs from a seed, operations, exact checks, counts.

Every operation calls the library's public functions in the order the
matching ``quarklets`` CLI handlers (and ``is_stable_vector``) do,
serialization included, and each call goes through
``tracer.call(<layer span>, fn, ...)``.  Inputs depend only
on the seed; the library sees nothing but the generated inputs.

* ``design_sweep``: filter design and exact verification (``verify-pr`` plus
  ``filters --dual``), one operation per (m, mt, p) triple of a fixed box.
* ``frame_cascade``: multiscale analysis and synthesis of dense random
  rational frames (``decompose``/``reconstruct`` over several levels).
* ``spectral_scan``: stability, Condition E, generalized duals and the
  Fourier zero scan (``eigen``, ``dual --quarklets``, ``ft-zeros``).

The benchmark runs two workloads: ``design_sweep`` and ``frame_spectral``,
which visits the ``frame_cascade`` and ``spectral_scan`` inputs in one seeded
order.  Two workloads instead of three buy runs long enough to steady the
figures on a host shared with other tenants; the per-layer spans still keep
the two halves apart.
"""

from __future__ import annotations

import json
import math
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from quarklets import duals, serialize, stability, trig  # noqa: E402
from quarklets.cdf import cdf_masks  # noqa: E402
from quarklets.modulation import (  # noqa: E402
    build_modulation,
    decomposition_filters,
    polyphase,
    verify_perfect_reconstruction,
)
from quarklets.splines import quark, refinement_masks  # noqa: E402
from quarklets.transform import CoefficientFrame, decompose, reconstruct  # noqa: E402


def _json_text(payload) -> str:
    """The CLI's JSON rendering: sorted keys, two-space indent, trailing newline."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _den_bits(values) -> int:
    return max((v.denominator.bit_length() for v in values), default=0)


def clear_library_caches() -> None:
    """Empty every ``functools`` cache in the library, as a fresh CLI process has them."""
    for name, module in list(sys.modules.items()):
        if name == "quarklets" or name.startswith("quarklets."):
            for obj in list(vars(module).values()):
                clear = getattr(obj, "cache_clear", None)
                if callable(clear):
                    clear()


@dataclass
class OpResult:
    output: str              # the bytes a CLI call would print, for the outputs digest
    objects: dict[str, Any] = field(default_factory=dict)


class Workload:
    """One seeded input set.  ``items`` is one pass; a run repeats whole passes."""

    name = ""
    timings: tuple[str, ...] = ()  # span names of this workload's layer calls
    counts: tuple[str, ...] = ()   # count metrics folded by ``fold_counts``

    def __init__(self, seed: int, smoke: bool = False):
        self.items: list = []

    def setup(self) -> None:
        """Work done before the first timed operation (lands in ``setup_s``)."""

    def before_op(self) -> None:
        """Untimed preparation before each operation."""

    def op(self, item, tracer) -> OpResult:
        raise NotImplementedError

    def check(self, item, result: OpResult) -> bool:
        raise NotImplementedError

    def op_counts(self, item, result: OpResult) -> dict[str, float]:
        raise NotImplementedError

    def fold_counts(self, rows: list[dict[str, float]]) -> dict[str, float]:
        raise NotImplementedError

    def sizes(self) -> dict:
        raise NotImplementedError


# -- design_sweep ------------------------------------------------------------------


def design_box(smoke: bool) -> list[tuple[int, int, int]]:
    """Every valid (m, mt, p): 1 <= m <= mt <= 7, m <= 5, m + mt even, 0 <= p <= 8."""
    max_m, max_mt, max_p = (2, 2, 2) if smoke else (5, 7, 8)
    return [
        (m, mt, p)
        for m in range(1, max_m + 1)
        for mt in range(m, max_mt + 1)
        if (m + mt) % 2 == 0
        for p in range(max_p + 1)
    ]


class DesignSweep(Workload):
    name = "design_sweep"
    timings = (
        "cdf.masks",
        "splines.refinement",
        "modulation.build",
        "modulation.verify",
        "modulation.split",
        "modulation.polyphase",
        "serialize.masks",
    )
    counts = ("laurent.inv_nnz", "laurent.inv_span", "laurent.max_den_bits", "masks.split_taps")

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__(seed, smoke)
        self.items = design_box(smoke)
        random.Random(seed).shuffle(self.items)  # the seed sets the visiting order only

    def before_op(self) -> None:
        # Every CLI call builds cold; so does every operation here.
        clear_library_caches()

    def op(self, item, tracer) -> OpResult:
        m, mt, p = item
        call = tracer.call
        call("cdf.masks", cdf_masks, m, mt)
        call("splines.refinement", refinement_masks, m, p)
        bundle = call("modulation.build", build_modulation, m, mt, p)
        report = call("modulation.verify", verify_perfect_reconstruction, bundle)
        filters = call("modulation.split", decomposition_filters, bundle)
        factorization = call("modulation.polyphase", polyphase, bundle)
        text = call("serialize.masks", self._render, item, bundle, report, filters)
        return OpResult(
            text,
            {"bundle": bundle, "report": report, "filters": filters, "polyphase": factorization},
        )

    @staticmethod
    def _render(item, bundle, report, filters) -> str:
        m, mt, p = item
        return _json_text(
            {
                "m": m,
                "mt": mt,
                "p": p,
                "identity_holds": report.identity_holds,
                "residual_entries": [
                    {"row": i, "col": j, "poly": serialize.laurent_poly_json(r)}
                    for i, j, r in report.residuals
                ],
                "dual_scaling_masks": serialize.mask_json(bundle.dual_scaling_masks),
                "dual_detail_masks": serialize.mask_json(bundle.dual_detail_masks),
                "coarse": serialize.mask_json(filters.coarse),
                "detail": serialize.mask_json(filters.detail),
            }
        )

    def check(self, item, result: OpResult) -> bool:
        report = result.objects["report"]
        factorization = result.objects["polyphase"]
        return (
            report.identity_holds
            and not report.residuals
            and factorization.factorization_holds
            and factorization.invertible
        )

    def op_counts(self, item, result: OpResult) -> dict[str, float]:
        inv = result.objects["bundle"].modulation_inv
        coeffs = [c for row in inv.entries for e in row for _, c in e.items()]
        lo, hi = inv.exponent_range()
        filters = result.objects["filters"]
        return {
            "laurent.inv_nnz": len(coeffs),
            "laurent.inv_span": hi - lo + 1,
            "laurent.max_den_bits": _den_bits(coeffs),
            "masks.split_taps": len(filters.coarse.entries) + len(filters.detail.entries),
        }

    def fold_counts(self, rows):
        return {
            "laurent.inv_nnz": sum(r["laurent.inv_nnz"] for r in rows) / len(rows),
            "laurent.inv_span": max(r["laurent.inv_span"] for r in rows),
            "laurent.max_den_bits": max(r["laurent.max_den_bits"] for r in rows),
            "masks.split_taps": sum(r["masks.split_taps"] for r in rows) / len(rows),
        }

    def sizes(self) -> dict:
        return {"triples": len(self.items), "box": "m<=5, m<=mt<=7, m+mt even, p<=8"}


# -- frame_cascade -----------------------------------------------------------------

# (m, mt, p, translates, levels, frames per pass).  The short (2,2,2) frames
# and the four fastest spectral cases are more than two thirds of the
# ``frame_spectral`` operations, so its median latency sits well inside that
# group; the slower (3,5,5) frames, with their long splitting filters, and
# the large-p spectral cases make up its tail.
FRAME_SLOTS = ((2, 2, 2, 32, 3, 36), (3, 5, 5, 16, 3, 6))
FRAME_SLOTS_SMOKE = ((2, 2, 2, 8, 2, 2), (3, 5, 5, 4, 1, 1))


@dataclass(frozen=True)
class FrameInput:
    m: int
    mt: int
    p: int
    levels: int
    text: str  # frame JSON exactly as a CLI input file holds it


def random_frame(rng: random.Random, p: int, translates: int, level: int) -> CoefficientFrame:
    """Dense frame: every translate 0..translates-1 carries a random rational vector."""
    coeffs = {}
    for k in range(translates):
        vec = [Fraction(rng.randint(-99, 99), rng.randint(1, 64)) for _ in range(p + 1)]
        if not any(vec):
            vec[0] = Fraction(1)
        coeffs[k] = tuple(vec)
    return CoefficientFrame(level, p + 1, coeffs)


class FrameCascade(Workload):
    name = "frame_cascade"
    timings = (
        "serialize.frame_in",
        "transform.decompose",
        "transform.reconstruct",
        "serialize.frame_out",
    )
    counts = ("transform.translates", "transform.max_den_bits")

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__(seed, smoke)
        rng = random.Random(seed)
        self.slots = FRAME_SLOTS_SMOKE if smoke else FRAME_SLOTS
        for m, mt, p, translates, levels, count in self.slots:
            for _ in range(count):
                frame = random_frame(rng, p, translates, levels)
                self.items.append(FrameInput(m, mt, p, levels, _json_text(serialize.frame_json(frame))))
        rng.shuffle(self.items)
        self.banks: dict[tuple[int, int, int], tuple] = {}

    def setup(self) -> None:
        for m, mt, p, *_ in self.slots:
            bundle = build_modulation(m, mt, p)
            self.banks[(m, mt, p)] = (bundle, decomposition_filters(bundle))

    @staticmethod
    def _frame_in(text: str) -> CoefficientFrame:
        return serialize.frame_from_json(json.loads(text))

    @staticmethod
    def _frame_out(frame: CoefficientFrame) -> str:
        return _json_text(serialize.frame_json(frame))

    def op(self, item: FrameInput, tracer) -> OpResult:
        call = tracer.call
        bundle, filters = self.banks[(item.m, item.mt, item.p)]
        frame = call("serialize.frame_in", self._frame_in, item.text)
        down, details = [frame], []
        for _ in range(item.levels):
            coarse, detail = call("transform.decompose", decompose, down[-1], filters)
            down.append(coarse)
            details.append(detail)
        up = [down[-1]]
        for detail in reversed(details):
            up.append(call("transform.reconstruct", reconstruct, up[-1], detail, bundle))
        text = call("serialize.frame_out", self._frame_out, up[-1])
        return OpResult(text, {"down": down, "details": details, "up": up})

    def check(self, item: FrameInput, result: OpResult) -> bool:
        return result.objects["up"][-1] == result.objects["down"][0] and result.output == item.text

    def op_counts(self, item, result: OpResult) -> dict[str, float]:
        down, details, up = (result.objects[k] for k in ("down", "details", "up"))
        calls = []
        for level in range(item.levels):
            calls.append((down[level], down[level + 1], details[level]))   # one decompose
            calls.append((up[level], details[-1 - level], up[level + 1]))  # one reconstruct
        translates = sum(len(f.coefficients) for frames in calls for f in frames)
        frames = down + details + up
        bits = max(_den_bits(c for vec in f.coefficients.values() for c in vec) for f in frames)
        return {"transform.translates": translates, "transform.max_den_bits": bits}

    def fold_counts(self, rows):
        return {
            "transform.translates": sum(r["transform.translates"] for r in rows) / len(rows),
            "transform.max_den_bits": max(r["transform.max_den_bits"] for r in rows),
        }

    def sizes(self) -> dict:
        return {
            "frames": len(self.items),
            "slots": [
                {"m": m, "mt": mt, "p": p, "translates": n, "levels": lv, "frames": c}
                for m, mt, p, n, lv, c in self.slots
            ],
        }


# -- spectral_scan -----------------------------------------------------------------

# (m, mt, p).  Degrees up to 8 reach the float branch of ``condition_e``
# (matrices above 8x8).  (1, 1, 0) is the Haar case whose truncation error
# has the closed form behind the README floor sup|sin(xi/2)| 2^-J.
SPECTRAL_CASES = (
    (1, 1, 0), (1, 1, 3), (1, 1, 8),
    (2, 2, 0), (2, 2, 1), (2, 2, 2), (2, 2, 4), (2, 2, 8),
    (1, 3, 1), (1, 3, 5),
    (3, 3, 0), (3, 3, 2), (3, 3, 3), (3, 3, 6),
    (2, 4, 2), (2, 4, 7),
)
SPECTRAL_CASES_SMOKE = ((1, 1, 0), (2, 2, 1))
# The Gram determinant is a cofactor expansion, factorial in the vector
# length (9x9 at p = 8 would take minutes), so the stability steps use the
# quark vector of degrees 0..min(p, STABILITY_MAX_P).
STABILITY_MAX_P = 4
PRODUCT_LEVELS = 20     # truncation depth J
GRID_SPAN, GRID_DEPTH, GRID_POINTS = 2, 4, 8   # seeded points k/16, |k/16| <= 2
ZERO_SCAN_HALF_WIDTH, ZERO_SCAN_SAMPLES = 10.0, 1000


@dataclass(frozen=True)
class SpectralCase:
    m: int
    mt: int
    p: int
    grid: tuple[Fraction, ...]
    lo: float
    hi: float

    @property
    def stability_p(self) -> int:
        return min(self.p, STABILITY_MAX_P)


def haar_floor_excess(approx) -> float:
    """Largest error of the (1,1,0) truncated product beyond its README floor.

    The Haar dual transform is exp(-i xi/2) sin(xi/2)/(xi/2).  Its J-level
    truncation differs from it by |sin(xi/2)| 2^-J sqrt(1 + (theta cot theta
    - 1)^2 / theta^2) with theta = xi 2^-(J+1), which is at most
    |sin(xi/2)| 2^-J (1 + theta^2 / 8) for |theta| <= 1.  The float product
    adds at most a few roundings per level.  A positive return value means
    the values miss that bound.
    """
    levels = approx.levels
    worst = 0.0
    for t in approx.grid:
        xi = 2 * math.pi * float(t)
        exact = 1.0 if xi == 0 else np.exp(-1j * xi / 2) * math.sin(xi / 2) / (xi / 2)
        err = abs(approx.values[t][0] - exact)
        theta = abs(xi) / 2 ** (levels + 1)
        bound = abs(math.sin(xi / 2)) * 2.0**-levels * (1 + theta**2 / 8)
        bound += 4 * (levels + 1) * np.finfo(float).eps
        worst = max(worst, err - bound)
    return worst


class SpectralScan(Workload):
    name = "spectral_scan"
    timings = (
        "stability.gram",
        "stability.det",
        "trig.positivity",
        "stability.condition_e",
        "duals.eigvec",
        "duals.product",
        "duals.quarklet",
        "stability.ft_zero",
    )
    counts = ("trig.det_terms", "duals.symbol_evals", "duals.refine_defect")

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__(seed, smoke)
        rng = random.Random(seed)
        pool = duals.dyadic_grid(GRID_SPAN, GRID_DEPTH)
        for m, mt, p in SPECTRAL_CASES_SMOKE if smoke else SPECTRAL_CASES:
            grid = tuple(sorted(rng.sample(pool, GRID_POINTS)))
            lo = -ZERO_SCAN_HALF_WIDTH + rng.uniform(-0.5, 0.5)
            hi = ZERO_SCAN_HALF_WIDTH + rng.uniform(-0.5, 0.5)
            self.items.append(SpectralCase(m, mt, p, grid, lo, hi))
        rng.shuffle(self.items)

    def setup(self) -> None:
        for case in self.items:
            build_modulation(case.m, case.mt, case.p)
            for q in range(case.stability_p + 1):
                quark(case.m, q)

    def op(self, case: SpectralCase, tracer) -> OpResult:
        call = tracer.call
        m, mt, p, ps = case.m, case.mt, case.p, case.stability_p
        gram = call("stability.gram", stability.gram_symbol_matrix, m, ps)
        det = call("stability.det", stability.trig_determinant, gram)
        positivity = call("trig.positivity", trig.is_positive_on_circle, det)
        mat = call("stability.condition_e", stability.dual_symbol_at_one, m, mt, p)
        cond_e = call("stability.condition_e", stability.condition_e, mat)
        vec = call("duals.eigvec", duals.dual_eigenvector, m, mt, p)
        full = call("duals.product", duals.with_halves, case.grid)
        approx = call("duals.product", duals.dual_quark_ft, m, mt, p, PRODUCT_LEVELS, full)
        quarklet = call("duals.quarklet", duals.dual_quarklet_ft, approx, points=case.grid)
        zeros = call("stability.ft_zero", stability.ft_zero_scan, m, ps, case.lo, case.hi,
                     samples=ZERO_SCAN_SAMPLES)
        text = self._render(case, positivity, cond_e, vec, approx, quarklet, zeros)
        return OpResult(text, {"det": det, "approx": approx, "quarklet": quarklet})

    @staticmethod
    def _render(case, positivity, cond_e, vec, approx, quarklet, zeros) -> str:
        def fmt(x: float) -> str:
            return format(x, ".17g")

        lines = [
            f"case {case.m} {case.mt} {case.p} stable_p {case.stability_p}",
            f"stable {positivity.positive} {positivity.certificate}",
            f"condition_e {cond_e}",
            "eigenvector " + " ".join(f"{v.numerator}/{v.denominator}" for v in vec),
        ]
        for name, values, points in (
            ("quark", approx.values, approx.grid),
            ("quarklet", quarklet, case.grid),
        ):
            for t in points:
                for comp, val in enumerate(values[t]):
                    lines.append(f"{name} {fmt(2 * math.pi * float(t))} {comp} "
                                 f"{fmt(val.real)} {fmt(val.imag)}")
        lines.append("zeros " + " ".join(fmt(z) for z in zeros))
        return "\n".join(lines) + "\n"

    def check(self, case: SpectralCase, result: OpResult) -> bool:
        if any(r != 0 for r in duals.eigen_residual(case.m, case.mt, case.p)):
            return False
        approx, quarklet = result.objects["approx"], result.objects["quarklet"]
        finite = all(np.all(np.isfinite(v)) for v in approx.values.values()) and all(
            np.all(np.isfinite(v)) for v in quarklet.values()
        )
        if not finite:
            return False
        if (case.m, case.mt, case.p) == (1, 1, 0):
            return haar_floor_excess(approx) <= 0
        return True

    def op_counts(self, case, result: OpResult) -> dict[str, float]:
        approx = result.objects["approx"]
        scale = max(float(np.max(np.abs(v))) for v in approx.values.values())
        return {
            "trig.det_terms": len(result.objects["det"].coeffs),
            "duals.symbol_evals": len(approx.grid) * approx.levels,
            "duals.refine_defect": duals.refinement_defect(approx) / scale,
        }

    def fold_counts(self, rows):
        return {
            "trig.det_terms": sum(r["trig.det_terms"] for r in rows) / len(rows),
            "duals.symbol_evals": sum(r["duals.symbol_evals"] for r in rows) / len(rows),
            "duals.refine_defect": max(r["duals.refine_defect"] for r in rows),
        }

    def sizes(self) -> dict:
        return {
            "cases": [[c.m, c.mt, c.p] for c in self.items],
            "stability_max_p": STABILITY_MAX_P,
            "levels": PRODUCT_LEVELS,
            "grid_points": GRID_POINTS,
            "grid": f"seeded points of dyadic_grid({GRID_SPAN}, {GRID_DEPTH}), closed with with_halves",
            "zero_scan": {"half_width": ZERO_SCAN_HALF_WIDTH, "samples": ZERO_SCAN_SAMPLES},
        }


class FrameSpectral(Workload):
    """The ``frame_cascade`` and ``spectral_scan`` inputs in one seeded order."""

    name = "frame_spectral"
    timings = FrameCascade.timings + SpectralScan.timings
    counts = FrameCascade.counts + SpectralScan.counts

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__(seed, smoke)
        self.parts = (FrameCascade(seed, smoke), SpectralScan(seed, smoke))
        self.items = [(k, item) for k, part in enumerate(self.parts) for item in part.items]
        random.Random(seed).shuffle(self.items)

    def setup(self) -> None:
        for part in self.parts:
            part.setup()

    def op(self, entry, tracer) -> OpResult:
        k, item = entry
        return self.parts[k].op(item, tracer)

    def check(self, entry, result: OpResult) -> bool:
        k, item = entry
        return self.parts[k].check(item, result)

    def op_counts(self, entry, result: OpResult) -> dict[str, float]:
        k, item = entry
        return self.parts[k].op_counts(item, result)

    def fold_counts(self, rows):
        out = {}
        for part in self.parts:
            out.update(part.fold_counts([r for r in rows if set(r) == set(part.counts)]))
        return out

    def sizes(self) -> dict:
        return {part.name: part.sizes() for part in self.parts}


WORKLOADS = {w.name: w for w in (DesignSweep, FrameSpectral)}
