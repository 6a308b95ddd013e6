"""Command-line front end.

Every subcommand is a thin wrapper over the library with file or stdout
output.  Outputs are deterministic: exact rationals as [num, den] pairs,
floats printed with 17 significant digits, no timestamps.

Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from fractions import Fraction

from . import duals, serialize, stability, transform
from .cdf import cdf_masks, quarklet, scalar_pr_defect, validate_orders
from .modulation import build_modulation, decomposition_filters, verify_perfect_reconstruction
from .splines import bspline, quark
from .transform import orthogonalize_haar


# ``dual`` evaluates the product at every point of a grid it builds eagerly;
# ``ft-zeros``, ``orthogonalize --format csv`` and ``sample`` sample this many
# points at most.
MAX_GRID_POINTS = 2**17 + 1
# At 64 levels the tail error (xi / 2^J)^2 is below 2^-90 on every accepted grid.
MAX_LEVELS = 64
# Largest --max-m and --max-p of ``stability-table``: a 10 x 10 table takes
# about 20 s on a 2-core x86_64 host, and each Sturm decision grows with m + p.
MAX_TABLE_ORDER = 10
# Largest --m and --mt, and largest --p, --q and frame width - 1 (of ``decompose``
# and ``reconstruct``): at this corner the slowest command at its default options,
# ``verify-pr --m 16 --mt 16 --p 14``, takes about 13 s on a 2-core x86_64 host.
MAX_ORDER = 16
MAX_DEGREE = 14
# Largest points x levels x (p + 1) of ``dual``.  The cascade costs each point
# and level about (p + 1)^1.3 us at m = mt = 16, so at the corner the slowest
# accepted run, ``dual --m 16 --mt 16 --p 14 --levels 64 --grid-depth 9
# --quarklets``, takes about 19 s on a 2-core x86_64 host.
MAX_DUAL_WORK = 4_000_000
# The upper bound of each option, checked before any work.
_BOUNDS = {"m": MAX_ORDER, "mt": MAX_ORDER, "p": MAX_DEGREE, "q": MAX_DEGREE,
           "max_m": MAX_TABLE_ORDER, "max_p": MAX_TABLE_ORDER, "levels": MAX_LEVELS}


class UsageError(Exception):
    pass


def _check_bounds(args):
    for name, bound in _BOUNDS.items():
        if getattr(args, name, None) is not None and getattr(args, name) > bound:
            raise UsageError(f"--{name.replace('_', '-')} must be at most {bound}")
    if args.command == "dual" and args.grid_span >= 1 and args.grid_depth >= 0:
        # any depth above 16 overflows; capping it keeps 2**depth small
        points = 2 * args.grid_span * 2 ** min(args.grid_depth, 17) + 1
        if points > MAX_GRID_POINTS:
            raise UsageError(f"the grid has 2*span*2^depth + 1 points, more than {MAX_GRID_POINTS} (2^17 + 1)")
        if points * args.levels * (args.p + 1) > MAX_DUAL_WORK:
            raise UsageError(f"grid points x --levels x (p + 1) must be at most {MAX_DUAL_WORK}")


def _check_width(frame):
    if frame.width - 1 > MAX_DEGREE:
        raise UsageError(f"frame width must be at most {MAX_DEGREE + 1}")
    return frame


def _fmt_float(x: float) -> str:
    return format(x, ".17g")


def _write(text: str, path: str | None):
    if path:
        with open(path, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _json_dump(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _csv_text(rows, header) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


# -- subcommand handlers --------------------------------------------------------


def cmd_filters(args) -> int:
    validate_orders(args.m, args.mt)
    pair = cdf_masks(args.m, args.mt)
    payload = {
        "m": args.m,
        "mt": args.mt,
        "primal": serialize.mask_json(pair.primal),
        "dual": serialize.mask_json(pair.dual),
        "wavelet": serialize.mask_json(pair.wavelet),
        "dual_wavelet": serialize.mask_json(pair.dual_wavelet),
    }
    if args.dual and args.p is None:
        raise UsageError("--dual needs --p to fix the quark degree")
    if args.p is not None:
        bundle = build_modulation(args.m, args.mt, args.p)
        payload["p"] = args.p
        payload["scaling_masks"] = serialize.mask_json(bundle.scaling_masks)
        if args.dual:
            payload["dual_scaling_masks"] = serialize.mask_json(bundle.dual_scaling_masks)
            payload["dual_detail_masks"] = serialize.mask_json(bundle.dual_detail_masks)
    _write(_json_dump(payload), args.out)
    return 0


def cmd_verify_pr(args) -> int:
    validate_orders(args.m, args.mt)
    bundle = build_modulation(args.m, args.mt, args.p)
    report = verify_perfect_reconstruction(bundle)
    scalar_defect = scalar_pr_defect(
        bundle.filters.primal_symbol(), bundle.filters.dual_symbol()
    )
    payload = {
        "m": args.m,
        "mt": args.mt,
        "p": args.p,
        "identity_holds": report.identity_holds,
        "scalar_identity_holds": scalar_defect.is_zero(),
        "residual_entries": [
            {"row": i, "col": j, "poly": serialize.laurent_poly_json(r)}
            for i, j, r in report.residuals
        ],
    }
    _write(_json_dump(payload), args.out)
    return 0 if report.identity_holds and scalar_defect.is_zero() else 1


def cmd_stability_table(args) -> int:
    table = stability.stability_table(args.max_m, args.max_p)
    ms = range(1, args.max_m + 1)
    ps = range(0, args.max_p + 1)
    if args.format == "json":
        payload = {
            "cells": [
                {"m": m, "p": p, "stable": table[(m, p)]} for m in ms for p in ps
            ]
        }
        _write(_json_dump(payload), args.out)
    elif args.format == "csv":
        rows = [[m, p, "stable" if table[(m, p)] else "unstable"] for m in ms for p in ps]
        _write(_csv_text(rows, ["m", "p", "stability"]), args.out)
    else:
        lines = ["| m \\ p | " + " | ".join(str(p) for p in ps) + " |"]
        lines.append("|" + "---|" * (len(list(ps)) + 1))
        for m in ms:
            cells = ["stable" if table[(m, p)] else "unstable" for p in ps]
            lines.append(f"| {m} | " + " | ".join(cells) + " |")
        _write("\n".join(lines) + "\n", args.out)
    return 0


def cmd_ft_zeros(args) -> int:
    if args.samples > MAX_GRID_POINTS:
        raise UsageError(f"--samples must be at most {MAX_GRID_POINTS} (2^17 + 1)")
    zeros = stability.ft_zero_scan(args.m, args.q, args.lo, args.hi, samples=args.samples)
    rows = [[_fmt_float(z)] for z in zeros]
    _write(_csv_text(rows, ["zero"]), args.out)
    return 0


def cmd_eigen(args) -> int:
    validate_orders(args.m, args.mt)
    eig = stability.dual_symbol_eigenvalues(args.m, args.mt, args.p)
    mat = stability.dual_symbol_at_one(args.m, args.mt, args.p)
    payload = {
        "m": args.m,
        "mt": args.mt,
        "p": args.p,
        "eigenvalues": [serialize.rational_json(v) for v in eig],
        "condition_e": stability.condition_e(mat),
        "eigenvector": [serialize.rational_json(v) for v in duals.dual_eigenvector(args.m, args.mt, args.p)],
    }
    _write(_json_dump(payload), args.out)
    return 0


def cmd_dual(args) -> int:
    validate_orders(args.m, args.mt)
    grid = duals.dyadic_grid(args.grid_span, args.grid_depth)
    if args.quarklets:
        grid_full = duals.with_halves(grid)
        approx = duals.dual_quark_ft(args.m, args.mt, args.p, args.levels, grid_full)
        values = duals.dual_quarklet_ft(approx, points=grid)
        pts = [Fraction(t) for t in grid]
    else:
        approx = duals.dual_quark_ft(args.m, args.mt, args.p, args.levels, grid)
        values = approx.values
        pts = list(approx.grid)
    rows = []
    for t in pts:
        xi = 2 * math.pi * float(t)
        vec = values[t]
        for comp in range(args.p + 1):
            rows.append(
                [_fmt_float(xi), comp, _fmt_float(vec[comp].real), _fmt_float(vec[comp].imag)]
            )
    _write(_csv_text(rows, ["xi", "component", "re", "im"]), args.out)
    return 0


def cmd_decompose(args) -> int:
    validate_orders(args.m, args.mt)
    with open(args.input) as handle:
        frame = _check_width(serialize.frame_from_json(json.load(handle)))
    bundle = build_modulation(args.m, args.mt, frame.width - 1)
    filters = decomposition_filters(bundle)
    s, d = transform.decompose(frame, filters)
    _write(_json_dump(serialize.frame_json(s)), args.out_scaling)
    _write(_json_dump(serialize.frame_json(d)), args.out_detail)
    return 0


def cmd_reconstruct(args) -> int:
    validate_orders(args.m, args.mt)
    with open(args.scaling) as handle:
        s = _check_width(serialize.frame_from_json(json.load(handle)))
    with open(args.detail) as handle:
        d = _check_width(serialize.frame_from_json(json.load(handle)))
    if s.width != d.width:
        raise UsageError("scaling and detail frames have different widths")
    bundle = build_modulation(args.m, args.mt, s.width - 1)
    c = transform.reconstruct(s, d, bundle)
    _write(_json_dump(serialize.frame_json(c)), args.out)
    return 0


def cmd_orthogonalize(args) -> int:
    if args.format == "csv" and not 1 <= args.samples <= MAX_GRID_POINTS:
        raise UsageError(f"--samples must be between 1 and {MAX_GRID_POINTS} (2^17 + 1)")
    ortho = orthogonalize_haar(args.mt, args.p)
    if args.format == "csv":
        rows = []
        count = args.samples
        for q, member in enumerate(ortho.members):
            for i in range(count + 1):
                x = Fraction(i, count)
                rows.append([q, _fmt_float(float(x)), _fmt_float(float(member(x)))])
        _write(_csv_text(rows, ["degree", "x", "value"]), args.out)
        return 0
    payload = {
        "mt": args.mt,
        "p": args.p,
        "members": [serialize.piecewise_json(f) for f in ortho.members],
        "norms": [serialize.rational_json(n) for n in ortho.norms],
        "to_plain": serialize.matrix_json(ortho.to_plain),
        "from_plain": serialize.matrix_json(ortho.from_plain),
    }
    _write(_json_dump(payload), args.out)
    return 0


def cmd_sample(args) -> int:
    if not 2 <= args.count <= MAX_GRID_POINTS:
        raise UsageError(f"--count must be between 2 and {MAX_GRID_POINTS} (2^17 + 1)")
    if args.function == "bspline":
        f = bspline(args.m)
    elif args.function == "quark":
        f = quark(args.m, args.q)
    elif args.function == "quarklet":
        f = quarklet(args.m, args.mt, args.q)
    elif args.function == "ortho-quarklet":
        if args.m != 1:
            raise UsageError("ortho-quarklet requires --m 1")
        f = orthogonalize_haar(args.mt, args.q).members[args.q]
    else:  # pragma: no cover - argparse restricts choices
        raise UsageError(f"unknown function {args.function}")
    start = Fraction(args.start).limit_denominator(10**9)
    end = Fraction(args.end).limit_denominator(10**9)
    if end <= start:
        raise UsageError("--end must exceed --start")
    rows = []
    for i in range(args.count):
        x = start + (end - start) * Fraction(i, args.count - 1)
        rows.append([_fmt_float(float(x)), _fmt_float(float(f(x)))])
    _write(_csv_text(rows, ["x", "value"]), args.out)
    return 0


# -- parser -----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quarklets",
        description="Exact B-spline quark/quarklet multiwavelet filter bank toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_orders(p, with_p=True, p_required=True):
        p.add_argument("--m", type=int, required=True, help=f"primal spline order (at most {MAX_ORDER})")
        p.add_argument("--mt", type=int, required=True, help=f"dual spline order (at most {MAX_ORDER})")
        if with_p:
            p.add_argument("--p", type=int, required=p_required,
                           help=f"maximal quark degree (at most {MAX_DEGREE})")

    p = sub.add_parser("filters", help="emit the exact filter masks as JSON")
    add_orders(p, p_required=False)
    p.add_argument("--dual", action="store_true", help="include dual quark/quarklet mask matrices")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_filters)

    p = sub.add_parser("verify-pr", help="check the perfect reconstruction identity exactly")
    add_orders(p)
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_verify_pr)

    p = sub.add_parser("stability-table", help="exact stability grid of single quarks")
    p.add_argument("--max-m", type=int, required=True, help="largest spline order (at most 10)")
    p.add_argument("--max-p", type=int, required=True, help="largest quark degree (at most 10)")
    p.add_argument("--format", choices=["md", "csv", "json"], default="md")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_stability_table)

    p = sub.add_parser("ft-zeros", help="scan a quark Fourier transform for zeros")
    p.add_argument("--m", type=int, required=True, help=f"spline order (at most {MAX_ORDER})")
    p.add_argument("--q", type=int, required=True, help=f"quark degree (at most {MAX_DEGREE})")
    p.add_argument("--lo", type=float, required=True)
    p.add_argument("--hi", type=float, required=True)
    p.add_argument("--samples", type=int, default=4000,
                   help="grid points on [lo, hi] (at least 3, at most 2^17 + 1)")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_ft_zeros)

    p = sub.add_parser("eigen", help="dual symbol spectrum at z = 1 and Condition E")
    add_orders(p)
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_eigen)

    p = sub.add_parser("dual", help="truncated-product dual transform values (CSV)")
    add_orders(p)
    p.add_argument("--levels", type=int, default=25,
                   help=f"product truncation depth (1 to 64; points x levels x (p + 1) at most {MAX_DUAL_WORK})")
    p.add_argument("--grid-span", type=int, default=4, help="xi range in multiples of 2*pi")
    p.add_argument("--grid-depth", type=int, default=4,
                   help="dyadic grid depth (2*span*2^depth + 1 points, at most 2^17 + 1)")
    p.add_argument("--quarklets", action="store_true", help="emit dual quarklet values instead")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_dual)

    p = sub.add_parser("decompose", help="split a fine frame into coarse + detail frames")
    add_orders(p, with_p=False)
    p.add_argument("--input", required=True, help=f"fine frame JSON (width at most {MAX_DEGREE + 1})")
    p.add_argument("--out-scaling", required=True)
    p.add_argument("--out-detail", required=True)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("reconstruct", help="merge coarse + detail frames one level up")
    add_orders(p, with_p=False)
    p.add_argument("--scaling", required=True, help="scaling frame JSON")
    p.add_argument("--detail", required=True, help="detail frame JSON")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("orthogonalize", help="orthogonalized order-1 quarklets")
    p.add_argument("--mt", type=int, required=True, help=f"dual spline order (at most {MAX_ORDER})")
    p.add_argument("--p", type=int, required=True, help=f"maximal degree (at most {MAX_DEGREE})")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--samples", type=int, default=256, help="samples per unit for csv output (1 to 2^17 + 1)")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_orthogonalize)

    p = sub.add_parser("sample", help="sample a named function on a uniform grid (CSV)")
    p.add_argument(
        "--function",
        choices=["bspline", "quark", "quarklet", "ortho-quarklet"],
        required=True,
    )
    p.add_argument("--m", type=int, default=1, help=f"spline order (at most {MAX_ORDER})")
    p.add_argument("--mt", type=int, default=1, help=f"dual spline order (at most {MAX_ORDER})")
    p.add_argument("--q", type=int, default=0, help=f"degree of the sampled member (at most {MAX_DEGREE})")
    p.add_argument("--start", type=float, required=True)
    p.add_argument("--end", type=float, required=True)
    p.add_argument("--count", type=int, default=257, help="grid points (2 to 2^17 + 1)")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_sample)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_bounds(args)
        return args.func(args)
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (KeyError, json.JSONDecodeError) as exc:
        print(f"error: malformed input ({exc})", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
