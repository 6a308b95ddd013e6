"""Benchmark of the quarklets library: one closed-loop client, two workloads.

Usage (from the repository root):

    python3 bench/run.py --workload design_sweep --seed 1 --seconds 40 --trace 0

One process and one thread run operations back to back over whole passes of
the workload's seeded inputs: at least one pass, then more while the next one
fits in ``--seconds``.  A pass of ``design_sweep`` takes 20 to 30 s on a
2-core x86_64 host, so that workload measures one pass.  Every operation's
exact output is checked; a failed check is counted, never fatal.

Operation times are reported at a fixed reference host speed.  On a host
shared with other tenants the same operation runs up to 1.7 times slower
while a neighbour is busy, and that load changes within a second.  So a
fixed calibration kernel (exact ``Fraction`` and dict work on the standard
library alone, no library code) is timed between every two operations, and
each operation's wall time is scaled by ``REFERENCE_KERNEL_S`` over the mean
of the kernel times on either side of it.  A reported millisecond is a
millisecond on a host that runs the kernel in ``REFERENCE_KERNEL_S``: a
change to the library moves it, the neighbours' load mostly does not.
``setup_s`` is plain wall time (see ``setup_seconds``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the passes
untraced and then traced, each for half the time, and prints the per-layer
metrics: self time per operation of the calls into each layer (ms, scaled
like the operation), size counts of the returned objects, and the tracing
overhead.  The spans are written to ``bench/results/`` when the run ends.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above it
are for people.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()  # the earliest point of the process this script sees

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
MIN_PASSES = 1
SETUP_REPEATS = 7
# Wall time of one calibration kernel run on the reference host (a 2-core
# x86_64 VM, CPython 3, at its usual load); scaled times are relative to it.
REFERENCE_KERNEL_S = 1.25e-3
KERNEL_REPEATS = 9

E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's tests")
    parser.add_argument("--setup-only", action="store_true",
                        help="import and set up, then exit (one setup_s sample)")
    return parser.parse_args(argv)


def git_sha() -> str:
    """The commit checked out at the repository root, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def calibration_kernel() -> Fraction:
    """Fixed exact arithmetic on the standard library alone: growing Fractions, dicts, tuples."""
    acc = Fraction(0)
    rows = {}
    for i in range(1, 120):
        a = Fraction(i * 7919 % 97 - 48, i % 23 + 1)
        acc = acc * Fraction(3, 4) + a
        if i % 16 == 0:
            acc = Fraction(acc.numerator % 10**12, acc.denominator % 10**9 + 1)
        rows[(i, i % 5)] = (a, acc, a * acc)
    return acc


def kernel_seconds() -> float:
    """Median wall time of ``KERNEL_REPEATS`` calibration kernel runs.

    The garbage collector is off meanwhile, so the kernel's time follows the
    host's speed and not the number of objects the operations left alive.
    """
    samples = []
    gc.disable()
    try:
        for _ in range(KERNEL_REPEATS):
            t0 = time.perf_counter()
            calibration_kernel()
            samples.append(time.perf_counter() - t0)
    finally:
        gc.enable()
    return statistics.median(samples)


class Run:
    """Outcome of a measured loop: scaled latencies, failures, counts, outputs digest."""

    def __init__(self):
        self.latencies: list[float] = []  # seconds at reference speed, one per op id
        self.scales: list[float] = []     # reference speed over host speed, one per op id
        self.failed = 0
        self.passes = 0
        self.count_rows: list[dict] = []
        self.digest = hashlib.sha256()
        self.errors: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def ops_per_s(self) -> float:
        """Checked operations per second of scaled operation time."""
        return (self.attempted - self.failed) / sum(self.latencies)

    def latency_ms(self) -> tuple[float, float]:
        """Median and p90 of the scaled latency over every operation of the run."""
        ms = [x * 1000 for x in self.latencies]
        p90 = statistics.quantiles(ms, n=10)[8] if len(ms) >= 2 else ms[0]
        return statistics.median(ms), p90


def measure(workload, tracer, budget: float, min_passes: int, collect_counts: bool = False) -> Run:
    """Run whole passes over ``workload.items``: ``min_passes``, then while the next fits."""
    out = Run()
    start = time.perf_counter()
    kernel_before = kernel_seconds()
    while True:
        pass_start = time.perf_counter()
        for item in workload.items:
            workload.before_op()
            result = None
            with tracer.op(out.attempted):
                t0 = time.perf_counter()
                try:
                    result = workload.op(item, tracer)
                except Exception:  # a failing operation is counted, the run goes on
                    out.errors.append(traceback.format_exc())
                t1 = time.perf_counter()
            kernel_after = kernel_seconds()
            scale = 2 * REFERENCE_KERNEL_S / (kernel_before + kernel_after)
            kernel_before = kernel_after
            out.latencies.append((t1 - t0) * scale)
            out.scales.append(scale)
            try:
                ok = result is not None and workload.check(item, result)
            except Exception:
                out.errors.append(traceback.format_exc())
                ok = False
            if not ok:
                out.failed += 1
                if result is not None:
                    out.errors.append(f"check failed for {item!r}"[:300])
            if out.passes == 0:
                out.digest.update((result.output if result is not None else "<failed>").encode())
                if collect_counts and result is not None:
                    out.count_rows.append(workload.op_counts(item, result))
        out.passes += 1
        now = time.perf_counter()
        if out.passes >= min_passes and now - start + (now - pass_start) > budget:
            return out


def setup_seconds(args) -> float:
    """Median, over fresh processes, of the time from script start to set-up done.

    Not scaled to the reference speed: a fresh process spends much of its
    set-up loading files and mapping memory, which the kernel does not track.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
    if args.smoke:
        cmd.append("--smoke")
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=120)
        samples.append(float(proc.stdout.split()[-1]))
    return statistics.median(samples)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def layer_metrics(workload, tracer, run: Run, plain: Run) -> dict:
    """Every per-layer metric of every workload; a layer this workload never calls reads 0."""
    from workloads import WORKLOADS

    totals: dict[str, float] = {}
    for (op_id, name), seconds in tracer.self_times().items():
        totals[name] = totals.get(name, 0.0) + seconds * run.scales[op_id]
    metrics = {}
    for cls in WORKLOADS.values():
        for name in cls.timings:
            metrics[f"{name}_ms"] = {"value": totals.get(name, 0.0) * 1000 / run.attempted,
                                     "unit": "ms"}
    counts = workload.fold_counts(run.count_rows) if run.count_rows else {}
    for cls in WORKLOADS.values():
        for name in cls.counts:
            unit = "ratio" if name == "duals.refine_defect" else "count"
            metrics[name] = {"value": counts.get(name, 0), "unit": unit}
    metrics["trace.overhead"] = {"value": run.ops_per_s() / plain.ops_per_s(), "unit": "ratio"}
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "quarklets" / "__init__.py").is_file():
        print(f"error: no quarklets sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from tracing import NullTracer, Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed, smoke=args.smoke)
    workload.setup()
    if args.setup_only:
        print(time.perf_counter() - STARTED)
        return 0

    import numpy

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "sizes": workload.sizes(),
    }

    if args.trace == 0:
        run = measure(workload, NullTracer(), args.seconds, MIN_PASSES)
        p50, p90 = run.latency_ms()
        values = {
            "setup_s": setup_seconds(args),
            "ops_per_s": run.ops_per_s(),
            "op_p50_ms": p50,
            "op_p90_ms": p90,
            "peak_rss_mb": peak_rss_mb(),
        }
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
        attempted, failed = run.attempted, run.failed
        print(f"fail_ratio = {failed / attempted} ratio ({failed} of {attempted} ops)")
        print(f"latency samples = {attempted} ops, {len(workload.items)} inputs x {run.passes} passes")
        print(f"host speed = {statistics.median(run.scales)} of reference (median over ops)")
        wall_ms = [1000 * x / s for x, s in zip(run.latencies, run.scales)]
        print(f"unscaled wall time: op_p50_ms = {statistics.median(wall_ms)}, "
              f"ops_per_s = {(attempted - failed) * 1000 / sum(wall_ms)}")
    else:
        plain = measure(workload, NullTracer(), args.seconds / 2, 1)
        tracer = Tracer()
        run = measure(workload, tracer, args.seconds / 2, 1, collect_counts=True)
        if plain.digest.digest() != run.digest.digest():
            run.failed += 1
            run.errors.append("traced and untraced outputs differ")
        metrics = layer_metrics(workload, tracer, run, plain)
        attempted = plain.attempted + run.attempted
        failed = plain.failed + run.failed
        RESULTS.mkdir(exist_ok=True)
        trace_path = RESULTS / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps(
            {"provenance": provenance, "metrics": metrics, "spans": tracer.to_json()}) + "\n")
        print(f"spans = {len(tracer.spans)} written to {trace_path.relative_to(ROOT)}")
    provenance["passes"] = run.passes
    provenance["outputs_sha256"] = run.digest.hexdigest()
    for err in run.errors[:5]:
        print(err, file=sys.stderr)
    print("provenance = " + json.dumps(provenance, sort_keys=True))
    for name, m in metrics.items():
        print(f"{name} = {m['value']} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
