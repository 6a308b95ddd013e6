"""Tests of the benchmark itself: seeded inputs, tracing, output contract, smoke runs."""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT, timeout=60):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_follow_the_seed(name):
    cls = workloads.WORKLOADS[name]
    assert cls(7).items == cls(7).items
    assert cls(7).items != cls(8).items


def test_design_box_is_the_documented_one():
    box = workloads.design_box(smoke=False)
    assert len(box) == len(set(box)) >= 100
    assert max(p for _, _, p in box) == 8
    assert all(m <= mt and (m + mt) % 2 == 0 for m, mt, _ in box)
    assert (5, 7, 8) in box


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_and_untraced_outputs_are_identical(name):
    workload = workloads.WORKLOADS[name](3, smoke=True)
    workload.setup()
    plain = run.measure(workload, tracing.NullTracer(), 0, 1)
    tracer = tracing.Tracer()
    traced = run.measure(workload, tracer, 0, 1, collect_counts=True)
    assert plain.failed == traced.failed == 0
    assert plain.digest.digest() == traced.digest.digest()
    assert len(plain.scales) == plain.attempted and all(s > 0 for s in plain.scales)
    names = {s.name for s in tracer.spans} - {"op"}
    assert names == set(workload.timings)
    assert {s.op_id for s in tracer.spans} == set(range(traced.attempted))
    assert set(workload.fold_counts(traced.count_rows)) == set(workload.counts)


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer()
    with tracer.op(0):
        tracer.call("leaf", time.sleep, 0.01)
    self_s = tracer.self_times()
    op = next(s for s in tracer.spans if s.name == "op")
    assert self_s[(0, "leaf")] >= 0.01
    assert self_s[(0, "op")] == pytest.approx(op.end - op.start - self_s[(0, "leaf")])


class _Flaky(workloads.Workload):
    """Odd items fail their check, item 2 raises inside the operation."""

    def __init__(self):
        super().__init__(0)
        self.items = [0, 1, 2, 3]

    def op(self, item, tracer):
        if item == 2:
            raise RuntimeError("boom")
        return workloads.OpResult(str(item))

    def check(self, item, result):
        return item % 2 == 0


def test_failed_checks_are_counted_not_fatal():
    out = run.measure(_Flaky(), tracing.NullTracer(), 0, 1)
    assert (out.attempted, out.failed) == (4, 3)


def test_haar_floor_holds_and_catches_a_shifted_value():
    approx = workloads.duals.dual_quark_ft(1, 1, 0, 20, workloads.duals.dyadic_grid(1, 3))
    assert workloads.haar_floor_excess(approx) <= 0
    t = approx.grid[3]
    approx.values[t] = approx.values[t] + 3 * 2.0**-20
    assert workloads.haar_floor_excess(approx) > 0


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_trace_run_reports_every_layer_metric(name):
    start = time.perf_counter()
    result = _result(bench("--workload", name, "--seed", "1", "--seconds", "0.2",
                           "--trace", "1", "--smoke"))
    assert time.perf_counter() - start < 30
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec


def test_smoke_run_reports_every_end_to_end_metric():
    start = time.perf_counter()
    result = _result(bench("--workload", "design_sweep", "--seed", "1", "--seconds", "0.2",
                           "--trace", "0", "--smoke"))
    assert time.perf_counter() - start < 30
    spec = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_counts_repeat_for_a_seed():
    args = ("--workload", "frame_spectral", "--seed", "5", "--seconds", "0.2", "--trace", "1",
            "--smoke")
    a, b = (_result(bench(*args))["metrics"] for _ in range(2))
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    assert [a[k] for k in counts] == [b[k] for k in counts]


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", "results"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "design_sweep", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
