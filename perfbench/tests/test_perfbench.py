"""Tests of the repository benchmark (``perfbench``).

Run from the repository root::

    python -m pytest perfbench/tests -q

The end-to-end cases run every workload at its minimum length (one
second of timed work), so the whole file takes a few minutes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(1, str(ROOT / "src"))

import harness  # noqa: E402
import spans  # noqa: E402


def run_bench(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(Path("perfbench") / "run.py"), "--workload",
         workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


# ----------------------------------------------------------------------
# BENCHMARK.json agrees with the code
# ----------------------------------------------------------------------
def test_benchmark_json_names_every_metric_with_its_unit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
    assert not set(harness.UNLISTED_WORKLOADS) & set(harness.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        harness.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        harness.LAYER_UNITS
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


# ----------------------------------------------------------------------
# Output checks catch corrupted results
# ----------------------------------------------------------------------
def test_corrupted_eval_result_is_caught():
    from eval_worker import check_eval

    reference = (81.49999999999999, 0.484322104837854)
    assert check_eval([reference, reference], reference)["ok"]
    corrupted = (reference[0], math.nextafter(reference[1], 1.0))
    check = check_eval([reference, corrupted, reference], reference)
    assert not check["ok"]
    assert check["mismatched"] == 1 and check["first_mismatches"] == [1]


class _Encoder:
    """Offline stand-in: a fixed float32 row per graph size."""

    def embed(self, graphs):
        import numpy as np

        return np.array([[g.num_nodes * 0.1, g.num_edges / 3.0]
                         for g in graphs], dtype=np.float32)


def _samples(rows_fn):
    import numpy as np
    from serve_client import GRAPHS_PER_REQUEST

    from repro.graph import Graph
    from repro.serve import payload_from_graph

    graphs = [Graph(n, np.array([[0, 1]]), np.ones((n, 2)))
              for n in range(2, 2 + GRAPHS_PER_REQUEST)]
    body = json.dumps({"graphs": [payload_from_graph(g)
                                  for g in graphs]}).encode()
    rows = _Encoder().embed(graphs).tolist()
    return [(body, rows_fn(rows))]


def test_served_rows_equal_to_offline_pass():
    from serve_client import check_rows

    assert check_rows(_samples(lambda rows: rows), _Encoder()) == []


def test_corrupted_served_row_is_caught():
    import numpy as np
    from serve_client import check_rows

    def corrupt(rows):
        rows = [list(r) for r in rows]
        rows[2][1] = float(np.nextafter(np.float32(rows[2][1]),
                                        np.float32(1e9)))
        return rows

    assert check_rows(_samples(corrupt), _Encoder()) == [0]


# ----------------------------------------------------------------------
# Span self times
# ----------------------------------------------------------------------
def test_self_time_subtracts_children_and_windows_assign_by_start():
    recorded = [["outer", 0.0, 10.0, -1, 1, None, None],
                ["inner", 2.0, 5.0, 0, 1, None, None],
                ["inner", 6.0, 7.0, 0, 1, None, None],
                ["leaf", 3.0, 4.0, 1, 1, None, None]]
    assert spans.self_times(recorded) == [6.0, 2.0, 1.0, 1.0]
    assert spans.assign_to_windows(recorded, [(0.0, 2.5), (2.5, 8.0)]) == \
        [0, 0, 1, 1]


def test_recorder_wraps_and_restores():
    class Layer:
        def forward(self, x):
            return self.inner(x) + 1

        def inner(self, x):
            return x * 2

    recorder = spans.SpanRecorder()
    original = Layer.__dict__["forward"]
    recorder.wrap(Layer, "forward", "layer.forward")
    recorder.wrap(Layer, "inner", "layer.inner")
    assert Layer().forward(3) == 7
    recorder.unwrap_all()
    assert Layer.__dict__["forward"] is original
    names = [(s[spans.NAME], s[spans.PARENT]) for s in recorder.spans]
    assert names == [("layer.forward", -1), ("layer.inner", 0)]


# ----------------------------------------------------------------------
# Every workload at minimum length
# ----------------------------------------------------------------------
@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload",
                         harness.WORKLOADS + harness.UNLISTED_WORKLOADS)
def test_workload_prints_every_metric_with_unit(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode in (0, 1), proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is (proc.returncode == 0)
    assert result["attempted"] >= 1
    if workload != "eval-svm":   # eval-svm: see the known-defect test
        assert result["correct"] is True and result["failed"] == 0
    units = harness.LAYER_UNITS if trace else harness.E2E_UNITS
    if trace and workload == "eval-svm":
        units = {**units, **harness.EVAL_LAYER_UNITS}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        units
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if trace:
        assert values["run.coverage_pct"] >= 95.0
    elif result["correct"]:
        assert all(value > 0 for value in values.values())
    assert not list((ROOT / ".perfbench").glob(f"run-{workload}-3-*"))


def test_fails_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("train-gradgcl", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


@pytest.mark.xfail(strict=True, reason=(
    "known program defect: for some protocol seeds the lockstep SVM "
    "engine's (mean, std) differs from engine='reference' by one test "
    "sample (seed 101 on the benchmark checkpoint); eval-svm then reports "
    "correct=false and exits 1"))
def test_eval_svm_matches_reference_on_seed_101():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eval-svm",
         "--seed", "101", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
