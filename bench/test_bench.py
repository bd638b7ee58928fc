"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root:  python3 -m pytest -q bench
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import LayerStats  # noqa: E402

TINY = {
    "hw-normal": lambda cls: cls(head=((6, 1),), body=((4, 2),), groups=2),
    "diag-kappa": lambda cls: cls(mix=((4, 2), (8, 1)), groups=2),
    "poly-small": lambda cls: cls(schedule=(
        ("unitary", 2, 1), ("doubly-stochastic", 2, 2), ("commuting-disc", 2, 1),
        ("quadratic-unitary", 2, 2), ("hw-type-poly", 2, 1)), groups=1),
    "cli-fixtures": lambda cls: cls(commands=[
        ("eigs", wl.fixture("quadratic_unitary_p")),
        ("hw", "--type", wl.fixture("linear_normal_p"), wl.fixture("linear_normal_q"))], passes=1),
}


def tiny(name: str, cls=None):
    return TINY[name](cls or wl.WORKLOADS[name])


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run(name, trace):
    report = harness.run(tiny(name), seed=3, seconds=0, trace=trace)
    assert report.correct, report.problems
    assert report.failed == 0 and report.attempted >= 1
    expected = harness.PER_LAYER if trace else harness.END_TO_END
    assert {k: u for k, (_, u) in report.metrics.items()} == dict(expected)
    assert all(math.isfinite(v) for v, _ in report.metrics.values())
    if not trace:
        assert report.metrics["verified_ratio"][0] == 1.0


def _corrupt_hw(report):
    return dataclasses.replace(report, lhs=report.lhs + 1.0)


def _corrupt_diag(result):
    diag, kappa = result
    return dataclasses.replace(diag, values=tuple(v + 1e-3 for v in diag.values)), kappa


def _corrupt_poly(report):
    return dataclasses.replace(report, holds=False)


def _corrupt_cli(result):
    rc, stdout = result
    obj = json.loads(stdout)
    obj["values"][0][0] += 1e-9
    return rc, json.dumps(obj)


@pytest.mark.parametrize("name, corrupt", [
    ("hw-normal", _corrupt_hw), ("diag-kappa", _corrupt_diag),
    ("poly-small", _corrupt_poly), ("cli-fixtures", _corrupt_cli),
])
def test_corrupted_result_is_counted_as_failed(name, corrupt):
    class Corrupted(wl.WORKLOADS[name]):
        def inputs(self, seed):
            groups = super().inputs(seed)
            self.target = groups[0][0]
            return groups

        def run(self, case):
            result = super().run(case)
            return corrupt(result) if case is self.target else result

    report = harness.run(tiny(name, Corrupted), seed=3, seconds=0, trace=False)
    assert report.failed == 1
    assert not report.correct
    assert report.metrics["verified_ratio"][0] == pytest.approx(1 - 1 / report.attempted)


@pytest.mark.parametrize("name", ["hw-normal", "diag-kappa", "poly-small"])
def test_fixed_seed_reproduces_call_counts(name):
    def counts(seed):
        report = harness.run(tiny(name), seed=seed, seconds=0, trace=True)
        assert report.correct, report.problems
        return {k: v for k, (v, _) in report.metrics.items()
                if k.endswith((".calls", ".calls_per_op", ".max_n"))}

    first = counts(5)
    assert any(v > 0 for v in first.values())
    assert counts(5) == first


def test_layer_map_counts():
    diag = harness.run(tiny("diag-kappa"), seed=4, seconds=0, trace=True).metrics
    assert diag["hw.min_cost_assignment.calls"][0] == 0
    assert diag["qmatrix.diagonalize.calls"][0] == 1
    poly = harness.run(tiny("poly-small"), seed=4, seconds=0, trace=True).metrics
    assert poly["clinalg.eigenvalues.calls_per_op"][0] >= 2


def test_self_time_from_parent_links():
    # a(0..100) -> b(10..40) -> b(20..30); a -> c(50..60); second op d(200..250)
    spans = [
        ["a", 0, 100, -1, 0, 0],
        ["b", 10, 40, 0, 0, 0],
        ["b", 20, 30, 1, 0, 0],
        ["c", 50, 60, 0, 0, 0],
        ["d", 200, 250, -1, 1, 0],
    ]
    stats = LayerStats(spans, [(0, 0, 100), (1, 195, 255)])
    assert stats.calls == {"a": 1, "b": 2, "c": 1, "d": 1}
    assert stats.total_ns == {"a": 100, "b": 40, "c": 10, "d": 50}
    assert stats.self_ns == {"a": 60, "b": 30, "c": 10, "d": 50}
    assert stats.coverage == {0: 1.0, 1: 50 / 60}
    assert stats.value("b.calls") == 1.0  # per operation


def test_tail_percentile():
    values = list(range(1, 101))
    assert harness.tail(values) == (90, 90.0)
    assert harness.tail([3, 1, 2]) == (3, 100.0)


def test_benchmark_json_matches_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: cls.why for name, cls in wl.WORKLOADS.items()}
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(harness.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(harness.PER_LAYER)


def test_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "hw-normal", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
