"""Closed-loop measurement, output checks and metrics for one workload run.

One caller runs the workload's operations back to back (a closed loop),
whole groups at a time, until the run's seconds have passed.  Operation
times are CPU seconds of this process and its children: with BLAS pinned
to one thread every operation is single-threaded, and CPU time leaves out
the CPU steal that makes wall-clock times of identical work vary twofold
on shared virtual machines.

CPU time still drifts with the machine, so plain runs scale it by the
workload's probe (see ``probes.py``): times read as on a machine where the
probe takes the workload's ``reference_probe_s``.  Unscaled figures are
printed alongside.

A traced run (``trace=True``) runs every operation twice on the same
input, once plain and once with the tracer installed, alternating which
goes first.  The per-layer metrics come from the traced copies, and the
ratio of the two CPU totals is the tracing overhead.
"""

from __future__ import annotations

import bisect
import itertools
import os
import platform
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field

import numpy as np
import scipy

from probes import cpu_seconds
from tracer import LayerStats, Tracer
from workloads import Case, Workload, digest

SETUP_REPEATS = 3
MIN_TOP_COVERAGE = 0.95
PROBE_WINDOW = 3  # probes on each side of an operation that set its scale
# an operation whose wall time exceeds its CPU time by more than this share
# lost the CPU while it ran; a pause that lands between spans is not work
# the spans missed, so such operations are left out of the coverage check
MAX_STEAL_SHARE = 0.05

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("verified_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

_CLINALG = ("eigenvalues", "eigen_full", "inverse", "singular_values", "hermitian_eigenvalues")
PER_LAYER = (
    ("hw.min_cost_assignment.calls", "count"),
    ("hw.min_cost_assignment.ms", "ms"),
    ("hw.min_cost_assignment.self_ms", "ms"),
    ("hw.min_cost_assignment.max_n", "count"),
    ("hw.hw_report.self_ms", "ms"),
    ("qmatrix.diagonalize.calls", "count"),
    ("qmatrix.diagonalize.ms", "ms"),
    ("qmatrix.diagonalize.self_ms", "ms"),
    ("qmatrix.condition_number.ms", "ms"),
    ("qmatrix.standard_eigenvalues.calls", "count"),
    ("qmatrix.standard_eigenvalues.ms", "ms"),
    ("qmatrix.standard_eigenvalues.self_ms", "ms"),
    ("qmatrix.adjoint.ms", "ms"),
    *((f"clinalg.{fn}.{stat}", unit) for fn in _CLINALG
      for stat, unit in (("calls", "count"), ("ms", "ms"))),
    ("clinalg.eigenvalues.calls_per_op", "count"),
    ("qpoly.monicize.ms", "ms"),
    ("qpoly.companion.ms", "ms"),
    ("qpoly.complex_companion.ms", "ms"),
    ("qpoly.standard_eigenvalues_poly.calls", "count"),
    ("qpoly.standard_eigenvalues_poly.ms", "ms"),
    ("qpoly.standard_eigenvalues_poly.self_ms", "ms"),
    ("qpoly.standard_eigenvalues_poly.crosscheck_ms", "ms"),
    ("qmatrix.is_normal.ms", "ms"),
    ("qmatrix.is_unitary.ms", "ms"),
    ("qmatrix.is_positive_semidefinite.ms", "ms"),
    ("cli.import_ms", "ms"),
    ("cli.main.ms", "ms"),
    ("matio.load_document.ms", "ms"),
    ("matio.emit_report.ms", "ms"),
    ("trace.op_ms", "ms"),
    ("trace.top_coverage_min", "ratio"),
    ("trace.overhead_ratio", "ratio"),
)


@dataclass
class Sample:
    case: Case
    result: object
    error: str | None
    cpu_s: float
    wall_s: float
    traced: bool
    op_id: int
    ok: bool = False
    scale: float = 1.0  # reference probe time over the local probe median


@dataclass
class Report:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    notes: list[str] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)  # each makes the run incorrect

    def result_line(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in self.metrics.items()},
        }


def _timed(workload: Workload, case: Case, tracer: Tracer | None, op_id: int) -> Sample:
    if tracer is not None:
        tracer.install()
    wall0, cpu0 = time.perf_counter(), cpu_seconds()
    try:
        if tracer is None:
            result = workload.run(case)
        else:
            result = workload.run_traced(case, tracer, op_id)
        error = None
    except Exception:  # a raising operation is counted as failed, not fatal
        result, error = None, traceback.format_exc(limit=-2)
    cpu, wall = cpu_seconds() - cpu0, time.perf_counter() - wall0
    if tracer is not None:
        tracer.uninstall()
    return Sample(case, result, error, cpu, wall, tracer is not None, op_id)


def measure(workload: Workload, groups: list[list[Case]], seconds: float,
            tracer: Tracer | None = None) -> tuple[list[Sample], list[float]]:
    """Run the head group once, then cycle the others until ``seconds`` pass.

    Whole groups keep the mix of sizes the same in every run, and a head of
    slow operations (the n=64 pairs of hw-normal) gives every run the same
    number of them whatever the machine's speed.  Plain runs interleave
    speed probes and set each sample's ``scale``; returns the samples and
    the probe times.
    """
    samples: list[Sample] = []
    probes: list[tuple[int, float]] = []  # (samples before the probe, seconds)
    since_probe = workload.probe_every_s
    start = time.perf_counter()
    order = itertools.chain(groups[:1], itertools.cycle(groups[1:] or groups[:1]))
    for g, group in enumerate(order):
        if g > 0 and time.perf_counter() - start >= seconds:
            break
        for case in group:
            if tracer is None:
                if since_probe >= workload.probe_every_s:
                    probes.append((len(samples), workload.probe()))
                    since_probe = 0.0
                samples.append(_timed(workload, case, None, -1))
                since_probe += samples[-1].cpu_s
                continue
            op_id = len(samples)
            for traced in (False, True) if op_id % 4 == 0 else (True, False):
                samples.append(_timed(workload, case, tracer if traced else None, op_id))
    if tracer is None:
        probes.append((len(samples), workload.probe()))
        positions = [pos for pos, _ in probes]
        for k, s in enumerate(samples):
            j = bisect.bisect_right(positions, k)  # probes[j - 1] ran before sample k
            near = probes[max(j - PROBE_WINDOW, 0):j + PROBE_WINDOW]
            s.scale = workload.reference_probe_s / statistics.median(t for _, t in near)
    return samples, [t for _, t in probes]


def check_all(workload: Workload, samples: list[Sample]) -> list[str]:
    """Check every result; returns one line per failed operation."""
    failures = []
    for s in samples:
        reason = s.error
        if reason is None:
            try:
                reason = workload.check(s.case, s.result)
            except Exception:  # a result the check cannot read is a failure
                reason = traceback.format_exc(limit=-2)
        s.ok = reason is None
        if reason is not None:
            failures.append(f"{s.case.kind} n={s.case.size}: {reason.strip()}")
    return failures


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples above it.

    Returns (value, percentile); with ten samples or fewer, the maximum.
    """
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB


def environment(workload: Workload, seed: int) -> dict:
    def blas(module) -> str:
        deps = module.show_config(mode="dicts").get("Build Dependencies", {})
        info = deps.get("blas", {})
        return f"{info.get('name', '?')} {info.get('version', '?')}"

    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np),
        "scipy_blas": blas(scipy),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "seed": seed,
        "workload": workload.name,
        "why": workload.why,
        "loop": "closed, one caller",
        "clock": "CPU seconds of the process and its children, scaled by the probe",
    }


def run(workload: Workload, seed: int, seconds: float, trace: bool) -> Report:
    setup_s, setup_raw, digests = [], [], []
    probe = workload.probe()
    for _ in range(SETUP_REPEATS):
        cpu0 = cpu_seconds()
        groups = workload.inputs(seed)
        workload.warm_up(groups)
        setup_raw.append(cpu_seconds() - cpu0)
        before, probe = probe, workload.probe()
        setup_s.append(setup_raw[-1] * 2 * workload.reference_probe_s / (before + probe))
        digests.append(digest(groups))
    notes, problems = [], []
    if len(set(digests)) != 1:
        problems.append("the same seed gave different inputs")

    tracer = Tracer() if trace else None
    wall0 = time.perf_counter()
    samples, probes = measure(workload, groups, seconds, tracer)
    wall = time.perf_counter() - wall0
    failures = check_all(workload, samples)
    problems += [f"failed: {line}" for line in failures[:10]]

    plain = [s for s in samples if not s.traced]
    if trace:
        traced = [s for s in samples if s.traced]
        stats = LayerStats(tracer.spans, tracer.ops)
        overhead = sum(s.cpu_s for s in plain) / max(sum(s.cpu_s for s in traced), 1e-12)
        metrics = {name: (stats.value(name), unit) for name, unit in PER_LAYER
                   if not name.startswith("trace.")}
        metrics["trace.op_ms"] = (stats.op_ms, "ms")
        metrics["trace.overhead_ratio"] = (overhead, "ratio")
        if any(s.op_id not in stats.coverage for s in traced):
            problems.append("a traced operation recorded no window")
        unstolen = [stats.coverage[s.op_id] for s in traced if s.op_id in stats.coverage
                    and s.wall_s <= (1.0 + MAX_STEAL_SHARE) * s.cpu_s]
        coverage = min(unstolen or stats.coverage.values(), default=0.0)
        metrics["trace.top_coverage_min"] = (coverage, "ratio")
        notes.append(f"top-level span coverage checked on {len(unstolen)} of {len(traced)} "
                     "traced operations; the rest lost the CPU while running")
        if coverage < MIN_TOP_COVERAGE:
            problems.append(f"top-level spans cover under {MIN_TOP_COVERAGE:.0%} "
                            "of an operation")
    else:
        cpu = [s.cpu_s * s.scale for s in plain]
        raw = [s.cpu_s for s in plain]
        value, pct = tail(cpu)
        verified = sum(s.ok for s in plain)
        metrics = {
            "ops_per_s": (verified / max(sum(cpu), 1e-12), "1/s"),
            "latency_p50_ms": (statistics.median(cpu) * 1e3, "ms"),
            "latency_tail_ms": (value * 1e3, "ms"),
            "verified_ratio": (verified / len(plain), "ratio"),
            "setup_s": (statistics.median(setup_s), "s"),
            "peak_rss_mb": (peak_rss_mb(workload.children_rss), "MB"),
        }
        notes.append(f"latency_tail_ms is p{pct:.1f} of {len(cpu)} samples")
        notes.append(f"unscaled: ops_per_s {verified / max(sum(raw), 1e-12):.6g}, "
                     f"latency_p50_ms {statistics.median(raw) * 1e3:.6g}, "
                     f"latency_tail_ms {tail(raw)[0] * 1e3:.6g}, "
                     f"setup_s {statistics.median(setup_raw):.6g}")
        notes.append(f"probe median {statistics.median(probes) * 1e3:.4g} ms over "
                     f"{len(probes)} probes (reference {workload.reference_probe_s * 1e3:g} ms)")

    sizes: dict[int, int] = {}
    for s in plain:
        sizes[s.case.size] = sizes.get(s.case.size, 0) + 1
    notes.append(f"{len(samples)} operations in {wall:.2f} s wall, "
                 f"{sum(s.cpu_s for s in samples):.2f} s CPU; plain ops by size {sizes}")
    failed = sum(not s.ok for s in samples)
    return Report(failed == 0 and not problems, len(samples), failed, metrics, notes, problems)
