"""Seeded inputs, the timed operation and its output check for each workload.

Inputs depend only on the seed.  The library receives only the generated
matrices and polynomials; every library call goes through a module
attribute (``qhw.hw_check``), so the tracer's wrappers see it.

A workload's inputs are a list of groups.  The harness runs whole groups,
so every run has the same mix of sizes and kinds however many groups fit in
its time.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.optimize

import quathw.cli as qcli
import quathw.generators as gen
import quathw.golden as qgolden
import quathw.hw as qhw
import quathw.qmatrix as qm
import quathw.qpoly as qp
from quathw.config import DEFAULT_TOLERANCES as TOLS
from quathw.qmatrix import QMatrix
from quathw.qpoly import QMatrixPolynomial
import probes
from tracer import CHILD_MARKER

BENCH_DIR = Path(__file__).resolve().parent


@dataclass(frozen=True)
class Case:
    kind: str
    size: int
    args: tuple
    expect: object = None


def _lex(values) -> list[complex]:
    return sorted((complex(z) for z in values), key=lambda z: (z.real, z.imag))


def _spectrum_mismatch(got, want) -> str | None:
    got, want = _lex(got), _lex(want)
    scale = 1.0 + max((abs(z) for z in want), default=0.0)
    if len(got) != len(want):
        return f"spectrum has {len(got)} values, expected {len(want)}"
    worst = max((abs(g - w) for g, w in zip(got, want)), default=0.0)
    if worst > 1e-8 * scale:
        return f"spectrum differs from the generated one by {worst:.3e}"
    return None


def _digest_update(h, obj) -> None:
    if isinstance(obj, QMatrix):
        h.update(obj.c1.tobytes())
        h.update(obj.c2.tobytes())
    elif isinstance(obj, QMatrixPolynomial):
        _digest_update(h, obj.coefficients)
    elif isinstance(obj, Case):
        _digest_update(h, (obj.kind, obj.size, obj.args, obj.expect))
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for item in obj:
            _digest_update(h, item)
        h.update(b"]")
    else:
        h.update(repr(obj).encode())


def digest(groups) -> str:
    """Fingerprint of generated inputs; equal seeds must give equal digests."""
    h = hashlib.sha256()
    _digest_update(h, groups)
    return h.hexdigest()


class Workload:
    name = ""
    why = ""
    children_rss = False  # peak RSS is that of child processes
    # the probe is fixed work shaped like the workload's (see probes.py);
    # reference_probe_s is about its CPU time on an idle 2-vCPU Intel Xeon
    # virtual machine with Python 3.11, numpy 2.4 and OpenBLAS 0.3
    reference_probe_s = 0.029
    probe_every_s = 0.5  # CPU seconds of operations between two probes

    def probe(self) -> float:
        """CPU seconds of the fixed work that gauges the machine's speed."""
        return probes.kernel()

    def inputs(self, seed: int) -> list[list[Case]]:
        raise NotImplementedError

    def warm_up(self, groups: list[list[Case]]) -> None:
        self.run(groups[0][0])

    def run(self, case: Case):
        raise NotImplementedError

    def run_traced(self, case: Case, tracer, op_id: int):
        return tracer.call(op_id, self.run, case)

    def check(self, case: Case, result) -> str | None:
        """None when ``result`` is correct for ``case``, else the reason."""
        raise NotImplementedError


class HwNormal(Workload):
    name = "hw-normal"
    why = ("hw_check on random normal pairs, two at n=64 then n=32: the assignment "
           "kernel is nearly all of the op time, so assignment changes show here first")

    pool = 2  # random unitaries per size

    def __init__(self, head=((64, 2),), body=((32, 10),), groups=32):
        self.head, self.body, self.groups = head, body, groups
        self._spectra: dict[Case, tuple] = {}

    def inputs(self, seed):
        rng = gen.rng_for(seed, 1)
        # the eigenvector basis does not affect the assignment, so a small
        # pool of unitaries (the costly part of generation) is shared by
        # pairs with distinct random spectra
        pools = {n: [gen.random_unitary_qmatrix(rng, n) for _ in range(self.pool)]
                 for n, _ in self.head + self.body}

        def group(mix):
            cases = []
            for n, count in mix:
                for _ in range(count):
                    i, j = rng.choice(self.pool, 2, replace=False)
                    u, v = pools[n][i], pools[n][j]
                    lam = gen.upper_half_values(rng, n)
                    mu = gen.upper_half_values(rng, n)
                    a = u @ QMatrix.diagonal(lam) @ u.h
                    b = v @ QMatrix.diagonal(mu) @ v.h
                    cases.append(Case("hw", n, (a, b), (tuple(lam), tuple(mu))))
            return cases

        # n=64 takes 1-3 s per pair, so a run makes a fixed two of them (the
        # head) and fills the rest of its time with n=32 pairs
        return [group(self.head)] + [group(self.body) for _ in range(self.groups)]

    def warm_up(self, groups):
        # a fixed tiny pair: loads everything the op touches at a cost that
        # does not depend on the seed
        qhw.hw_check(QMatrix.diagonal([1 + 1j, 2.0, -1 + 0.5j]),
                     QMatrix.diagonal([0.5j, 1.0, 2 + 2j]))

    def run(self, case):
        return qhw.hw_check(*case.args)

    def check(self, case, report):
        if not report.holds:
            return "hw_check reports the inequality violated"
        if case not in self._spectra:
            a, b = case.args
            self._spectra[case] = (qm.standard_eigenvalues(a).values,
                                   qm.standard_eigenvalues(b).values)
        lam, mu = self._spectra[case]
        for got, want in zip((lam, mu), case.expect):
            bad = _spectrum_mismatch(got, want)
            if bad:
                return bad
        cost = np.abs(np.subtract.outer(np.array(lam), np.array(mu))) ** 2
        rows, cols = scipy.optimize.linear_sum_assignment(cost)
        best = float(cost[rows, cols].sum())
        if abs(report.lhs - best) > TOLS.tie * (1.0 + abs(best)):
            return f"lhs {report.lhs!r} differs from the scipy optimum {best!r}"
        return None


class DiagKappa(Workload):
    name = "diag-kappa"
    why = ("diagonalize then condition_number at n=32 and 64 with kappa(X)=10: "
           "kernel SVDs dominate and no assignment runs")

    pool = 3  # random unitaries per size
    kappa = 10.0  # condition number of every eigenvector matrix

    def __init__(self, mix=((32, 4), (64, 1)), groups=32):
        self.mix, self.groups = mix, groups

    def inputs(self, seed):
        rng = gen.rng_for(seed, 2)
        # random_diagonalizable_qmatrix draws Ginibre X until kappa < 50, which
        # almost never happens at n >= 48; X = U diag(s) V* fixes kappa instead
        pools = {n: [gen.random_unitary_qmatrix(rng, n) for _ in range(self.pool)]
                 for n, _ in self.mix}
        out = []
        for _ in range(self.groups):
            group = []
            for n, count in self.mix:
                s = np.geomspace(1.0, 1.0 / self.kappa, n)
                for _ in range(count):
                    i, j = rng.choice(self.pool, 2, replace=False)
                    u, v = pools[n][i], pools[n][j]
                    x = u @ QMatrix.diagonal(s) @ v.h
                    x_inv = v @ QMatrix.diagonal(1.0 / s) @ u.h
                    base = gen.upper_half_values(rng, n - n // 4)
                    repeats = rng.choice(len(base), n // 4, replace=False)
                    values = base + [base[k] for k in repeats]
                    a = x @ QMatrix.diagonal(values) @ x_inv
                    group.append(Case("diag", n, (a,), tuple(values)))
            out.append(group)
        return out

    def warm_up(self, groups):
        self.run(Case("diag", 3, (QMatrix.diagonal([1.0, 1 + 1j, 1 + 1j]),)))

    def run(self, case):
        diag = qm.diagonalize(case.args[0])
        return diag, qm.condition_number(diag.transform)

    def check(self, case, result):
        diag, kappa = result
        if not diag.residual <= TOLS.diag_verify:
            return f"diagonalization residual {diag.residual:.3e} above diag_verify"
        if not (np.isfinite(kappa) and kappa >= 1.0 - 1e-9):
            return f"condition number {kappa!r} is not a finite value >= 1"
        return _spectrum_mismatch(diag.values, case.expect)


# (kind, polynomial size, degree); every companion has order <= 16
POLY_SCHEDULE = (
    ("unitary", 2, 1), ("unitary", 2, 4), ("unitary", 4, 2), ("unitary", 4, 4),
    ("unitary", 8, 2),
    ("doubly-stochastic", 2, 2), ("doubly-stochastic", 3, 3),
    ("doubly-stochastic", 4, 4), ("doubly-stochastic", 8, 2),
    ("commuting-disc", 2, 1), ("commuting-disc", 3, 2), ("commuting-disc", 4, 3),
    ("commuting-disc", 8, 2),
    ("quadratic-unitary", 2, 2), ("quadratic-unitary", 4, 2), ("quadratic-unitary", 8, 2),
    ("hw-type-poly", 2, 1), ("hw-type-poly", 4, 2), ("hw-type-poly", 8, 1),
    ("hw-type-poly", 8, 2),
)


class PolySmall(Workload):
    name = "poly-small"
    why = ("many small polynomial bound, diagonalizability and hw-type calls: "
           "per-call Python overhead and the eigenvalue cross-check dominate")

    pool = 4  # random unitaries per size

    def __init__(self, schedule=POLY_SCHEDULE, groups=160):
        self.schedule, self.groups = schedule, groups

    def inputs(self, seed):
        rng = gen.rng_for(seed, 3)
        # enough groups that a run seldom repeats an input, so the tail is
        # not set by one unlucky draw; unitaries come from a small pool
        # turned by random unit-quaternion diagonals, because Gram-Schmidt
        # over the quaternions would otherwise dominate the set-up
        pools = {n: [gen.random_unitary_qmatrix(rng, n) for _ in range(self.pool)]
                 for n in sorted({n for _, n, _ in self.schedule})}

        def unitary(n):
            i, j = rng.choice(self.pool, 2, replace=False)
            turn = QMatrix.diagonal([gen.random_unit_quaternion(rng) for _ in range(n)])
            return pools[n][i] @ turn @ pools[n][j].h

        def unitary_poly(n, degree):
            return QMatrixPolynomial(tuple(unitary(n) for _ in range(degree + 1)))

        def commuting_unitary_quadratic(n):
            # the construction of gen.random_commuting_unitary_pair
            w = unitary(n)
            u0, u1 = (w @ QMatrix.diagonal(np.exp(1j * rng.uniform(0, 2 * np.pi, n))) @ w.h
                      for _ in range(2))
            return QMatrixPolynomial((u0, u1, QMatrix.identity(n)))

        def polys(kind, n, degree):
            if kind == "unitary":
                return (unitary_poly(n, degree),)
            if kind == "doubly-stochastic":
                return (gen.random_doubly_stochastic_polynomial(rng, n, degree),)
            if kind == "commuting-disc":
                return (gen.random_commuting_monic_polynomial(rng, n, degree),)
            if kind == "quadratic-unitary":
                return (commuting_unitary_quadratic(n),)
            # hw-type-poly: the first companion must be diagonalizable, which
            # the unitary (degree 1) and commuting-unitary (degree 2) classes
            # guarantee
            p = unitary_poly(n, 1) if degree == 1 else commuting_unitary_quadratic(n)
            return p, unitary_poly(n, degree)

        return [[Case(kind, n * degree, polys(kind, n, degree))
                 for kind, n, degree in self.schedule]
                for _ in range(self.groups)]

    def warm_up(self, groups):
        seen = set()
        for case in groups[0]:
            if case.kind not in seen:
                seen.add(case.kind)
                self.run(case)

    def run(self, case):
        args = case.args
        if case.kind == "unitary":
            return qp.bound_check_unitary(*args)
        if case.kind == "doubly-stochastic":
            return qp.bound_check_doubly_stochastic(*args)
        if case.kind == "commuting-disc":
            return qp.bound_check_commuting_disc(*args)
        if case.kind == "quadratic-unitary":
            return qp.diagonalizable_companion_quadratic_unitary(*args)
        return qp.hw_type_poly(*args)

    def check(self, case, result):
        if case.kind == "quadratic-unitary":
            if not result.diagonalizable:
                return "companion reported not diagonalizable"
            if not result.residual <= TOLS.diag_verify:
                return f"diagonalization residual {result.residual:.3e} above diag_verify"
            return None
        if not result.holds:
            return f"{case.kind} bound reported violated"
        return None


def fixture(name: str) -> str:
    return qgolden.fixture_path(f"{name}.json")


_MATRICES = ("mixed_complex_diagonal", "nonstandard_pair_a", "nonstandard_pair_b",
             "unitary_j_diagonal")
_POLYS = ("linear_normal_p", "linear_normal_q", "quadratic_unitary_p", "quadratic_unitary_q")
_PAIRS = (("nonstandard_pair_a", "nonstandard_pair_b"),
          ("mixed_complex_diagonal", "unitary_j_diagonal"),
          ("linear_normal_p", "linear_normal_q"),
          ("quadratic_unitary_p", "quadratic_unitary_q"))


def cli_commands() -> list[tuple[str, ...]]:
    """Every command of the workload; each exits 0 on the bundled fixtures.

    Left out because they exit non-zero: ``diag`` on quadratic_unitary_q
    (defective companion), plain ``hw`` on the polynomial pairs (the
    non-normal demonstration is violated) and ``bounds`` outside the
    fixtures' coefficient classes.
    """
    cmds = [("eigs", fixture(f)) for f in _MATRICES + _POLYS]
    cmds += [("diag", fixture(f)) for f in _MATRICES + _POLYS if f != "quadratic_unitary_q"]
    cmds += [("hw", fixture(a), fixture(b)) for a, b in _PAIRS[:2]]
    cmds += [("hw", "--type", fixture(a), fixture(b)) for a, b in _PAIRS]
    cmds += [("bounds", fixture(f), "--class", "unitary") for f in _POLYS[2:]]
    cmds.append(("paper-suite",))
    return cmds


# what the installed console script runs
_ENTRY = "import sys; from quathw.cli import main; sys.exit(main())"


class CliFixtures(Workload):
    name = "cli-fixtures"
    why = ("quathw subprocess runs of every command on the bundled fixtures: "
           "the only workload that pays the import and covers matio and cli")
    children_rss = True
    # a child that only starts Python and imports numpy and scipy.linalg,
    # which is most of a command's time
    reference_probe_s = 0.45
    probe_every_s = 1.5

    def __init__(self, commands=None, passes=4):
        self.commands = cli_commands() if commands is None else commands
        self.passes = passes
        src = str(Path(qcli.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        # a fixed hash seed takes one source of per-process spread out of
        # the children's start-up time; outputs do not depend on it
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""),
                        PYTHONHASHSEED="0")

    def inputs(self, seed):
        rng = gen.rng_for(seed, 4)
        expected = {cmd: self._in_process(cmd) for cmd in self.commands}
        out = []
        for _ in range(self.passes):
            for k in rng.permutation(len(self.commands)):
                cmd = self.commands[int(k)]
                out.append([Case(cmd[0], 0, cmd, expected[cmd])])
        return out

    def warm_up(self, groups):
        self.run(Case("eigs", 0, self.commands[0]))

    def probe(self):
        cpu0 = probes.cpu_seconds()
        subprocess.run([sys.executable, "-c", "import numpy, scipy.linalg"], env=self.env,
                       check=True, timeout=120)
        return probes.cpu_seconds() - cpu0

    @staticmethod
    def _argv(cmd) -> list[str]:
        return ["--format", "machine", *cmd]

    def _in_process(self, cmd) -> tuple[int, object]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = qcli.main(self._argv(cmd))
        return rc, json.loads(buf.getvalue())

    def _spawn(self, prefix: list[str], cmd) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, *prefix, *self._argv(cmd)], env=self.env,
                              capture_output=True, text=True, timeout=120)

    def run(self, case):
        proc = self._spawn(["-c", _ENTRY], case.args)
        return proc.returncode, proc.stdout

    def run_traced(self, case, tracer, op_id):
        proc = self._spawn([str(BENCH_DIR / "cli_child.py")], case.args)
        lines = [ln for ln in proc.stderr.splitlines() if ln.startswith(CHILD_MARKER)]
        if lines:
            record = json.loads(lines[-1][len(CHILD_MARKER):])
            tracer.merge(record["spans"], op_id)
            tracer.ops.append((op_id, *record["op"]))
        return proc.returncode, proc.stdout

    def check(self, case, result):
        rc, stdout = result
        want_rc, want_obj = case.expect
        if rc != want_rc:
            return f"exit code {rc}, in-process {want_rc}"
        try:
            got = json.loads(stdout)
        except json.JSONDecodeError:
            return "output is not one JSON document"
        if got != want_obj:
            return "machine output differs from the in-process result"
        return None


WORKLOADS = {w.name: w for w in (HwNormal, DiagKappa, PolySmall, CliFixtures)}
