"""Command-line front end.

Commands:
  eigs PATH                 standard eigenvalues of a matrix or polynomial file
  hw A B [--type]           inequality check between two files of the same kind
  bounds PATH --class C     eigenvalue location bound for a polynomial file
  diag PATH                 diagonalize a matrix or a polynomial's companion
  paper-suite               replay the built-in reference cases
  fuzz                      randomized property trials (--trials, --seed, --suite)

Exit codes: 0 success / inequality holds, 1 inequality violated,
2 precondition violated, 3 parse error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import golden
from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import (
    MatrixFileError,
    NoConvergenceError,
    NonFiniteError,
    NotDiagonalizableError,
    NotHermitianError,
    NotLinearError,
    NotNormalError,
    PairingFailureError,
    PreconditionViolatedError,
    QuathwError,
    ShapeMismatchError,
    SingularLeadingCoefficientError,
    SingularMatrixError,
)
from .hw import InequalityReport, hw_check, hw_report, hw_type_check
from .matio import emit_report, load_document, matrix_digest, polynomial_digest
from .qmatrix import condition_number, diagonalize, standard_eigenvalues
from .qpoly import (
    QMatrixPolynomial,
    bound_check_commuting_disc,
    bound_check_doubly_stochastic,
    bound_check_unitary,
    companion,
    diagonalizable_companion,
    hw_type_poly,
    standard_eigenvalues_poly,
)

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_PRECONDITION = 2
EXIT_PARSE = 3
EXIT_NUMERIC = 4

_PRECONDITION_ERRORS = (
    NotNormalError,
    NotDiagonalizableError,
    PreconditionViolatedError,
    NotLinearError,
    SingularLeadingCoefficientError,
    NotHermitianError,
    ShapeMismatchError,
)
_NUMERIC_ERRORS = (
    PairingFailureError,
    NoConvergenceError,
    NonFiniteError,
    SingularMatrixError,
)


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Settings shared by every command: tolerances and output format.

    Machine-format reports are byte-identical across runs on the same
    platform and inputs (for ``fuzz``, with the same ``--seed``).
    """

    tolerances: Tolerances
    fmt: str = "human"


def format_complex(z: complex) -> str:
    """Human format: a+bi / a-bi with six significant digits."""
    re = f"{z.real:.6g}"
    im = abs(z.imag)
    sign = "-" if z.imag < 0 else "+"
    return f"{re}{sign}{im:.6g}i"


def _parse_tols(pairs: list[str]) -> Tolerances:
    overrides: dict[str, float] = {}
    valid = set(Tolerances.names())
    for pair in pairs or []:
        if "=" not in pair:
            raise argparse.ArgumentTypeError(f"--tol expects NAME=VALUE, got {pair!r}")
        name, _, value = pair.partition("=")
        if name not in valid:
            raise argparse.ArgumentTypeError(
                f"unknown tolerance {name!r}; known: {', '.join(sorted(valid))}"
            )
        try:
            num = float(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"--tol {name}: {value!r} is not a number") from exc
        if num <= 0:
            raise argparse.ArgumentTypeError(f"--tol {name}: tolerance must be positive")
        overrides[name] = num
    return DEFAULT_TOLERANCES.replace(**overrides)


def positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1."""
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from exc
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quathw",
        description="Quaternion standard eigenvalues and perturbation inequality checks.",
        epilog=(
            "exit codes: 0 success/holds, 1 inequality violated, "
            "2 precondition violated, 3 parse error, 4 numeric failure"
        ),
    )
    parser.add_argument(
        "--format",
        choices=("human", "machine"),
        default="human",
        help="output style; machine is single-document JSON with full precision",
    )
    parser.add_argument(
        "--tol",
        action="append",
        metavar="NAME=VALUE",
        default=[],
        help="override a named tolerance (repeatable)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eigs = sub.add_parser("eigs", help="standard eigenvalues of a matrix/polynomial file")
    p_eigs.add_argument("path")

    p_hw = sub.add_parser("hw", help="inequality check between two files")
    p_hw.add_argument("path_a")
    p_hw.add_argument("path_b")
    p_hw.add_argument(
        "--type",
        action="store_true",
        dest="typed",
        help="use the kappa^2-weighted bound for a diagonalizable first input",
    )

    p_bounds = sub.add_parser("bounds", help="eigenvalue location bounds for a polynomial")
    p_bounds.add_argument("path")
    p_bounds.add_argument(
        "--class",
        dest="klass",
        required=True,
        choices=("unitary", "ds", "commuting"),
        help="coefficient class hypothesis to check",
    )
    p_bounds.add_argument("--r", type=float, default=None, help="disc radius (commuting class)")

    p_diag = sub.add_parser("diag", help="diagonalize a matrix or a polynomial's companion")
    p_diag.add_argument("path")

    sub.add_parser("paper-suite", help="replay the built-in reference examples")

    p_fuzz = sub.add_parser("fuzz", help="randomized property trials")
    p_fuzz.add_argument("--trials", type=positive_int, default=50)
    p_fuzz.add_argument("--seed", type=int, default=0)
    p_fuzz.add_argument(
        "--suite",
        choices=("all", "hw", "hw-type", "fold", "bounds"),
        default="all",
    )
    return parser


def _print_report(report: InequalityReport, fmt: str) -> None:
    if fmt == "machine":
        print(emit_report(report))
        return
    print(f"check: {report.kind}")
    print(f"lhs (matched squared distance): {report.lhs:.12g}")
    print(f"rhs (bound):                    {report.rhs:.12g}")
    if report.kappa is not None:
        print(f"kappa:                          {report.kappa:.12g}")
    if report.theorem_class is not None:
        print(f"class:                          {report.theorem_class}")
    print(f"slack:                          {report.slack:.12g}")
    print(f"permutation (1-based):          {list(report.permutation_one_based())}")
    print(f"holds:                          {report.holds}")


def cmd_eigs(args, config: RunConfig) -> int:
    tols = config.tolerances
    doc = load_document(args.path)
    if isinstance(doc, QMatrixPolynomial):
        spec = standard_eigenvalues_poly(doc, tols)
    else:
        spec = standard_eigenvalues(doc, tols)
    if config.fmt == "machine":
        print(
            json.dumps(
                {
                    "values": [[z.real, z.imag] for z in spec.values],
                    "pairing_residual": spec.pairing_residual,
                },
                sort_keys=True,
            )
        )
    else:
        print(", ".join(format_complex(z) for z in spec.values))
        print(f"pairing residual: {spec.pairing_residual:.3e}")
    return EXIT_OK


def cmd_hw(args, config: RunConfig) -> int:
    tols = config.tolerances
    doc_a = load_document(args.path_a)
    doc_b = load_document(args.path_b)
    if isinstance(doc_a, QMatrixPolynomial) != isinstance(doc_b, QMatrixPolynomial):
        raise MatrixFileError("inputs must both be matrices or both be polynomials")
    if isinstance(doc_a, QMatrixPolynomial):
        digests = {"a": polynomial_digest(doc_a), "b": polynomial_digest(doc_b)}
        if args.typed:
            report = hw_type_poly(doc_a, doc_b, tols)
        else:
            # companion matrices need not be normal; compute the report as a
            # demonstration rather than enforcing the normality hypothesis
            ca = companion(doc_a, tols).matrix
            cb = companion(doc_b, tols).matrix
            report = hw_report(ca, cb, tols)
    else:
        digests = {"a": matrix_digest(doc_a), "b": matrix_digest(doc_b)}
        report = hw_type_check(doc_a, doc_b, tols) if args.typed else hw_check(doc_a, doc_b, tols)
    report = dataclasses.replace(report, digests=digests)
    _print_report(report, config.fmt)
    return EXIT_OK if report.holds else EXIT_VIOLATED


def cmd_bounds(args, config: RunConfig) -> int:
    tols = config.tolerances
    doc = load_document(args.path)
    if not isinstance(doc, QMatrixPolynomial):
        raise MatrixFileError("bounds requires a polynomial file")
    if args.klass == "unitary":
        report = bound_check_unitary(doc, tols)
    elif args.klass == "ds":
        report = bound_check_doubly_stochastic(doc, tols)
    else:
        report = bound_check_commuting_disc(doc, r=args.r, tols=tols)
    if config.fmt == "machine":
        print(
            json.dumps(
                {
                    "class": report.klass,
                    "lower": report.lower,
                    "upper": report.upper,
                    "moduli": list(report.moduli),
                    "min_modulus": report.min_modulus,
                    "max_modulus": report.max_modulus,
                    "lower_margin": report.lower_margin,
                    "upper_margin": report.upper_margin,
                    "radius": report.radius,
                    "holds": report.holds,
                },
                sort_keys=True,
            )
        )
    else:
        lower = f"{report.lower:.6g} <" if report.lower_strict else f"{report.lower:.6g} <="
        print(f"class: {report.klass}")
        if report.radius is not None:
            print(f"disc radius: {report.radius:.6g}")
        print(f"bound: {lower} |lambda| < {report.upper:.6g}")
        print(f"moduli: {', '.join(f'{m:.6g}' for m in report.moduli)}")
        print(f"margins: lower {report.lower_margin:.6g}, upper {report.upper_margin:.6g}")
        print(f"holds: {report.holds}")
    return EXIT_OK if report.holds else EXIT_VIOLATED


def cmd_diag(args, config: RunConfig) -> int:
    tols = config.tolerances
    doc = load_document(args.path)
    if isinstance(doc, QMatrixPolynomial):
        result = diagonalizable_companion(doc, tols)
        if not result.diagonalizable:
            raise NotDiagonalizableError(
                "companion matrix is not diagonalizable (no guaranteeing class)"
            )
        kappa, klass = result.kappa, result.klass
    else:
        result = diagonalize(doc, tols)
        kappa, klass = condition_number(result.transform, tols), None
    if config.fmt == "machine":
        print(
            json.dumps(
                {
                    "values": [[z.real, z.imag] for z in result.values],
                    "kappa": kappa,
                    "residual": result.residual,
                    "class": klass,
                },
                sort_keys=True,
            )
        )
    else:
        print("eigenvalues:", ", ".join(format_complex(z) for z in result.values))
        print(f"kappa: {kappa:.12g}")
        print(f"residual: {result.residual:.3e}")
        if klass is not None:
            print(f"class: {klass}")
    return EXIT_OK


def cmd_paper_suite(args, config: RunConfig) -> int:
    results = golden.run_all(config.tolerances)
    ok = all(r.passed for r in results)
    if config.fmt == "machine":
        print(
            json.dumps(
                {
                    "passed": ok,
                    "cases": [
                        {"name": r.name, "passed": r.passed, "details": r.details}
                        for r in results
                    ],
                },
                sort_keys=True,
            )
        )
    else:
        for r in results:
            print(f"[{'PASS' if r.passed else 'FAIL'}] {r.name}")
            for line in r.details:
                print(f"    {line}")
        print(f"{sum(r.passed for r in results)}/{len(results)} reference cases passed")
    return EXIT_OK if ok else EXIT_VIOLATED


def _fuzz_trials(suite: str, trials: int, seed: int, tols: Tolerances) -> dict:
    from . import generators as gen
    from .hw import assignment_cost, fold_conjugate_assignment, min_cost_assignment

    summary: dict[str, dict] = {}
    suite_stream = {"hw": 1, "hw-type": 2, "fold": 3, "bounds": 4}

    def run(name: str, fn) -> None:
        if suite not in ("all", name):
            return
        violations = 0
        for t in range(trials):
            rng = gen.rng_for(seed, suite_stream[name], t)
            if not fn(rng, t):
                violations += 1
        summary[name] = {"trials": trials, "violations": violations}

    def trial_hw(rng, t):
        n = 2 + t % 7
        a, _ = gen.random_normal_qmatrix(rng, n)
        b, _ = gen.random_normal_qmatrix(rng, n)
        return hw_check(a, b, tols).holds

    def trial_hw_type(rng, t):
        n = 2 + t % 5
        a, _, _ = gen.random_diagonalizable_qmatrix(rng, n)
        b = gen.random_qmatrix(rng, n)
        return hw_type_check(a, b, tols).holds

    def trial_fold(rng, t):
        n = 1 + t % 5
        mu = gen.upper_half_values(rng, n)
        delta = gen.upper_half_values(rng, n)
        mu2n = mu + [z.conjugate() for z in mu]
        delta2n = delta + [z.conjugate() for z in delta]
        sigma = [int(s) for s in rng.permutation(2 * n)]
        gamma = [delta[s % n] for s in sigma]
        s1, s2 = fold_conjugate_assignment(mu2n, gamma, sigma)
        half1 = assignment_cost(mu, delta, s1)
        half2 = assignment_cost(mu, delta, s2)
        best = min_cost_assignment(mu, delta, tols).cost
        input_cost = sum(abs(m - delta2n[s]) ** 2 for m, s in zip(mu2n, sigma))
        return (
            sorted(s1) == list(range(n))
            and sorted(s2) == list(range(n))
            and half1 <= 0.5 * input_cost + 1e-9
            and min(half1, half2) >= best - 1e-9
        )

    def trial_bounds(rng, t):
        n = 1 + t % 3
        degree = 1 + t % 3
        kind = t % 3
        if kind == 0:
            p = gen.random_unitary_polynomial(rng, n, degree)
            return bound_check_unitary(p, tols).holds
        if kind == 1:
            p = gen.random_doubly_stochastic_polynomial(rng, n, max(degree, 1))
            return bound_check_doubly_stochastic(p, tols).holds
        p = gen.random_commuting_monic_polynomial(rng, n, degree)
        return bound_check_commuting_disc(p, tols=tols).holds

    run("hw", trial_hw)
    run("hw-type", trial_hw_type)
    run("fold", trial_fold)
    run("bounds", trial_bounds)
    return summary


def cmd_fuzz(args, config: RunConfig) -> int:
    summary = _fuzz_trials(args.suite, args.trials, args.seed, config.tolerances)
    total_violations = sum(s["violations"] for s in summary.values())
    if config.fmt == "machine":
        print(
            json.dumps(
                {"seed": args.seed, "suites": summary, "violations": total_violations},
                sort_keys=True,
            )
        )
    else:
        for name, s in summary.items():
            print(f"{name}: {s['trials']} trials, {s['violations']} violations")
        print(f"total violations: {total_violations}")
    return EXIT_OK if total_violations == 0 else EXIT_VIOLATED


_COMMANDS = {
    "eigs": cmd_eigs,
    "hw": cmd_hw,
    "bounds": cmd_bounds,
    "diag": cmd_diag,
    "paper-suite": cmd_paper_suite,
    "fuzz": cmd_fuzz,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = RunConfig(tolerances=_parse_tols(args.tol), fmt=args.format)
    except argparse.ArgumentTypeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    try:
        return _COMMANDS[args.command](args, config)
    except MatrixFileError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except _PRECONDITION_ERRORS as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except _NUMERIC_ERRORS as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except QuathwError as exc:  # any remaining library error
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    raise SystemExit(main())
