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
import math
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
from .hw import hw_check, hw_report, hw_type_check
from .matio import emit_json, load_document, matrix_digest, polynomial_digest, report_to_obj
from .qmatrix import diagonalize, standard_eigenvalues
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

# what each command returns: its exit code, its machine-format object (which
# ``main`` writes with ``matio.emit_json``) and its human-format lines
Outcome = tuple[int, dict, list[str]]


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
        if not 0 < num < math.inf:
            raise argparse.ArgumentTypeError(f"--tol {name}: tolerance must be positive and finite")
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
    p_eigs.set_defaults(run=cmd_eigs)

    p_hw = sub.add_parser("hw", help="inequality check between two files")
    p_hw.add_argument("path_a")
    p_hw.add_argument("path_b")
    p_hw.add_argument(
        "--type",
        action="store_true",
        dest="typed",
        help="use the kappa^2-weighted bound for a diagonalizable first input and a normal second",
    )
    p_hw.set_defaults(run=cmd_hw)

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
    p_bounds.set_defaults(run=cmd_bounds)

    p_diag = sub.add_parser("diag", help="diagonalize a matrix or a polynomial's companion")
    p_diag.add_argument("path")
    p_diag.set_defaults(run=cmd_diag)

    p_suite = sub.add_parser("paper-suite", help="replay the built-in reference examples")
    p_suite.set_defaults(run=cmd_paper_suite)

    p_fuzz = sub.add_parser("fuzz", help="randomized property trials")
    p_fuzz.add_argument("--trials", type=positive_int, default=50)
    p_fuzz.add_argument("--seed", type=int, default=0)
    p_fuzz.add_argument(
        "--suite",
        choices=("all", "hw", "hw-type", "fold", "bounds"),
        default="all",
    )
    p_fuzz.set_defaults(run=cmd_fuzz)
    return parser


def cmd_eigs(args, tols: Tolerances) -> Outcome:
    doc = load_document(args.path)
    if isinstance(doc, QMatrixPolynomial):
        spec = standard_eigenvalues_poly(doc, tols)
    else:
        spec = standard_eigenvalues(doc, tols)
    obj = {"values": spec.values, "pairing_residual": spec.pairing_residual}
    lines = [
        ", ".join(format_complex(z) for z in spec.values),
        f"pairing residual: {spec.pairing_residual:.3e}",
    ]
    return EXIT_OK, obj, lines


def cmd_hw(args, tols: Tolerances) -> Outcome:
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
    lines = [
        f"check: {report.kind}",
        f"lhs (matched squared distance): {report.lhs:.12g}",
        f"rhs (bound):                    {report.rhs:.12g}",
    ]
    if report.kappa is not None:
        lines.append(f"kappa:                          {report.kappa:.12g}")
    if report.theorem_class is not None:
        lines.append(f"class:                          {report.theorem_class}")
    lines += [
        f"slack:                          {report.slack:.12g}",
        f"permutation (1-based):          {list(report.permutation_one_based())}",
        f"holds:                          {report.holds}",
    ]
    return (EXIT_OK if report.holds else EXIT_VIOLATED), report_to_obj(report), lines


def cmd_bounds(args, tols: Tolerances) -> Outcome:
    if args.r is not None and args.klass != "commuting":
        raise PreconditionViolatedError("--r applies only to --class commuting")
    doc = load_document(args.path)
    if not isinstance(doc, QMatrixPolynomial):
        raise MatrixFileError("bounds requires a polynomial file")
    if args.klass == "unitary":
        report = bound_check_unitary(doc, tols)
    elif args.klass == "ds":
        report = bound_check_doubly_stochastic(doc, tols)
    else:
        report = bound_check_commuting_disc(doc, r=args.r, tols=tols)
    obj = {
        "class": report.klass,
        "lower": report.lower,
        "upper": report.upper,
        "moduli": report.moduli,
        "min_modulus": report.min_modulus,
        "max_modulus": report.max_modulus,
        "lower_margin": report.lower_margin,
        "upper_margin": report.upper_margin,
        "radius": report.radius,
        "holds": report.holds,
    }
    lower = f"{report.lower:.6g} <" if report.lower_strict else f"{report.lower:.6g} <="
    lines = [f"class: {report.klass}"]
    if report.radius is not None:
        lines.append(f"disc radius: {report.radius:.6g}")
    lines += [
        f"bound: {lower} |lambda| < {report.upper:.6g}",
        f"moduli: {', '.join(f'{m:.6g}' for m in report.moduli)}",
        f"margins: lower {report.lower_margin:.6g}, upper {report.upper_margin:.6g}",
        f"holds: {report.holds}",
    ]
    return (EXIT_OK if report.holds else EXIT_VIOLATED), obj, lines


def cmd_diag(args, tols: Tolerances) -> Outcome:
    doc = load_document(args.path)
    if isinstance(doc, QMatrixPolynomial):
        result = diagonalizable_companion(doc, tols)
        if not result.diagonalizable:
            raise NotDiagonalizableError(
                "companion matrix is not diagonalizable (no guaranteeing class)"
            )
        klass = result.klass
    else:
        result, klass = diagonalize(doc, tols), None
    obj = {"values": result.values, "kappa": result.kappa, "residual": result.residual,
           "class": klass}
    lines = [
        "eigenvalues: " + ", ".join(format_complex(z) for z in result.values),
        f"kappa: {result.kappa:.12g}",
        f"residual: {result.residual:.3e}",
    ]
    if klass is not None:
        lines.append(f"class: {klass}")
    return EXIT_OK, obj, lines


def cmd_paper_suite(args, tols: Tolerances) -> Outcome:
    results = golden.run_all(tols)
    ok = all(r.passed for r in results)
    obj = {
        "passed": ok,
        "cases": [{"name": r.name, "passed": r.passed, "details": r.details} for r in results],
    }
    lines = []
    for r in results:
        lines.append(f"[{'PASS' if r.passed else 'FAIL'}] {r.name}")
        lines += [f"    {line}" for line in r.details]
    lines.append(f"{sum(r.passed for r in results)}/{len(results)} reference cases passed")
    return (EXIT_OK if ok else EXIT_VIOLATED), obj, lines


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


def cmd_fuzz(args, tols: Tolerances) -> Outcome:
    summary = _fuzz_trials(args.suite, args.trials, args.seed, tols)
    total_violations = sum(s["violations"] for s in summary.values())
    obj = {"seed": args.seed, "suites": summary, "violations": total_violations}
    lines = [
        f"{name}: {s['trials']} trials, {s['violations']} violations"
        for name, s in summary.items()
    ]
    lines.append(f"total violations: {total_violations}")
    return (EXIT_OK if total_violations == 0 else EXIT_VIOLATED), obj, lines


def main(argv: list[str] | None = None) -> int:
    """Run one command, print its result in the ``--format`` asked for, return the exit code.

    An error prints one line on stderr and nothing on stdout.
    """
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        tols = _parse_tols(args.tol)
    except argparse.ArgumentTypeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    try:
        code, obj, lines = args.run(args, tols)
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
    print(emit_json(obj) if args.format == "machine" else "\n".join(lines))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
