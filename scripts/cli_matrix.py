#!/usr/bin/env python3
"""Run the CLI matrix in-process and print one line per run.

Each line holds the exit code, the sha256 of stdout, the sha256 of stderr
and the arguments.  Runs name the bundled fixtures by file name from inside
the fixture directory, so two checkouts print comparable lines:

    diff <(PYTHONPATH=../other/src python3 scripts/cli_matrix.py) \\
         <(PYTHONPATH=src python3 scripts/cli_matrix.py)

The matrix is both output formats times: ``eigs`` and ``diag``, at the
default tolerances and with ``--tol pairing=1e-17``, and
``bounds --class unitary|ds|commuting`` on every fixture; ``hw`` and
``hw --type`` on every ordered pair of fixtures; ``paper-suite``; and
``fuzz --trials 8 --seed 3``.  With the 8 bundled fixtures that is 372 runs.
The tight pairing tolerance turns the rounding of some folds into a
numeric failure, so both commands show where they apply the pairing check.
"""

import contextlib
import hashlib
import io
import os
import warnings
from importlib import resources

from quathw import cli


def fixture_dir():
    return resources.files("quathw").joinpath("fixtures")


def fixture_names() -> list[str]:
    return sorted(p.name for p in fixture_dir().iterdir() if p.name.endswith(".json"))


def matrix(names: list[str]) -> list[list[str]]:
    runs = []
    for fmt in ("human", "machine"):
        head = ["--format", fmt]
        for name in names:
            for tols in ([], ["--tol", "pairing=1e-17"]):
                runs.append(head + tols + ["eigs", name])
                runs.append(head + tols + ["diag", name])
            for klass in ("unitary", "ds", "commuting"):
                runs.append(head + ["bounds", name, "--class", klass])
        for a in names:
            for b in names:
                runs.append(head + ["hw", a, b])
                runs.append(head + ["hw", "--type", a, b])
        runs.append(head + ["paper-suite"])
        runs.append(head + ["fuzz", "--trials", "8", "--seed", "3"])
    return runs


def run(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``quathw argv``, as a fresh process gives them.

    Warnings show once per run; an uncaught exception exits 1 with its last
    traceback line, without file paths.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings():
            warnings.simplefilter("default")
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code
            except Exception as exc:
                print(f"{type(exc).__name__}: {exc}", file=err)
                code = 1
    return code, out.getvalue(), err.getvalue()


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_all(runs: list[list[str]]) -> None:
    """Print one line per run, running from inside the fixture directory."""
    with resources.as_file(fixture_dir()) as folder:
        cwd = os.getcwd()
        os.chdir(folder)
        try:
            for argv in runs:
                code, out, err = run(argv)
                print(f"{code} {_sha(out)} {_sha(err)} {' '.join(argv)}")
        finally:
            os.chdir(cwd)


def main() -> int:
    run_all(matrix(fixture_names()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
