"""Benchmark entry point: one workload, one seed, one run.

Run from the repository root:

    python3 bench/run.py --workload hw-normal --seed 1 --seconds 20 --trace 0

The library is imported from ``src/`` next to this directory.  Human-
readable lines come first; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones
of a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# one caller on a fixed number of BLAS threads, set before numpy loads
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

SRC = Path(__file__).resolve().parents[1] / "src"


def main(argv: list[str] | None = None) -> int:
    if not (SRC / "quathw" / "__init__.py").is_file():
        print(f"error: the quathw sources are missing from {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import quathw

    if not Path(quathw.__file__).resolve().is_relative_to(SRC):
        print(f"error: quathw was imported from {quathw.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    import harness
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]()
    report = harness.run(workload, args.seed, args.seconds, bool(args.trace))
    for name, (value, unit) in report.metrics.items():
        print(f"{name:48s} {value:14.6g} {unit}")
    for note in report.notes:
        print(note)
    for problem in report.problems:
        print(f"problem: {problem}")
    print("env " + json.dumps(harness.environment(workload, args.seed), sort_keys=True))
    print(json.dumps(report.result_line(), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
