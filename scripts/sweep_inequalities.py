#!/usr/bin/env python3
"""Large randomized sweep of both inequalities with slack statistics.

Runs normal-pair trials of the Hoffman-Wielandt bound, and trials of the
one-sided HW-type bound on a diagonalizable A and a normal B (the bound is
a theorem only for a normal B), over a range of orders.  Reports the
tightest observed slack per order, which shows how far from sharp the
bounds sit on generic inputs, and exits 1 on any violation.
"""

import argparse
import sys

import numpy as np

from quathw import hw_check, hw_type_check
from quathw.cli import positive_int
from quathw.generators import (
    random_diagonalizable_qmatrix,
    random_normal_qmatrix,
    rng_for,
)


def sweep(trials: int, seed: int) -> int:
    violations = 0
    print(f"{'order':>5} {'suite':>8} {'trials':>6} {'min slack':>12} {'median slack':>13}")
    for n in range(2, 7):
        slacks = []
        for t in range(trials):
            rng = rng_for(seed, n, t)
            a, _ = random_normal_qmatrix(rng, n)
            b, _ = random_normal_qmatrix(rng, n)
            rep = hw_check(a, b)
            slacks.append(rep.slack)
            violations += not rep.holds
        print(f"{n:>5} {'hw':>8} {trials:>6} {min(slacks):>12.4g} {np.median(slacks):>13.4g}")

        slacks = []
        for t in range(trials):
            rng = rng_for(seed + 1, n, t)
            a, _, _ = random_diagonalizable_qmatrix(rng, n)
            b, _ = random_normal_qmatrix(rng, n)
            rep = hw_type_check(a, b)
            slacks.append(rep.slack)
            violations += not rep.holds
        print(f"{n:>5} {'hw-type':>8} {trials:>6} {min(slacks):>12.4g} {np.median(slacks):>13.4g}")
    print(f"\nviolations: {violations}")
    return 1 if violations else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--trials", type=positive_int, default=100, help="trials per order and suite"
    )
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    return sweep(args.trials, args.seed)


if __name__ == "__main__":
    sys.exit(main())
