"""Registry of the tolerances a user may override, and the one rule that
applies them.

Each field can be overridden by name from the CLI (``--tol NAME=VALUE``).
A few internal guards keep fixed thresholds instead, such as
``QMatrixPolynomial.is_monic``'s default and the conjugate fold's pairing
check.
"""

from __future__ import annotations

import dataclasses
import sys
from dataclasses import dataclass

_TINY = sys.float_info.min  # the smallest normal double


def within(defect: float, tol: float, scale: float) -> bool:
    """The acceptance rule: ``defect <= tol * max(scale, tiny)``.

    ``scale`` is a norm of the input of the same degree as ``defect``
    (||A||_F^2 for ||A A* - A* A||_F), so multiplying the input by a power
    of two never changes the verdict.  A NaN defect fails.
    """
    return bool(defect <= tol * max(scale, _TINY))


@dataclass(frozen=True)
class Tolerances:
    """Named tolerances threaded through the verification routines.

    Unless stated otherwise a tolerance is relative: a residual is accepted
    by ``within(residual, tol, scale)``, scale a norm of the input.
    """

    predicate: float = 1e-8          # normal / unitary / Hermitian / psd residuals
    pivot: float = 1e-13             # singularity floor of inverse and kappa, relative to ||A||_F
    pairing: float = 1e-6            # conjugate-pair fold radius, relative to ||A||_F
    clamp_imag: float = 1e-10        # |Im| below this (times scale) snaps to the real axis
    diag_cluster: float = 1e-6       # eigenvalue clustering radius for multiplicity analysis
    diag_rank: float = 1e-8          # kernel cutoff inside the multiplicity analysis
    diag_verify: float = 1e-6        # ||X^-1 A X - D||_F / ||A||_F acceptance bound
    commute: float = 1e-8            # commutator residual, relative
    doubly_stochastic: float = 1e-10 # row/column sums and entry checks
    monic_residual: float = 1e-10    # ||A_m B_i - A_i||_F, relative to ||A_m||_F ||B_i||_F
    ineq_rel: float = 1e-9           # holds <=> lhs - rhs <= ineq_rel (rhs + ||A||_F^2 + ||B||_F^2)
    strict_margin: float = 1e-9      # strictness margin for open-interval bounds
    tie: float = 1e-12               # assignment tie slack, relative to the optimum

    def replace(self, **overrides: float) -> "Tolerances":
        return dataclasses.replace(self, **overrides)

    @classmethod
    def names(cls) -> tuple[str, ...]:
        return tuple(f.name for f in dataclasses.fields(cls))


DEFAULT_TOLERANCES = Tolerances()
