"""CPU clock and machine-speed probes.

On a shared virtual machine, CPU time of identical work moves by a
quarter or more for seconds at a time, with whatever runs on the sibling
hyperthreads; under heavy neighbouring load it doubled.  A probe is fixed work that does not touch quathw; the
harness runs it between operations and scales each operation's CPU time
by reference / (median of the probes around it).  A faster or slower
quathw leaves the probes unchanged, so the scaling removes the machine's
drift and keeps the program's.
"""

from __future__ import annotations

import resource
import time

import numpy as np

_RNG = np.random.default_rng(0)
_SMALL = _RNG.standard_normal((16, 16)) + 0j
_MEDIUM = _RNG.standard_normal((96, 96)) + 0j


def cpu_seconds() -> float:
    """CPU time of this process plus that of its finished children."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def _interpreter() -> None:
    # bytecode loops over numpy scalars, like the assignment kernel
    real = _SMALL.real
    acc = 0.0
    for i in range(20_000):
        acc += real[i % 16][i % 13] - real[i % 11][i % 7]


def _small_calls() -> None:
    # small objects and many small numpy calls, like the polynomial checks
    acc = 0
    for i in range(3_000):
        item = {"k": i, "pair": (i, i + 1)}
        acc += len(item) + abs(complex(i, 1) * complex(1, -i)) > 0
    for _ in range(60):
        np.linalg.eigvals(_SMALL @ _SMALL)


def _lapack() -> None:
    # dense LAPACK work, like diagonalization's SVDs
    np.linalg.svd(_MEDIUM)
    np.linalg.eigvals(_MEDIUM)


def kernel() -> float:
    """CPU seconds of fixed in-process work shaped like the library's."""
    cpu0 = cpu_seconds()
    _interpreter()
    _small_calls()
    _lapack()
    return cpu_seconds() - cpu0
