"""Independent brute-force oracles used to check the library's fast paths.

Everything here is deliberately naive: exhaustive enumeration, cofactor
expansion, basis-table quaternion products.  None of it shares code with
the implementation under test.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

from quathw import PairingFailureError, Quaternion

# multiplication table for the basis 1, i, j, k: entry (a, b) -> (sign, basis)
_BASIS_TABLE = {
    (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
    (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
    (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
    (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
}


def table_mul(p: Quaternion, q: Quaternion) -> Quaternion:
    """Quaternion product by expanding over the 16 basis products."""
    out = [0.0, 0.0, 0.0, 0.0]
    pc = p.components()
    qc = q.components()
    for a in range(4):
        for b in range(4):
            sign, basis = _BASIS_TABLE[(a, b)]
            out[basis] += sign * pc[a] * qc[b]
    return Quaternion(*out)


def exhaustive_min_assignment(lam, mu) -> tuple[float, tuple[int, ...]]:
    """Exact minimum matched cost and the lexicographically smallest optimizer."""
    lam = [complex(z) for z in lam]
    mu = [complex(z) for z in mu]
    n = len(lam)
    best_cost = None
    best_perm = None
    for perm in permutations(range(n)):  # permutations() yields in lex order
        cost = sum(abs(lam[i] - mu[perm[i]]) ** 2 for i in range(n))
        if best_cost is None or cost < best_cost:
            best_cost = cost
            best_perm = perm
    return float(best_cost), best_perm


def exhaustive_lex_within(lam, mu, tie: float) -> tuple[int, ...]:
    """First permutation, in enumeration order, within tie*(1+best) of the optimum.

    ``exhaustive_min_assignment`` keeps the first strict minimum, so rounding
    in tied sums (``abs(-1+2j)**2`` is not exactly 5) can move its pick; this
    oracle applies the same relative tie slack as the library.
    """
    lam = [complex(z) for z in lam]
    mu = [complex(z) for z in mu]
    n = len(lam)
    costs = {
        perm: sum(abs(lam[i] - mu[perm[i]]) ** 2 for i in range(n))
        for perm in permutations(range(n))
    }
    best = min(costs.values())
    return next(p for p, c in costs.items() if c <= best + tie * (1.0 + best))


def det_cofactor(a: np.ndarray) -> complex:
    """Determinant by cofactor expansion along the first row (orders <= 6)."""
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    if n == 1:
        return complex(a[0, 0])
    total = 0.0 + 0.0j
    rest = a[1:, :]
    for j in range(n):
        minor = np.delete(rest, j, axis=1)
        total += ((-1) ** j) * a[0, j] * det_cofactor(minor)
    return complex(total)


def multiset_max_distance(a, b) -> float:
    """Optimal-matching max distance between two complex multisets."""
    a = [complex(z) for z in a]
    b = [complex(z) for z in b]
    assert len(a) == len(b)
    best = None
    for perm in permutations(range(len(a))):
        worst = max(abs(a[i] - b[perm[i]]) for i in range(len(a)))
        if best is None or worst < best:
            best = worst
    return float(best)


def greedy_fold(w, scale: float, tols) -> tuple[list[complex], float]:
    """Reference conjugate fold: the greedy scan over a shrinking list.

    The most imaginary remaining value (lowest index on ties) takes the
    remaining value nearest its conjugate (lowest index on ties); each pair
    gives one representative with nonnegative imaginary part.
    """
    if len(w) % 2:
        raise PairingFailureError("adjoint spectrum has odd length")
    clamp = tols.clamp_imag * max(1.0, scale)
    values = list(w)
    alive = list(range(len(values)))
    reps: list[complex] = []
    residual = 0.0
    while alive:
        a = max(alive, key=lambda idx: (values[idx].imag, -idx))
        alive.remove(a)
        target = values[a].conjugate()
        b = min(alive, key=lambda idx: (abs(values[idx] - target), idx))
        alive.remove(b)
        residual = max(residual, abs(values[b] - target))
        avg = 0.5 * (values[a] + values[b].conjugate())
        im = abs(avg.imag)
        reps.append(complex(avg.real, 0.0 if im <= clamp else im))
    return reps, residual


def chain_clusters(values, radius: float) -> list[list[int]]:
    """Index groups linked by chains of steps of at most ``radius``.

    Breadth-first search from each unvisited index in increasing order;
    groups come out in order of their smallest index, members ascending.
    """
    values = list(values)
    seen = [False] * len(values)
    groups = []
    for start in range(len(values)):
        if seen[start]:
            continue
        seen[start] = True
        group, frontier = [start], [start]
        while frontier:
            i = frontier.pop()
            for j in range(len(values)):
                if not seen[j] and abs(values[i] - values[j]) <= radius:
                    seen[j] = True
                    group.append(j)
                    frontier.append(j)
        groups.append(sorted(group))
    return groups
