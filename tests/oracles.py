"""Independent brute-force oracles used to check the library's fast paths.

Everything here is deliberately naive: exhaustive enumeration, cofactor
expansion, basis-table quaternion products, or a frozen copy of an earlier
implementation.  None of it shares code with the implementation under test.
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
    """First permutation, in enumeration order, within tie*max(best, tiny) of the optimum.

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
    slack = tie * max(best, np.finfo(float).tiny)
    return next(p for p, c in costs.items() if c <= best + slack)


# -- reference assignment kernel ----------------------------------------------
# A verbatim copy of ``hw._augment``, ``hw._row_sum`` and
# ``hw._lex_min_cost_permutation`` as they were before the refinement
# learned to skip rows by its tie certificate.  The library's kernel must
# return the same permutation on every input.

_INF = float("inf")


def _augment(
    cost: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    col_row: np.ndarray,
    active: np.ndarray,
    row: int,
) -> None:
    """Match the free ``row`` by one shortest augmenting path, in place.

    Dijkstra over the active columns on reduced costs ``cost - u - v``
    (Jonker & Volgenant 1987; Crouse 2016): each step scans one row as a
    numpy vector and stops at the first free column.  The duals are then
    moved by the path lengths, so they stay feasible and tight on
    ``col_row``, and the matching is optimal on the rows it covers.
    """
    n = v.shape[0]
    dist = np.full(n, _INF)  # path length to each unscanned column
    way = np.empty(n, dtype=int)  # previous column on the path, -1 = ``row``
    closed = np.where(active, 0.0, _INF)  # inf on inactive and scanned columns
    scanned: list[int] = []
    reached: list[float] = []
    i0, j0, base = row, -1, 0.0
    while True:
        cur = cost[i0] - v
        cur += base - u[i0]
        cur += closed
        way[cur < dist] = j0
        np.minimum(dist, cur, out=dist)
        j0 = int(dist.argmin())  # first index on ties
        base = float(dist[j0])
        dist[j0] = closed[j0] = _INF
        i0 = int(col_row[j0])
        if i0 < 0:
            break
        scanned.append(j0)
        reached.append(base)
    u[row] += base
    if scanned:
        cols = np.array(scanned)
        shift = base - np.array(reached)
        u[col_row[cols]] += shift
        v[cols] -= shift
    while j0 >= 0:
        j1 = int(way[j0])
        col_row[j0] = row if j1 < 0 else col_row[j1]
        j0 = j1


def _row_sum(
    cost: np.ndarray, col_row: np.ndarray, active: np.ndarray, first: int
) -> float:
    """Cost of the matched rows ``first..n-1``, summed in row order."""
    row_col = np.empty(cost.shape[0], dtype=int)
    cols = np.flatnonzero(active)
    row_col[col_row[cols]] = cols
    rows = np.arange(first, cost.shape[0])
    return float(sum(cost[rows, row_col[first:]].tolist()))


def _lex_min_cost_permutation(cost: np.ndarray, tie: float) -> list[int]:
    """Lexicographically smallest permutation within ``tie*max(best, tiny)`` of the optimum.

    One potentials state (row duals ``u``, column duals ``v``, the
    column->row match and the active-column mask) serves both phases.  The
    initial solve, warm-started by column reduction so that only the rows
    it leaves free need an augmenting path, gives ``best``.  The refinement
    then fixes rows in order: a candidate column ``j`` before row ``i``'s
    current match is tried only if its reduced cost leaves it within the
    slack, on a copy of the state with ``j`` deactivated and the displaced
    row re-matched by one augmenting path.  Row ``i``'s current match is
    always within the slack.
    """
    n = cost.shape[0]
    u = np.zeros(n)
    # column reduction (Jonker & Volgenant): v_j = min_i c_ij is feasible,
    # and each row takes the first column whose minimum it holds, tightly
    v = cost.min(axis=0)
    col_row = np.full(n, -1)
    active = np.ones(n, dtype=bool)
    # first[r] is the first column whose minimum row r holds; np.unique would
    # import numpy.ma lazily, about 13 ms of a CLI command that gets here
    first = np.full(n, n)
    np.minimum.at(first, cost.argmin(axis=0), np.arange(n))
    held = first < n
    col_row[first[held]] = np.flatnonzero(held)
    for i in np.flatnonzero(~held).tolist():
        _augment(cost, u, v, col_row, active, i)
    best = _row_sum(cost, col_row, active, 0)
    slack = tie * max(abs(best), np.finfo(float).tiny)
    # duals pick up rounding from every step; never let it prune a candidate
    rounding = 4.0 * n * n * np.finfo(float).eps
    perm: list[int] = []
    fixed = 0.0
    for i in range(n):
        current = int(np.flatnonzero(col_row == i)[0])
        reduced = cost[i] - u[i] - v
        bound = slack + rounding * (np.abs(cost[i]) + abs(u[i]) + np.abs(v))
        chosen = current
        for j in np.flatnonzero((active & (reduced <= bound))[:current]):
            tu, tv, tcol_row, tactive = u.copy(), v.copy(), col_row.copy(), active.copy()
            displaced = int(tcol_row[j])
            tactive[j] = False
            tcol_row[j] = tcol_row[current] = -1
            _augment(cost, tu, tv, tcol_row, tactive, displaced)
            rest = _row_sum(cost, tcol_row, tactive, i + 1)
            if fixed + cost[i][j] + rest <= best + slack:
                chosen = int(j)
                u, v, col_row, active = tu, tv, tcol_row, tactive
                break
        if chosen == current:
            active[current] = False
            col_row[current] = -1
        perm.append(chosen)
        fixed += cost[i][chosen]
    return perm


reference_lex_min_cost_permutation = _lex_min_cost_permutation


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
    clamp = tols.clamp_imag * scale
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
