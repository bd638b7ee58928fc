"""Optimal eigenvalue matching and Hoffman-Wielandt inequality checks.

The matching kernel solves min over permutations of sum |lam_i - mu_s(i)|^2
with one potentials state: row and column duals, the column->row match and
an active-column mask.  Shortest augmenting paths (Jonker & Volgenant 1987)
give the optimum ``best``, each path step scanning a whole cost row as one
numpy vector.  The returned permutation is the lexicographically smallest
one whose cost is within ``tie * (1 + best)`` of the optimum: rows are fixed
in order, and a column before a row's current match is tried only when its
reduced cost allows it, by one augmenting path on a copy of the state.
Tied optima therefore resolve exactly as exhaustive enumeration in
lexicographic order with that slack would.

Most rows need no trial, and a tie certificate computed once after the
initial solve finds them.  Until the first accepted swap the state is the
initial matching M with duals u, v, reduced costs R = cost - u - v >= 0 up
to rounding, and R = 0 on M up to rounding.  A swap at row i to a column
j before its column cur(i) is accepted only if a matching M' of the
remaining rows through (i, j) costs at most ``slack`` above M, up to the
rounding of the sums.  M and M' differ by alternating cycles, and the sum
of R over the edges of M' less that over the edges of M is exactly that
excess; so every edge of M' has R at most the slack plus the rounding of
the at most 2n edges involved: it is tight.  The cycle through (i, j)
leads from column j to its matched row, by a tight edge of M' to the next
column, and so on until it closes at cur(i).  A row none of whose
candidates reaches cur(i) in that tight graph therefore keeps its column
without a trial; flagged rows, and every row after a swap, run the trials.

``fold_conjugate_assignment`` implements the constructive rearrangement
that turns one permutation on 2n conjugate-duplicated values into two
permutations on n values without increasing the total cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import (
    LengthMismatchError,
    MalformedPairingError,
    NonFiniteError,
    NotNormalError,
    ShapeMismatchError,
)
from .qmatrix import (
    QMatrix,
    _squared_norm,
    condition_number,
    diagonalize,
    is_normal,
    standard_eigenvalues,
)

_INF = float("inf")


# -- assignment kernel -------------------------------------------------------


@dataclass(frozen=True)
class AssignmentResult:
    """Minimum-cost matching between two equal-length spectra.

    ``permutation[i] = j`` matches the i-th left value with the j-th right
    value (0-based).  ``cost`` is the recomputed sum of squared moduli and
    ``cost_matrix`` the full squared-distance matrix, kept for audit.
    """

    permutation: tuple[int, ...]
    cost: float
    cost_matrix: np.ndarray = field(repr=False, compare=False)

    def permutation_one_based(self) -> tuple[int, ...]:
        return tuple(j + 1 for j in self.permutation)


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
    # v is fixed during the search: cost - v once, with inactive and
    # scanned columns set to inf
    open_cost = cost - v
    open_cost[:, ~active] = _INF
    scanned: list[int] = []
    reached: list[float] = []
    i0, j0, base = row, -1, 0.0
    while True:
        cur = open_cost[i0] + (base - u[i0])
        way[cur < dist] = j0
        np.minimum(dist, cur, out=dist)
        j0 = int(dist.argmin())  # first index on ties
        base = float(dist[j0])
        dist[j0] = _INF
        open_cost[:, j0] = _INF
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


def _tie_certificate(
    cost: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    col_row: np.ndarray,
    row_col: np.ndarray,
    slack: float,
    rounding: float,
) -> np.ndarray:
    """Rows that may accept a swap while no earlier row has (module docstring).

    Row i's candidates are the columns j before ``row_col[i]``, held by a
    later row, with reduced cost within the per-edge bound of the
    refinement.  An edge is tight when its reduced cost is at most
    n * (slack + 2 * rounding * W), W the largest |cost| + |u| + |v|, which
    bounds the slack plus the rounding of 2n edges.  Row i is flagged when
    ``row_col[i]`` is reachable from a candidate by steps column -> its
    matched row -> a tight column, found breadth-first from the candidates.
    """
    n = cost.shape[0]
    reduced = cost - u[:, np.newaxis] - v
    bound = slack + rounding * (np.abs(cost) + np.abs(u)[:, np.newaxis] + np.abs(v))
    order = np.arange(n)
    candidate = (reduced <= bound) & (order < row_col[:, np.newaxis])
    candidate &= col_row > order[:, np.newaxis]
    if not candidate.any():
        return np.zeros(n, dtype=bool)
    scale = np.abs(cost).max() + np.abs(u).max() + np.abs(v).max()
    # step[c, d]: column c leads by its matched row and a tight edge to d
    step = (reduced <= n * (slack + 2.0 * rounding * scale))[col_row]
    # breadth-first from the candidate columns: reach[k, d] once d is
    # reachable from the k-th of them
    cols = np.flatnonzero(candidate.any(axis=0))
    reach = step[cols]
    reach[np.arange(len(cols)), cols] = True
    step = step.astype(float)
    while True:
        grown = reach | (reach.astype(float) @ step > 0.0)
        if np.array_equal(grown, reach):
            break
        reach = grown
    return (candidate[:, cols] & reach[:, row_col].T).any(axis=1)


def _lex_min_cost_permutation(cost: np.ndarray, tie: float) -> list[int]:
    """Lexicographically smallest permutation within ``tie*(1+best)`` of the optimum.

    One potentials state (row duals ``u``, column duals ``v``, the
    column->row match and the active-column mask) serves both phases.  The
    initial solve, warm-started by column reduction so that only the rows
    it leaves free need an augmenting path, gives ``best``.  The refinement
    then fixes rows in order: a candidate column ``j`` before row ``i``'s
    current match is tried only if its reduced cost leaves it within the
    slack, on a copy of the state with ``j`` deactivated and the displaced
    row re-matched by one augmenting path.  Row ``i``'s current match is
    always within the slack.  Until the first accepted swap the state is
    the initial one, and a row that ``_tie_certificate`` does not flag keeps
    its column without a trial.
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
    slack = tie * (1.0 + abs(best))
    # duals pick up rounding from every step; never let it prune a candidate
    rounding = 4.0 * n * n * np.finfo(float).eps
    row_col = np.argsort(col_row)
    flagged = _tie_certificate(cost, u, v, col_row, row_col, slack, rounding).tolist()
    row_col = row_col.tolist()
    swapped = False
    perm: list[int] = []
    fixed = 0.0
    for i in range(n):
        current = int(np.flatnonzero(col_row == i)[0]) if swapped else row_col[i]
        chosen = current
        if swapped or flagged[i]:
            reduced = cost[i] - u[i] - v
            bound = slack + rounding * (np.abs(cost[i]) + abs(u[i]) + np.abs(v))
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
                    swapped = True
                    break
        if chosen == current:
            active[current] = False
            col_row[current] = -1
        perm.append(chosen)
        fixed += cost[i][chosen]
    return perm


def assignment_cost(lam, mu, permutation) -> float:
    """Sum of |lam_i - mu_{perm(i)}|^2 for a given matching."""
    lam = [complex(z) for z in lam]
    mu = [complex(z) for z in mu]
    return float(sum(abs(l - mu[p]) ** 2 for l, p in zip(lam, permutation)))


def min_cost_assignment(
    lam, mu, tols: Tolerances = DEFAULT_TOLERANCES
) -> AssignmentResult:
    """Globally optimal matching of two spectra under squared-modulus cost.

    Ties between optimal permutations are broken toward the
    lexicographically smallest one; permutations within
    ``tols.tie * (1 + best)`` of the optimum count as tied.  Raises
    ``NonFiniteError`` on NaN or infinite values and on overflowing distances.
    """
    lam = [complex(z) for z in lam]
    mu = [complex(z) for z in mu]
    if len(lam) != len(mu):
        raise LengthMismatchError(f"spectra have lengths {len(lam)} and {len(mu)}")
    if not lam:
        raise LengthMismatchError("spectra must be nonempty")
    # every entry is abs(l - m) ** 2 bit for bit, so the optimum agrees
    # exactly with exhaustive enumeration: np.hypot rounds as abs() of a
    # complex scalar, and x ** 2 is pow(), which x * x is not
    with np.errstate(all="ignore"):
        diff = np.subtract.outer(np.array(lam), np.array(mu))
        dist = np.hypot(diff.real, diff.imag)
    try:
        if np.isfinite(dist).all():
            cost = np.array([x ** 2 for x in dist.ravel().tolist()]).reshape(dist.shape)
        else:  # raises as the scalar expression does
            cost = np.array([[abs(l - m) ** 2 for m in mu] for l in lam], dtype=float)
    except OverflowError as exc:  # a finite distance whose square is out of range
        raise NonFiniteError("squared distances overflow") from exc
    if not np.all(np.isfinite(cost)):
        raise NonFiniteError("spectra contain NaN or infinite values, or distances overflow")
    perm = _lex_min_cost_permutation(cost, tols.tie)
    total = assignment_cost(lam, mu, perm)
    return AssignmentResult(permutation=tuple(perm), cost=total, cost_matrix=cost)


# -- constructive conjugate fold ---------------------------------------------


def fold_conjugate_assignment(
    mu2n, gamma2n, sigma
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split a 2n-matching over conjugate-duplicated targets into two n-matchings.

    ``mu2n`` holds (mu_1..mu_n, conj(mu_1)..conj(mu_n)); ``sigma`` is a
    permutation of 0..2n-1 matching position i with target sigma[i] in the
    duplicated target list (delta_1..delta_n, conj(delta_1)..conj(delta_n));
    ``gamma2n[i]`` must equal the unconjugated target value delta_{t(i)}
    where t(i) = sigma[i] mod n.  Each target index then occurs exactly
    twice among t, and the iterative swap procedure rearranges the two
    halves so that each becomes a bijection on 0..n-1.  The total matched
    cost is preserved exactly; the cheaper permutation is returned first.
    """
    mu2n = [complex(z) for z in mu2n]
    gamma2n = [complex(z) for z in gamma2n]
    if len(mu2n) != len(gamma2n) or len(mu2n) % 2:
        raise LengthMismatchError("mu and gamma lists must share an even length")
    n = len(mu2n) // 2
    sigma = [int(s) for s in sigma]
    if sorted(sigma) != list(range(2 * n)):
        raise MalformedPairingError("sigma is not a permutation of 0..2n-1")

    targets = [s % n for s in sigma]
    # each target index occurs exactly twice, and gamma must be consistent
    canon: dict[int, complex] = {}
    for i, t in enumerate(targets):
        if t in canon:
            if abs(canon[t] - gamma2n[i]) > 1e-9 * (1.0 + abs(canon[t])):
                raise MalformedPairingError(
                    f"gamma values for target {t} disagree: {canon[t]} vs {gamma2n[i]}"
                )
        else:
            canon[t] = gamma2n[i]
    counts = [0] * n
    for t in targets:
        counts[t] += 1
    if any(c != 2 for c in counts):
        raise MalformedPairingError("each target value must occur exactly twice")

    g1 = targets[:n]
    g2 = targets[n:]
    for k in range(1, n):
        # make g1[0..k] duplicate-free, assuming g1[0..k-1] already is
        pos = k
        guard = 0
        while True:
            dup = next(
                (p for p in range(k + 1) if p != pos and g1[p] == g1[pos]), None
            )
            if dup is None:
                break
            g1[pos], g2[pos] = g2[pos], g1[pos]
            nxt = next(
                (p for p in range(k + 1) if p != pos and g1[p] == g1[pos]), None
            )
            if nxt is None:
                break
            pos = nxt
            guard += 1
            if guard > k + 2:  # the procedure provably stops within k+1 swaps
                raise MalformedPairingError("conjugate fold failed to terminate")

    if sorted(g1) != list(range(n)) or sorted(g2) != list(range(n)):
        raise MalformedPairingError("fold did not produce two bijections")

    mu_n = mu2n[:n]
    delta = [canon[t] for t in range(n)]
    c1 = assignment_cost(mu_n, delta, g1)
    c2 = assignment_cost(mu_n, delta, g2)
    if c2 < c1:
        g1, g2 = g2, g1
    return tuple(g1), tuple(g2)


# -- inequality reports -------------------------------------------------------


@dataclass(frozen=True)
class InequalityReport:
    """Outcome of one matched-eigenvalue perturbation inequality check."""

    kind: str                      # "hw" | "hw-type" | "hw-type-poly"
    lhs: float                     # optimally matched squared eigenvalue distance
    rhs: float                     # squared Frobenius bound, kappa-weighted if typed
    holds: bool
    slack: float                   # rhs - lhs
    permutation: tuple[int, ...]   # 0-based witness matching
    kappa: float | None = None
    theorem_class: str | None = None
    digests: dict[str, str] = field(default_factory=dict)

    def permutation_one_based(self) -> tuple[int, ...]:
        return tuple(j + 1 for j in self.permutation)


def _holds(lhs: float, rhs: float, tols: Tolerances) -> bool:
    return lhs <= rhs * (1.0 + tols.ineq_rel) + tols.ineq_abs


def hw_report(
    a: QMatrix,
    b: QMatrix,
    tols: Tolerances = DEFAULT_TOLERANCES,
    kind: str = "hw",
    kappa: float | None = None,
    theorem_class: str | None = None,
    *,
    normal: bool = False,
) -> InequalityReport:
    """Assemble the matched-cost vs Frobenius-bound report without preconditions.

    Used directly to *demonstrate* failures on inputs that do not satisfy a
    theorem's hypotheses (for example non-normal block companion matrices).
    ``normal`` is passed on to ``standard_eigenvalues`` for both operands.
    A ``kappa`` weights the bound: rhs is kappa^2 ||A - B||_F^2.
    """
    if a.shape != b.shape or not a.is_square:
        raise ShapeMismatchError(f"need equal square shapes, got {a.shape} and {b.shape}")
    lam = standard_eigenvalues(a, tols, normal=normal)
    mu = standard_eigenvalues(b, tols, normal=normal)
    match = min_cost_assignment(lam.values, mu.values, tols)
    rhs = (1.0 if kappa is None else kappa * kappa) * _squared_norm(a - b)
    return InequalityReport(
        kind=kind,
        lhs=match.cost,
        rhs=rhs,
        holds=_holds(match.cost, rhs, tols),
        slack=rhs - match.cost,
        permutation=match.permutation,
        kappa=kappa,
        theorem_class=theorem_class,
    )


def hw_check(
    a: QMatrix, b: QMatrix, tols: Tolerances = DEFAULT_TOLERANCES
) -> InequalityReport:
    """Hoffman-Wielandt check for two normal quaternion matrices.

    A False ``holds`` on inputs satisfying the precondition signals a
    numerical or implementation fault, never expected behavior.

    Both operands being normal, their standard eigenvalues come from one
    Hermitian eigensolve of H + tK on each adjoint (Bunse-Gerstner, Byers &
    Mehrmann 1993).  Each is accepted only on its residual certificate,
    which the Hoffman-Wielandt theorem turns into an eigenvalue error bound
    of about 64 * 2n * eps * ||chi||_F; an operand that fails it (normal
    only to the predicate tolerance) takes the general eigensolver.
    """
    if not is_normal(a, tols.predicate):
        raise NotNormalError("first operand is not normal at the configured tolerance")
    if not is_normal(b, tols.predicate):
        raise NotNormalError("second operand is not normal at the configured tolerance")
    return hw_report(a, b, tols, kind="hw", normal=True)


def hw_type_check(
    a: QMatrix, b: QMatrix, tols: Tolerances = DEFAULT_TOLERANCES
) -> InequalityReport:
    """Hoffman-Wielandt-type check: diagonalizable A, arbitrary B.

    The bound is kappa(X)^2 ||A-B||_F^2 with X the computed diagonalizer.
    """
    if a.shape != b.shape or not a.is_square:
        raise ShapeMismatchError(f"need equal square shapes, got {a.shape} and {b.shape}")
    diag = diagonalize(a, tols)  # raises NotDiagonalizableError
    kappa = condition_number(diag.transform, tols)
    return hw_report(a, b, tols, kind="hw-type", kappa=kappa)


# -- the built-in non-standard right-eigenvalue demonstration ----------------


@dataclass(frozen=True)
class NonStandardReport:
    """Standard eigenvalues satisfy the inequality; other right-eigenvalue
    representatives from the same similarity classes break it."""

    standard: InequalityReport
    nonstandard_costs: tuple[float, ...]  # matched cost per permutation of {0,1}
    nonstandard_min_cost: float
    frobenius_sq: float
    violates: bool


def non_standard_counterexample(
    tols: Tolerances = DEFAULT_TOLERANCES,
) -> NonStandardReport:
    """Reproduce the diag(1+i, 1) vs diag(i, 1) demonstration.

    With standard eigenvalues the matched cost equals ||A-B||_F^2 = 1.
    Choosing the similar-but-not-standard right eigenvalue 1-i for the first
    matrix makes every matching cost exceed the bound.
    """
    a = QMatrix.from_complex(np.diag([1 + 1j, 1.0]))
    b = QMatrix.from_complex(np.diag([1j, 1.0]))
    standard = hw_check(a, b, tols)
    mu = [1 - 1j, 1.0]          # right eigenvalues of A outside the upper half plane
    delta = [1j, 1.0]           # standard eigenvalues of B
    costs = (
        assignment_cost(mu, delta, (0, 1)),
        assignment_cost(mu, delta, (1, 0)),
    )
    fro_sq = (a - b).frobenius_norm() ** 2
    min_cost = min(costs)
    return NonStandardReport(
        standard=standard,
        nonstandard_costs=costs,
        nonstandard_min_cost=min_cost,
        frobenius_sq=fro_sq,
        violates=min_cost > fro_sq,
    )
