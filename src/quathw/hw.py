"""Optimal eigenvalue matching and Hoffman-Wielandt inequality checks.

The matching kernel solves min over permutations of sum |lam_i - mu_s(i)|^2
with one potentials state: row and column duals, the column->row match and
an active-column mask.  Shortest augmenting paths (Jonker & Volgenant 1987)
give the optimum ``best``, each path step scanning a whole cost row as one
numpy vector.  The returned permutation is the lexicographically smallest
one whose cost is within ``tie * max(best, tiny)`` of the optimum (tiny the
smallest normal double, so a power-of-two scaling picks the same one): rows
are fixed in order, and a column before a row's current match is tried only
when its reduced cost allows it, by one augmenting path on a copy of the state.
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

import math
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances, within
from .errors import (
    LengthMismatchError,
    MalformedPairingError,
    NonFiniteError,
    NotNormalError,
    ShapeMismatchError,
)
from .qmatrix import (
    _PRODUCT_SAFE,
    _PRODUCT_SMALL,
    Diagonalization,
    NormalEigenvalues,
    QMatrix,
    StandardSpectrum,
    _normal_adjoint_eigenvalues,
    _spectrum,
    _square,
    _squared_norm,
    adjoint,
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
    # sums near the top of the range may overflow to inf, a bound that prunes nothing
    with np.errstate(over="ignore"):
        bound = slack + rounding * (np.abs(cost) + np.abs(u)[:, np.newaxis] + np.abs(v))
    order = np.arange(n)
    candidate = (reduced <= bound) & (order < row_col[:, np.newaxis])
    candidate &= col_row > order[:, np.newaxis]
    if not candidate.any():
        return np.zeros(n, dtype=bool)
    with np.errstate(over="ignore"):
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
    """Lexicographically smallest permutation within ``tie*max(best, tiny)`` of the optimum.

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
    slack = tie * max(abs(best), np.finfo(float).tiny)
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
            with np.errstate(over="ignore"):  # as in _tie_certificate
                bound = slack + rounding * (np.abs(cost[i]) + abs(u[i]) + np.abs(v))
            for j in np.flatnonzero((active & (reduced <= bound))[:current]):
                tu, tv, tcol_row, tactive = u.copy(), v.copy(), col_row.copy(), active.copy()
                displaced = int(tcol_row[j])
                tactive[j] = False
                tcol_row[j] = tcol_row[current] = -1
                _augment(cost, tu, tv, tcol_row, tactive, displaced)
                rest = _row_sum(cost, tcol_row, tactive, i + 1)
                if fixed + float(cost[i, j]) + rest <= best + slack:
                    chosen = int(j)
                    u, v, col_row, active = tu, tv, tcol_row, tactive
                    swapped = True
                    break
        if chosen == current:
            active[current] = False
            col_row[current] = -1
        perm.append(chosen)
        fixed += float(cost[i, chosen])  # a Python sum overflows to inf silently
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
    ``tols.tie * max(best, tiny)`` of the optimum count as tied.  Raises
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
    # complex scalar, and np.float_power(x, 2.0) is pow(), which x * x is not
    with np.errstate(all="ignore"):
        diff = np.subtract.outer(np.array(lam), np.array(mu))
        dist = np.hypot(diff.real, diff.imag)
        cost = np.float_power(dist, 2.0)
    finite = np.isfinite(cost)
    if not finite.all():
        if (np.isfinite(dist) & ~finite).any():  # a finite distance, its square out of range
            raise NonFiniteError("squared distances overflow")
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
            if not within(abs(canon[t] - gamma2n[i]), 1e-9, abs(canon[t])):
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


def hw_report(
    a: QMatrix,
    b: QMatrix,
    tols: Tolerances = DEFAULT_TOLERANCES,
    kind: str = "hw",
    kappa: float | None = None,
    theorem_class: str | None = None,
) -> InequalityReport:
    """Assemble the matched-cost vs Frobenius-bound report without preconditions.

    Used directly to *demonstrate* failures on inputs that do not satisfy a
    theorem's hypotheses (for example non-normal block companion matrices).
    A ``kappa`` weights the bound: rhs is kappa^2 ||A - B||_F^2.
    """
    if a.shape != b.shape or not a.is_square:
        raise ShapeMismatchError(f"need equal square shapes, got {a.shape} and {b.shape}")
    lam, mu = standard_eigenvalues(a, tols), standard_eigenvalues(b, tols)
    return _report(lam, mu, a, b, tols, kind, kappa, theorem_class)


def _report(
    lam: StandardSpectrum | Diagonalization,
    mu: StandardSpectrum,
    a: QMatrix,
    b: QMatrix,
    tols: Tolerances,
    kind: str,
    kappa: float | None = None,
    theorem_class: str | None = None,
) -> InequalityReport:
    """``hw_report`` of equal square A and B, with the standard eigenvalues
    of A and B already computed: the ``values`` of ``lam`` and ``mu``.  It
    holds when lhs <= rhs or ``within(lhs - rhs, ineq_rel, rhs + ||A||_F^2 +
    ||B||_F^2)``: lhs errs relative to the operands, and rhs is 0 for A = B."""
    match = min_cost_assignment(lam.values, mu.values, tols)
    rhs = (1.0 if kappa is None else kappa * kappa) * _squared_norm(a - b)
    scale = rhs + _squared_norm(a) + _squared_norm(b)
    return InequalityReport(
        kind=kind,
        lhs=match.cost,
        rhs=rhs,
        holds=match.cost <= rhs or within(match.cost - rhs, tols.ineq_rel, scale),
        slack=rhs - match.cost,
        permutation=match.permutation,
        kappa=kappa,
        theorem_class=theorem_class,
    )


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u), u = 2^-53 the unit roundoff."""
    return k * 2.0**-53 / (1.0 - k * 2.0**-53)


_UNDERFLOW = 2.0**-400  # covers every underflow error of the normality bound


def _proves_normal(x: QMatrix, found: NormalEigenvalues | None, tol: float) -> bool:
    """True when the normal route's ``found`` for the square ``x`` proves
    that ``is_normal(x, tol)`` holds, by the bound of ``hw_check``."""
    fro = x.frobenius_norm()
    if found is None or not _PRODUCT_SMALL <= fro < _PRODUCT_SAFE:
        return False
    m = 2 * x.rows
    lift = 1.0 + _gamma(4 * m * m + 64)
    gemm = _gamma(2 * m + 2)
    chi_fro = math.sqrt(2.0) * (fro * lift + _UNDERFLOW)  # X, at least ||chi||_F
    rho = 3.5 * found.residual + 8.0 * m * gemm * chi_fro + _UNDERFLOW
    commutator = (
        sum(found.commutators)
        + 8.0 * gemm * chi_fro * chi_fro
        + 4.0 * chi_fro * rho
        + 6.0 * rho * rho
    )
    bound = lift**16 * (
        commutator / math.sqrt(2.0)
        + math.sqrt(2.0) * _gamma(m + 2) * chi_fro * chi_fro
        + _UNDERFLOW
    )
    return within(bound, tol, _squared_norm(x))


def hw_check(
    a: QMatrix, b: QMatrix, tols: Tolerances = DEFAULT_TOLERANCES
) -> InequalityReport:
    """Hoffman-Wielandt check for two normal quaternion matrices.

    A False ``holds`` on inputs satisfying the precondition signals a
    numerical or implementation fault, never expected behavior.

    Each operand's standard eigenvalues come from one Hermitian eigensolve
    of H + tK on its adjoint chi (Bunse-Gerstner, Byers & Mehrmann 1993).
    They are accepted only on the residual certificate of
    ``_normal_adjoint_eigenvalues``, which the Hoffman-Wielandt theorem
    turns into an eigenvalue error bound of about 64 * 2n * eps * ||chi||_F;
    an operand that fails it (normal only to the predicate tolerance) takes
    the general eigensolver.

    The precondition is ``is_normal(x, tols.predicate)`` for each operand,
    and an accepted certificate usually proves it without the two
    quaternion products ``is_normal`` forms.  The proof bounds the defect
    that ``is_normal`` would compute, rounding included, and compares it
    with ``tol max(||A||_F^2, tiny)`` by ``within``, exactly as ``is_normal``
    does.  Let n be A's order, m = 2n, u = 2^-53, gamma_k = k u / (1 - k u)
    (Higham, Accuracy and Stability, ch. 3), F the computed ||A||_F, and
    lift = 1 + gamma_{4m^2+64}.  The route gives V (from eigh), the computed
    G = V^H chi V, its accepted residual r (the mass of G outside the
    groups plus ||V^H V - I||_F ||chi||_F, both computed) and c_k, the
    computed ||B_k B_k^H - B_k^H B_k||_F of the block B_k of G of each
    group of more than one index.

    1. ||chi||_F = sqrt(2) ||A||_F <= X = sqrt(2) (F lift + a), with
       a = 2^-400.  With V = U H its polar decomposition and T = U^H chi U,
       ||T T^H - T^H T||_F = ||chi chi^H - chi^H chi||_F
       = sqrt(2) ||A A* - A* A||_F, and ||T||_F = ||chi||_F.
    2. Let eta = ||V^H V - I||_F.  V^H chi V = H T H, and |sqrt(s) - 1| <=
       |s - 1| for the eigenvalues s of V^H V, so
       ||V^H chi V - T||_F <= eta (2 + eta) ||chi||_F.  A complex product
       of inner length k errs by at most gamma_{2k+2} |x|^T |y| per entry,
       whether the complex or the real arithmetic is summed, so
       ||fl(V^H V) - V^H V||_F <= gamma_{2m+2} ||V||_F^2 and
       ||G - V^H chi V||_F <= gamma_{2m+2} ||chi||_F ||V||_F
       (2 ||V||_2 + gamma_{2m+2} ||V||_F).  Acceptance gives
       ||V^H V - I||_F <= 128 m u as computed, so ||V||_F^2 <= 1.01 m,
       ||V||_2 <= 1.01 and eta < 1/2 for every m whose chi fits in memory
       (m < 2^21).  The part R of T outside G's groups then has
       ||R||_F <= rho = 3.5 r + 8 m gamma_{2m+2} X + a: the terms need
       1 r, 2.5 r and about 4 m gamma_{2m+2} X, and the rest absorbs the
       underflow (at most sqrt(N) 2^-537 in a norm of N terms).
    3. T = B + R with B the part of G inside the groups, block diagonal, so
       ||B||_2 <= X + rho and ||T T^H - T^H T||_F <= ||B B^H - B^H B||_F
       + 4 X rho + 6 rho^2.  The blocks of B B^H - B^H B are those of the
       groups, zero for singletons, so its norm is at most sum_k c_k plus
       their product rounding, 2 gamma_{2m+2} ||G||_F^2 <= 8 gamma_{2m+2} X^2.
    4. ``is_normal`` forms each quaternion product as two complex products
       of inner length n and a subtraction, within gamma_{2n+2}
       |chi(A)| |chi(A)^H| per entry, so its defect differs from
       ||A A* - A* A||_F by at most sqrt(2) gamma_{m+2} X^2 (plus a).

    So ``is_normal(x, tol)`` holds when
    lift^16 ((sum_k c_k + 8 gamma_{2m+2} X^2 + 4 X rho + 6 rho^2) / sqrt(2)
    + sqrt(2) gamma_{m+2} X^2 + a) <= tol max(F^2, tiny), where lift^16 covers
    every relative rounding of the computed norms, subtractions and the
    bound's own evaluation (fewer than 16 factors, each at most lift).  On
    random normal operands the left side is about 4.5e-11 ||A||_F^2 at
    n = 32 and 1.7e-10 ||A||_F^2 at n = 64, well below the default
    predicate tolerance of 1e-8.  The proof is not tried, and ``is_normal``
    runs unchanged, when the certificate was not accepted, when F lies
    outside [2^-500, 2^500) (``is_normal`` then rescales; inside it no
    square here overflows) or when a quantity is not finite; ``is_normal``
    also runs when the bound is too large.  Errors are raised in the order
    of the separate calls: a non-square A, NotNormalError for A, a
    non-square B, NotNormalError for B, unequal shapes, then each operand's
    eigensolver fallback and pairing check.
    """
    operands = []
    for x, which in ((a, "first"), (b, "second")):
        chi = adjoint(_square(x))
        found = _normal_adjoint_eigenvalues(chi)
        if not (_proves_normal(x, found, tols.predicate) or is_normal(x, tols.predicate)):
            raise NotNormalError(f"{which} operand is not normal at the configured tolerance")
        operands.append((x, chi, found))
    if a.shape != b.shape:
        raise ShapeMismatchError(f"need equal square shapes, got {a.shape} and {b.shape}")
    lam, mu = (_spectrum(x, chi, found, tols) for x, chi, found in operands)
    return _report(lam, mu, a, b, tols, "hw")


def hw_type_check(
    a: QMatrix, b: QMatrix, tols: Tolerances = DEFAULT_TOLERANCES
) -> InequalityReport:
    """Hoffman-Wielandt-type check: diagonalizable A, the one-sided bound.

    The bound is kappa(X)^2 ||A-B||_F^2, kappa(X) the ``Diagonalization.kappa``
    of A: the two-sided kappa(X)^2 kappa(Y)^2 ||A-B||_F^2 with kappa(Y) = 1, a
    theorem only for a normal B, which is not checked; for another B a False
    ``holds`` is no program fault (J.-G. Sun, LAA 246, 1996).  A's standard
    eigenvalues are the diagonalization's own, which are exactly those of
    ``standard_eigenvalues``: ``diagonalize`` ends in the one acceptance
    step, ``qmatrix._accepted``, which raises NotDiagonalizableError on a
    defect and then PairingFailureError under the same pairing check.
    """
    if a.shape != b.shape or not a.is_square:
        raise ShapeMismatchError(f"need equal square shapes, got {a.shape} and {b.shape}")
    diag = diagonalize(a, tols)
    return _report(diag, standard_eigenvalues(b, tols), a, b, tols, "hw-type", diag.kappa)


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
