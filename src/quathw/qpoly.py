"""Right quaternion matrix polynomials and their block companion matrices.

A polynomial sum_i A_i lambda^i (ascending coefficients, invertible leading
coefficient) is normalized to the monic form with B_i equal to the left
product A_m^-1 A_i; the block companion matrix stacks shift blocks over the
row (-B_0, ..., -B_{m-1}).  Standard eigenvalues of the polynomial are the
standard eigenvalues of that companion matrix.

The coefficient-wise complex adjoint gives a complex matrix polynomial
whose companion matrix is permutation-similar to the adjoint of the
quaternion companion; both eigenvalue routes are computed and cross-checked.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import clinalg
from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import (
    NotDiagonalizableError,
    NotLinearError,
    PairingFailureError,
    PreconditionViolatedError,
    ShapeMismatchError,
    SingularLeadingCoefficientError,
    SingularMatrixError,
)
from .hw import InequalityReport, _report, min_cost_assignment
from .qmatrix import (
    _COUPLING,
    Diagonalization,
    QMatrix,
    StandardSpectrum,
    _accepted,
    _fold_conjugate_spectrum,
    _groups,
    _normal_basis,
    _squared_norm,
    adjoint,
    diagonalize,
    inverse,
    is_diagonal,
    is_positive_semidefinite,
    is_unitary,
    standard_eigenvalues,
)
from .quaternion import similarity_witness, standard_representative

_SIMILARITY_RESIDUAL = 1e-10  # companion_similarity_witness: the copies are exact


@dataclass(frozen=True)
class QMatrixPolynomial:
    """Right quaternion matrix polynomial with ascending coefficients."""

    coefficients: tuple[QMatrix, ...]

    def __post_init__(self):
        if len(self.coefficients) < 2:
            raise ShapeMismatchError("polynomial degree must be at least 1")
        n = self.coefficients[0].rows
        for c in self.coefficients:
            if not c.is_square or c.rows != n:
                raise ShapeMismatchError("all coefficients must be square of equal size")

    @property
    def size(self) -> int:
        return self.coefficients[0].rows

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    @property
    def leading(self) -> QMatrix:
        return self.coefficients[-1]

    def is_monic(self, tol: float = 1e-12) -> bool:
        eye = QMatrix.identity(self.size)
        return (self.leading - eye).frobenius_norm() <= tol * (1.0 + np.sqrt(self.size))


@dataclass(frozen=True)
class CompanionMatrix:
    """Block companion matrix together with the monic coefficients B_i."""

    matrix: QMatrix
    monic_coefficients: tuple[QMatrix, ...]  # B_0 .. B_{m-1}


def monicize(p: QMatrixPolynomial, tols: Tolerances = DEFAULT_TOLERANCES) -> QMatrixPolynomial:
    """Left-normalize to a monic polynomial with B_i = A_m^-1 A_i.

    Right eigenvalues are unchanged by this normalization.  Raises
    SingularLeadingCoefficientError when A_m is not invertible.
    """
    if p.is_monic():
        return p
    try:
        lead_inv = inverse(p.leading, tols)
    except SingularMatrixError as exc:
        raise SingularLeadingCoefficientError(
            f"leading coefficient is not invertible: {exc}"
        ) from exc
    new_coeffs = [lead_inv @ c for c in p.coefficients[:-1]]
    new_coeffs.append(QMatrix.identity(p.size))
    monic = QMatrixPolynomial(tuple(new_coeffs))
    for b, a in zip(monic.coefficients[:-1], p.coefficients[:-1]):
        defect = (p.leading @ b - a).frobenius_norm()
        if defect > tols.monic_residual * (1.0 + a.frobenius_norm()) * max(
            1.0, _squared_norm(p.leading)
        ):
            raise SingularLeadingCoefficientError(
                f"monic normalization residual {defect:.3e} is too large; "
                "leading coefficient is numerically singular"
            )
    return monic


def companion(p: QMatrixPolynomial, tols: Tolerances = DEFAULT_TOLERANCES) -> CompanionMatrix:
    """The mn x mn block companion matrix of the monic normalization."""
    return _monic_companion(monicize(p, tols))


def _monic_companion(monic: QMatrixPolynomial) -> CompanionMatrix:
    n, m = monic.size, monic.degree
    bs = monic.coefficients[:-1]
    if m == 1:
        return CompanionMatrix(matrix=-bs[0], monic_coefficients=tuple(bs))
    zero = QMatrix.zeros(n)
    eye = QMatrix.identity(n)
    grid = []
    for r in range(m - 1):
        grid.append([eye if c == r + 1 else zero for c in range(m)])
    grid.append([-b for b in bs])
    return CompanionMatrix(matrix=QMatrix.block(grid), monic_coefficients=tuple(bs))


# -- complex adjoint polynomial ----------------------------------------------


@dataclass(frozen=True)
class ComplexMatrixPolynomial:
    """Complex matrix polynomial, ascending coefficients."""

    coefficients: tuple[np.ndarray, ...]

    @property
    def size(self) -> int:
        return self.coefficients[0].shape[0]

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1


def adjoint_polynomial(p: QMatrixPolynomial) -> ComplexMatrixPolynomial:
    """Coefficient-wise adjoint embedding; degree and monicity are preserved."""
    return ComplexMatrixPolynomial(tuple(adjoint(c) for c in p.coefficients))


def complex_companion(p: ComplexMatrixPolynomial, pivot_tol: float = 1e-13) -> np.ndarray:
    """Block companion of a complex matrix polynomial (monicized on the left)."""
    coeffs = [np.asarray(c, dtype=complex) for c in p.coefficients]
    n = coeffs[0].shape[0]
    m = len(coeffs) - 1
    lead = coeffs[-1]
    if np.linalg.norm(lead - np.eye(n)) > 1e-12 * (1.0 + np.sqrt(n)):
        try:
            lead_inv = clinalg.inverse(lead, pivot_tol=pivot_tol)
        except SingularMatrixError as exc:
            raise SingularLeadingCoefficientError(str(exc)) from exc
        coeffs = [lead_inv @ c for c in coeffs[:-1]] + [np.eye(n, dtype=complex)]
    c = np.zeros((m * n, m * n), dtype=complex)
    for r in range(m - 1):
        c[r * n : (r + 1) * n, (r + 1) * n : (r + 2) * n] = np.eye(n)
    for kdx in range(m):
        c[(m - 1) * n :, kdx * n : (kdx + 1) * n] = -coeffs[kdx]
    return c


@dataclass(frozen=True)
class SimilarityWitness:
    """Block permutation relating the companion routes.

    ``block_map`` maps block-row r to the block column it selects in the
    2m x 2m block grid (block size n); ``residual`` is
    ||chi(C_P) - P C(P_chi) P^T||_F, which is zero up to exact copies.
    """

    permutation_matrix: np.ndarray
    block_map: tuple[int, ...]
    residual: float


def companion_similarity_witness(
    p: QMatrixPolynomial, tols: Tolerances = DEFAULT_TOLERANCES
) -> SimilarityWitness:
    """Construct the permutation P with chi(C_P) = P C(P_chi) P^-1 and verify it."""
    monic = monicize(p, tols)
    n, m = monic.size, monic.degree
    chi_cp = adjoint(companion(monic, tols).matrix)
    c_pchi = complex_companion(adjoint_polynomial(monic), pivot_tol=tols.pivot)
    # block-row r (0-based) of P selects block column 2r for r < m and
    # 2(r-m)+1 for r >= m
    block_map = tuple(2 * r if r < m else 2 * (r - m) + 1 for r in range(2 * m))
    # row k of P is the unit vector e_idx[k], so P C P^T = C[idx][:, idx]
    idx = np.concatenate([np.arange(c * n, (c + 1) * n) for c in block_map])
    perm = np.eye(2 * m * n)[idx]
    residual = float(np.linalg.norm(chi_cp - c_pchi[np.ix_(idx, idx)], "fro"))
    bound = _SIMILARITY_RESIDUAL * (1.0 + float(np.linalg.norm(chi_cp, "fro")))
    if residual > bound:
        raise PairingFailureError(
            f"companion similarity residual {residual:.3e} exceeds {bound:.3e}"
        )
    return SimilarityWitness(
        permutation_matrix=perm, block_map=block_map, residual=residual
    )


def standard_eigenvalues_poly(
    p: QMatrixPolynomial, tols: Tolerances = DEFAULT_TOLERANCES
) -> StandardSpectrum:
    """Standard eigenvalues of the polynomial (those of its companion matrix).

    Cross-checked against the fold of the complex adjoint polynomial's
    companion spectrum; a mismatch raises PairingFailureError.
    """
    monic = monicize(p, tols)
    comp = _monic_companion(monic)
    spectrum = standard_eigenvalues(comp.matrix, tols)

    c_pchi = complex_companion(adjoint_polynomial(monic), pivot_tol=tols.pivot)
    w = clinalg.eigenvalues(c_pchi).values
    scale = max(comp.matrix.frobenius_norm(), 1.0)
    folded = sorted(
        _fold_conjugate_spectrum(w, scale, tols)[0], key=lambda z: (z.real, z.imag)
    )
    worst = _max_matched_distance(spectrum.values, folded)
    if worst > 1e-6 * scale:
        raise PairingFailureError(
            f"adjoint-polynomial route disagrees with the companion route "
            f"(matched distance {worst:.3e})"
        )
    return spectrum


def _max_matched_distance(a, b) -> float:
    """Largest pairwise distance under the min-sum (squared) matching.

    This is not the bottleneck optimum: a matching with a larger squared
    sum can have a smaller largest distance.
    """
    res = min_cost_assignment(list(a), list(b))
    return float(
        max(abs(complex(x) - complex(b[j])) for x, j in zip(a, res.permutation))
    )


# -- eigenvalue location bounds ------------------------------------------------


@dataclass(frozen=True)
class BoundReport:
    """Moduli of all standard eigenvalues against an interval bound."""

    klass: str                  # "unitary" | "doubly-stochastic" | "commuting-disc"
    lower: float                # lower endpoint (open unless 0)
    upper: float                # upper endpoint (open)
    lower_strict: bool
    moduli: tuple[float, ...]
    min_modulus: float
    max_modulus: float
    lower_margin: float         # min_modulus - lower
    upper_margin: float         # upper - max_modulus
    holds: bool
    radius: float | None = None  # computed/declared disc radius for the commuting class


def _bound_report(
    klass: str,
    moduli: list[float],
    lower: float,
    upper: float,
    lower_strict: bool,
    tols: Tolerances,
    radius: float | None = None,
) -> BoundReport:
    mn, mx = min(moduli), max(moduli)
    ok_low = mn > lower + tols.strict_margin if lower_strict else mn >= lower
    ok_high = mx < upper - tols.strict_margin
    return BoundReport(
        klass=klass,
        lower=lower,
        upper=upper,
        lower_strict=lower_strict,
        moduli=tuple(sorted(moduli)),
        min_modulus=mn,
        max_modulus=mx,
        lower_margin=mn - lower,
        upper_margin=upper - mx,
        holds=bool(ok_low and ok_high),
        radius=radius,
    )


def bound_check_unitary(
    p: QMatrixPolynomial, tols: Tolerances = DEFAULT_TOLERANCES
) -> BoundReport:
    """All-unitary coefficients put every eigenvalue modulus inside (1/2, 2)."""
    for i, c in enumerate(p.coefficients):
        if not is_unitary(c, tols.predicate):
            raise PreconditionViolatedError(f"coefficient {i} is not unitary")
    moduli = [abs(z) for z in standard_eigenvalues_poly(p, tols).values]
    return _bound_report("unitary", moduli, 0.5, 2.0, True, tols)


def _check_real_matrix(c: QMatrix, tol: float) -> np.ndarray:
    scale = 1.0 + c.frobenius_norm()
    if (
        float(np.linalg.norm(c.c1.imag)) > tol * scale
        or float(np.linalg.norm(c.c2)) > tol * scale
    ):
        raise PreconditionViolatedError("coefficient is not a real matrix")
    return c.c1.real


def _is_doubly_stochastic(m: np.ndarray, tol: float) -> bool:
    if np.any(m < -tol):
        return False
    ones = np.ones(m.shape[0])
    atol = tol * m.shape[0]
    # np.allclose with rtol=0 (and NaN unequal), without its overhead
    return bool(
        (np.abs(m @ ones - 1.0) <= atol).all() and (np.abs(m.T @ ones - 1.0) <= atol).all()
    )


def _is_permutation_matrix(m: np.ndarray, tol: float) -> bool:
    if not _is_doubly_stochastic(m, tol):
        return False
    near01 = np.minimum(np.abs(m), np.abs(m - 1.0))
    return bool(np.max(near01) <= tol)


def bound_check_doubly_stochastic(
    p: QMatrixPolynomial, tols: Tolerances = DEFAULT_TOLERANCES
) -> BoundReport:
    """Doubly stochastic coefficients with permutation ends: moduli in (1/2, 2)."""
    tol = tols.doubly_stochastic
    mats = []
    for i, c in enumerate(p.coefficients):
        m = _check_real_matrix(c, tol)
        if not _is_doubly_stochastic(m, tol):
            raise PreconditionViolatedError(f"coefficient {i} is not doubly stochastic")
        mats.append(m)
    if not _is_permutation_matrix(mats[0], tol):
        raise PreconditionViolatedError("constant term is not a permutation matrix")
    if not _is_permutation_matrix(mats[-1], tol):
        raise PreconditionViolatedError("leading coefficient is not a permutation matrix")
    moduli = [abs(z) for z in standard_eigenvalues_poly(p, tols).values]
    return _bound_report("doubly-stochastic", moduli, 0.5, 2.0, True, tols)


def _commutator(a: QMatrix, b: QMatrix, tols: Tolerances) -> tuple[float, bool]:
    """||AB - BA||_F and whether it is within the commute tolerance."""
    comm = (a @ b - b @ a).frobenius_norm()
    return comm, comm <= tols.commute * (1.0 + a.frobenius_norm() * b.frobenius_norm())


def bound_check_commuting_disc(
    p: QMatrixPolynomial,
    r: float | None = None,
    tols: Tolerances = DEFAULT_TOLERANCES,
) -> BoundReport:
    """Monic with commuting lower coefficients: moduli in [0, r+1).

    ``r`` defaults to the largest standard-eigenvalue modulus over the
    non-leading coefficients; a supplied radius must be finite and cover
    that value.
    """
    if not p.is_monic(tol=1e-10):
        raise PreconditionViolatedError("polynomial must be monic for the disc bound")
    lower = p.coefficients[:-1]
    for i in range(len(lower)):
        for j in range(i + 1, len(lower)):
            comm, commute = _commutator(lower[i], lower[j], tols)
            if not commute:
                raise PreconditionViolatedError(
                    f"coefficients {i} and {j} do not commute (residual {comm:.3e})"
                )
    computed_r = max(
        (
            max(abs(z) for z in standard_eigenvalues(c, tols).values)
            for c in lower
        ),
        default=0.0,
    )
    if r is None:
        radius = computed_r
    else:
        if not np.isfinite(r):
            raise PreconditionViolatedError(f"disc radius must be finite, got {r!r}")
        if computed_r > r + tols.strict_margin:
            raise PreconditionViolatedError(
                f"coefficient eigenvalues reach modulus {computed_r:.6g}, "
                f"outside the declared disc of radius {r:.6g}"
            )
        radius = float(r)
    moduli = [abs(z) for z in standard_eigenvalues_poly(p, tols).values]
    return _bound_report(
        "commuting-disc", moduli, 0.0, radius + 1.0, False, tols, radius=radius
    )


# -- diagonalizability of companion matrices -----------------------------------


@dataclass(frozen=True)
class CompanionDiagonalizability:
    """Diagonalizability verdict for a companion matrix."""

    diagonalizable: bool
    klass: str                       # coefficient class that justified the claim
    transform: QMatrix | None = None  # the fields below are None when defective
    values: tuple[complex, ...] | None = None
    kappa: float | None = None
    residual: float | None = None


def _diagonal_coefficient_result(comp: QMatrix, tols: Tolerances) -> Diagonalization:
    """Diagonal companion: conjugate each entry to its standard representative.

    The witness matrix is a diagonal of unit quaternions, so kappa is 1; it
    reduces to the identity when every entry is already a complex number in
    the upper half plane.  The values are closed forms, not a conjugate fold,
    so they meet ``_accepted`` with a fold residual of 0.
    """
    entries = [comp[k, k] for k in range(comp.rows)]
    witnesses = [similarity_witness(q) for q in entries]
    values = [standard_representative(q) for q in entries]
    order = sorted(range(comp.rows), key=lambda k: (values[k].real, values[k].imag))
    d = QMatrix.diagonal(witnesses)
    x = QMatrix(d.c1[:, order], d.c2[:, order])  # columns in eigenvalue order
    return _accepted(comp, x, tuple(values[k] for k in order), 0.0, tols)


# silver-ratio weight of U_1 in the pencil U_0 + s U_1: irrational, and
# apart from the normal route's own golden-ratio weight
_PENCIL_S = np.sqrt(2.0) - 1.0


def _commuting_unitary_result(comp: CompanionMatrix, tols: Tolerances) -> Diagonalization | None:
    """Companion of a monic quadratic with commuting unitary U_0, U_1, built
    as the proof builds it, or None when the construction does not apply.

    Commuting normal quaternion matrices have a common unitary diagonalizer
    with complex diagonals (F. Zhang, LAA 251, 1997).  One normal-route
    solve of chi(U_0 + s U_1), s irrational, gives it.  Vectors that eigh
    mixed, because their values of H + tK nearly coincide, are the route's
    coupled groups, and each group's vectors are rotated by the
    eigenvectors of its block of G (one Rayleigh-Ritz step).  When no two
    of the pencil's 2n values then lie within the route's coupling radius,
    each vector v is an eigenvector of chi(U_0) and of chi(U_1), and of each
    conjugate pair (v, J conj(v)) the one with Im v^H chi(U_0 + s U_1) v > 0
    is kept.  The kept vectors are the columns of a quaternion unitary W
    with W* U_0 W = diag(alpha) and W* U_1 W = diag(beta), their Rayleigh
    quotients.  The companion then splits into the scalar companions
    [[0, 1], [-alpha_k, -beta_k]], whose roots r (by the stable quadratic
    formula) have the unit eigenvectors [1, r]^T / sqrt(1 + |r|^2), so X
    has the columns [w_k; w_k r] / sqrt(1 + |r|^2).  A root below the real
    axis is replaced by its conjugate, and its column is multiplied on the
    right by j.

    Returns None, and the companion goes to ``diagonalize``, when the
    pencil's certificate fails, when two of its values lie within the
    coupling radius (a real value and its own conjugate do; U_0 = U_1 = I
    puts all 2n there), or when X fails ``_accepted`` (its fold residual is
    0: the roots are closed forms).
    """
    u0, u1 = comp.monic_coefficients
    n = u0.rows
    chi0, chi1 = adjoint(u0), adjoint(u1)
    basis = _normal_basis(chi0 + _PENCIL_S * chi1)
    if basis is None:
        return None
    v, mu = basis.vectors, np.diagonal(basis.g)
    if basis.labels is not None:  # eigh mixed them: one Rayleigh-Ritz step per group
        v, mu = v.copy(), mu.copy()
        for idx in _groups(basis.labels):
            mu[idx], y = np.linalg.eig(basis.g[np.ix_(idx, idx)])
            v[:, idx] = v[:, idx] @ y
    diff = mu[:, np.newaxis] - mu[np.newaxis, :]
    if np.count_nonzero(np.hypot(diff.real, diff.imag) <= _COUPLING * basis.unit) > 2 * n:
        return None  # a pair of coupled values besides the diagonal's
    keep = mu.imag > 0.0
    if np.count_nonzero(keep) != n:  # pragma: no cover - the pairs are apart
        return None
    v = v[:, keep]
    alpha = np.einsum("ik,ik->k", v.conj(), chi0 @ v)
    beta = np.einsum("ik,ik->k", v.conj(), chi1 @ v)
    # r^2 + beta r + alpha = 0: the larger root from the sum whose terms do
    # not cancel, the other from r_1 r_2 = alpha, |alpha| = 1
    root = np.sqrt(beta * beta - 4.0 * alpha)
    root = np.where((beta.conj() * root).real < 0.0, -root, root)
    big = -0.5 * (beta + root)
    r = np.concatenate([big, alpha / big])
    lower = r.imag < 0.0  # the column w j has eigenvalue conj(r)
    lam = np.where(lower, r.conj(), r)
    order = np.lexsort((lam.imag, lam.real))
    lam, lower, k = lam[order], lower[order], np.tile(np.arange(n), 2)[order]
    w1, w2 = v[:n, k], -v[n:, k].conj()  # column k of W = W1 + W2 j, per root
    norm = 1.0 / np.sqrt(1.0 + np.abs(lam) ** 2)
    c1 = np.where(lower, -w2, w1) * norm  # u = w or w j, over sqrt(1 + |lam|^2)
    c2 = np.where(lower, w1, w2) * norm
    x = QMatrix._adopt(  # columns [u; u lam], u = c1 + c2 j
        np.concatenate([c1, c1 * lam]), np.concatenate([c2, c2 * lam.conj()])
    )
    try:
        return _accepted(comp.matrix, x, tuple(lam.tolist()), 0.0, tols)
    except NotDiagonalizableError:
        return None


def _classify_for_diagonalizability(p: QMatrixPolynomial, tols: Tolerances) -> str:
    """First coefficient class that guarantees a diagonalizable companion, or "none".

    Degree 1 tries unitary, diagonal, then positive semidefinite coefficients;
    degree 2 needs a monic polynomial with commuting unitary lower coefficients.
    """
    if p.degree == 1:
        a0, a1 = p.coefficients
        if is_unitary(a0, tols.predicate) and is_unitary(a1, tols.predicate):
            return "unitary"
        if is_diagonal(a0) and is_diagonal(a1):
            return "diagonal"
        if is_positive_semidefinite(a0, tols.predicate) and is_positive_semidefinite(
            a1, tols.predicate
        ):
            return "psd"
        return "none"
    return "commuting-unitary" if _commuting_unitary_failure(p, tols) is None else "none"


def _commuting_unitary_failure(p: QMatrixPolynomial, tols: Tolerances) -> str | None:
    """The first hypothesis of the commuting-unitary class that ``p`` fails
    (degree 2, monic, unitary coefficients that commute), worded as an
    error, or None when it meets them."""
    if p.degree != 2:
        return f"expected degree 2, got degree {p.degree}"
    if not p.is_monic(tol=1e-10):
        return "polynomial must be monic"
    u0, u1 = p.coefficients[0], p.coefficients[1]
    for name, u in (("constant", u0), ("linear", u1)):
        if not is_unitary(u, tols.predicate):
            return f"{name} coefficient is not unitary"
    comm, commute = _commutator(u0, u1, tols)
    return None if commute else f"coefficients do not commute (residual {comm:.3e})"


def _diagonalized_companion(
    comp: CompanionMatrix, klass: str, tols: Tolerances
) -> tuple[Diagonalization | None, bool]:
    """The companion diagonalized by the construction of class ``klass``
    (diagonal or commuting-unitary), or else by ``diagonalize``, each ending
    in ``_accepted``, and whether the values are the construction's closed
    forms.  A defect raises NotDiagonalizableError under a guaranteeing
    class and gives (None, False) under "none"."""
    diag = None
    if klass == "diagonal":
        diag = _diagonal_coefficient_result(comp.matrix, tols)
    elif klass == "commuting-unitary":
        diag = _commuting_unitary_result(comp, tols)
    if diag is not None:
        return diag, True
    try:
        return diagonalize(comp.matrix, tols), False
    except NotDiagonalizableError:
        if klass != "none":
            raise
        return None, False


def _companion_verdict(
    p: QMatrixPolynomial, klass: str, tols: Tolerances
) -> CompanionDiagonalizability:
    """The companion of ``p`` diagonalized by ``_diagonalized_companion``."""
    diag, _ = _diagonalized_companion(companion(p, tols), klass, tols)
    if diag is None:
        return CompanionDiagonalizability(diagonalizable=False, klass=klass)
    return CompanionDiagonalizability(
        True, klass, diag.transform, diag.values, diag.kappa, diag.residual
    )


def diagonalizable_companion(
    p: QMatrixPolynomial, tols: Tolerances = DEFAULT_TOLERANCES
) -> CompanionDiagonalizability:
    """Classify the coefficients, then diagonalize the companion matrix.

    A class other than "none" guarantees diagonalizability, so a defect
    found under it raises NotDiagonalizableError.  Under class "none" the
    raw outcome is reported, with ``diagonalizable=False`` for a defective
    companion.
    """
    return _companion_verdict(p, _classify_for_diagonalizability(p, tols), tols)


def diagonalizable_companion_linear(
    p: QMatrixPolynomial, tols: Tolerances = DEFAULT_TOLERANCES
) -> CompanionDiagonalizability:
    """:func:`diagonalizable_companion` restricted to linear polynomials."""
    if p.degree != 1:
        raise NotLinearError(f"expected degree 1, got degree {p.degree}")
    return diagonalizable_companion(p, tols)


def diagonalizable_companion_quadratic_unitary(
    p: QMatrixPolynomial, tols: Tolerances = DEFAULT_TOLERANCES
) -> CompanionDiagonalizability:
    """Monic quadratic with commuting unitary coefficients: companion is
    diagonalizable, by an X with kappa(X) <= sqrt(3) for every size n.

    X is that of ``_commuting_unitary_result``, or of ``diagonalize`` where
    that construction does not apply; the bound is proved for the former.
    Its X is diag(W, W) times a permutation times the block diagonal of the
    2 x 2 blocks [x_1, x_2] of unit columns [1, r_i]^T / sqrt(1 + |r_i|^2),
    each column times 1 or j.  W and the unit factors are unitary, so
    kappa(X) is the largest kappa of a block.  The roots of
    r^2 + beta r + alpha, |alpha| = |beta| = 1, satisfy
    |r_1 r_2| = |r_1 + r_2| = 1.  Let rho = |r_1|, so |r_2| = 1/rho, and
    |r_1 + r_2|^2 = 1 gives 2 Re(conj(r_1) r_2) = 1 - rho^2 - rho^-2, so
    |1 + conj(r_1) r_2|^2 = 3 - rho^2 - rho^-2.  The columns' cosine
    c = |1 + conj(r_1) r_2| / sqrt((1 + rho^2)(1 + rho^-2)) then satisfies

        c^2 = (3 rho^2 - rho^4 - 1) / (1 + rho^2)^2 <= 1/4:

    with x = rho^2 the derivative of (3x - x^2 - 1) / (1 + x)^2 is
    5 (1 - x) / (1 + x)^3, so the maximum is 1/4 at rho = 1, and c^2 >= 0
    confines rho to [1/phi, phi], phi the golden ratio.  A block of unit
    columns has singular values sqrt(1 + c) and sqrt(1 - c), so
    kappa = sqrt((1 + c) / (1 - c)) <= sqrt(3), with equality when both
    roots lie on the unit circle.  The computed kappa exceeds sqrt(3) only
    by rounding, of order n eps.
    """
    failure = _commuting_unitary_failure(p, tols)
    if failure is not None:
        raise PreconditionViolatedError(failure)
    return _companion_verdict(p, "commuting-unitary", tols)


def hw_type_poly(
    p: QMatrixPolynomial, q: QMatrixPolynomial, tols: Tolerances = DEFAULT_TOLERANCES
) -> InequalityReport:
    """Hoffman-Wielandt-type inequality for two companion matrices.

    The first polynomial's companion must be diagonalizable; the justifying
    coefficient class (when one applies) is recorded in the report.
    ``_diagonalized_companion`` diagonalizes it, and the one acceptance
    step, ``_accepted``, raises on a defect and then on a fold beyond the
    pairing tolerance.  When a class construction gave closed-form values,
    the standard eigenvalues come from ``standard_eigenvalues``; otherwise
    they are the values of ``diagonalize``, as in ``hw_type_check``.
    """
    if p.size != q.size or p.degree != q.degree:
        raise ShapeMismatchError(
            f"polynomials differ in shape: size/degree {p.size}/{p.degree} "
            f"vs {q.size}/{q.degree}"
        )
    klass = _classify_for_diagonalizability(p, tols)
    comp = companion(p, tols)
    cp = comp.matrix
    cq = companion(q, tols).matrix
    diag, closed = _diagonalized_companion(comp, klass, tols)
    if diag is None:
        raise NotDiagonalizableError(
            "companion matrix of the first polynomial is not diagonalizable"
        )
    lam = standard_eigenvalues(cp, tols) if closed else diag  # the eigensolver's values
    return _report(
        lam, standard_eigenvalues(cq, tols), cp, cq, tols, "hw-type-poly", diag.kappa, klass
    )
