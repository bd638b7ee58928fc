"""Dense complex linear algebra kernel.

Thin, contract-enforcing layer over LAPACK (through numpy): general and
Hermitian eigendecompositions, singular values, spectral norm and inverse.
Matrices are plain complex ``numpy.ndarray`` values; nothing here knows
about quaternions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    NoConvergenceError,
    NonFiniteError,
    NotHermitianError,
    ShapeMismatchError,
    SingularMatrixError,
)

_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues (lexicographically sorted), optional eigenvectors, residual.

    When eigenvectors are present, ``vectors[:, k]`` belongs to ``values[k]``
    and ``residual`` is max_k ||A v_k - v_k lambda_k||_2 / ||A||_F.
    """

    values: np.ndarray
    vectors: np.ndarray | None = None
    residual: float | None = None


def _as_square_complex(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeMismatchError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] < 1:
        raise ShapeMismatchError("matrix order must be at least 1")
    return a


def _require_finite(a: np.ndarray) -> None:
    # isfinite on complex arrays checks both the real and imaginary parts
    if not np.all(np.isfinite(a)):
        raise NonFiniteError("matrix contains NaN or infinite entries")


def _lex_order(values: np.ndarray) -> np.ndarray:
    return np.lexsort((values.imag, values.real))


def eigenvalues(a: np.ndarray) -> EigenDecomposition:
    """Eigenvalues of a general complex matrix, sorted by (real, imag)."""
    a = _as_square_complex(a)
    _require_finite(a)
    try:
        w = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare in LAPACK
        raise NoConvergenceError(str(exc)) from exc
    return EigenDecomposition(values=w[_lex_order(w)])


def eigen_full(a: np.ndarray) -> EigenDecomposition:
    """Eigenvalues and right eigenvectors with the max relative residual."""
    a = _as_square_complex(a)
    _require_finite(a)
    try:
        w, v = np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NoConvergenceError(str(exc)) from exc
    order = _lex_order(w)
    w = w[order]
    v = v[:, order]
    scale = max(float(np.linalg.norm(a, "fro")), _TINY)
    residual = float(np.max(np.linalg.norm(a @ v - v * w[np.newaxis, :], axis=0)) / scale)
    return EigenDecomposition(values=w, vectors=v, residual=residual)


def hermitian_eigenvalues(a: np.ndarray, sym_tol: float = 1e-10) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix in nondecreasing order."""
    a = _as_square_complex(a)
    _require_finite(a)
    fro = float(np.linalg.norm(a, "fro"))
    defect = float(np.linalg.norm(a - a.conj().T, "fro"))
    if defect > sym_tol * (1.0 + fro):
        raise NotHermitianError(
            f"||A - A*||_F = {defect:.3e} exceeds tolerance {sym_tol:.1e}*(1+||A||_F)"
        )
    return np.linalg.eigvalsh(a)


def singular_values(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    _require_finite(a)
    return np.linalg.svd(a, compute_uv=False)


def spectral_norm(a: np.ndarray) -> float:
    """Largest singular value."""
    s = singular_values(a)
    return float(s[0]) if s.size else 0.0


def inverse(a: np.ndarray, pivot_tol: float = 1e-13) -> np.ndarray:
    """Inverse through partial-pivot LU (LAPACK ``gesv``) with a conditioning guard.

    Raises SingularMatrixError on an exact zero pivot, when A = 0, when the
    inverse is not finite, or when pivot_tol * ||A||_F * ||A^-1||_F >= 1.
    Since 1 / ||A^-1||_F <= sigma_min(A), the guard rejects every A with
    sigma_min(A) <= pivot_tol * ||A||_F.
    """
    a = _as_square_complex(a)
    _require_finite(a)
    fro = float(np.linalg.norm(a, "fro"))
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"LU meets an exact zero pivot: {exc}") from exc
    # scaling first keeps the norm finite for tiny A with a finite inverse; a
    # non-finite inverse gives inf or nan, which fails the test below
    with np.errstate(over="ignore"):
        guard = float(np.linalg.norm((pivot_tol * fro) * inv, "fro"))
    if fro == 0.0 or not guard < 1.0:
        raise SingularMatrixError(
            f"pivot * ||A||_F * ||A^-1||_F = {guard:.3e} is not below 1 (pivot {pivot_tol:.1e})"
        )
    return inv
