"""Random matrix generators for property trials.

These live outside the linear-algebra core: they exist only to drive the
randomized verification suites (pytest and the ``fuzz`` CLI command).
All generators are deterministic functions of the supplied numpy
Generator, which callers derive from a seed via :func:`rng_for`.
"""

from __future__ import annotations

import numpy as np

from .qmatrix import QMatrix
from .qpoly import QMatrixPolynomial
from .quaternion import Quaternion


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    """Deterministic per-trial generator from a base seed and stream indices."""
    return np.random.default_rng([int(seed) & 0xFFFFFFFFFFFFFFFF, *map(int, stream)])


def random_complex_matrix(rng: np.random.Generator, rows: int, cols: int | None = None) -> np.ndarray:
    cols = rows if cols is None else cols
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def random_qmatrix(rng: np.random.Generator, rows: int, cols: int | None = None, scale: float = 1.0) -> QMatrix:
    """Quaternion Ginibre matrix: all four components standard normal."""
    cols = rows if cols is None else cols
    return QMatrix(
        scale * random_complex_matrix(rng, rows, cols),
        scale * random_complex_matrix(rng, rows, cols),
    )


def random_quaternion(rng: np.random.Generator, scale: float = 1.0) -> Quaternion:
    a = scale * rng.standard_normal(4)
    return Quaternion(a[0], a[1], a[2], a[3])


def random_unit_quaternion(rng: np.random.Generator) -> Quaternion:
    while True:
        q = random_quaternion(rng)
        m = q.modulus()
        if m > 1e-3:
            return q / m


def _column(a: QMatrix, j: int) -> QMatrix:
    return QMatrix(a.c1[:, j : j + 1], a.c2[:, j : j + 1])


def random_unitary_qmatrix(rng: np.random.Generator, n: int) -> QMatrix:
    """Random quaternion unitary via Gram-Schmidt over the quaternions.

    Columns are orthonormalized with the quaternion-valued inner product
    <x, y> = sum conj(x_i) y_i, using right scalar multiplication.
    """
    while True:
        g = random_qmatrix(rng, n)
        cols: list[QMatrix] = []
        ok = True
        for j in range(n):
            v = _column(g, j)
            for u in cols:
                # v <- v - u * <u, v>
                inner = (u.h @ v)[0, 0]
                v = v - u.scale_right(inner)
            # one re-orthogonalization pass for numerical safety
            for u in cols:
                inner = (u.h @ v)[0, 0]
                v = v - u.scale_right(inner)
            norm = v.frobenius_norm()
            if norm < 1e-8:
                ok = False
                break
            cols.append(v * (1.0 / norm))
        if ok:
            return QMatrix(
                np.column_stack([c.c1[:, 0] for c in cols]),
                np.column_stack([c.c2[:, 0] for c in cols]),
            )


def random_hermitian_qmatrix(rng: np.random.Generator, n: int) -> QMatrix:
    g = random_qmatrix(rng, n)
    return (g + g.h) * 0.5


def random_psd_qmatrix(rng: np.random.Generator, n: int, definite: bool = True) -> QMatrix:
    g = random_qmatrix(rng, n)
    a = g.h @ g
    if definite:
        a = a + QMatrix.identity(n) * (0.5 + float(rng.uniform(0.0, 1.0)))
    return (a + a.h) * 0.5


def upper_half_values(rng: np.random.Generator, n: int, scale: float = 2.0) -> list[complex]:
    """Random standard-form eigenvalues: complex with nonnegative imaginary part."""
    values = []
    for _ in range(n):
        re = float(rng.uniform(-scale, scale))
        im = float(abs(rng.uniform(-scale, scale))) if rng.uniform() < 0.7 else 0.0
        values.append(complex(re, im))
    return values


def random_normal_qmatrix(
    rng: np.random.Generator, n: int
) -> tuple[QMatrix, list[complex]]:
    """Random normal quaternion matrix with a known standard spectrum."""
    u = random_unitary_qmatrix(rng, n)
    values = upper_half_values(rng, n)
    a = u @ QMatrix.diagonal(values) @ u.h
    return a, values


def random_diagonalizable_qmatrix(
    rng: np.random.Generator, n: int
) -> tuple[QMatrix, QMatrix, list[complex]]:
    """Random diagonalizable quaternion matrix A = X D X^-1 with modest kappa.

    X = U diag(s) V^H for random unitaries U, V and singular values s drawn
    from [1, 10), so kappa(X) = max(s) / min(s) < 10 at every order.
    """
    u = random_unitary_qmatrix(rng, n)
    v = random_unitary_qmatrix(rng, n)
    s = rng.uniform(1.0, 10.0, n)
    x = u @ QMatrix.from_real(np.diag(s)) @ v.h
    x_inv = v @ QMatrix.from_real(np.diag(1.0 / s)) @ u.h
    values = upper_half_values(rng, n)
    return x @ QMatrix.diagonal(values) @ x_inv, x, values


def random_permutation_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    perm = rng.permutation(n)
    m = np.zeros((n, n))
    m[np.arange(n), perm] = 1.0
    return m


def random_doubly_stochastic(rng: np.random.Generator, n: int, terms: int = 5) -> np.ndarray:
    """Convex combination of random permutation matrices."""
    weights = rng.uniform(0.1, 1.0, size=terms)
    weights /= weights.sum()
    out = np.zeros((n, n))
    for w in weights:
        out += w * random_permutation_matrix(rng, n)
    return out


def random_commuting_family(
    rng: np.random.Generator, n: int, count: int, scale: float = 0.6
) -> list[QMatrix]:
    """Pairwise commuting quaternion matrices: real polynomials in one seed matrix."""
    seed = random_qmatrix(rng, n)
    nrm = seed.frobenius_norm()
    if nrm > 0:
        seed = seed * (1.0 / nrm)
    seed2 = seed @ seed
    eye = QMatrix.identity(n)
    out = []
    for _ in range(count):
        c0, c1, c2 = (float(rng.uniform(-scale, scale)) for _ in range(3))
        out.append(eye * c0 + seed * c1 + seed2 * c2)
    return out


def random_commuting_unitary_pair(
    rng: np.random.Generator, n: int
) -> tuple[QMatrix, QMatrix]:
    """Commuting quaternion unitaries sharing a random unitary eigenbasis."""
    w = random_unitary_qmatrix(rng, n)
    phases0 = [complex(np.cos(t), np.sin(t)) for t in rng.uniform(0, 2 * np.pi, n)]
    phases1 = [complex(np.cos(t), np.sin(t)) for t in rng.uniform(0, 2 * np.pi, n)]
    u0 = w @ QMatrix.diagonal(phases0) @ w.h
    u1 = w @ QMatrix.diagonal(phases1) @ w.h
    return u0, u1


def random_unitary_polynomial(
    rng: np.random.Generator, n: int, degree: int
) -> QMatrixPolynomial:
    return QMatrixPolynomial(
        tuple(random_unitary_qmatrix(rng, n) for _ in range(degree + 1))
    )


def random_doubly_stochastic_polynomial(
    rng: np.random.Generator, n: int, degree: int
) -> QMatrixPolynomial:
    coeffs = [QMatrix.from_real(random_permutation_matrix(rng, n))]
    for _ in range(degree - 1):
        coeffs.append(QMatrix.from_real(random_doubly_stochastic(rng, n)))
    coeffs.append(QMatrix.from_real(random_permutation_matrix(rng, n)))
    return QMatrixPolynomial(tuple(coeffs))


def random_commuting_monic_polynomial(
    rng: np.random.Generator, n: int, degree: int
) -> QMatrixPolynomial:
    coeffs = random_commuting_family(rng, n, degree)
    coeffs.append(QMatrix.identity(n))
    return QMatrixPolynomial(tuple(coeffs))
