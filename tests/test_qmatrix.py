"""Quaternion matrices: adjoint identities, norms, predicates, eigenvalues,
diagonalization, condition numbers."""

import numpy as np
import pytest

from quathw import (
    NotDiagonalizableError,
    QMatrix,
    Quaternion,
    adjoint,
    condition_number,
    diagonalize,
    from_adjoint,
    inverse,
    is_diagonalizable,
    is_hermitian,
    is_invertible,
    is_normal,
    is_positive_semidefinite,
    is_unitary,
    spectral_norm,
    standard_eigenvalues,
)
from quathw import clinalg
from quathw.generators import (
    random_hermitian_qmatrix,
    random_normal_qmatrix,
    random_psd_qmatrix,
    random_qmatrix,
    random_unitary_qmatrix,
    rng_for,
)
from quathw.quaternion import I as QI, J as QJ, K as QK


def similar_to_jordan_block():
    """X J_3(2+i) X^-1 for a random quaternion X: defective, eigenvalue 2+i."""
    x = random_qmatrix(rng_for(0), 3)
    j3 = QMatrix.from_complex(np.diag([2 + 1j] * 3) + np.diag([1.0, 1.0], 1))
    return x @ j3 @ inverse(x)


def spectra_close(values, expected, tol=1e-9):
    got = [complex(z) for z in values]
    want = [complex(z) for z in expected]
    if len(got) != len(want):
        return False
    remaining = list(want)
    for z in got:  # greedy nearest matching; valid since tol << value gaps
        best = min(range(len(remaining)), key=lambda k: abs(remaining[k] - z))
        if abs(remaining[best] - z) > tol:
            return False
        remaining.pop(best)
    return True


class TestAdjointEmbedding:
    def test_scalar_j(self):
        a = QMatrix.diagonal([QJ])
        assert np.allclose(adjoint(a), np.array([[0.0, 1.0], [-1.0, 0.0]]))

    def test_identity_maps_to_double_identity(self):
        for n in (1, 2, 5):
            assert np.allclose(adjoint(QMatrix.identity(n)), np.eye(2 * n))

    def test_round_trip(self):
        rng = rng_for(1, 0)
        a = random_qmatrix(rng, 3, 4)
        b = from_adjoint(adjoint(a))
        assert b.allclose(a, tol=0.0)

    def test_rejects_non_adjoint_image(self):
        from quathw import ShapeMismatchError

        with pytest.raises(ShapeMismatchError):
            from_adjoint(np.arange(16, dtype=float).reshape(4, 4))


class TestAdjointIdentitySuite:
    """The (a)-(j) identity catalogue on random matrices."""

    def run_suite(self, rng, n, tol=1e-10):
        a = random_qmatrix(rng, n)
        b = random_qmatrix(rng, n)
        alpha = float(rng.uniform(-2, 2))
        ca, cb = adjoint(a), adjoint(b)
        scale = 1.0 + a.frobenius_norm() * b.frobenius_norm()
        # (a) identity
        assert np.allclose(adjoint(QMatrix.identity(n)), np.eye(2 * n))
        # (b) multiplicativity
        assert np.linalg.norm(adjoint(a @ b) - ca @ cb) <= tol * scale
        # (c) real scaling
        assert np.allclose(adjoint(a * alpha), alpha * ca)
        # (d) additivity, exact
        assert np.array_equal(adjoint(a + b), ca + cb)
        # (e) conjugate transpose
        assert np.array_equal(adjoint(a.h), ca.conj().T)
        # (f) inverse
        well = a + QMatrix.identity(n) * (2.0 * n)
        assert (
            np.linalg.norm(adjoint(inverse(well)) - clinalg.inverse(adjoint(well)))
            <= 1e-8 * scale
        )
        # (h) commutation transfer: polynomials in one matrix commute
        p1 = a @ a + a * 0.5
        assert np.linalg.norm(adjoint(a) @ adjoint(p1) - adjoint(p1) @ adjoint(a)) <= tol * (
            1.0 + a.frobenius_norm() ** 3
        )
        assert (a @ p1 - p1 @ a).frobenius_norm() <= tol * (1.0 + a.frobenius_norm() ** 3)

    def test_orders_two_and_three(self):
        for trial in range(10):
            rng = rng_for(7, trial)
            self.run_suite(rng, 2)
            self.run_suite(rng, 3)

    def test_predicates_transfer(self):
        # (g): chi(A) is unitary / Hermitian / normal iff A is
        rng = rng_for(8, 0)
        n = 3
        u = random_unitary_qmatrix(rng, n)
        h = random_hermitian_qmatrix(rng, n)
        nm, _ = random_normal_qmatrix(rng, n)
        g = random_qmatrix(rng, n)

        def chi_unitary(m):
            c = adjoint(m)
            return np.linalg.norm(c @ c.conj().T - np.eye(2 * n)) <= 1e-8 * (
                1 + np.linalg.norm(c) ** 2
            )

        def chi_hermitian(m):
            c = adjoint(m)
            return np.linalg.norm(c - c.conj().T) <= 1e-8 * (1 + np.linalg.norm(c))

        def chi_normal(m):
            c = adjoint(m)
            return np.linalg.norm(c @ c.conj().T - c.conj().T @ c) <= 1e-8 * (
                1 + np.linalg.norm(c) ** 2
            )

        assert is_unitary(u) and chi_unitary(u)
        assert is_hermitian(h) and chi_hermitian(h)
        assert is_normal(nm) and chi_normal(nm)
        assert is_invertible(u) and clinalg.rank(adjoint(u)) == 2 * n
        # a generic Ginibre draw is none of these
        assert not is_unitary(g) and not chi_unitary(g)
        assert not is_hermitian(g) and not chi_hermitian(g)

    def test_spectrum_closed_under_conjugation(self):
        # (i): eigenvalues of chi(A) come in conjugate pairs; folding and
        # unfolding reproduces the chi spectrum
        rng = rng_for(9, 0)
        a = random_qmatrix(rng, 4)
        w = clinalg.eigenvalues(adjoint(a)).values
        spec = standard_eigenvalues(a)
        rebuilt = list(spec.values) + [z.conjugate() for z in spec.values]
        assert spectra_close(w, rebuilt, tol=1e-6 * max(1.0, a.frobenius_norm()))

    def test_complex_matrix_diagonalizable_over_h_iff_over_c(self):
        # (j): embed complex matrices and compare verdicts
        diag_ok = QMatrix.from_complex(np.array([[1.0, 0.0], [0.0, 2.0 + 1j]]))
        jordan = QMatrix.from_complex(np.array([[2.0, 1.0], [0.0, 2.0]]))
        assert is_diagonalizable(diag_ok)
        assert not is_diagonalizable(jordan)


class TestNorms:
    def test_frobenius_difference_golden(self):
        a = QMatrix.from_complex(np.diag([1 + 1j, 1.0]))
        b = QMatrix.from_complex(np.diag([1j, 1.0]))
        assert (a - b).frobenius_norm() ** 2 == pytest.approx(1.0, abs=1e-15)

    def test_spectral_norm_of_j_diagonal(self):
        a = QMatrix.diagonal([QJ, QJ])
        assert spectral_norm(a) == pytest.approx(1.0, abs=1e-12)

    def test_conjugate_transpose_entries(self):
        a = QMatrix.from_entries([[QI, QJ]])
        at = a.conjugate_transpose()
        assert at.shape == (2, 1)
        assert at[0, 0] == -QI
        assert at[1, 0] == -QJ

    def test_norm_bridge_identities(self):
        rng = rng_for(10, 0)
        for n in (1, 2, 4):
            a = random_qmatrix(rng, n)
            chi = adjoint(a)
            fro_chi_sq = np.linalg.norm(chi, "fro") ** 2
            assert fro_chi_sq == pytest.approx(2.0 * a.frobenius_norm() ** 2, rel=1e-10)
            assert clinalg.spectral_norm(chi) == pytest.approx(spectral_norm(a), rel=1e-10)


class TestStandardEigenvalues:
    def test_mixed_complex_diagonal(self):
        a = QMatrix.from_complex(np.diag([1 + 1j, 1 - 1j]))
        assert spectra_close(standard_eigenvalues(a).values, [1 + 1j, 1 + 1j], tol=1e-10)

    def test_j_diagonal(self):
        a = QMatrix.diagonal([QJ, QJ])
        assert spectra_close(standard_eigenvalues(a).values, [1j, 1j], tol=1e-10)

    def test_identity(self):
        spec = standard_eigenvalues(QMatrix.identity(4))
        assert spectra_close(spec.values, [1.0] * 4, tol=1e-12)
        assert spec.pairing_residual <= 1e-12

    def test_all_values_in_upper_half_plane(self):
        for trial in range(20):
            rng = rng_for(11, trial)
            a = random_qmatrix(rng, int(rng.integers(1, 6)))
            spec = standard_eigenvalues(a)
            assert all(z.imag >= -1e-10 for z in spec.values)
            assert spec.pairing_residual <= 1e-6 * a.frobenius_norm()

    def test_known_spectrum_recovered(self):
        rng = rng_for(12, 0)
        a, values = random_normal_qmatrix(rng, 5)
        spec = standard_eigenvalues(a)
        assert spectra_close(spec.values, values, tol=1e-8 * max(1.0, a.frobenius_norm()))


class TestPredicates:
    def test_golden_cases(self):
        assert is_normal(QMatrix.from_complex(np.diag([1 + 1j, 1.0])))
        assert is_unitary(QMatrix.diagonal([QJ, QJ]))
        assert is_positive_semidefinite(QMatrix.from_real(np.diag([1.0, 0.0])))
        assert not is_positive_semidefinite(QMatrix.from_real(np.diag([1.0, -0.1])))

    def test_random_classes(self):
        rng = rng_for(13, 0)
        u = random_unitary_qmatrix(rng, 3)
        h = random_hermitian_qmatrix(rng, 3)
        p = random_psd_qmatrix(rng, 3)
        assert is_unitary(u) and is_normal(u) and is_invertible(u)
        assert is_hermitian(h) and is_normal(h)
        assert is_positive_semidefinite(p) and is_hermitian(p)


class TestDiagonalize:
    def test_j_k_diagonal(self):
        d = diagonalize(QMatrix.diagonal([QJ, QK]))
        assert spectra_close(d.values, [1j, 1j], tol=1e-10)
        assert d.residual <= 1e-10

    def test_jordan_not_diagonalizable(self):
        with pytest.raises(NotDiagonalizableError):
            diagonalize(QMatrix.from_real([[2.0, 1.0], [0.0, 2.0]]))

    def test_similar_to_jordan_block_not_diagonalizable(self):
        # the computed eigenvector matrix is nearly singular, so its inverse
        # leaves the adjoint image; that is a defect, not a shape error
        a = similar_to_jordan_block()
        with pytest.raises(NotDiagonalizableError):
            diagonalize(a)
        assert not is_diagonalizable(a)

    def test_hermitian_gives_unitary_transform(self):
        rng = rng_for(14, 0)
        h = random_hermitian_qmatrix(rng, 3)
        d = diagonalize(h)
        assert is_unitary(d.transform, tol=1e-8)
        assert all(abs(z.imag) <= 1e-10 for z in d.values)

    def test_round_trip_reconstruction(self):
        for trial in range(15):
            rng = rng_for(15, trial)
            n = int(rng.integers(1, 6))
            a = random_qmatrix(rng, n)
            d = diagonalize(a)
            rebuilt = d.transform @ QMatrix.diagonal(d.values) @ inverse(d.transform)
            assert (rebuilt - a).frobenius_norm() <= 1e-6 * max(1.0, a.frobenius_norm())

    def test_matches_standard_eigenvalues(self):
        rng = rng_for(16, 0)
        a = random_qmatrix(rng, 4)
        d = diagonalize(a)
        spec = standard_eigenvalues(a)
        assert spectra_close(d.values, spec.values, tol=1e-8 * max(1.0, a.frobenius_norm()))


class TestConditionNumber:
    def test_unitary_is_one(self):
        rng = rng_for(17, 0)
        u = random_unitary_qmatrix(rng, 3)
        assert condition_number(u) == pytest.approx(1.0, abs=1e-9)

    def test_diagonal_ratio(self):
        assert condition_number(QMatrix.from_real(np.diag([2.0, 1.0]))) == pytest.approx(2.0, rel=1e-10)

    def test_matches_singular_value_ratio(self):
        rng = rng_for(18, 0)
        for _ in range(10):
            x = random_qmatrix(rng, 3)
            s = clinalg.singular_values(adjoint(x))
            assert condition_number(x) == pytest.approx(float(s[0] / s[-1]), rel=1e-8)

    def test_at_least_one(self):
        rng = rng_for(19, 0)
        for _ in range(10):
            x = random_qmatrix(rng, 2)
            assert condition_number(x) >= 1.0 - 1e-10


class TestMatrixAlgebra:
    def test_shape_mismatch(self):
        from quathw import ShapeMismatchError

        with pytest.raises(ShapeMismatchError):
            QMatrix.identity(2) @ QMatrix.identity(3)
        with pytest.raises(ShapeMismatchError):
            QMatrix.identity(2) + QMatrix.zeros(2, 3)

    def test_ragged_entries_rejected(self):
        from quathw import ShapeMismatchError

        with pytest.raises(ShapeMismatchError):
            QMatrix.from_entries([[Quaternion(1)], [Quaternion(1), Quaternion(2)]])

    def test_noncommutative_entries_multiply_correctly(self):
        a = QMatrix.from_entries([[QI]])
        b = QMatrix.from_entries([[QJ]])
        assert (a @ b)[0, 0] == QK
        assert (b @ a)[0, 0] == -QK

    def test_scale_right_vs_left(self):
        a = QMatrix.from_entries([[QI]])
        assert a.scale_right(QJ)[0, 0] == QK
        assert a.scale_left(QJ)[0, 0] == -QK

    def test_quaternion_inverse_through_adjoint(self):
        rng = rng_for(20, 1)
        a = random_qmatrix(rng, 3)
        ainv = inverse(a)
        assert (a @ ainv - QMatrix.identity(3)).frobenius_norm() <= 1e-8
        assert (ainv @ a - QMatrix.identity(3)).frobenius_norm() <= 1e-8
