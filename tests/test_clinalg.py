"""Complex linear algebra kernel: eigen solvers, norms, inverse."""

import numpy as np
import pytest

from quathw import (
    NonFiniteError,
    NotHermitianError,
    ShapeMismatchError,
    SingularMatrixError,
)
from quathw import QMatrix, clinalg
from quathw.generators import random_unitary_qmatrix
from quathw.hw import min_cost_assignment
from quathw.qmatrix import adjoint, condition_number, inverse

from oracles import det_cofactor


def rnd_complex(rng, n, m=None):
    m = n if m is None else m
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


class TestEigenvalues:
    def test_diagonal(self):
        dec = clinalg.eigenvalues(np.diag([2.0, 5.0]))
        assert np.allclose(dec.values, [2.0, 5.0])

    def test_rotation_pair(self):
        dec = clinalg.eigenvalues(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        got = sorted(dec.values, key=lambda z: z.imag)
        assert np.allclose(got, [-1j, 1j], atol=1e-12)

    def test_real_companion_pair_doubled(self):
        # adjoint of a real matrix duplicates its spectrum
        c = np.array([[-1.0, -1.0], [1.0, -7.0]])
        chi = np.block([[c, np.zeros((2, 2))], [np.zeros((2, 2)), c]])
        dec = clinalg.eigenvalues(chi)
        expected = np.sort([-4 - 2 * np.sqrt(2), -4 - 2 * np.sqrt(2), -4 + 2 * np.sqrt(2), -4 + 2 * np.sqrt(2)])
        assert np.allclose(np.sort(dec.values.real), expected, atol=1e-9)
        assert np.allclose(dec.values.imag, 0.0, atol=1e-9)

    def test_nonfinite_rejected(self):
        with pytest.raises(NonFiniteError):
            clinalg.eigenvalues(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_nonsquare_rejected(self):
        with pytest.raises(ShapeMismatchError):
            clinalg.eigenvalues(np.ones((2, 3)))


class TestEigenFull:
    def test_identity(self):
        dec = clinalg.eigen_full(np.eye(3))
        assert np.allclose(dec.values, 1.0)
        assert dec.residual <= 1e-14

    def test_jordan_block_defective(self):
        dec = clinalg.eigen_full(np.array([[2.0, 1.0], [0.0, 2.0]]))
        assert np.linalg.matrix_rank(dec.vectors, tol=1e-6) == 1

    def test_hermitian_two_by_two(self):
        a = np.array([[2.0, 1j], [-1j, 2.0]])
        dec = clinalg.eigen_full(a)
        assert np.allclose(np.sort(dec.values.real), [1.0, 3.0], atol=1e-12)
        # eigenvectors of distinct Hermitian eigenvalues are orthogonal
        v = dec.vectors
        assert abs(v[:, 0].conj() @ v[:, 1]) <= 1e-10

    def test_residual_bound_random(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(1, 12))
            dec = clinalg.eigen_full(rnd_complex(rng, n))
            assert dec.residual <= 1e-8


class TestHermitianEigenvalues:
    def test_diagonal_sorted(self):
        assert np.allclose(clinalg.hermitian_eigenvalues(np.diag([3.0, 1.0])), [1.0, 3.0])

    def test_swap_matrix(self):
        w = clinalg.hermitian_eigenvalues(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(w, [-1.0, 1.0])

    def test_zero_matrix(self):
        assert np.allclose(clinalg.hermitian_eigenvalues(np.zeros((2, 2))), [0.0, 0.0])

    def test_rejects_nonhermitian(self):
        with pytest.raises(NotHermitianError):
            clinalg.hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_agrees_with_general_solver(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(1, 10))
            g = rnd_complex(rng, n)
            a = (g + g.conj().T) / 2
            herm = clinalg.hermitian_eigenvalues(a)
            general = np.sort(clinalg.eigenvalues(a).values.real)
            scale = max(np.linalg.norm(a, "fro"), 1.0)
            assert np.allclose(herm, general, atol=1e-8 * scale)


class TestSpectralNormRankInverse:
    def test_identity_norm(self):
        assert clinalg.spectral_norm(np.eye(5)) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_norm(self):
        assert clinalg.spectral_norm(np.diag([3.0, -4.0])) == pytest.approx(4.0, abs=1e-12)

    def test_nilpotent_norm(self):
        assert clinalg.spectral_norm(np.array([[0.0, 2.0], [0.0, 0.0]])) == pytest.approx(2.0)

    def test_unitary_norm_one(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(1, 12))
            q, _ = np.linalg.qr(rnd_complex(rng, n))
            assert clinalg.spectral_norm(q) == pytest.approx(1.0, abs=1e-10)

    def test_inverse_scaled_identity(self):
        assert np.allclose(clinalg.inverse(2.0 * np.eye(2)), 0.5 * np.eye(2))

    def test_inverse_unipotent(self):
        inv = clinalg.inverse(np.array([[1.0, 1.0], [0.0, 1.0]]))
        assert np.allclose(inv, np.array([[1.0, -1.0], [0.0, 1.0]]), atol=1e-14)

    def test_inverse_residual_random(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            n = int(rng.integers(1, 12))
            a = rnd_complex(rng, n) + n * np.eye(n)
            inv = clinalg.inverse(a)
            assert np.linalg.norm(a @ inv - np.eye(n), "fro") <= 1e-8 * np.linalg.cond(a)

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrixError) as exc:
            clinalg.inverse(np.array([[1.0, 1.0], [1.0, 1.0]]))
        # LU meets an exact zero pivot
        assert isinstance(exc.value.__cause__, np.linalg.LinAlgError)


class TestInverseSingularity:
    @pytest.mark.parametrize(
        "a",
        [
            np.diag([1.0, 1e-14]),  # pivot * kappa_F = 10
            np.zeros((2, 2)),
            np.diag([1e-170, 1e-170]),  # ||A||_F underflows to 0
        ],
    )
    def test_rejected(self, a):
        with pytest.raises(SingularMatrixError):
            clinalg.inverse(a)

    def test_accepted_below_the_floor(self):
        # pivot * kappa_F = 1e-13 * 1e11 = 0.01
        inv = clinalg.inverse(np.diag([1.0, 1e-11]))
        assert np.allclose(inv, np.diag([1.0, 1e11]), rtol=1e-15, atol=0.0)

    def test_non_finite_inverse_rejected_without_floor(self):
        assert np.isfinite(clinalg.inverse(np.diag([1.0, 1e-300]), pivot_tol=0.0)).all()
        with pytest.raises(SingularMatrixError):
            clinalg.inverse(np.diag([1.0, 1e-309]), pivot_tol=0.0)

    def test_rejects_whatever_condition_number_rejects(self):
        # 1/||A^-1||_F <= sigma_min, so sigma_min <= pivot ||A||_F forces
        # pivot ||A||_F ||A^-1||_F >= 1
        rng = np.random.default_rng(41)
        rejected = set()
        for k in range(10, 17):
            for _ in range(4):
                u = random_unitary_qmatrix(rng, 2)
                v = random_unitary_qmatrix(rng, 2)
                x = u @ QMatrix.diagonal([1.0, 10.0**-k]) @ v.h
                try:
                    condition_number(x)
                except SingularMatrixError:
                    rejected.add(k)
                    with pytest.raises(SingularMatrixError):
                        clinalg.inverse(adjoint(x))
                    with pytest.raises(SingularMatrixError):
                        inverse(x)
        assert rejected == set(range(13, 17))

    def test_agrees_with_scipy_lu(self):
        import scipy.linalg

        rng = np.random.default_rng(43)
        for n in [1, 2, 3, 5, 8, 13, 32, 64]:
            for _ in range(3):
                a = rnd_complex(rng, n)
                want = scipy.linalg.lu_solve(scipy.linalg.lu_factor(a), np.eye(n))
                got = clinalg.inverse(a)
                assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


class TestSpectrumInvariants:
    def test_similarity_invariance(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            a = rnd_complex(rng, n)
            while True:
                s = rnd_complex(rng, n)
                if np.linalg.cond(s) < 50:
                    break
            w1 = clinalg.eigenvalues(a).values
            w2 = clinalg.eigenvalues(np.linalg.solve(s, a @ s)).values
            match = min_cost_assignment(list(w1), list(w2))
            worst = max(abs(w1[i] - w2[j]) for i, j in enumerate(match.permutation))
            assert worst <= 1e-6 * np.linalg.norm(a, "fro")

    def test_trace_and_determinant(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            a = rnd_complex(rng, n)
            w = clinalg.eigenvalues(a).values
            scale = np.linalg.norm(a, "fro")
            assert abs(np.sum(w) - np.trace(a)) <= 1e-8 * n * max(scale, 1.0)
            det = det_cofactor(a)
            assert abs(np.prod(w) - det) <= 1e-8 * max(abs(det), scale**n, 1.0)
