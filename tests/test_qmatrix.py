"""Quaternion matrices: adjoint identities, norms, predicates, eigenvalues,
diagonalization, condition numbers."""

import math
import warnings

import numpy as np
import pytest

from quathw import (
    NotDiagonalizableError,
    QMatrix,
    Quaternion,
    SingularMatrixError,
    adjoint,
    condition_number,
    diagonalize,
    from_adjoint,
    inverse,
    is_hermitian,
    is_normal,
    is_positive_semidefinite,
    is_unitary,
    spectral_norm,
    standard_eigenvalues,
)
from quathw import DEFAULT_TOLERANCES, clinalg
from quathw.generators import (
    random_hermitian_qmatrix,
    random_normal_qmatrix,
    random_psd_qmatrix,
    random_qmatrix,
    random_unitary_qmatrix,
    rng_for,
    upper_half_values,
)
from quathw.qmatrix import (
    _COUPLING,
    _PENCIL_T,
    _center_spread,
    _cluster_indices,
    _fold_conjugate_spectrum,
    _normal_adjoint_eigenvalues,
    _spectrum,
)
from quathw.quaternion import I as QI, J as QJ, K as QK

from oracles import chain_clusters, greedy_fold


def similar_to_jordan_block():
    """X J_3(2+i) X^-1 for a random quaternion X: defective, eigenvalue 2+i."""
    x = random_qmatrix(rng_for(0), 3)
    j3 = QMatrix.from_complex(np.diag([2 + 1j] * 3) + np.diag([1.0, 1.0], 1))
    return x @ j3 @ inverse(x)


def rotated_jordan_block(k, lam, draw):
    """X J_k(lam) X^-1 for X a random quaternion matrix plus 3I: defective."""
    x = random_qmatrix(rng_for(5, k, draw), k) + QMatrix.identity(k) * 3.0
    j = QMatrix.from_complex(np.diag([lam] * k) + np.diag(np.ones(k - 1), 1))
    return x @ j @ inverse(x)


def conditioned_input(rng, values, kappa=10.0):
    """A = X D X^-1 with X = U diag(s) V* and kappa(X) = kappa, as the
    diag-kappa benchmark builds its inputs."""
    n = len(values)
    u, v = random_unitary_qmatrix(rng, n), random_unitary_qmatrix(rng, n)
    s = np.geomspace(1.0, 1.0 / kappa, n)
    x = u @ QMatrix.diagonal(s) @ v.h
    x_inv = v @ QMatrix.diagonal(1.0 / s) @ u.h
    return x @ QMatrix.diagonal(values) @ x_inv


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
        assert np.linalg.matrix_rank(adjoint(u)) == 2 * n
        assert condition_number(u) == pytest.approx(1.0)
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
        diagonalize(diag_ok)
        with pytest.raises(NotDiagonalizableError):
            diagonalize(jordan)


def defining_frobenius_norm(c1, c2):
    """sqrt(sum |c1|^2 + sum |c2|^2), and 2^e times the norm of the parts
    scaled by 2^-e when the squares overflow while the entries are finite."""
    with np.errstate(over="ignore"):
        norm = float(np.sqrt(np.sum(np.abs(c1) ** 2) + np.sum(np.abs(c2) ** 2)))
        big = max(float(np.abs(p).max()) for c in (c1, c2) for p in (c.real, c.imag))
        if norm < math.inf or not big < math.inf:
            return norm
        e = math.frexp(big)[1]
        return float(np.ldexp(defining_frobenius_norm(c1 * 2.0**-e, c2 * 2.0**-e), e))


class TestNorms:
    def test_frobenius_norm_is_the_defining_expression(self):
        # bit for bit, at scales far from 1, on subnormals, where the squares
        # overflow (the rescale path), with non-finite entries, and on the
        # column-major parts of a conjugate transpose
        rng = rng_for(14, 0)
        samples = []
        for scale in (2.0**-100, 1.0, 2.0**100, 5e-324, 1e-310, 1e160, 1e300):
            for rows, cols in ((1, 1), (3, 4), (6, 6)):
                a = random_qmatrix(rng, rows, cols) * scale
                samples += [a, a.h]
        for bad in (math.nan, math.inf, -math.inf):
            c1 = rng.standard_normal((3, 3)) + 0j
            c1[1, 2] = complex(1.0, bad)
            samples.append(QMatrix(c1, rng.standard_normal((3, 3)) * 1e160))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for a in samples:
                want = defining_frobenius_norm(a.c1, a.c2)
                assert a.frobenius_norm().hex() == want.hex()
                assert a.frobenius_norm().hex() == want.hex()  # the memoised value

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


    def test_frobenius_norm_and_is_normal_survive_overflow(self):
        # the squares overflow while the entries are finite: both rescale
        # by a power of two, without a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert QMatrix.from_real([[1e160]]).frobenius_norm() == 1e160
            pair = QMatrix.from_complex([[1e300, 1e300j]])
            assert pair.frobenius_norm() == pytest.approx(math.sqrt(2.0) * 1e300, rel=1e-15)
            assert QMatrix.from_real([[1e308] * 4]).frobenius_norm() == math.inf
            assert is_normal(QMatrix.from_real([[1e160]]))
            assert is_normal(QMatrix.diagonal([1e200, -1e200j, 3.0]))
            assert not is_normal(QMatrix.from_real([[0.0, 1e160], [0.0, 0.0]]))

    def test_assembly_matches_np_block(self):
        rng = rng_for(11, 0)
        a = random_qmatrix(rng, 3, 4)
        want = np.block([[a.c1, a.c2], [-a.c2.conj(), a.c1.conj()]])
        assert adjoint(a).tobytes() == want.tobytes()
        grid = [[random_qmatrix(rng, r, c) for c in (1, 3)] for r in (2, 4)]
        block = QMatrix.block(grid)
        for part in ("c1", "c2"):
            want = np.block([[getattr(b, part) for b in row] for row in grid])
            assert getattr(block, part).tobytes() == want.tobytes()
        with pytest.raises(ValueError):
            QMatrix.block([[grid[0][0], grid[1][1]]])


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


def fold_corpus(count):
    """``count`` even-length spectra, cycling through six kinds that stress
    the fold's tie rules and its real-axis clamp; each with a scale."""
    for trial in range(count):
        rng = rng_for(120, trial)
        kind = trial % 6
        m = 2 * (1 + (trial // 6) % 12)

        def gaussian(size):
            return rng.standard_normal(size) + 1j * rng.standard_normal(size)

        if kind == 0:  # random values
            w = gaussian(m)
        elif kind == 1:  # Gaussian-integer lattice: exact ties everywhere
            w = rng.integers(-2, 3, m) + 1j * rng.integers(-2, 3, m)
        elif kind == 2:  # exact duplicates
            w = rng.choice(gaussian(max(1, m // 4)), m)
        elif kind == 3:  # conjugate pairs with 1e-15 noise, shuffled
            z = gaussian(m // 2)
            w = rng.permutation(np.concatenate([z, z.conj() + 1e-15 * gaussian(m // 2)]))
        elif kind == 4:  # near-real values around the clamp
            w = rng.standard_normal(m) + 1j * 1e-10 * rng.standard_normal(m)
        else:  # magnitudes scaled by 1e+-8
            w = gaussian(m) * 10.0 ** rng.choice([-8, 8])
        w = np.asarray(w, dtype=complex)
        yield w, float(np.sqrt(0.5) * np.linalg.norm(w))


class TestConjugateFold:
    def test_matches_greedy_oracle_bit_for_bit(self):
        for w, scale in fold_corpus(3000):
            reps, residual, pairs = _fold_conjugate_spectrum(w, scale, DEFAULT_TOLERANCES)
            want_reps, want_residual = greedy_fold(w, scale, DEFAULT_TOLERANCES)
            # repr also tells apart signed zeros
            assert [repr(z) for z in reps] == [repr(z) for z in want_reps]
            assert float(residual) == float(want_residual)
            # each index is in one pair, the upper one first
            assert sorted(i for pair in pairs for i in pair) == list(range(len(w)))
            assert all(w[a].imag >= w[b].imag for a, b in pairs)


@pytest.fixture
def general_eigensolves(monkeypatch):
    """Record every call of the general (zgeev) eigensolver."""
    calls = []
    real = clinalg.eigenvalues

    def counting(a):
        calls.append(a.shape)
        return real(a)

    monkeypatch.setattr(clinalg, "eigenvalues", counting)
    return calls


def normal_with_values(seed, values):
    u = random_unitary_qmatrix(rng_for(seed), len(values))
    return u @ QMatrix.diagonal(values) @ u.h


def normal_route(a, tols=DEFAULT_TOLERANCES):
    """A's standard eigenvalues as ``hw_check`` computes them: one Hermitian
    eigensolve of H + tK, accepted on its residual certificate, else the
    general eigensolver."""
    chi = adjoint(a)
    return _spectrum(a, chi, _normal_adjoint_eigenvalues(chi), tols)


class TestNormalRoute:
    """``normal_route`` agrees with ``standard_eigenvalues`` and runs the
    general eigensolver only when the certificate fails."""

    def check_accepted(self, a, calls, tol=1e-13):
        fast = normal_route(a)
        assert calls == []
        general = standard_eigenvalues(a)
        assert spectra_close(fast.values, general.values, tol=tol * a.frobenius_norm())
        return fast

    @pytest.mark.parametrize("n", [1, 2, 4, 16, 64, 128])
    def test_agrees_with_general_route(self, n, general_eigensolves):
        a, values = random_normal_qmatrix(rng_for(130, n), n)
        fast = self.check_accepted(a, general_eigensolves)
        assert spectra_close(fast.values, values, tol=1e-12 * a.frobenius_norm())

    def test_real_eigenvalues_of_multiplicity_one_to_four(self, general_eigensolves):
        values = [0.5, -1.25, -1.25, 2.0, 2.0, 2.0, 0.75, 0.75, 0.75, 0.75, 1 + 1j]
        a = normal_with_values(131, values)
        fast = self.check_accepted(a, general_eigensolves)
        assert spectra_close(fast.values, values, tol=1e-13 * a.frobenius_norm())
        assert sum(z.imag == 0.0 for z in fast.values) == 10

    def test_repeated_complex_values(self, general_eigensolves):
        values = [1 + 1j] * 3 + [-2 + 0.5j] * 2 + [0.3j, 0.3j, 1.5]
        a = normal_with_values(132, values)
        fast = self.check_accepted(a, general_eigensolves)
        assert spectra_close(fast.values, values, tol=1e-13 * a.frobenius_norm())

    def test_coinciding_pencil_values_are_grouped(self, general_eigensolves):
        # Re + t Im is 1 + t for the first two values and 0.5 for the rest, so
        # eigh of H + tK returns mixed eigenvectors: a 2x2 and a 3x3 group
        t = _PENCIL_T
        values = [1 + 1j, complex(1 - t, 2), 0.5, complex(0.5 - 0.25 * t, 0.25), -1.5]
        a = normal_with_values(135, values)
        fast = self.check_accepted(a, general_eigensolves)
        assert spectra_close(fast.values, values, tol=1e-13 * a.frobenius_norm())

    def test_zero_matrix(self, general_eigensolves):
        spec = normal_route(QMatrix.zeros(4))
        assert general_eigensolves == []
        assert spec.values == (0j,) * 4
        assert spec.pairing_residual == 0.0

    @pytest.mark.parametrize("k", [-40, 40])
    def test_scaled_input_still_accepted(self, k, general_eigensolves):
        a, _ = random_normal_qmatrix(rng_for(133, k + 40), 16)
        self.check_accepted(a * 2.0**k, general_eigensolves)

    def test_nearly_normal_input_takes_general_route(self, general_eigensolves):
        # B = U (D + N) U^H with D real and N strictly upper triangular, every
        # entry of N at 0.75 of the coupling threshold: G's off-diagonal
        # entries are (1 + it)/2 times N's (about 0.44 of the threshold), so
        # none are grouped, and their mass is about 5 times the certificate
        n = 64
        rng = rng_for(134)
        u = random_unitary_qmatrix(rng, n)
        d = np.linspace(-1.0, 1.0, n)
        unit = 2 * n * np.finfo(float).eps * np.sqrt(2.0) * np.linalg.norm(d)
        phases = np.exp(2j * np.pi * rng.random((n, n)))
        upper = QMatrix.from_complex(np.triu(0.75 * _COUPLING * unit * phases, 1))
        b = u @ (QMatrix.diagonal(list(d)) + upper) @ u.h
        assert is_normal(b)
        spec = normal_route(b)
        assert len(general_eigensolves) == 1
        assert spec == standard_eigenvalues(b)


class TestPredicates:
    def test_products_that_overflow_rescale(self):
        # A A* overflows: each predicate tests A 2^-e, without a warning
        big = QMatrix.identity(2) * 1e160
        u = random_unitary_qmatrix(rng_for(13, 1), 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not is_unitary(big)
            assert not is_unitary(u * 1e200)
            assert not is_unitary(QMatrix.identity(2) * 1e-160)
            assert is_unitary(u)
            assert is_positive_semidefinite(big)
            assert not is_positive_semidefinite(-big)
            assert is_positive_semidefinite(QMatrix.from_real(np.diag([1e300, 0.0])))

    def test_hermitian_difference_that_overflows_rescales(self):
        # A - A* and ||A||_F both overflow for this skew-Hermitian A, and
        # inf <= inf must not read as Hermitian
        skew = QMatrix(np.array([[0, 1.5e308], [-1.5e308, 0]], dtype=complex))
        hermitian = QMatrix(np.array([[1.5e308, 1e308j], [-1e308j, -1.5e308]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not is_hermitian(skew)
            assert not is_positive_semidefinite(skew)
            assert is_hermitian(hermitian)
            assert is_hermitian(QMatrix.identity(2) * 1e160)
            assert not is_hermitian(QMatrix.from_complex(np.eye(2) * 1e160j))

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
        assert is_unitary(u) and is_normal(u)
        assert condition_number(u) == pytest.approx(1.0)
        assert is_hermitian(h) and is_normal(h)
        assert is_positive_semidefinite(p) and is_hermitian(p)


class TestDiagonalize:
    def test_single_member_center_is_numpy_mean(self):
        # the shortcut for a one-member group keeps np.mean's bits, which
        # turn each signed zero positive
        parts = [0.0, -0.0, 1.5, -2.0, 5e-324, -1e308]
        w = np.array([complex(x, y) for x in parts for y in parts])
        for i in range(len(w)):
            center, spread = _center_spread(w, [i])
            want = complex(np.mean(w[[i]]))
            assert (center.real.hex(), center.imag.hex()) == (want.real.hex(), want.imag.hex())
            assert spread == 0.0

    def test_clusters_match_chain_oracle(self):
        # lattice values at radii equal to lattice distances: exact ties
        for trial in range(600):
            rng = rng_for(140, trial)
            m = 2 * (1 + trial % 10)
            if trial % 2:
                w = (rng.integers(-2, 3, m) + 1j * rng.integers(-2, 3, m)).astype(complex)
                radius = float(rng.choice([0.0, 1.0, np.sqrt(2.0), 2.0]))
            else:
                w = rng.standard_normal(m) + 1j * rng.standard_normal(m)
                radius = float(10.0 ** rng.uniform(-2, 0))
            assert _cluster_indices(w, radius) == chain_clusters(w, radius)

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

    @pytest.mark.parametrize("lam", [1.5, 2 + 1j])
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_rotated_jordan_block_not_diagonalizable(self, k, lam):
        # rounding spreads the eigenvalues of J_k about eps^(1/k) around lam,
        # wider than the cluster radius at orders 3 and 4; each still has
        # its conjugate from the fold, so the defect is what gets reported
        for draw in range(3):
            with pytest.raises(NotDiagonalizableError):
                diagonalize(rotated_jordan_block(k, lam, draw))

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
        a = random_qmatrix(rng_for(16, 0), 4)
        spec = standard_eigenvalues(a)
        d = diagonalize(a)
        assert spectra_close(d.values, spec.values, tol=1e-10 * a.frobenius_norm())
        assert d.values == spec.values
        assert d.pairing_residual == spec.pairing_residual
        # a quarter of each spectrum repeats, real and complex values alike
        for trial in range(1, 61):
            rng = rng_for(16, trial)
            n = int(rng.integers(4, 13))
            base = upper_half_values(rng, n - n // 4)
            values = base + [base[k] for k in rng.choice(len(base), n // 4, replace=False)]
            a = conditioned_input(rng, values)
            d = diagonalize(a)
            assert spectra_close(d.values, values, tol=1e-8 * (1.0 + max(map(abs, values))))
            spec = standard_eigenvalues(a)
            assert spectra_close(d.values, spec.values, tol=1e-10 * a.frobenius_norm())
            assert d.values == spec.values
            assert d.pairing_residual == spec.pairing_residual

    @pytest.mark.parametrize(
        "close, gap",
        [
            pytest.param((1.2, 1.2 + 1.04e-5), 1.04e-5, id="two-real-values"),
            pytest.param((1.8647 + 3.6e-6j,), 7.2e-6, id="value-near-its-conjugate"),
        ],
    )
    def test_merged_cluster_reports_each_value(self, close, gap):
        # adjoint eigenvalues `gap` apart fall into one cluster; each keeps its
        # own value instead of the cluster mean
        rng = rng_for(20, len(close))
        values = list(close) + upper_half_values(rng, 32 - len(close))
        a = conditioned_input(rng, values)
        fro = a.frobenius_norm()
        assert gap < DEFAULT_TOLERANCES.diag_cluster * fro
        d = diagonalize(a)
        assert spectra_close(d.values, values, tol=1e-8 * (1.0 + max(map(abs, values))))
        spec = standard_eigenvalues(a)
        assert spectra_close(d.values, spec.values, tol=1e-10 * fro)
        assert d.values == spec.values


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

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrixError):
            condition_number(QMatrix.from_real(np.diag([1.0, 0.0])))
        with pytest.raises(SingularMatrixError):
            condition_number(QMatrix.zeros(2))


class TestMatrixAlgebra:
    def test_results_are_read_only(self):
        rng = rng_for(20, 2)
        a, b = random_qmatrix(rng, 3), random_qmatrix(rng, 3)
        results = [
            a + b, a - b, -a, a * 2.0, 2.0 * a, a @ b, a.h, a.scale_left(QJ),
            a.scale_right(QK), QMatrix.identity(3), QMatrix.zeros(2, 3),
            QMatrix.diagonal([QI, 2.0]), QMatrix.block([[a, b]]),
        ]
        for r in results:
            for part in (r.c1, r.c2):
                assert not part.flags.writeable
                with pytest.raises(ValueError):
                    part[0, 0] = 7.0

    def test_constructor_copies_caller_arrays(self):
        c1 = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
        c2 = np.zeros((2, 2), dtype=complex)
        a = QMatrix(c1, c2)
        norm = a.frobenius_norm()
        c1[0, 0] = 100.0
        c2[1, 1] = 100.0
        assert a.c1[0, 0] == 1.0 and a.c2[1, 1] == 0.0
        assert c1.flags.writeable and c2.flags.writeable
        assert a.frobenius_norm() == norm == math.sqrt(30.0)

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
