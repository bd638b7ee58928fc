"""Matrix polynomials: normalization, companions, adjoint route, bounds,
diagonalizability classes, and the polynomial-level inequality."""

import math

import numpy as np
import pytest

from quathw import (
    DEFAULT_TOLERANCES,
    NotDiagonalizableError,
    NotLinearError,
    PairingFailureError,
    PreconditionViolatedError,
    QMatrix,
    QMatrixPolynomial,
    Quaternion,
    ShapeMismatchError,
    SingularLeadingCoefficientError,
    adjoint,
    adjoint_polynomial,
    bound_check_commuting_disc,
    bound_check_doubly_stochastic,
    bound_check_unitary,
    companion,
    companion_similarity_witness,
    complex_companion,
    condition_number,
    diagonalize,
    diagonalizable_companion,
    diagonalizable_companion_linear,
    diagonalizable_companion_quadratic_unitary,
    hw_report,
    hw_type_poly,
    monicize,
    standard_eigenvalues,
    standard_eigenvalues_poly,
    standard_representative,
)
import quathw.qpoly as qpoly
from quathw.qpoly import _diagonal_coefficient_result, _is_doubly_stochastic
from quathw.generators import (
    random_commuting_monic_polynomial,
    random_commuting_unitary_pair,
    random_doubly_stochastic,
    random_doubly_stochastic_polynomial,
    random_psd_qmatrix,
    random_qmatrix,
    random_unitary_polynomial,
    random_unitary_qmatrix,
    rng_for,
)
from quathw.quaternion import I as QI, J as QJ, K as QK

from test_qmatrix import similar_to_jordan_block, spectra_close

SQRT2 = math.sqrt(2.0)


def linear_pair_p():
    return QMatrixPolynomial((
        QMatrix.from_real([[2.0, 2.0], [2.0, -14.0]]),
        QMatrix.from_real([[2.0, 0.0], [0.0, -2.0]]),
    ))


def linear_pair_q():
    return QMatrixPolynomial((
        QMatrix.from_real([[2.0, 5.0], [5.0, -7.5]]),
        QMatrix.from_real([[1.0, 0.0], [0.0, -1.25]]),
    ))


def quadratic_unitary_p():
    u1 = QMatrix.from_real(np.array([[1.0, 1.0], [1.0, -1.0]]) / SQRT2)
    u0 = QMatrix.from_real(np.array([[4.0, 5.0], [5.0, -4.0]]) / math.sqrt(41.0))
    return QMatrixPolynomial((u0, u1, QMatrix.identity(2)))


def quadratic_unitary_q():
    u1 = QMatrix.from_real(np.array([[1.0, 1.0], [1.0, -1.0]]) / SQRT2)
    u0 = QMatrix.from_real(
        np.array([[-0.5, math.sqrt(3.0) / 2.0], [-math.sqrt(3.0) / 2.0, -0.5]])
    )
    return QMatrixPolynomial((u0, u1, QMatrix.identity(2)))


class TestMonicize:
    def test_already_monic_unchanged(self):
        p = QMatrixPolynomial((QMatrix.from_real([[1.0, 2.0], [3.0, 4.0]]), QMatrix.identity(2)))
        assert monicize(p) is p

    def test_reference_linear_example(self):
        monic = monicize(linear_pair_p())
        assert monic.coefficients[0].allclose(QMatrix.from_real([[1.0, 1.0], [-1.0, 7.0]]), 1e-12)
        comp = companion(linear_pair_p())
        assert comp.matrix.allclose(QMatrix.from_real([[-1.0, -1.0], [1.0, -7.0]]), 1e-12)

    def test_unitary_leading_preserves_coefficient_norms(self):
        rng = rng_for(400, 0)
        um = random_unitary_qmatrix(rng, 3)
        a0 = random_qmatrix(rng, 3)
        a1 = random_qmatrix(rng, 3)
        monic = monicize(QMatrixPolynomial((a0, a1, um)))
        assert monic.coefficients[0].frobenius_norm() == pytest.approx(
            a0.frobenius_norm(), rel=1e-10
        )
        assert monic.coefficients[1].frobenius_norm() == pytest.approx(
            a1.frobenius_norm(), rel=1e-10
        )

    def test_singular_leading_rejected(self):
        p = QMatrixPolynomial((QMatrix.identity(2), QMatrix.from_real([[1.0, 1.0], [1.0, 1.0]])))
        with pytest.raises(SingularLeadingCoefficientError):
            monicize(p)

    def test_eigenvalues_preserved(self):
        for trial in range(10):
            rng = rng_for(401, trial)
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 4))
            coeffs = [random_qmatrix(rng, n) for _ in range(m)]
            coeffs.append(random_qmatrix(rng, n) + QMatrix.identity(n) * (n + 1.0))
            p = QMatrixPolynomial(tuple(coeffs))
            before = standard_eigenvalues_poly(p)
            after = standard_eigenvalues_poly(monicize(p))
            scale = max(1.0, companion(p).matrix.frobenius_norm())
            assert spectra_close(before.values, after.values, tol=1e-6 * scale)


class TestCompanion:
    def test_reference_q_companion(self):
        comp = companion(linear_pair_q())
        assert comp.matrix.allclose(QMatrix.from_real([[-2.0, -5.0], [4.0, -6.0]]), 1e-12)

    def test_linear_monic_degenerates(self):
        a0 = QMatrix.from_entries([[QJ]])
        p = QMatrixPolynomial((a0, QMatrix.identity(1)))
        assert companion(p).matrix.allclose(-a0, 0.0)

    def test_quadratic_shift_structure_exact(self):
        p = quadratic_unitary_p()
        comp = companion(p).matrix
        assert np.array_equal(comp.c1[:2, :2], np.zeros((2, 2)))
        assert np.array_equal(comp.c1[:2, 2:], np.eye(2))
        assert np.array_equal(comp.c2[:2, :], np.zeros((2, 4)))
        assert np.allclose(comp.c1[2:, :2], -p.coefficients[0].c1)
        assert np.allclose(comp.c1[2:, 2:], -p.coefficients[1].c1)

    def test_quadratic_reference_eigenvalues(self):
        spec = standard_eigenvalues_poly(quadratic_unitary_p())
        expected = [1.6163, -0.4969 + 0.8643j, -0.4969 + 0.8643j, -0.6225]
        assert spectra_close(spec.values, expected, tol=1e-3)


class TestAdjointPolynomial:
    def test_scalar_j_coefficient(self):
        p = QMatrixPolynomial((QMatrix.from_entries([[QJ]]), QMatrix.identity(1)))
        pchi = adjoint_polynomial(p)
        assert np.allclose(pchi.coefficients[0], np.array([[0.0, 1.0], [-1.0, 0.0]]))
        assert np.allclose(pchi.coefficients[1], np.eye(2))

    def test_real_coefficients_duplicate_blocks(self):
        rng = rng_for(402, 0)
        a = QMatrix.from_real(rng.standard_normal((2, 2)))
        p = QMatrixPolynomial((a, QMatrix.identity(2)))
        c = adjoint_polynomial(p).coefficients[0]
        assert np.allclose(c[:2, :2], a.c1)
        assert np.allclose(c[2:, 2:], a.c1)
        assert np.allclose(c[:2, 2:], 0.0)
        assert np.allclose(c[2:, :2], 0.0)

    def test_degree_and_size(self):
        rng = rng_for(403, 0)
        p = QMatrixPolynomial(tuple(random_qmatrix(rng, 3) for _ in range(4)))
        pchi = adjoint_polynomial(p)
        assert pchi.degree == 3
        assert pchi.size == 6


class TestCompanionSimilarityWitness:
    def test_linear_identity_permutation(self):
        p = QMatrixPolynomial((QMatrix.from_entries([[QJ]]), QMatrix.identity(1)))
        wit = companion_similarity_witness(p)
        assert np.array_equal(wit.permutation_matrix, np.eye(2))
        assert wit.residual == 0.0

    def test_quadratic_scalar_block_pattern(self):
        # m = 2, n = 1: block map must be (0, 2, 1, 3)
        p = QMatrixPolynomial(
            (QMatrix.from_entries([[QK]]), QMatrix.from_entries([[QI]]), QMatrix.identity(1))
        )
        wit = companion_similarity_witness(p)
        assert wit.block_map == (0, 2, 1, 3)
        expected = np.zeros((4, 4))
        for r, c in enumerate(wit.block_map):
            expected[r, c] = 1.0
        assert np.array_equal(wit.permutation_matrix, expected)
        assert wit.residual <= 1e-12

    def test_random_polynomials_zero_residual(self):
        for trial in range(30):
            rng = rng_for(404, trial)
            n = 1 + trial % 3
            m = 1 + trial % 3
            coeffs = [random_qmatrix(rng, n) for _ in range(m)]
            coeffs.append(random_qmatrix(rng, n) + QMatrix.identity(n) * (n + 1.0))
            wit = companion_similarity_witness(QMatrixPolynomial(tuple(coeffs)))
            assert wit.residual <= 1e-12


class TestStandardEigenvaluesPoly:
    def test_linear_reference_values(self):
        spec = standard_eigenvalues_poly(linear_pair_p())
        assert spectra_close(spec.values, [-4 - 2 * SQRT2, -4 + 2 * SQRT2], tol=1e-9)
        spec_q = standard_eigenvalues_poly(linear_pair_q())
        assert spectra_close(spec_q.values, [-4 + 4j, -4 + 4j], tol=1e-9)

    def test_diagonal_shift_gives_standard_representatives(self):
        q1 = Quaternion(0.5, 0, 2.0, 0)
        q2 = Quaternion(-1.0, 0, 0, 3.0)
        p = QMatrixPolynomial((-QMatrix.diagonal([q1, q2]), QMatrix.identity(2)))
        spec = standard_eigenvalues_poly(p)
        expected = [standard_representative(q1), standard_representative(q2)]
        assert spectra_close(spec.values, expected, tol=1e-10)

    def test_adjoint_route_agrees(self):
        # fold of the adjoint-polynomial companion spectrum equals the
        # quaternion companion's standard spectrum
        from quathw import clinalg
        from quathw.qmatrix import _fold_conjugate_spectrum
        from quathw.config import DEFAULT_TOLERANCES

        for trial in range(15):
            rng = rng_for(405, trial)
            n = 1 + trial % 3
            m = 1 + trial % 3
            coeffs = [random_qmatrix(rng, n) for _ in range(m)]
            coeffs.append(QMatrix.identity(n))
            p = QMatrixPolynomial(tuple(coeffs))
            spec = standard_eigenvalues_poly(p)
            w = clinalg.eigenvalues(complex_companion(adjoint_polynomial(p))).values
            scale = max(1.0, companion(p).matrix.frobenius_norm())
            folded, _, _ = _fold_conjugate_spectrum(w, scale, DEFAULT_TOLERANCES)
            assert spectra_close(spec.values, folded, tol=1e-6 * scale)


class TestBounds:
    def test_unitary_reference_quadratic(self):
        report = bound_check_unitary(quadratic_unitary_p())
        assert report.holds
        assert report.max_modulus == pytest.approx(1.6163, abs=1e-3)
        assert report.lower_margin > 0.1 and report.upper_margin > 0.3

    def test_unitary_precondition(self):
        p = QMatrixPolynomial((QMatrix.from_real([[2.0]]), QMatrix.identity(1)))
        with pytest.raises(PreconditionViolatedError, match="coefficient 0"):
            bound_check_unitary(p)

    def test_commuting_scalar_cyclotomic(self):
        # lambda^2 + lambda + 1 per diagonal entry: roots on the unit circle
        p = QMatrixPolynomial((QMatrix.identity(2), QMatrix.identity(2), QMatrix.identity(2)))
        report = bound_check_commuting_disc(p)
        assert report.holds
        assert report.radius == pytest.approx(1.0, abs=1e-12)
        assert report.upper == pytest.approx(2.0)
        assert all(m == pytest.approx(1.0, abs=1e-9) for m in report.moduli)

    def test_commuting_requires_monic(self):
        p = QMatrixPolynomial((QMatrix.identity(2), QMatrix.identity(2) * 2.0))
        with pytest.raises(PreconditionViolatedError, match="monic"):
            bound_check_commuting_disc(p)

    def test_commuting_requires_commuting(self):
        rng = rng_for(406, 0)
        a = random_qmatrix(rng, 2)
        b = random_qmatrix(rng, 2)
        p = QMatrixPolynomial((a, b, QMatrix.identity(2)))
        with pytest.raises(PreconditionViolatedError, match="commute"):
            bound_check_commuting_disc(p)

    def test_commuting_declared_radius_too_small(self):
        p = QMatrixPolynomial((QMatrix.identity(2) * 3.0, QMatrix.identity(2)))
        with pytest.raises(PreconditionViolatedError, match="disc"):
            bound_check_commuting_disc(p, r=1.0)

    @pytest.mark.parametrize("r", [math.nan, math.inf])
    def test_commuting_rejects_non_finite_radius(self, r):
        # a NaN radius makes every comparison false and the verdict "violated";
        # an infinite one holds vacuously
        p = QMatrixPolynomial((QMatrix.identity(2), QMatrix.identity(2), QMatrix.identity(2)))
        with pytest.raises(PreconditionViolatedError, match="finite"):
            bound_check_commuting_disc(p, r=r)

    def test_doubly_stochastic_permutation_coefficients(self):
        perm1 = QMatrix.from_real(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]))
        perm2 = QMatrix.from_real(np.eye(3)[[2, 0, 1]])
        report = bound_check_doubly_stochastic(QMatrixPolynomial((perm1, perm2)))
        assert report.holds
        assert all(0.5 < m < 2.0 for m in report.moduli)

    def test_doubly_stochastic_test_is_allclose(self):
        # the direct |sum - 1| <= atol test is np.allclose with rtol = 0
        rng = rng_for(414, 0)
        tol = 1e-10
        for trial in range(300):
            n = 1 + trial % 5
            m = random_doubly_stochastic(rng, n)
            m[rng.integers(n), rng.integers(n)] += rng.choice([0.0, 0.5, 1.0, 1.5]) * tol * n
            if trial % 50 == 0:
                m[0, 0] = rng.choice([np.nan, np.inf, -np.inf])
            ones = np.ones(n)
            want = bool(
                np.all(m >= -tol)
                and np.allclose(m @ ones, ones, rtol=0.0, atol=tol * n)
                and np.allclose(m.T @ ones, ones, rtol=0.0, atol=tol * n)
            )
            assert _is_doubly_stochastic(m, tol) == want

    def test_doubly_stochastic_rejects_general_matrix(self):
        p = QMatrixPolynomial((QMatrix.from_real([[0.5, 0.6], [0.5, 0.4]]), QMatrix.identity(2)))
        with pytest.raises(PreconditionViolatedError):
            bound_check_doubly_stochastic(p)

    def test_random_instances_per_class(self):
        for trial in range(25):
            rng = rng_for(407, trial)
            n = 1 + trial % 3
            deg = 1 + trial % 3
            assert bound_check_unitary(random_unitary_polynomial(rng, n, deg)).holds
            assert bound_check_doubly_stochastic(
                random_doubly_stochastic_polynomial(rng, max(n, 2), deg)
            ).holds
            assert bound_check_commuting_disc(
                random_commuting_monic_polynomial(rng, n, deg)
            ).holds


# -- defective golden instances -------------------------------------------------


def triangular_linear_defective():
    """Upper triangular coefficients whose companion is a Jordan block."""
    return QMatrixPolynomial(
        (QMatrix.from_real([[-2.0, -1.0], [0.0, -2.0]]), QMatrix.identity(2))
    )


def normal_linear_defective():
    """Normal coefficients with companion -A1^-1 A0 = [[2,1],[0,2]]."""
    a1 = QMatrix.from_real([[0.0, 1.0], [1.0, 0.0]])
    a0 = QMatrix.from_real([[0.0, -2.0], [-2.0, -1.0]])
    return QMatrixPolynomial((a0, a1))


def cubic_unitary_noncommuting_defective():
    """Degree 3 with unitary non-commuting diagonal coefficients.

    The first diagonal slot carries monic lambda^3 - lambda^2 - lambda + 1
    = (lambda-1)^2 (lambda+1), whose scalar companion is defective; the
    second slot carries lambda^3 + i lambda^2 + j lambda + k, which makes
    the coefficient matrices non-commuting.
    """
    one = Quaternion(1.0)
    u2 = QMatrix.diagonal([-one, QI])
    u1 = QMatrix.diagonal([-one, QJ])
    u0 = QMatrix.diagonal([one, QK])
    return QMatrixPolynomial((u0, u1, u2, QMatrix.identity(2)))


def quadratic_unitary_noncommuting_defective():
    """The reference quadratic with rotation constant term: C_Q has double
    eigenvalues +-1 of geometric multiplicity one."""
    return quadratic_unitary_q()


class TestDiagonalizableCompanionLinear:
    def test_unitary_class_kappa_one(self):
        rng = rng_for(408, 0)
        p = QMatrixPolynomial((random_unitary_qmatrix(rng, 3), random_unitary_qmatrix(rng, 3)))
        out = diagonalizable_companion_linear(p)
        assert out.diagonalizable and out.klass == "unitary"
        assert out.kappa == pytest.approx(1.0, abs=1e-8)

    def test_diagonal_class_unit_witness(self):
        # non-unitary diagonal coefficients so the diagonal class is selected
        a0 = QMatrix.diagonal([QJ * 2.0, QK * 3.0])
        p = QMatrixPolynomial((a0, QMatrix.diagonal([Quaternion(1.0), Quaternion(2.0)])))
        out = diagonalizable_companion_linear(p)
        assert out.diagonalizable and out.klass == "diagonal"
        assert out.kappa == pytest.approx(1.0, abs=1e-10)
        assert out.residual <= 1e-10
        assert spectra_close(out.values, [2j, 1.5j], tol=1e-12)

    def test_diagonal_class_record(self):
        # the closed-form witness is a Diagonalization: kappa from
        # condition_number, and no conjugate fold behind its values
        a0 = QMatrix.diagonal([QJ * 2.0, QK * 3.0])
        p = QMatrixPolynomial((a0, QMatrix.diagonal([Quaternion(1.0), Quaternion(2.0)])))
        diag = _diagonal_coefficient_result(companion(p).matrix, DEFAULT_TOLERANCES)
        assert diag.pairing_residual == 0.0
        assert diag.kappa.hex() == condition_number(diag.transform).hex()
        out = diagonalizable_companion(p)
        assert (out.values, out.kappa, out.residual) == (diag.values, diag.kappa, diag.residual)

    def test_unitary_diagonal_classified_unitary(self):
        # diag(j, k) is unitary, so precedence picks the unitary class
        p = QMatrixPolynomial((QMatrix.diagonal([QJ, QK]), QMatrix.identity(2)))
        out = diagonalizable_companion_linear(p)
        assert out.diagonalizable and out.klass == "unitary"
        assert out.kappa == pytest.approx(1.0, abs=1e-8)

    def test_diagonal_class_complex_entries_gives_identity(self):
        p = QMatrixPolynomial((-QMatrix.from_complex(np.diag([2.0 + 1j, 3.0])), QMatrix.identity(2)))
        out = diagonalizable_companion_linear(p)
        assert out.klass == "diagonal"
        assert out.transform.allclose(QMatrix.identity(2), 1e-12)

    def test_psd_class(self):
        # n >= 2 so a dense psd draw is not also diagonal
        for trial in range(20):
            rng = rng_for(409, trial)
            n = 2 + trial % 3
            p = QMatrixPolynomial(
                (random_psd_qmatrix(rng, n, definite=False), random_psd_qmatrix(rng, n))
            )
            out = diagonalizable_companion_linear(p)
            assert out.diagonalizable and out.klass == "psd"

    def test_class_precedence_unitary_over_diagonal(self):
        p = QMatrixPolynomial((QMatrix.identity(2), QMatrix.identity(2)))
        assert diagonalizable_companion_linear(p).klass == "unitary"

    def test_requires_linear(self):
        with pytest.raises(NotLinearError):
            diagonalizable_companion_linear(quadratic_unitary_p())

    def test_triangular_defective_reports_false(self):
        out = diagonalizable_companion_linear(triangular_linear_defective())
        assert not out.diagonalizable and out.klass == "none"

    def test_normal_defective_reports_false(self):
        p = normal_linear_defective()
        # verify the intended companion shape first
        assert companion(p).matrix.allclose(QMatrix.from_real([[2.0, 1.0], [0.0, 2.0]]), 1e-12)
        out = diagonalizable_companion_linear(p)
        assert not out.diagonalizable and out.klass == "none"

    def test_similar_to_jordan_block_reports_false(self):
        # X J_3(2+i) X^-1 with a random X: a defect found through an
        # ill-conditioned eigenvector matrix, not a crash
        a = similar_to_jordan_block()
        out = diagonalizable_companion_linear(QMatrixPolynomial((-a, QMatrix.identity(3))))
        assert not out.diagonalizable and out.klass == "none"


class TestDiagonalizableCompanion:
    def test_cubic_defective_reports_false(self):
        out = diagonalizable_companion(cubic_unitary_noncommuting_defective())
        assert not out.diagonalizable and out.klass == "none"
        assert out.transform is None and out.kappa is None

    def test_commuting_unitary_quadratic(self):
        for trial in range(5):
            rng = rng_for(413, trial)
            n = 1 + trial % 3
            u0, u1 = random_commuting_unitary_pair(rng, n)
            out = diagonalizable_companion(QMatrixPolynomial((u0, u1, QMatrix.identity(n))))
            assert out.diagonalizable and out.klass == "commuting-unitary"
            assert out.residual <= 1e-10

    def test_noncommuting_quadratic_has_no_class(self):
        out = diagonalizable_companion(quadratic_unitary_p())
        assert out.diagonalizable and out.klass == "none"
        assert not diagonalizable_companion(quadratic_unitary_q()).diagonalizable


def clustered_commuting_unitary_quadratic(seed, gap, n=4):
    """lambda^2 + U D_1 U* lambda + U D_0 U* with a random quaternion
    unitary U and unit-modulus diagonals D_0 and D_1, in each of which
    entries 0, 1 and entries 2, 3 are ``gap`` apart in angle."""
    rng = np.random.default_rng(seed)
    u = random_unitary_qmatrix(rng, n)
    coefficients = []
    for _ in range(2):
        theta = rng.uniform(0.0, 2.0 * np.pi, n)
        theta[1], theta[3] = theta[0] + gap, theta[2] + gap
        coefficients.append(u @ QMatrix.diagonal(np.exp(1j * theta)) @ u.h)
    return QMatrixPolynomial((*coefficients, QMatrix.identity(n)))


def real_pencil_commuting_unitary_quadratic(seed, gap=3e-6):
    """lambda^2 + U D_1 U* lambda + U D_0 U* at n = 4 with a random
    quaternion unitary U, where D_k = diag(1, exp(i gap), exp(i t_k),
    exp(i (t_k + gap))): entry 0 of both diagonals is 1, so one value of
    the pencil U_0 + s U_1 is real."""
    rng = np.random.default_rng(seed)
    u = random_unitary_qmatrix(rng, 4)
    coefficients = [
        u @ QMatrix.diagonal(np.exp(1j * np.array([0.0, gap, t, t + gap]))) @ u.h
        for t in rng.uniform(0.0, 2.0 * np.pi, 2)
    ]
    return QMatrixPolynomial((*coefficients, QMatrix.identity(4)))


def commuting_unitary_quadratic(seed, n):
    u0, u1 = random_commuting_unitary_pair(rng_for(414, seed), n)
    return QMatrixPolynomial((u0, u1, QMatrix.identity(n)))


SQRT3 = math.sqrt(3.0)
EPS = np.finfo(float).eps


class TestDiagonalizableCompanionQuadratic:
    def test_identity_coefficients(self, monkeypatch):
        # every pencil value coincides, so the companion goes to diagonalize
        p = QMatrixPolynomial((QMatrix.identity(2), QMatrix.identity(2), QMatrix.identity(2)))
        calls = []
        monkeypatch.setattr(
            qpoly, "diagonalize", lambda a, tols: calls.append(a) or diagonalize(a, tols)
        )
        out = diagonalizable_companion_quadratic_unitary(p)
        assert out.diagonalizable
        root = complex(-0.5, math.sqrt(3.0) / 2.0)
        assert spectra_close(out.values, [root] * 4, tol=1e-9)
        assert len(calls) == 1
        want = diagonalize(companion(p).matrix)
        assert out.transform.c1.tobytes() == want.transform.c1.tobytes()
        assert out.transform.c2.tobytes() == want.transform.c2.tobytes()
        assert (out.values, out.kappa, out.residual) == (want.values, want.kappa, want.residual)

    @pytest.mark.parametrize("gap", [3e-6, 1e-5])
    def test_clustered_coefficient_spectra(self, gap):
        # the class guarantees a diagonalizable companion however close the
        # coefficients' eigenvalues; the eigensolver's per-cluster kernels
        # missed it on many of these
        failed = []
        for seed in range(100):
            out = diagonalizable_companion_quadratic_unitary(
                clustered_commuting_unitary_quadratic(seed, gap)
            )
            assert out.klass == "commuting-unitary"
            if not (out.diagonalizable and out.residual <= DEFAULT_TOLERANCES.diag_verify):
                failed.append(seed)
        assert failed == []

    @pytest.mark.xfail(
        strict=True,
        raises=NotDiagonalizableError,
        reason="a real pencil value sends the companion to diagonalize, whose "
        "clusters merge the coefficients' close eigenvalues",
    )
    def test_real_pencil_value(self):
        # the class guarantees a diagonalizable companion here too
        for seed in range(10):
            out = diagonalizable_companion_quadratic_unitary(
                real_pencil_commuting_unitary_quadratic(seed)
            )
            assert out.klass == "commuting-unitary"
            assert out.residual <= DEFAULT_TOLERANCES.diag_verify

    def test_kappa_at_most_sqrt3(self):
        # the bound proved in the docstring, up to rounding
        worst = 0.0
        for trial in range(200):
            n = 1 + trial % 8
            out = diagonalizable_companion_quadratic_unitary(commuting_unitary_quadratic(trial, n))
            assert out.kappa <= SQRT3 * (1.0 + 32 * n * EPS)
            worst = max(worst, out.kappa / SQRT3)
        assert worst > 0.999

    def test_kappa_bound_is_attained(self):
        # roots exp(i t) and exp(i (t + 2 pi / 3)): both on the unit circle
        # with |r1 + r2| = 1, where the bound holds with equality
        r1, r2 = np.exp(0.3j), np.exp(0.3j + 2j * np.pi / 3)
        p = QMatrixPolynomial(tuple(
            QMatrix.from_complex([[c]]) for c in (r1 * r2, -(r1 + r2), 1.0)
        ))
        out = diagonalizable_companion_quadratic_unitary(p)
        assert abs(out.kappa - SQRT3) <= SQRT3 * 32 * EPS
        assert spectra_close(out.values, [r1, r2], tol=1e-14)
        assert out.residual <= 1e-15

    def test_construction_needs_no_diagonalize(self, monkeypatch):
        # distinct pencil values: the class's own construction, whose values
        # are the closed-form roots
        def refuse(a, tols):
            raise AssertionError("diagonalize ran")

        monkeypatch.setattr(qpoly, "diagonalize", refuse)
        for trial in range(12):
            n = 1 + trial % 4
            p = commuting_unitary_quadratic(trial, n)
            out = diagonalizable_companion_quadratic_unitary(p)
            assert out.klass == "commuting-unitary" and out.residual <= 1e-12
            assert spectra_close(out.values, standard_eigenvalues(companion(p).matrix).values)
            rep = hw_type_poly(p, random_unitary_polynomial(rng_for(415, trial), n, 2))
            assert rep.theorem_class == "commuting-unitary" and rep.kappa == out.kappa

    def test_random_commuting_pairs(self):
        for trial in range(20):
            rng = rng_for(410, trial)
            n = 1 + trial % 3
            u0, u1 = random_commuting_unitary_pair(rng, n)
            p = QMatrixPolynomial((u0, u1, QMatrix.identity(n)))
            out = diagonalizable_companion_quadratic_unitary(p)
            assert out.diagonalizable
            assert out.kappa is not None and out.kappa >= 1.0 - 1e-10

    def test_reference_pair_is_noncommuting(self):
        with pytest.raises(PreconditionViolatedError, match="commute"):
            diagonalizable_companion_quadratic_unitary(quadratic_unitary_p())

    def test_rejects_nonmonic(self):
        rng = rng_for(411, 0)
        u0, u1 = random_commuting_unitary_pair(rng, 2)
        p = QMatrixPolynomial((u0, u1, QMatrix.identity(2) * 2.0))
        with pytest.raises(PreconditionViolatedError, match="monic"):
            diagonalizable_companion_quadratic_unitary(p)

    def test_rejects_nonunitary(self):
        p = QMatrixPolynomial(
            (QMatrix.identity(2) * 3.0, QMatrix.identity(2), QMatrix.identity(2))
        )
        with pytest.raises(PreconditionViolatedError, match="unitary"):
            diagonalizable_companion_quadratic_unitary(p)

    @pytest.mark.parametrize(
        "u0, u1, message",
        [
            (3.0, 1.0, "constant coefficient is not unitary"),
            (3.0, 3.0, "constant coefficient is not unitary"),
            (1.0, 3.0, "linear coefficient is not unitary"),
            (None, None, "coefficients do not commute (residual 3.123e-01)"),
        ],
    )
    def test_error_names_the_first_failed_hypothesis(self, u0, u1, message):
        if u0 is None:
            p = quadratic_unitary_p()
        else:
            p = QMatrixPolynomial(
                (QMatrix.identity(2) * u0, QMatrix.identity(2) * u1, QMatrix.identity(2))
            )
        with pytest.raises(PreconditionViolatedError) as exc:
            diagonalizable_companion_quadratic_unitary(p)
        assert str(exc.value) == message


class TestDefectiveGoldenInstances:
    def test_quadratic_noncommuting_unitary_defective(self):
        p = quadratic_unitary_noncommuting_defective()
        with pytest.raises(NotDiagonalizableError):
            from quathw import diagonalize

            diagonalize(companion(p).matrix)

    def test_cubic_unitary_noncommuting_defective(self):
        p = cubic_unitary_noncommuting_defective()
        # coefficients are unitary but do not commute
        for c in p.coefficients:
            from quathw import is_unitary

            assert is_unitary(c)
        u0, u1 = p.coefficients[0], p.coefficients[1]
        assert (u0 @ u1 - u1 @ u0).frobenius_norm() > 0.5
        from quathw import diagonalize

        with pytest.raises(NotDiagonalizableError):
            diagonalize(companion(p).matrix)

    def test_cubic_spectrum_contains_double_root_one(self):
        spec = standard_eigenvalues_poly(cubic_unitary_noncommuting_defective())
        near_one = [z for z in spec.values if abs(z - 1.0) < 1e-6]
        assert len(near_one) == 2

    def test_scalar_cubic_commuting_also_defective(self):
        # (lambda-1)^2 (lambda+1) with scalar +-1 coefficients: commuting
        # unitary coefficients, degree 3, still defective
        one = QMatrix.identity(1)
        p = QMatrixPolynomial((one, -1.0 * one, -1.0 * one, one))
        from quathw import diagonalize

        with pytest.raises(NotDiagonalizableError):
            diagonalize(companion(p).matrix)


def hw_type_poly_pairs(trial):
    """(p, q) with p of each class that hw_type_poly diagonalizes: the
    benchmark's unitary and commuting-unitary ones, psd and none, which are
    diagonal at size 1."""
    rng = rng_for(413, trial)
    n = 1 + trial % 3
    kind = trial % 4
    if kind == 0:
        p = random_unitary_polynomial(rng, n, 1)
    elif kind == 1:
        u0, u1 = random_commuting_unitary_pair(rng, n)
        p = QMatrixPolynomial((u0, u1, QMatrix.identity(n)))
    elif kind == 2:
        p = QMatrixPolynomial((random_psd_qmatrix(rng, n), random_psd_qmatrix(rng, n)))
    else:
        p = QMatrixPolynomial((random_qmatrix(rng, n), random_qmatrix(rng, n)))
    return p, random_unitary_polynomial(rng, n, p.degree)


def hw_type_poly_separately(p, q, tols=DEFAULT_TOLERANCES):
    """hw_type_poly as diagonalize, condition_number and hw_report calls."""
    outcome = diagonalizable_companion(p, tols)
    cp, cq = companion(p, tols).matrix, companion(q, tols).matrix
    return hw_report(cp, cq, tols, kind="hw-type-poly", kappa=outcome.kappa,
                     theorem_class=outcome.klass)


class TestHwTypePoly:
    def test_reuses_the_diagonalization_spectrum(self):
        classes = set()
        for trial in range(40):
            p, q = hw_type_poly_pairs(trial)
            got, want = hw_type_poly(p, q), hw_type_poly_separately(p, q)
            classes.add(got.theorem_class)
            for rep in (got, want):
                assert rep.kappa is not None
            assert (got.lhs.hex(), got.rhs.hex(), got.permutation, got.kappa.hex(), got.holds,
                    got.theorem_class) == (want.lhs.hex(), want.rhs.hex(), want.permutation,
                                           want.kappa.hex(), want.holds, want.theorem_class)
        assert classes == {"unitary", "commuting-unitary", "psd", "none", "diagonal"}

    def test_pairing_failure_is_the_first_companion_s(self):
        tight = DEFAULT_TOLERANCES.replace(pairing=1e-30)
        for trial in range(12):
            p, q = hw_type_poly_pairs(trial)
            if p.size == 1:  # a fold residual of 0 passes any pairing tolerance
                continue
            with pytest.raises(PairingFailureError) as want:
                standard_eigenvalues(companion(p).matrix, tight)
            for route in (hw_type_poly, hw_type_poly_separately):
                with pytest.raises(PairingFailureError) as got:
                    route(p, q, tight)
                assert str(got.value) == str(want.value)

    def test_same_polynomial_zero_lhs(self):
        p = quadratic_unitary_p()
        rep = hw_type_poly(p, p)
        assert rep.holds and rep.lhs <= 1e-18

    def test_reference_linear_pair(self):
        rep = hw_type_poly(linear_pair_p(), linear_pair_q())
        assert rep.holds
        assert rep.lhs == pytest.approx(48.0, abs=1e-9)
        assert rep.kappa == pytest.approx(SQRT2, rel=1e-8)
        assert rep.rhs == pytest.approx(54.0, abs=1e-6)
        # the plain bound fails: 48 > 27
        assert rep.lhs > 27.0

    def test_commuting_unitary_quadratic_pairs_hold(self):
        for trial in range(15):
            rng = rng_for(412, trial)
            n = 1 + trial % 2
            u0, u1 = random_commuting_unitary_pair(rng, n)
            p = QMatrixPolynomial((u0, u1, QMatrix.identity(n)))
            v0, v1 = random_commuting_unitary_pair(rng, n)
            q = QMatrixPolynomial((v0, v1, QMatrix.identity(n)))
            rep = hw_type_poly(p, q)
            assert rep.holds
            assert rep.theorem_class == "commuting-unitary"

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            hw_type_poly(linear_pair_p(), quadratic_unitary_p())

    def test_defective_first_polynomial_rejected(self):
        with pytest.raises(NotDiagonalizableError):
            hw_type_poly(triangular_linear_defective(), linear_pair_q())
        with pytest.raises(NotDiagonalizableError):
            hw_type_poly(quadratic_unitary_q(), quadratic_unitary_p())
