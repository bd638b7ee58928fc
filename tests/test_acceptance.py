"""Acceptance criteria.

One test per criterion; every test prints a single pass/fail line in the
form ``[acceptance NN] PASS|FAIL description`` (run pytest with -s to see
them inline).  Tolerances are pinned here, not configured elsewhere.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from quathw import (
    NotDiagonalizableError,
    QMatrix,
    QMatrixPolynomial,
    adjoint,
    bound_check_commuting_disc,
    bound_check_doubly_stochastic,
    bound_check_unitary,
    companion,
    companion_similarity_witness,
    complex_companion,
    adjoint_polynomial,
    diagonalizable_companion_linear,
    diagonalizable_companion_quadratic_unitary,
    diagonalize,
    hw_check,
    hw_type_check,
    inverse,
    is_hermitian,
    is_normal,
    is_unitary,
    min_cost_assignment,
    monicize,
    non_standard_counterexample,
    standard_eigenvalues,
    standard_eigenvalues_poly,
)
from quathw import clinalg
from quathw.cli import main as cli_main
from quathw.config import DEFAULT_TOLERANCES
from quathw.generators import (
    random_commuting_monic_polynomial,
    random_commuting_unitary_pair,
    random_complex_matrix,
    random_diagonalizable_qmatrix,
    random_doubly_stochastic_polynomial,
    random_hermitian_qmatrix,
    random_normal_qmatrix,
    random_psd_qmatrix,
    random_qmatrix,
    random_quaternion,
    random_unitary_polynomial,
    random_unitary_qmatrix,
    rng_for,
    upper_half_values,
)
from quathw.golden import fixture_path
from quathw.matio import load_document
from quathw.qmatrix import _fold_conjugate_spectrum

from oracles import exhaustive_min_assignment
from test_qmatrix import spectra_close
from test_qpoly import (
    cubic_unitary_noncommuting_defective,
    normal_linear_defective,
    quadratic_unitary_noncommuting_defective,
    triangular_linear_defective,
)

SQRT2 = math.sqrt(2.0)


@contextmanager
def criterion(num: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance {num:02d}] FAIL {description}")
        raise
    print(f"[acceptance {num:02d}] PASS {description}")


def test_criterion_01_linear_counterexample():
    with criterion(1, "linear pair: distance 27, eigenvalues, cost 48, hw exits 1, < 1 s"):
        start = time.perf_counter()
        p = load_document(fixture_path("linear_normal_p.json"))
        q = load_document(fixture_path("linear_normal_q.json"))
        cp = companion(p).matrix
        cq = companion(q).matrix
        assert abs((cp - cq).frobenius_norm() ** 2 - 27.0) <= 1e-9
        lam = standard_eigenvalues_poly(p)
        mu = standard_eigenvalues_poly(q)
        assert spectra_close(lam.values, [-4 - 2 * SQRT2, -4 + 2 * SQRT2], tol=1e-9)
        assert spectra_close(mu.values, [-4 + 4j, -4 + 4j], tol=1e-9)
        match = min_cost_assignment(lam.values, mu.values)
        assert abs(match.cost - 48.0) <= 1e-9
        code = cli_main(
            ["hw", fixture_path("linear_normal_p.json"), fixture_path("linear_normal_q.json")]
        )
        assert code == 1
        assert time.perf_counter() - start < 1.0


def test_criterion_02_quadratic_counterexample():
    with criterion(2, "quadratic pair: distance 4, eigenvalue list, cost >= 4.5102, < 1 s"):
        start = time.perf_counter()
        p = load_document(fixture_path("quadratic_unitary_p.json"))
        q = load_document(fixture_path("quadratic_unitary_q.json"))
        cp = companion(p).matrix
        cq = companion(q).matrix
        assert abs((cp - cq).frobenius_norm() ** 2 - 4.0) <= 1e-9
        lam = standard_eigenvalues_poly(p)
        expected = [1.6163, -0.4969 + 0.8643j, -0.4969 + 0.8643j, -0.6225]
        assert spectra_close(lam.values, expected, tol=1e-3)
        mu = standard_eigenvalues_poly(q)
        match = min_cost_assignment(lam.values, mu.values)
        assert match.cost >= 4.5102 - 1e-3
        assert time.perf_counter() - start < 1.0


def test_criterion_03_nonstandard_right_eigenvalues():
    with criterion(3, "standard eigenvalues attain lhs = rhs = 1; non-standard break the bound"):
        report = non_standard_counterexample()
        assert report.standard.holds
        assert abs(report.standard.lhs - 1.0) <= 1e-9
        assert abs(report.standard.rhs - 1.0) <= 1e-9
        oracle_cost, _ = exhaustive_min_assignment([1 - 1j, 1.0], [1j, 1.0])
        assert report.nonstandard_min_cost == pytest.approx(oracle_cost, abs=1e-12)
        assert oracle_cost > 1.0
        assert report.violates


def test_criterion_04_mixed_complex_diagonal():
    with criterion(4, "standard eigenvalues of diag(1+i, 1-i) are {1+i, 1+i} within 1e-10"):
        a = load_document(fixture_path("mixed_complex_diagonal.json"))
        spec = standard_eigenvalues(a)
        assert spectra_close(spec.values, [1 + 1j, 1 + 1j], tol=1e-10)


def test_criterion_05_hw_property_suite():
    with criterion(5, "500 random normal pairs of orders 2-8 satisfy the inequality in < 60 s"):
        start = time.perf_counter()
        for trial in range(500):
            rng = rng_for(50_000, trial)
            n = 2 + trial % 7
            a, _ = random_normal_qmatrix(rng, n)
            b, _ = random_normal_qmatrix(rng, n)
            assert is_normal(a) and is_normal(b)
            rep = hw_check(a, b)
            assert rep.holds, f"trial {trial}: lhs={rep.lhs} rhs={rep.rhs}"
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.1f} s"


def test_criterion_06_hw_type_property_suite():
    with criterion(6, "500 random (diagonalizable, arbitrary) pairs of orders 2-6 satisfy the bound"):
        for trial in range(500):
            rng = rng_for(60_000, trial)
            n = 2 + trial % 5
            a, _, _ = random_diagonalizable_qmatrix(rng, n)
            b = random_qmatrix(rng, n)
            rep = hw_type_check(a, b)
            assert rep.holds, f"trial {trial}: lhs={rep.lhs} rhs={rep.rhs} kappa={rep.kappa}"


def test_criterion_07_companion_similarity():
    with criterion(7, "100 random polynomials: permutation residual <= 1e-10, spectra match to 1e-6"):
        for trial in range(100):
            rng = rng_for(70_000, trial)
            n = 1 + trial % 3
            m = 1 + trial % 3
            coeffs = [random_qmatrix(rng, n) for _ in range(m)]
            coeffs.append(random_qmatrix(rng, n) + QMatrix.identity(n) * (n + 1.0))
            p = QMatrixPolynomial(tuple(coeffs))
            wit = companion_similarity_witness(p)
            assert wit.residual <= 1e-10
            comp = companion(p).matrix
            spec = standard_eigenvalues(comp)
            w = clinalg.eigenvalues(complex_companion(adjoint_polynomial(monicize(p)))).values
            folded, _, _ = _fold_conjugate_spectrum(
                w, max(1.0, comp.frobenius_norm()), DEFAULT_TOLERANCES
            )
            assert spectra_close(
                spec.values, folded, tol=1e-6 * max(1.0, comp.frobenius_norm())
            )


def test_criterion_08_bound_suites():
    with criterion(8, "200 random instances per class stay strictly inside the stated intervals"):
        margin = 1e-9
        for trial in range(200):
            rng = rng_for(80_001, trial)
            n = 1 + trial % 3
            deg = 1 + trial % 3
            rep = bound_check_unitary(random_unitary_polynomial(rng, n, deg))
            assert rep.holds
            assert rep.min_modulus > 0.5 + margin and rep.max_modulus < 2.0 - margin
        for trial in range(200):
            rng = rng_for(80_002, trial)
            n = 2 + trial % 3
            deg = 1 + trial % 3
            rep = bound_check_doubly_stochastic(
                random_doubly_stochastic_polynomial(rng, n, deg)
            )
            assert rep.holds
            assert rep.min_modulus > 0.5 + margin and rep.max_modulus < 2.0 - margin
        for trial in range(200):
            rng = rng_for(80_003, trial)
            n = 1 + trial % 3
            deg = 1 + trial % 3
            rep = bound_check_commuting_disc(random_commuting_monic_polynomial(rng, n, deg))
            assert rep.holds
            assert rep.radius is not None
            assert rep.max_modulus < rep.radius + 1.0 - margin


def test_criterion_09_diagonalizability_suites():
    with criterion(9, "200 diagonalizable instances per class; defective goldens are rejected"):
        for trial in range(200):
            rng = rng_for(90_001, trial)
            n = 1 + trial % 4
            p = QMatrixPolynomial(
                (random_unitary_qmatrix(rng, n), random_unitary_qmatrix(rng, n))
            )
            out = diagonalizable_companion_linear(p)
            assert out.diagonalizable and out.klass == "unitary"
        for trial in range(200):
            rng = rng_for(90_002, trial)
            n = 1 + trial % 4
            d0 = QMatrix.diagonal([random_quaternion(rng) for _ in range(n)])
            d1 = QMatrix.diagonal(
                [random_quaternion(rng) + 2.0 for _ in range(n)]
            )
            out = diagonalizable_companion_linear(QMatrixPolynomial((d0, d1)))
            assert out.diagonalizable
        for trial in range(200):
            rng = rng_for(90_003, trial)
            n = 1 + trial % 4
            p = QMatrixPolynomial(
                (random_psd_qmatrix(rng, n, definite=False), random_psd_qmatrix(rng, n))
            )
            out = diagonalizable_companion_linear(p)
            assert out.diagonalizable
        for trial in range(200):
            rng = rng_for(90_004, trial)
            n = 1 + trial % 3
            u0, u1 = random_commuting_unitary_pair(rng, n)
            p = QMatrixPolynomial((u0, u1, QMatrix.identity(n)))
            out = diagonalizable_companion_quadratic_unitary(p)
            assert out.diagonalizable

        for defective in (
            triangular_linear_defective(),
            normal_linear_defective(),
            cubic_unitary_noncommuting_defective(),
            quadratic_unitary_noncommuting_defective(),
        ):
            with pytest.raises(NotDiagonalizableError):
                diagonalize(companion(defective).matrix)


def _adjoint_identity_suite(rng, n, tol):
    a = random_qmatrix(rng, n)
    b = random_qmatrix(rng, n)
    alpha = float(rng.uniform(-2, 2))
    ca, cb = adjoint(a), adjoint(b)
    scale = 1.0 + a.frobenius_norm() * b.frobenius_norm()
    # (a)
    assert np.array_equal(adjoint(QMatrix.identity(n)), np.eye(2 * n))
    # (b)
    assert np.linalg.norm(adjoint(a @ b) - ca @ cb, "fro") <= tol * scale
    # (c)
    assert np.array_equal(adjoint(a * alpha), alpha * ca)
    # (d)
    assert np.array_equal(adjoint(a + b), ca + cb)
    # (e)
    assert np.array_equal(adjoint(a.h), ca.conj().T)
    # (f)
    well = a + QMatrix.identity(n) * (2.0 * n)
    assert (
        np.linalg.norm(adjoint(inverse(well)) - clinalg.inverse(adjoint(well)), "fro")
        <= tol * scale
    )
    # (g)
    u = random_unitary_qmatrix(rng, n)
    h = random_hermitian_qmatrix(rng, n)
    nm, _ = random_normal_qmatrix(rng, n)
    cu, ch, cn = adjoint(u), adjoint(h), adjoint(nm)
    eye2n = np.eye(2 * n)
    assert is_unitary(u) and np.linalg.norm(cu @ cu.conj().T - eye2n) <= tol * 2 * n
    assert is_hermitian(h) and np.linalg.norm(ch - ch.conj().T) <= tol * (
        1 + np.linalg.norm(ch)
    )
    assert is_normal(nm) and np.linalg.norm(cn @ cn.conj().T - cn.conj().T @ cn) <= tol * (
        1 + np.linalg.norm(cn) ** 2
    )
    # (h)
    poly = a @ a + a * 0.5
    comm_q = (a @ poly - poly @ a).frobenius_norm()
    comm_c = np.linalg.norm(adjoint(a) @ adjoint(poly) - adjoint(poly) @ adjoint(a), "fro")
    cube = 1.0 + a.frobenius_norm() ** 3
    assert comm_q <= tol * cube and comm_c <= tol * cube
    assert (a @ b - b @ a).frobenius_norm() > tol or np.linalg.norm(
        ca @ cb - cb @ ca
    ) <= tol * scale
    # (i)
    w = clinalg.eigenvalues(ca).values
    spec = standard_eigenvalues(a)
    rebuilt = list(spec.values) + [z.conjugate() for z in spec.values]
    assert spectra_close(w, rebuilt, tol=1e-6 * max(1.0, a.frobenius_norm()))
    # (j)
    diagonalize(QMatrix.from_complex(np.diag([1.0, 2.0 + 1j])))
    with pytest.raises(NotDiagonalizableError):
        diagonalize(QMatrix.from_complex(np.array([[2.0, 1.0], [0.0, 2.0]])))


def test_criterion_10_kernel_oracles():
    with criterion(
        10, "assignment = exhaustive for n <= 6; eigensolver residual <= 1e-8; adjoint identities"
    ):
        # Hungarian vs exhaustive enumeration, exact cost equality
        for trial in range(1000):
            rng = rng_for(100_000, trial)
            n = 1 + trial % 6
            lam = upper_half_values(rng, n)
            mu = upper_half_values(rng, n)
            res = min_cost_assignment(lam, mu)
            best_cost, _ = exhaustive_min_assignment(lam, mu)
            assert res.cost == best_cost

        # eigensolver residuals on 1000 random complex matrices of order <= 16
        for trial in range(1000):
            rng = rng_for(100_001, trial)
            n = 1 + trial % 16
            dec = clinalg.eigen_full(random_complex_matrix(rng, n))
            assert dec.residual is not None and dec.residual <= 1e-8

        # adjoint identity suite at 1e-8
        for trial in range(25):
            rng = rng_for(100_002, trial)
            _adjoint_identity_suite(rng, 2 + trial % 3, tol=1e-8)
