"""Assignment kernel, conjugate fold, and inequality checks."""

import math
import warnings
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quathw import (
    DEFAULT_TOLERANCES,
    LengthMismatchError,
    MalformedPairingError,
    NonFiniteError,
    NotDiagonalizableError,
    NotNormalError,
    PairingFailureError,
    QMatrix,
    QMatrixPolynomial,
    QuathwError,
    ShapeMismatchError,
    assignment_cost,
    condition_number,
    diagonalizable_companion,
    diagonalize,
    fold_conjugate_assignment,
    hw_check,
    hw_report,
    hw_type_check,
    is_hermitian,
    is_normal,
    is_positive_semidefinite,
    min_cost_assignment,
    non_standard_counterexample,
    standard_eigenvalues,
)
import quathw.hw as hw_module
from quathw import clinalg
from quathw.generators import (
    random_diagonalizable_qmatrix,
    random_hermitian_qmatrix,
    random_normal_qmatrix,
    random_psd_qmatrix,
    random_qmatrix,
    random_unitary_qmatrix,
    rng_for,
    upper_half_values,
)
from quathw.qmatrix import _COUPLING, is_diagonal

import oracles
from oracles import exhaustive_lex_within, exhaustive_min_assignment
from test_qmatrix import normal_route, rotated_jordan_block

complex_values = st.complex_numbers(
    min_magnitude=0.0, max_magnitude=8.0, allow_nan=False, allow_infinity=False
)


class TestMinCostAssignment:
    def test_identity_on_equal_spectra(self):
        res = min_cost_assignment([1.0, 2.0], [1.0, 2.0])
        assert res.permutation == (0, 1)
        assert res.cost == 0.0

    def test_reference_cost_48(self):
        lam = [-4 - 2 * math.sqrt(2), -4 + 2 * math.sqrt(2)]
        mu = [-4 + 4j, -4 + 4j]
        res = min_cost_assignment(lam, mu)
        assert res.cost == pytest.approx(48.0, abs=1e-9)

    def test_random_n5_matches_brute_force(self):
        for trial in range(30):
            rng = rng_for(100, trial)
            lam = upper_half_values(rng, 5)
            mu = upper_half_values(rng, 5)
            res = min_cost_assignment(lam, mu)
            best_cost, _ = exhaustive_min_assignment(lam, mu)
            assert res.cost == pytest.approx(best_cost, abs=1e-12 * (1 + best_cost))

    def test_exhaustive_exact_all_small_sizes(self):
        for trial in range(60):
            rng = rng_for(101, trial)
            n = 1 + trial % 6
            lam = upper_half_values(rng, n)
            mu = upper_half_values(rng, n)
            res = min_cost_assignment(lam, mu)
            best_cost, best_perm = exhaustive_min_assignment(lam, mu)
            assert res.cost == best_cost  # identical float sums
            assert assignment_cost(lam, mu, res.permutation) == best_cost

    def test_lexicographic_tie_break(self):
        # fully tied: all costs equal, so the identity must be returned
        res = min_cost_assignment([1.0, 1.0, 1.0], [2.0, 2.0, 2.0])
        assert res.permutation == (0, 1, 2)
        # duplicated targets: both optima tie, lexicographically smaller wins
        res = min_cost_assignment([0.0, 5.0], [1.0, 1.0])
        assert res.permutation == (0, 1)
        _, lex_perm = exhaustive_min_assignment([0.0, 5.0], [1.0, 1.0])
        assert res.permutation == lex_perm

    def test_cost_recomputation_invariant(self):
        rng = rng_for(102, 0)
        lam = upper_half_values(rng, 6)
        mu = upper_half_values(rng, 6)
        res = min_cost_assignment(lam, mu)
        recomputed = assignment_cost(lam, mu, res.permutation)
        assert res.cost == pytest.approx(recomputed, rel=1e-12)
        assert sorted(res.permutation) == list(range(6))

    def test_no_transposition_improves(self):
        rng = rng_for(103, 0)
        lam = upper_half_values(rng, 6)
        mu = upper_half_values(rng, 6)
        res = min_cost_assignment(lam, mu)
        base = res.cost
        for i in range(6):
            for j in range(i + 1, 6):
                perm = list(res.permutation)
                perm[i], perm[j] = perm[j], perm[i]
                assert assignment_cost(lam, mu, perm) >= base - 1e-12 * (1 + base)

    def test_scaling_monotonicity(self):
        rng = rng_for(104, 0)
        lam = upper_half_values(rng, 5)
        mu = upper_half_values(rng, 5)
        res = min_cost_assignment(lam, mu)
        for t in (0.5, 2.0, 7.5):
            scaled = min_cost_assignment([t * z for z in lam], [t * z for z in mu])
            assert scaled.cost == pytest.approx(t * t * res.cost, rel=1e-9)
            # the original minimizer stays optimal after scaling
            assert assignment_cost(
                [t * z for z in lam], [t * z for z in mu], res.permutation
            ) == pytest.approx(scaled.cost, rel=1e-9)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            min_cost_assignment([1.0], [1.0, 2.0])
        with pytest.raises(LengthMismatchError):
            min_cost_assignment([], [])

    @pytest.mark.parametrize(
        "lam, mu",
        [
            ([float("nan"), 1.0], [0.0, 1.0]),
            ([0.0, 1.0], [float("inf"), 1.0]),
            ([complex(1.0, float("-inf"))], [0.0]),
            ([1.7e308, 1.7e308], [-1.7e308, -1.7e308]),  # distances overflow
            ([1e160], [0.0]),  # finite distance, its square overflows
        ],
    )
    def test_non_finite_spectra_rejected(self, lam, mu):
        with pytest.raises(NonFiniteError):
            min_cost_assignment(lam, mu)

    def test_cost_matrix_is_the_scalar_expression(self):
        # bit for bit on subnormal distances and squares, at 2^-500 and
        # 2^500, and on distances near 1e154 whose squares are just finite
        tiny = 5e-324
        lam = [0.0, tiny, 3 * tiny + 2j * tiny, 2.0**-500, 1e154, 1 + 1j]
        mu = [7 * tiny, -(2.0**-501) * 1j, 2.0**500, 0.5, 2.0**-520, 1.1e154]
        res = min_cost_assignment(lam, mu)
        want = np.array([[abs(l - m) ** 2 for m in mu] for l in lam])
        assert res.cost_matrix.tobytes() == want.tobytes()
        assert np.count_nonzero((res.cost_matrix > 0) & (res.cost_matrix < 2.0**-1022)) > 0

    @pytest.mark.parametrize(
        "lam, mu, message",
        [
            ([1e160], [0.0], "squared distances overflow"),
            ([1.2e154, 0.0], [-1.2e154, 1.0], "squared distances overflow"),
            ([math.inf, 1e160], [0.0, 0.0], "squared distances overflow"),
            ([1.7e308, 1.7e308], [-1.7e308, -1.7e308], "spectra contain NaN"),
            ([math.nan, 1.0], [0.0, 1.0], "spectra contain NaN"),
        ],
    )
    def test_overflowing_squares_raise_without_warning(self, lam, mu, message):
        # a finite distance whose square overflows names the overflow, as
        # the scalar abs(l - m) ** 2 does, whatever else is not finite
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match=message):
                min_cost_assignment(lam, mu)

    def test_lattice_ties_match_tie_aware_oracle(self):
        # Gaussian-integer spectra have many exactly tied optima
        tie = DEFAULT_TOLERANCES.tie
        for trial in range(200):
            rng = rng_for(105, trial)
            n = 1 + trial % 7
            lam = rng.integers(-2, 3, n) + 1j * rng.integers(-2, 3, n)
            mu = rng.integers(-2, 3, n) + 1j * rng.integers(-2, 3, n)
            res = min_cost_assignment(lam, mu)
            assert res.permutation == exhaustive_lex_within(lam, mu, tie)

    @given(
        st.lists(complex_values, min_size=1, max_size=5),
        st.data(),
    )
    @settings(max_examples=100)
    def test_hypothesis_optimality(self, lam, data):
        mu = data.draw(
            st.lists(complex_values, min_size=len(lam), max_size=len(lam))
        )
        res = min_cost_assignment(lam, mu)
        best_cost, _ = exhaustive_min_assignment(lam, mu)
        assert res.cost <= best_cost + 1e-12 * (1 + best_cost)


class TestMinCostAssignmentLarge:
    @pytest.mark.parametrize("n", [32, 64, 128])
    def test_cost_matches_scipy_optimum(self, n):
        from scipy.optimize import linear_sum_assignment

        rng = rng_for(106, n)
        lam = upper_half_values(rng, n)
        mu = upper_half_values(rng, n)
        res = min_cost_assignment(lam, mu)
        rows, cols = linear_sum_assignment(res.cost_matrix)
        best = float(res.cost_matrix[rows, cols].sum())
        assert sorted(res.permutation) == list(range(n))
        assert abs(res.cost - best) <= DEFAULT_TOLERANCES.tie * (1 + best)

    def test_all_tied_returns_identity(self):
        res = min_cost_assignment([1.0 + 1j] * 64, [2.0] * 64)
        assert res.permutation == tuple(range(64))

    def test_tie_certificate_matches_reference_kernel(self, monkeypatch):
        # the kernel before the tie certificate, kept verbatim in the oracles,
        # must pick the same permutation on tie-heavy spectra at every scale
        calls = {"library": 0, "reference": 0}
        flagged_runs = []

        def counted(module, key):
            augment = module._augment

            def wrapper(*args):
                calls[key] += 1
                return augment(*args)

            monkeypatch.setattr(module, "_augment", wrapper)

        def recorded(*args):
            flags = certificate(*args)
            flagged_runs.append(bool(flags.any()))
            return flags

        certificate = hw_module._tie_certificate
        counted(hw_module, "library")
        counted(oracles, "reference")
        monkeypatch.setattr(hw_module, "_tie_certificate", recorded)
        fewer_trials = 0
        for trial in range(2000):
            rng = rng_for(107, trial)
            n = 1 + int(40 * rng.random() ** 3)  # 1..40, most of them small
            kind = trial % 4
            if kind == 0:  # Gaussian-integer lattice
                lam = rng.integers(-2, 3, n) + 1j * rng.integers(0, 3, n)
                mu = rng.integers(-2, 3, n) + 1j * rng.integers(0, 3, n)
            elif kind == 1:  # mu a permutation of lambda
                lam = rng.integers(-3, 4, n) + 1j * rng.integers(0, 4, n)
                mu = lam[rng.permutation(n)]
            elif kind == 2:  # all-equal spectra
                lam = np.full(n, complex(*rng.integers(-2, 3, 2)))
                mu = np.full(n, complex(*rng.integers(-2, 3, 2)))
            else:  # a coarse lattice, more ties still
                lam = rng.integers(-1, 2, n) + 1j * rng.integers(0, 2, n)
                mu = rng.integers(-1, 2, n) + 1j * rng.integers(0, 2, n)
            scale = (1.0, 2.0**30, 2.0**-30)[trial % 3]
            lam = [complex(z) * scale for z in lam]
            mu = [complex(z) * scale for z in mu]
            before = dict(calls)
            res = min_cost_assignment(lam, mu)
            want = oracles.reference_lex_min_cost_permutation(
                res.cost_matrix, DEFAULT_TOLERANCES.tie
            )
            assert res.permutation == tuple(want), (trial, n)
            assert res.cost == assignment_cost(lam, mu, want)
            library = calls["library"] - before["library"]
            reference = calls["reference"] - before["reference"]
            assert library <= reference
            fewer_trials += library < reference
        # the certificate skipped trials somewhere, and flagged rows elsewhere
        assert fewer_trials > 0
        assert any(flagged_runs)



def make_fold_inputs(mu, delta, sigma):
    mu2n = list(mu) + [z.conjugate() for z in mu]
    gamma = [delta[s % len(delta)] for s in sigma]
    return mu2n, gamma


class TestFoldConjugateAssignment:
    def test_n1_trivial(self):
        s1, s2 = fold_conjugate_assignment([1j, -1j], [2.0, 2.0], [1, 0])
        assert s1 == (0,) and s2 == (0,)

    def test_n2_exhaustive_all_sigmas(self):
        rng = rng_for(200, 0)
        mu = upper_half_values(rng, 2)
        delta = upper_half_values(rng, 2)
        for sigma in permutations(range(4)):
            mu2n, gamma = make_fold_inputs(mu, delta, sigma)
            s1, s2 = fold_conjugate_assignment(mu2n, gamma, list(sigma))
            assert sorted(s1) == [0, 1]
            assert sorted(s2) == [0, 1]
            # total cost against the unconjugated targets is preserved
            direct = sum(abs(m - gamma[i]) ** 2 for i, m in enumerate(mu + mu))
            split = assignment_cost(mu, delta, s1) + assignment_cost(mu, delta, s2)
            assert split == pytest.approx(direct, rel=1e-12, abs=1e-12)

    def test_n3_exhaustive_all_sigmas(self):
        rng = rng_for(201, 0)
        mu = upper_half_values(rng, 3)
        delta = upper_half_values(rng, 3)
        for sigma in permutations(range(6)):
            mu2n, gamma = make_fold_inputs(mu, delta, sigma)
            s1, s2 = fold_conjugate_assignment(mu2n, gamma, list(sigma))
            assert sorted(s1) == [0, 1, 2] and sorted(s2) == [0, 1, 2]

    def test_cheaper_first_and_kernel_lower_bound(self):
        for trial in range(40):
            rng = rng_for(202, trial)
            n = 1 + trial % 5
            mu = upper_half_values(rng, n)
            delta = upper_half_values(rng, n)
            sigma = [int(s) for s in rng.permutation(2 * n)]
            mu2n, gamma = make_fold_inputs(mu, delta, sigma)
            s1, s2 = fold_conjugate_assignment(mu2n, gamma, sigma)
            c1 = assignment_cost(mu, delta, s1)
            c2 = assignment_cost(mu, delta, s2)
            assert c1 <= c2 + 1e-12
            best = min_cost_assignment(mu, delta).cost
            assert min(c1, c2) >= best - 1e-9

    def test_halving_bound_on_conjugate_data(self):
        # cheaper half <= half of the full 2n matching cost against the
        # conjugate-duplicated targets (requires upper-half-plane data)
        for trial in range(40):
            rng = rng_for(203, trial)
            n = 1 + trial % 5
            mu = upper_half_values(rng, n)
            delta = upper_half_values(rng, n)
            sigma = [int(s) for s in rng.permutation(2 * n)]
            mu2n, gamma = make_fold_inputs(mu, delta, sigma)
            delta2n = list(delta) + [z.conjugate() for z in delta]
            input_cost = sum(abs(m - delta2n[s]) ** 2 for m, s in zip(mu2n, sigma))
            s1, s2 = fold_conjugate_assignment(mu2n, gamma, sigma)
            cheaper = assignment_cost(mu, delta, s1)
            assert cheaper <= 0.5 * input_cost + 1e-9

    def test_malformed_sigma(self):
        with pytest.raises(MalformedPairingError):
            fold_conjugate_assignment([1j, -1j], [1.0, 1.0], [0, 0])

    def test_inconsistent_gamma(self):
        with pytest.raises(MalformedPairingError):
            fold_conjugate_assignment([1j, 1.0, -1j, 1.0], [1.0, 2.0, 5.0, 9.0], [0, 1, 2, 3])


class TestHwCheck:
    def test_equality_pair(self):
        a = QMatrix.from_complex(np.diag([1 + 1j, 1.0]))
        b = QMatrix.from_complex(np.diag([1j, 1.0]))
        rep = hw_check(a, b)
        assert rep.holds
        assert rep.lhs == pytest.approx(1.0, abs=1e-9)
        assert rep.rhs == pytest.approx(1.0, abs=1e-9)
        assert rep.slack == rep.rhs - rep.lhs

    def test_same_matrix_zero(self):
        rng = rng_for(300, 0)
        a, _ = random_normal_qmatrix(rng, 3)
        rep = hw_check(a, a)
        assert rep.holds and rep.lhs <= 1e-18 and rep.rhs == 0.0

    def test_normal_operands_skip_general_eigensolver(self, monkeypatch):
        calls = []
        general_eigenvalues = clinalg.eigenvalues
        monkeypatch.setattr(
            clinalg, "eigenvalues", lambda m: calls.append(m.shape) or general_eigenvalues(m)
        )
        rng = rng_for(301, 0)
        a, _ = random_normal_qmatrix(rng, 16)
        b, _ = random_normal_qmatrix(rng, 16)
        fast = hw_check(a, b)
        assert calls == []
        general = hw_report(a, b)
        assert len(calls) == 2
        assert fast.permutation == general.permutation
        assert fast.lhs == pytest.approx(general.lhs, rel=1e-12)

    def test_rejects_non_normal(self):
        a = QMatrix.from_real([[0.0, 1.0], [0.0, 0.0]])
        b = QMatrix.identity(2)
        with pytest.raises(NotNormalError):
            hw_check(a, b)
        with pytest.raises(NotNormalError):
            hw_check(b, a)

    def test_overflowing_squares_give_infinite_sides(self):
        # every squared distance is finite but the sums are not; ||A - B||_F
        # is finite and its square is not, which must read inf, not raise
        a = QMatrix.identity(8) * 0.6e154
        rep = hw_check(a, -a)
        assert (rep.lhs, rep.rhs, rep.holds) == (math.inf, math.inf, True)
        assert rep.permutation == tuple(range(8))

    def test_random_normal_pairs_hold(self):
        for trial in range(100):
            rng = rng_for(301, trial)
            n = 2 + trial % 7
            a, _ = random_normal_qmatrix(rng, n)
            b, _ = random_normal_qmatrix(rng, n)
            rep = hw_check(a, b)
            assert rep.holds, f"violated at trial {trial}: lhs={rep.lhs} rhs={rep.rhs}"

    def test_order_invariance_of_report(self):
        a = QMatrix.from_complex(np.diag([1 + 1j, 1.0]))
        b = QMatrix.from_complex(np.diag([1j, 1.0]))
        ap = QMatrix.from_complex(np.diag([1.0, 1 + 1j]))
        bp = QMatrix.from_complex(np.diag([1.0, 1j]))
        r1 = hw_check(a, b)
        r2 = hw_check(ap, bp)
        assert r1.lhs == pytest.approx(r2.lhs, abs=1e-12)
        assert r1.rhs == pytest.approx(r2.rhs, abs=1e-12)


def parent_order_hw_check(a, b, tols):
    """``hw_check`` as the separate calls: both normality tests, then the
    report on both operands' normal-route spectra."""
    if not is_normal(a, tols.predicate):
        raise NotNormalError("first operand is not normal at the configured tolerance")
    if not is_normal(b, tols.predicate):
        raise NotNormalError("second operand is not normal at the configured tolerance")
    if a.shape != b.shape:
        raise ShapeMismatchError(f"need equal square shapes, got {a.shape} and {b.shape}")
    return hw_module._report(normal_route(a, tols), normal_route(b, tols), a, b, tols, "hw")


def outcome(check, a, b, tols):
    """The report, or the error class and message, and the warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = check(a, b, tols)
        except Exception as exc:
            result = (type(exc), str(exc))
    return result, [(w.category, str(w.message)) for w in caught]


def nearly_normal(seed, n, eps):
    """U (D + eps N) U* with D a random diagonal and N strictly upper."""
    rng = rng_for(402, seed)
    u = random_unitary_qmatrix(rng, n)
    upper = np.triu(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), 1)
    return u @ (QMatrix.diagonal(upper_half_values(rng, n)) + QMatrix(upper) * eps) @ u.h


def precondition_operands():
    """Operands by name: normal, nearly normal, defective, huge and non-finite."""
    rng = rng_for(401)
    t = (math.sqrt(5.0) - 1.0) / 2.0
    u5, u6 = random_unitary_qmatrix(rng, 5), random_unitary_qmatrix(rng, 6)
    nan, inf = np.eye(2, dtype=complex), np.eye(2, dtype=complex)
    nan[0, 1], inf[1, 1] = math.nan, math.inf
    ops = {
        "normal": random_normal_qmatrix(rng, 6)[0],
        "repeated": u6 @ QMatrix.diagonal([1 + 1j] * 3 + [-2 + 0.5j] * 2 + [0.3j]) @ u6.h,
        # Re + t Im coincide: eigh mixes the vectors, giving 2x2 and 3x3 groups
        "pencil-groups": u5 @ QMatrix.diagonal(
            [1 + 1j, complex(1 - t, 2), 0.5, complex(0.5 - 0.25 * t, 0.25), -1.5]
        ) @ u5.h,
        "jordan": rotated_jordan_block(2, 1.5, 0),
        "nilpotent-1e160": QMatrix.from_real([[0.0, 1e160], [0.0, 0.0]]),
        "identity-1e160": QMatrix.identity(2) * 1e160,
        "nan": QMatrix(nan),
        "inf": QMatrix(inf),
        "non-square": random_qmatrix(rng, 2, 3),
    }
    for eps in (1e-6, 1e-9, 1e-12, 1e-14):
        ops[f"eps-{eps:g}"] = nearly_normal(0, 6, eps)
    return ops


PRECONDITION_OPERANDS = precondition_operands()


class TestHwCheckPrecondition:
    """``hw_check`` skips ``is_normal`` only where the normal route proves
    it would hold: every outcome is that of the separate calls."""

    @staticmethod
    def check_same_outcome(a, b, tols):
        (want, want_warnings), (got, got_warnings) = (
            outcome(check, a, b, tols) for check in (parent_order_hw_check, hw_check)
        )
        if isinstance(want, tuple):
            assert got == want
        else:
            assert report_bits(got) == report_bits(want)
        assert got_warnings == want_warnings

    @pytest.mark.parametrize("predicate", [1e-6, 1e-8, 1e-12, 1e-15])
    @pytest.mark.parametrize("name", sorted(PRECONDITION_OPERANDS))
    def test_same_outcome_as_separate_calls(self, name, predicate):
        tols = DEFAULT_TOLERANCES.replace(predicate=predicate)
        x = PRECONDITION_OPERANDS[name]
        partner = random_normal_qmatrix(rng_for(403), x.rows)[0]
        for a, b in ((x, partner), (partner, x), (x, x)):
            self.check_same_outcome(a, b, tols)

    @pytest.mark.parametrize("predicate", [1e-6, 1e-8, 1e-12, 1e-15])
    def test_random_pairs_and_shape_mismatch(self, predicate):
        tols = DEFAULT_TOLERANCES.replace(predicate=predicate)
        rng = rng_for(404)
        pairs = [tuple(random_normal_qmatrix(rng, n)[0] for _ in range(2)) for n in (1, 3, 32)]
        pairs.append((random_normal_qmatrix(rng, 2)[0], random_normal_qmatrix(rng, 3)[0]))
        pairs.append((PRECONDITION_OPERANDS["eps-1e-06"], random_normal_qmatrix(rng, 3)[0]))
        for a, b in pairs:
            self.check_same_outcome(a, b, tols)

    @staticmethod
    def count_is_normal(monkeypatch):
        calls = []
        original = hw_module.is_normal
        monkeypatch.setattr(
            hw_module, "is_normal", lambda x, tol: calls.append(x.shape) or original(x, tol)
        )
        return calls

    def test_normal_pair_needs_no_products(self, monkeypatch):
        calls = self.count_is_normal(monkeypatch)
        rng = rng_for(405)
        a, b = (random_normal_qmatrix(rng, 32)[0] for _ in range(2))
        assert hw_check(a, b).holds
        assert calls == []

    def test_unproved_operand_runs_is_normal(self, monkeypatch):
        calls = self.count_is_normal(monkeypatch)
        b = random_normal_qmatrix(rng_for(406), 6)[0]
        # at 1e-10 the normal operand is proved, and the eps = 1e-9 one is
        # not normal: the bound cannot prove it, so is_normal runs for it alone
        strict = DEFAULT_TOLERANCES.replace(predicate=1e-10)
        with pytest.raises(NotNormalError, match="second operand"):
            hw_check(b, PRECONDITION_OPERANDS["eps-1e-09"], strict)
        assert calls == [(6, 6)]
        # G's entries at 0.75 of the coupling threshold: no groups, and a
        # rejected certificate, so is_normal runs and holds
        calls.clear()
        n = 64
        u = random_unitary_qmatrix(rng_for(134), n)
        d = np.linspace(-1.0, 1.0, n)
        unit = 2 * n * np.finfo(float).eps * np.sqrt(2.0) * np.linalg.norm(d)
        phases = np.exp(2j * np.pi * rng_for(407).random((n, n)))
        upper = QMatrix.from_complex(np.triu(0.75 * _COUPLING * unit * phases, 1))
        a = u @ (QMatrix.diagonal(list(d)) + upper) @ u.h
        assert hw_check(a, random_normal_qmatrix(rng_for(408), n)[0]).holds
        assert calls == [(n, n)]


def report_bits(rep):
    """The reported numbers of an InequalityReport, floats by their bits."""
    kappa = None if rep.kappa is None else rep.kappa.hex()
    return (rep.kind, rep.lhs.hex(), rep.rhs.hex(), rep.permutation, kappa, rep.holds,
            rep.theorem_class)


class TestHwTypeCheck:
    @staticmethod
    def separate_route(a, b, tols=DEFAULT_TOLERANCES):
        kappa = condition_number(diagonalize(a, tols).transform, tols)
        return hw_report(a, b, tols, kind="hw-type", kappa=kappa)

    def test_reuses_the_diagonalization_spectrum(self):
        # A's values come from its diagonalization instead of a second
        # solve; the report is that of the separate calls, bit for bit
        for trial in range(40):
            rng = rng_for(305, trial)
            n = 1 + trial % 6
            if trial % 3:
                a, _, _ = random_diagonalizable_qmatrix(rng, n)
            else:
                a, _ = random_normal_qmatrix(rng, n)
            b = random_qmatrix(rng, n)
            assert report_bits(hw_type_check(a, b)) == report_bits(self.separate_route(a, b))

    def test_pairing_failure_is_the_first_operand_s(self):
        # the reused spectrum passes standard_eigenvalues' pairing check
        # before B is solved, so the error names A's residual
        tight = DEFAULT_TOLERANCES.replace(pairing=1e-30)
        for trial in range(6):
            rng = rng_for(306, trial)
            a, _, _ = random_diagonalizable_qmatrix(rng, 3 + trial % 3)
            b = random_qmatrix(rng, a.rows)
            with pytest.raises(PairingFailureError) as want:
                standard_eigenvalues(a, tight)
            for route in (hw_type_check, self.separate_route):
                with pytest.raises(PairingFailureError) as got:
                    route(a, b, tight)
                assert str(got.value) == str(want.value)

    def test_normal_first_matrix_kappa_one(self):
        rng = rng_for(302, 0)
        a, _ = random_normal_qmatrix(rng, 3)
        b = random_qmatrix(rng, 3)
        rep = hw_type_check(a, b)
        assert rep.holds
        assert rep.kappa == pytest.approx(1.0, abs=1e-8)
        # with kappa = 1 the bound coincides with the plain one
        assert rep.rhs == pytest.approx((a - b).frobenius_norm() ** 2, rel=1e-8)

    def test_same_spectrum_different_matrix(self):
        a = QMatrix.from_real(np.diag([2.0, 3.0]))
        b = QMatrix.from_real([[2.0, 1.0], [0.0, 3.0]])
        rep = hw_type_check(a, b)
        assert rep.holds
        assert rep.lhs == pytest.approx(0.0, abs=1e-12)
        assert rep.rhs == pytest.approx(1.0, abs=1e-12)

    def test_rejects_defective(self):
        with pytest.raises(NotDiagonalizableError):
            hw_type_check(QMatrix.from_real([[2.0, 1.0], [0.0, 2.0]]), QMatrix.identity(2))

    @pytest.mark.xfail(strict=True, reason="no theorem bounds a non-normal B by kappa(X) alone")
    def test_defective_second_operand_is_rejected(self):
        # B is a 2x2 Jordan block at 2: the one-sided bound gives lhs 8 > rhs 4
        # (J.-G. Sun, LAA 246, 1996), so B needs a diagonalizer of its own
        a = QMatrix.from_real(np.diag([0.0, 4.0]))
        b = QMatrix.from_real([[1.0, -1.0], [1.0, 3.0]])
        with pytest.raises(NotDiagonalizableError):
            hw_type_check(a, b)

    def test_random_pairs_hold(self):
        # the one-sided bound is a theorem for a normal B only
        for trial in range(60):
            rng = rng_for(303, trial)
            n = 2 + trial % 5
            a, _, _ = random_diagonalizable_qmatrix(rng, n)
            b, _ = random_normal_qmatrix(rng, n)
            rep = hw_type_check(a, b)
            assert rep.holds, f"violated at trial {trial}: lhs={rep.lhs} rhs={rep.rhs}"

    def test_generator_at_large_order(self):
        # a Ginibre draw at this order seldom has kappa < 50
        n = 48
        for trial in range(3):
            a, x, values = random_diagonalizable_qmatrix(rng_for(304, trial), n)
            kappa = condition_number(x)
            assert kappa < 50.0
            residual = (a @ x - x @ QMatrix.diagonal(values)).frobenius_norm()
            assert residual <= 1e-10 * a.frobenius_norm() * kappa


@pytest.mark.parametrize("k", [-40, -30, -20, 20, 40])
def test_scaling_by_a_power_of_two_scales_results_exactly(k):
    # the fold's clamp, the assignment's tie slack and diagonalize's cluster
    # radius and kernel floor are relative, so eigenvalues and pairing
    # residuals scale by 2^k, lhs and rhs by 4^k, and nothing else moves
    rng = np.random.default_rng(5)
    g = random_qmatrix(rng, 16)
    a, _ = random_normal_qmatrix(rng, 16)
    b, _ = random_normal_qmatrix(rng, 16)
    t = 2.0**k
    assert standard_eigenvalues(g * t).values == tuple(
        z * t for z in standard_eigenvalues(g).values
    )
    got, want = hw_check(a * t, b * t), hw_check(a, b)
    assert (got.lhs, got.rhs) == (want.lhs * t * t, want.rhs * t * t)
    assert (got.permutation, got.holds) == (want.permutation, want.holds)
    # ||d||_F = 9.02: an absolute floor of 1 rejected it at 2^-20 and below
    d = random_diagonalizable_qmatrix(rng_for(5, 0), 16)[0]
    got, want = diagonalize(d * t), diagonalize(d)
    assert got.values == tuple(z * t for z in want.values)
    assert got.pairing_residual == want.pairing_residual * t
    for part in ("c1", "c2"):
        assert getattr(got.transform, part).tobytes() == getattr(want.transform, part).tobytes()
    assert (got.residual, got.kappa) == (want.residual, want.kappa)


def scale_free_outcomes(kind, seed, n, t):
    """Every scale-free outcome on the input of ``kind`` drawn from
    ``seed``, times t: the predicate verdicts, the class and verdict of the
    pencil (A, I), and ``holds`` of hw and hw-type against a normal B, each
    as its value or the class of the error it raises.

    ``is_unitary`` is left out: it compares with I, so a scaled input
    rightly fails it.
    """
    rng = rng_for(seed, n)
    if kind == "jordan":
        a = rotated_jordan_block(n, 1.5, seed)
    elif kind == "diagonal":
        a = QMatrix.diagonal(upper_half_values(rng, n))
    elif kind == "normal":
        a, _ = random_normal_qmatrix(rng, n)
    elif kind == "psd":
        a = random_psd_qmatrix(rng, n, definite=False)
    else:
        a = random_hermitian_qmatrix(rng, n)
    b, _ = random_normal_qmatrix(rng, n)
    a, b = a * t, b * t

    def outcome(fn):
        try:
            return fn()
        except QuathwError as exc:
            return type(exc).__name__

    def pencil():
        verdict = diagonalizable_companion(QMatrixPolynomial((a, QMatrix.identity(n) * t)))
        return verdict.klass, verdict.diagonalizable

    return {
        "hermitian": is_hermitian(a),
        "normal": is_normal(a),
        "psd": is_positive_semidefinite(a),
        "diagonal": is_diagonal(a),
        "pencil": outcome(pencil),
        "hw": outcome(lambda: hw_check(a, b).holds),
        "hw-type": outcome(lambda: hw_type_check(a, b).holds),
    }


@given(
    kind=st.sampled_from(["normal", "hermitian", "psd", "diagonal", "jordan"]),
    seed=st.integers(0, 2**16),
    n=st.integers(2, 4),
    k=st.sampled_from([-40, -20, 20, 40]),
)
@settings(derandomize=True, deadline=None, max_examples=60)
def test_verdicts_do_not_depend_on_scale(kind, seed, n, k):
    # structural tests and verdicts accept by one scale-relative rule, so
    # an input times 2^k gets the verdicts and error classes of the input
    want = scale_free_outcomes(kind, seed, n, 1.0)
    assert scale_free_outcomes(kind, seed, n, 2.0**k) == want
    if kind == "jordan":
        assert want["normal"] is False and want["hw"] == "NotNormalError"


class TestNonStandardCounterexample:
    def test_full_report(self):
        rep = non_standard_counterexample()
        assert rep.standard.holds
        assert rep.standard.lhs == pytest.approx(1.0, abs=1e-9)
        assert rep.standard.rhs == pytest.approx(1.0, abs=1e-9)
        assert rep.frobenius_sq == pytest.approx(1.0, abs=1e-12)
        assert sorted(rep.nonstandard_costs) == pytest.approx([3.0, 5.0], abs=1e-9)
        assert rep.nonstandard_min_cost == pytest.approx(3.0, abs=1e-9)
        assert rep.violates and rep.nonstandard_min_cost > 1.0

    def test_nonstandard_values_are_legitimate_right_eigenvalues(self):
        # 1-i is similar to the standard eigenvalue 1+i, hence a right
        # eigenvalue of the same matrix
        from quathw import Quaternion, similar

        assert similar(Quaternion(1, -1, 0, 0), Quaternion(1, 1, 0, 0))
