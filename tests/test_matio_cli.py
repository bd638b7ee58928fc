"""File format parsing, report round trips, and CLI behavior."""

import contextlib
import importlib.util
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import quathw
from quathw import MatrixFileError, QMatrix, QMatrixPolynomial, Tolerances, diagonalize
from quathw.cli import main
from quathw.golden import fixture_path
from quathw.hw import InequalityReport
from quathw.matio import (
    emit_json,
    load_document,
    matrix_from_obj,
    matrix_to_obj,
    polynomial_from_obj,
    polynomial_to_obj,
    report_to_obj,
)

from test_qmatrix import rotated_jordan_block
from test_qpoly import clustered_commuting_unitary_quadratic


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


class TestMatrixFormat:
    def test_round_trip(self):
        a = QMatrix.from_entries([[[1, 2, 3, 4], [0, 0, 0, 0]], [[0.5, 0, -1, 0], [1, 1, 1, 1]]])
        assert matrix_from_obj(matrix_to_obj(a)).allclose(a, 0.0)

    def test_complex_two_arrays_accepted(self):
        obj = {"rows": 1, "cols": 2, "entries": [[[1.0, 2.0], [3.0, -1.0]]]}
        a = matrix_from_obj(obj)
        assert a[0, 0].complex_pair() == (1 + 2j, 0j)
        assert a[0, 1].complex_pair() == (3 - 1j, 0j)

    def test_ragged_rows_rejected(self):
        obj = {"rows": 2, "cols": 2, "entries": [[[1, 0, 0, 0], [1, 0, 0, 0]], [[1, 0, 0, 0]]]}
        with pytest.raises(MatrixFileError, match="entries"):
            matrix_from_obj(obj)

    def test_wrong_arity_rejected(self):
        obj = {"rows": 1, "cols": 1, "entries": [[[1.0, 2.0, 3.0]]]}
        with pytest.raises(MatrixFileError, match="4-arrays"):
            matrix_from_obj(obj)

    def test_non_numeric_rejected(self):
        obj = {"rows": 1, "cols": 1, "entries": [[["x", 0, 0, 0]]]}
        with pytest.raises(MatrixFileError, match="number"):
            matrix_from_obj(obj)

    def test_row_count_mismatch(self):
        obj = {"rows": 3, "cols": 1, "entries": [[[1, 0, 0, 0]]]}
        with pytest.raises(MatrixFileError, match="3 rows"):
            matrix_from_obj(obj)

    @pytest.mark.parametrize(
        "text",
        ["NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400],
        ids=["nan", "inf", "-inf", "1e400", "huge-int"],
    )
    def test_non_finite_rejected(self, tmp_path, text):
        # json.loads accepts all of these; 1e400 parses as inf
        path = tmp_path / "m.json"
        path.write_text(
            f'{{"rows": 1, "cols": 1, "entries": [[[1, {text}, 0, 0]]]}}', encoding="utf-8"
        )
        with pytest.raises(MatrixFileError, match=r"entries\[0\]\[0\]: expected a finite number"):
            load_document(str(path))

    @pytest.mark.parametrize("key", ["rows", "cols"])
    def test_boolean_shape_rejected(self, key):
        # True is an int in Python and would read as 1
        obj = {"rows": 1, "cols": 1, "entries": [[[1, 0, 0, 0]]]}
        obj[key] = True
        with pytest.raises(MatrixFileError, match="matrix: rows and cols must be positive"):
            matrix_from_obj(obj)


class TestPolynomialFormat:
    def test_round_trip(self):
        p = QMatrixPolynomial(
            (
                QMatrix.from_entries([[[0, 0, 1, 0]]]),
                QMatrix.from_entries([[[1, 0, 0, 0]]]),
            )
        )
        q = polynomial_from_obj(polynomial_to_obj(p))
        assert q.degree == 1 and q.size == 1
        assert q.coefficients[0].allclose(p.coefficients[0], 0.0)

    def test_coefficient_count_checked(self):
        obj = polynomial_to_obj(
            QMatrixPolynomial((QMatrix.identity(1), QMatrix.identity(1)))
        )
        obj["degree"] = 2
        with pytest.raises(MatrixFileError, match="coefficients"):
            polynomial_from_obj(obj)

    @pytest.mark.parametrize("key", ["size", "degree"])
    def test_boolean_counts_rejected(self, key):
        obj = polynomial_to_obj(QMatrixPolynomial((QMatrix.identity(1),) * 2))
        obj[key] = True
        with pytest.raises(MatrixFileError, match="polynomial: size and degree must be positive"):
            polynomial_from_obj(obj)

    def test_coefficient_size_checked(self):
        obj = {
            "size": 2,
            "degree": 1,
            "coefficients": [matrix_to_obj(QMatrix.identity(1)), matrix_to_obj(QMatrix.identity(2))],
        }
        with pytest.raises(MatrixFileError, match="shape"):
            polynomial_from_obj(obj)


class TestLoadDocument:
    def test_detects_kind(self, tmp_path):
        mpath = write_json(tmp_path, "m.json", matrix_to_obj(QMatrix.identity(2)))
        ppath = write_json(
            tmp_path,
            "p.json",
            polynomial_to_obj(QMatrixPolynomial((QMatrix.identity(2), QMatrix.identity(2)))),
        )
        assert isinstance(load_document(mpath), QMatrix)
        assert isinstance(load_document(ppath), QMatrixPolynomial)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("", encoding="utf-8")
        with pytest.raises(MatrixFileError, match="empty"):
            load_document(str(path))

    def test_bad_json_reports_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"rows": 1,,}', encoding="utf-8")
        with pytest.raises(MatrixFileError, match="line 1"):
            load_document(str(path))

    def test_missing_file(self):
        with pytest.raises(MatrixFileError):
            load_document("/nonexistent/nothing.json")


class TestReportSerialization:
    def test_round_trip_exact(self):
        report = InequalityReport(
            kind="hw-type",
            lhs=48.000000000000014,
            rhs=54.0,
            holds=True,
            slack=5.999999999999986,
            permutation=(1, 0),
            kappa=math.sqrt(2),
            theorem_class="unitary",
            digests={"a": "00ff", "b": "11aa"},
        )
        obj = json.loads(emit_json(report_to_obj(report)))
        assert obj == report_to_obj(report)
        assert obj["lhs"] == 48.000000000000014 and obj["slack"] == 5.999999999999986
        assert obj["kappa"] == math.sqrt(2) and obj["permutation"] == [2, 1]

    def test_round_trip_without_optionals(self):
        report = InequalityReport(
            kind="hw", lhs=1.0, rhs=1.0, holds=True, slack=0.0, permutation=(0, 1)
        )
        obj = json.loads(emit_json(report_to_obj(report)))
        assert obj == report_to_obj(report)
        assert "kappa" not in obj and "theorem_class" not in obj


def test_readme_names_each_export_once():
    """The README's "Python API" section lists exactly ``quathw.__all__``."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    names = re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)`", section)
    assert sorted(names) == sorted(set(names)), "a name is listed twice"
    assert set(names) == set(quathw.__all__)


@pytest.fixture(scope="module")
def cli_matrix():
    """``scripts/cli_matrix.py`` loaded as a module."""
    import importlib.util

    script = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "cli_matrix.py")
    spec = importlib.util.spec_from_file_location("cli_matrix", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestCli:
    def fixture(self, name):
        return fixture_path(name)

    def test_eigs_matrix(self, capsys):
        code = main(["eigs", self.fixture("mixed_complex_diagonal.json")])
        out = capsys.readouterr().out
        assert code == 0
        assert "1+1i, 1+1i" in out

    def test_eigs_polynomial_machine(self, capsys):
        code = main(["--format", "machine", "eigs", self.fixture("linear_normal_p.json")])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        values = [complex(re, im) for re, im in payload["values"]]
        assert abs(values[0] - (-4 - 2 * math.sqrt(2))) <= 1e-9
        assert abs(values[1] - (-4 + 2 * math.sqrt(2))) <= 1e-9

    def test_eigs_empty_file_is_parse_error(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text("", encoding="utf-8")
        code = main(["eigs", str(path)])
        err = capsys.readouterr().err
        assert code == 3
        assert err.strip().startswith("parse error:") and err.count("\n") == 1

    def test_hw_holds_exit_zero(self, capsys):
        code = main(
            ["hw", self.fixture("nonstandard_pair_a.json"), self.fixture("nonstandard_pair_b.json")]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "holds:" in out and "True" in out

    def test_hw_violated_exit_one(self, capsys):
        code = main(
            ["hw", self.fixture("linear_normal_p.json"), self.fixture("linear_normal_q.json")]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "48" in out and "27" in out

    def test_hw_typed_repairs_linear_pair(self, capsys):
        code = main(
            [
                "--format",
                "machine",
                "hw",
                "--type",
                self.fixture("linear_normal_p.json"),
                self.fixture("linear_normal_q.json"),
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["holds"] is True
        assert payload["kappa"] == pytest.approx(math.sqrt(2), rel=1e-8)
        assert payload["lhs"] == pytest.approx(48.0, abs=1e-9)

    def test_hw_mixed_kinds_rejected(self, capsys):
        code = main(
            ["hw", self.fixture("linear_normal_p.json"), self.fixture("nonstandard_pair_a.json")]
        )
        assert code == 3

    def test_hw_nonnormal_matrix_precondition(self, tmp_path, capsys):
        bad = write_json(
            tmp_path, "nn.json", matrix_to_obj(QMatrix.from_real([[0.0, 1.0], [0.0, 0.0]]))
        )
        good = write_json(tmp_path, "id.json", matrix_to_obj(QMatrix.identity(2)))
        code = main(["hw", bad, good])
        err = capsys.readouterr().err
        assert code == 2
        assert "precondition" in err

    def test_hw_typed_overflowing_distance_is_numeric_failure(self, tmp_path, capsys):
        big = write_json(tmp_path, "big.json", matrix_to_obj(QMatrix.from_real([[1e160]])))
        zero = write_json(tmp_path, "zero.json", matrix_to_obj(QMatrix.from_real([[0.0]])))
        code = main(["hw", "--type", big, zero])
        assert code == 4
        assert "numeric failure" in capsys.readouterr().err

    def test_rotated_jordan_block_is_defective(self, tmp_path, capsys):
        path = write_json(tmp_path, "j4.json", matrix_to_obj(rotated_jordan_block(4, 2 + 1j, 0)))
        for argv in (["diag", path], ["hw", "--type", path, path]):
            code = main(argv)
            out, err = capsys.readouterr()
            assert code == 2, err
            assert out == "" and err.count("\n") == 1

    def run_scaled(self, tmp_path, capsys, argv, docs, t):
        """Exit code, stdout and stderr of ``argv`` with each of ``docs``
        (matrices or polynomials, every coefficient times t) in a file."""
        paths = []
        for i, doc in enumerate(docs):
            if isinstance(doc, QMatrixPolynomial):
                obj = polynomial_to_obj(QMatrixPolynomial(tuple(c * t for c in doc.coefficients)))
            else:
                obj = matrix_to_obj(doc * t)
            paths.append(write_json(tmp_path, f"doc{i}_{t.hex()}.json", obj))
        code = main(argv + paths)
        out, err = capsys.readouterr()
        return code, out, err

    # A = diag(0, 4) and B = [[1, -1], [1, 3]], a Jordan block at 2: lhs 8
    # against rhs 4, and B is not normal at any scale
    JORDAN_PAIR = (QMatrix.from_real([[0.0, 0.0], [0.0, 4.0]]),
                   QMatrix.from_real([[1.0, -1.0], [1.0, 3.0]]))

    def test_hw_refuses_a_scaled_jordan_operand(self, tmp_path, capsys):
        # an absolute floor accepted B * 2^-20 as normal, and absorbed
        # lhs - rhs = 3.6e-12 into holds: true at exit 0
        want = self.run_scaled(tmp_path, capsys, ["hw"], self.JORDAN_PAIR, 1.0)
        got = self.run_scaled(tmp_path, capsys, ["--format", "machine", "hw"],
                              self.JORDAN_PAIR, 2.0**-20)
        assert want[0] == 2 and "second operand is not normal" in want[2]
        assert got == want

    def test_hw_type_violation_at_every_scale(self, tmp_path, capsys):
        for t in (1.0, 2.0**-20):
            code, out, _ = self.run_scaled(
                tmp_path, capsys, ["--format", "machine", "hw", "--type"], self.JORDAN_PAIR, t
            )
            payload = json.loads(out)
            assert code == 1 and payload["holds"] is False
            assert payload["lhs"] == pytest.approx(8.0 * t * t, rel=1e-6)

    def test_diag_jordan_pencil_at_every_scale(self, tmp_path, capsys):
        # (J, I) with J = [[1, 1], [0, 1]]: class none, companion defective;
        # an absolute floor classed J * 2^-40 diagonal
        pencil = QMatrixPolynomial(
            (QMatrix.from_real([[1.0, 1.0], [0.0, 1.0]]), QMatrix.identity(2))
        )
        want = self.run_scaled(tmp_path, capsys, ["diag"], [pencil], 1.0)
        got = self.run_scaled(tmp_path, capsys, ["diag"], [pencil], 2.0**-40)
        assert want[0] == 2 and "no guaranteeing class" in want[2]
        assert got == want

    def test_identical_files_zero_lhs(self, capsys):
        path = self.fixture("linear_normal_p.json")
        code = main(["--format", "machine", "hw", path, path])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["lhs"] <= 1e-15
        assert payload["digests"]["a"] == payload["digests"]["b"]

    def test_bounds_unitary(self, capsys):
        code = main(
            ["bounds", self.fixture("quadratic_unitary_p.json"), "--class", "unitary"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "holds: True" in out

    def test_bounds_commuting_requires_monic(self, capsys):
        code = main(
            ["bounds", self.fixture("linear_normal_p.json"), "--class", "commuting"]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "monic" in err

    def test_diag_matrix(self, capsys):
        code = main(["diag", self.fixture("mixed_complex_diagonal.json")])
        out = capsys.readouterr().out
        assert code == 0
        assert "kappa" in out

    def test_diag_defective_polynomial(self, capsys):
        code = main(["diag", self.fixture("quadratic_unitary_q.json")])
        assert code == 2

    def test_diag_clustered_commuting_unitary(self, tmp_path, capsys):
        # coefficient eigenvalues 3e-6 apart: the class's construction
        # diagonalizes the companion where per-cluster kernels did not
        p = clustered_commuting_unitary_quadratic(9, 3e-6)
        path = write_json(tmp_path, "clustered.json", polynomial_to_obj(p))
        code = main(["--format", "machine", "diag", path])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["class"] == "commuting-unitary"
        assert payload["residual"] <= Tolerances().diag_verify

    @pytest.mark.parametrize(
        "name", ["linear_normal_p.json", "linear_normal_q.json", "quadratic_unitary_p.json"]
    )
    def test_diag_polynomial_class(self, name, capsys):
        # no guaranteeing coefficient class applies, yet each companion is
        # diagonalizable, so the raw outcome is reported with class "none"
        code = main(["--format", "machine", "diag", self.fixture(name)])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["class"] == "none"
        assert payload["residual"] <= 1e-12

    @pytest.mark.parametrize(
        "name", ["linear_normal_q.json", "quadratic_unitary_p.json", "unitary_j_diagonal.json"]
    )
    def test_diag_refuses_the_fold_eigs_refuses(self, name, capsys):
        # every diagonalization meets the pairing check of standard_eigenvalues
        tight = ["--tol", "pairing=1e-17"]
        assert main(tight + ["eigs", self.fixture(name)]) == 4
        eigs_err = capsys.readouterr().err
        assert eigs_err.startswith("numeric failure: conjugate pairing residual")
        assert main(tight + ["diag", self.fixture(name)]) == 4
        assert capsys.readouterr() == ("", eigs_err)

    def test_paper_suite_passes(self, capsys):
        code = main(["--format", "machine", "paper-suite"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["passed"] is True
        assert len(payload["cases"]) >= 8

    def test_fuzz_deterministic_bytes(self, capsys):
        argv = ["--format", "machine", "fuzz", "--trials", "6", "--seed", "31"]
        code1 = main(argv)
        out1 = capsys.readouterr().out
        code2 = main(argv)
        out2 = capsys.readouterr().out
        assert code1 == code2 == 0
        assert out1 == out2

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_fuzz_rejects_non_positive_trials(self, trials, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fuzz", "--trials", trials])
        assert exc.value.code == 2
        assert "positive integer" in capsys.readouterr().err

    def test_sweep_script_rejects_zero_trials(self):
        script = os.path.join(
            os.path.dirname(__file__), os.pardir, "scripts", "sweep_inequalities.py"
        )
        out = subprocess.run(
            [sys.executable, script, "--trials", "0"],
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
            capture_output=True,
            text=True,
        )
        assert out.returncode == 2
        assert "positive integer" in out.stderr

    def test_bit_identity_script_against_the_same_tree(self):
        # one child per tree, each running the CLI matrix and every
        # operation of one group of hw-normal, poly-small and diag-kappa
        script = Path(__file__).resolve().parents[1] / "scripts" / "bit_identity.py"
        src = Path(quathw.__file__).resolve().parents[1]
        out = subprocess.run(
            [sys.executable, str(script), str(src), "--seeds", "1", "--groups", "1"],
            capture_output=True,
            text=True,
        )
        assert out.returncode == 0, out.stdout + out.stderr
        differ, _, _, _, _, _, results_differ, _, results, _ = out.stdout.split()
        # 372 CLI runs, 3 input digests, 12 + 20 + 5 operations
        assert (differ, results_differ, results) == ("0", "0", "412")

    @staticmethod
    def bit_identity():
        spec = importlib.util.spec_from_file_location(
            "bit_identity", Path(__file__).resolve().parents[1] / "scripts" / "bit_identity.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_bit_identity_keys_each_field(self):
        # a field one tree lacks shows alone, keyed by its path
        module = self.bit_identity()
        diag = diagonalize(QMatrix.identity(2))
        keys = [key for key, _ in module.result_leaves("w 1 0 0", lambda: (diag, 1.0))]
        fields = ["transform", "values", "residual", "pairing_residual", "kappa"]
        assert keys == [f"w 1 0 0/0/{f}" for f in fields] + ["w 1 0 0/1"]
        assert module.result_leaves("w 1 0 0", lambda: 1 / 0)[0][0] == "w 1 0 0/raised"

    def test_bit_identity_tally(self):
        # differing leaves counted per workload, case kind and field path
        module = self.bit_identity()
        poly = QMatrixPolynomial((QMatrix.identity(3),) * 3)
        case = SimpleNamespace(kind="hw-type-poly", size=6, args=(poly, poly))
        assert module.case_kind(case) == "hw-type-poly(3,2)"
        case = SimpleNamespace(kind="diag", size=64, args=(QMatrix.identity(64),))
        assert module.case_kind(case) == "diag(64)"
        kind = module.cli_kind(["--format", "machine", "hw", "--type", "a.json", "b.json"])
        assert kind == "machine:hw,--type"
        differ = [
            "poly-small 1 0 15 quadratic-unitary(8,2)/kappa",
            "poly-small 2 3 15 quadratic-unitary(8,2)/kappa",
            "poly-small 1 0 19 hw-type-poly(8,2)/rhs",
            "poly-small 1 - inputs",
            "cli-matrix - - 7 machine:hw,--type",
            "diag-kappa 1 0 0 diag(32)/0/values",
        ]
        assert module.tally(differ) == [
            "1 cli-matrix machine:hw,--type -",
            "1 diag-kappa diag(32) 0/values",
            "1 poly-small hw-type-poly(8,2) rhs",
            "1 poly-small inputs -",
            "2 poly-small quadratic-unitary(8,2) kappa",
        ]

    def test_cli_matrix_script(self, cli_matrix, capsys):
        runs = cli_matrix.matrix(cli_matrix.fixture_names())
        assert len(runs) == 372
        assert len({tuple(r) for r in runs}) == 372
        cwd = os.getcwd()
        cli_matrix.run_all(runs[:2])
        assert os.getcwd() == cwd
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(" ", 3)[3].split() for line in lines] == runs[:2]
        for line in lines:
            code, out_sha, err_sha, _ = line.split(" ", 3)
            assert code == "0"
            assert len(out_sha) == len(err_sha) == 64

    def test_cli_matrix_output_contract(self, cli_matrix, monkeypatch):
        # a run that completes writes only stdout, in machine format one JSON
        # document on one line; an error writes one stderr line and no stdout
        monkeypatch.chdir(cli_matrix.fixture_dir())
        codes = set()
        for argv in cli_matrix.matrix(cli_matrix.fixture_names()):
            code, out, err = cli_matrix.run(argv)
            codes.add(code)
            if code in (0, 1):
                assert err == "", argv
                if argv[:2] == ["--format", "machine"]:
                    assert out.endswith("\n") and out.count("\n") == 1, argv
                    json.loads(out)
            else:
                assert code in (2, 3, 4), argv
                assert out == "", argv
                assert err.endswith("\n") and err.count("\n") == 1, argv
        assert {0, 1, 2, 3} <= codes

    @pytest.mark.parametrize(
        "override", ["predicate=nan", "ineq_rel=inf", "tie=inf", "ineq_rel=nan"]
    )
    def test_non_finite_tolerance_rejected(self, override, capsys):
        # accepted, they give wrong verdicts: predicate=nan makes every operand
        # "not normal", tie=inf makes the equality pair "violated", and
        # ineq_rel=inf makes every pair hold
        code = main(
            [
                "--tol",
                override,
                "hw",
                self.fixture("nonstandard_pair_a.json"),
                self.fixture("nonstandard_pair_b.json"),
            ]
        )
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith("error: --tol") and err.count("\n") == 1

    def test_bounds_radius_must_be_finite(self, tmp_path, capsys):
        # lambda^2 + lambda + 1 per diagonal entry: coefficient moduli reach 1
        p = QMatrixPolynomial((QMatrix.identity(2),) * 3)
        path = write_json(tmp_path, "cyclotomic.json", polynomial_to_obj(p))
        assert main(["bounds", path, "--class", "commuting", "--r", "1.5"]) == 0
        capsys.readouterr()
        for r in ("nan", "inf"):
            code = main(["bounds", path, "--class", "commuting", "--r", r])
            out, err = capsys.readouterr()
            assert code == 2, r
            assert out == "" and "finite" in err and err.count("\n") == 1

    @pytest.mark.parametrize("klass", ["unitary", "ds"])
    def test_bounds_radius_only_for_commuting(self, klass, capsys):
        # the other classes take no radius, so accepting one would ignore it
        code = main(
            ["bounds", self.fixture("quadratic_unitary_p.json"), "--class", klass, "--r", "5"]
        )
        out, err = capsys.readouterr()
        assert code == 2
        assert out == "" and "--r" in err and err.count("\n") == 1

    def test_tolerance_override_numeric_failure(self, tmp_path, capsys):
        # an absurdly tight pairing tolerance turns rounding into a numeric error
        rng = np.random.default_rng(5)
        from quathw.generators import random_qmatrix

        path = write_json(tmp_path, "r.json", matrix_to_obj(random_qmatrix(rng, 3)))
        code = main(["--tol", "pairing=1e-30", "eigs", path])
        err = capsys.readouterr().err
        assert code == 4
        assert "numeric failure" in err

    def test_unknown_tolerance_rejected(self, capsys):
        # rank is no tolerance: no code would read it
        for override in ("bogus=1.0", "rank=1e-3"):
            assert main(["--tol", override, "paper-suite"]) == 2

    def test_every_tolerance_is_read(self):
        # an override of a tolerance no code reads would silently change nothing
        package = Path(quathw.__file__).parent
        text = "".join(p.read_text(encoding="utf-8") for p in package.rglob("*.py"))
        unread = [name for name in Tolerances.names() if not re.search(rf"\btols\.{name}\b", text)]
        assert unread == []

    def test_machine_report_round_trips_via_cli(self, capsys):
        code = main(
            [
                "--format",
                "machine",
                "hw",
                self.fixture("nonstandard_pair_a.json"),
                self.fixture("nonstandard_pair_b.json"),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert emit_json(json.loads(out)) == out.strip()


def run_child(code: str, *args: str, **env: str) -> subprocess.CompletedProcess:
    """Run ``python -c code args`` in a fresh interpreter that sees this quathw."""
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), **env),
        capture_output=True,
        text=True,
    )


def cli_fixture_commands() -> dict[str, tuple[str, ...]]:
    """The benchmark's ``cli-fixtures`` commands by test id, fixtures by file name.

    Each exits 0 on the bundled fixtures.  Plain ``hw`` runs on the two
    normal matrix pairs, so the assignment and the conjugate fold are covered.
    """
    matrices = ("mixed_complex_diagonal", "nonstandard_pair_a", "nonstandard_pair_b",
                "unitary_j_diagonal")
    polys = ("linear_normal_p", "linear_normal_q", "quadratic_unitary_p",
             "quadratic_unitary_q")
    pairs = (("nonstandard_pair_a", "nonstandard_pair_b"),
             ("mixed_complex_diagonal", "unitary_j_diagonal"),
             ("linear_normal_p", "linear_normal_q"),
             ("quadratic_unitary_p", "quadratic_unitary_q"))
    cmds = [("eigs", f) for f in matrices + polys]
    cmds += [("diag", f) for f in matrices + polys if f != "quadratic_unitary_q"]
    cmds += [("hw", a, b) for a, b in pairs[:2]]
    cmds += [("hw", "--type", a, b) for a, b in pairs]
    cmds += [("bounds", f, "--class", "unitary") for f in polys[2:]]
    cmds.append(("paper-suite",))
    # three runs go by short test ids
    short = {("eigs", "linear_normal_p"): "eigs", ("diag", "linear_normal_p"): "diag",
             ("hw", "--type", "linear_normal_p", "linear_normal_q"): "hw-type"}
    return {
        short.get(cmd, "-".join(part.lstrip("-") for part in cmd)):
        tuple(f"{part}.json" if part in matrices + polys else part for part in cmd)
        for cmd in cmds
    }


CLI_FIXTURE_COMMANDS = cli_fixture_commands()


class TestCliChildProcess:
    # what the installed console script runs
    ENTRY = "import sys; from quathw.cli import main; sys.exit(main())"

    def test_no_scipy_module_loads(self):
        # scipy is a test dependency only; paper-suite reaches clinalg.inverse,
        # so a lazy import there would show in the second list
        probe = "\n".join(
            [
                "import contextlib, io, json, sys",
                "def scipy_modules():",
                "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')",
                "from quathw.cli import main",
                "after_import = scipy_modules()",
                "with contextlib.redirect_stdout(io.StringIO()):",
                "    code = main(['--format', 'machine', 'paper-suite'])",
                "print(json.dumps([after_import, code, scipy_modules()]))",
            ]
        )
        out = run_child(probe)
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout) == [[], 0, []]

    def test_non_finite_entry_is_parse_error(self, tmp_path):
        # a child process, so a numpy RuntimeWarning would show on stderr
        one = write_json(tmp_path, "one.json", matrix_to_obj(QMatrix.identity(1)))
        for name, text in (("inf.json", "Infinity"), ("nan.json", "NaN")):
            path = tmp_path / name
            path.write_text(
                f'{{"rows": 1, "cols": 1, "entries": [[[{text}, 0, 0, 0]]]}}', encoding="utf-8"
            )
            for argv in (["hw", str(path), one], ["eigs", str(path)]):
                child = run_child(self.ENTRY, *argv)
                assert child.returncode == 3, child.stderr
                assert child.stdout == ""
                assert child.stderr.startswith("parse error:"), child.stderr
                assert child.stderr.count("\n") == 1, child.stderr

    @pytest.fixture(scope="class")
    def in_process(self):
        # every command in one sequence in this process, as the benchmark
        # runs them: scipy is loaded here and the hash seed is random, while
        # a child loads neither scipy nor anything else it does not need
        import scipy.optimize  # noqa: F401

        results = {}
        for key, args in CLI_FIXTURE_COMMANDS.items():
            argv = self.argv(args)
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main(argv)
            results[key] = code, json.loads(buf.getvalue())
        return results

    @staticmethod
    def argv(args) -> list[str]:
        return ["--format", "machine"] + [
            fixture_path(a) if a.endswith(".json") else a for a in args
        ]

    def test_fixture_commands_cover_the_benchmark(self):
        assert len(CLI_FIXTURE_COMMANDS) == 24
        assert ("hw", "mixed_complex_diagonal.json", "unitary_j_diagonal.json") in (
            CLI_FIXTURE_COMMANDS.values()
        )

    @pytest.mark.parametrize("key", list(CLI_FIXTURE_COMMANDS))
    def test_child_matches_in_process(self, key, in_process):
        code, want = in_process[key]
        assert code == 0
        child = run_child(self.ENTRY, *self.argv(CLI_FIXTURE_COMMANDS[key]), PYTHONHASHSEED="0")
        assert child.returncode == code, child.stderr
        assert json.loads(child.stdout) == want

    def test_cli_import_loads_every_layer(self):
        # a span recorder that wraps each layer's functions after importing
        # quathw.cli finds them all in sys.modules
        layers = ("clinalg", "qmatrix", "hw", "qpoly", "matio", "cli")
        probe = "\n".join(
            [
                "import json, sys",
                "import quathw.cli",
                f"print(json.dumps([m for m in {layers!r} if 'quathw.' + m not in sys.modules]))",
            ]
        )
        out = run_child(probe)
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout) == []

    def test_unitary_bound_rejects_overflowing_coefficients(self, tmp_path):
        # A A* overflows for A = 1e160 I, so is_unitary tests A 2^-e: the
        # precondition fails in one line, without a warning
        big = QMatrix.identity(2) * 1e160
        path = write_json(tmp_path, "big.json", polynomial_to_obj(QMatrixPolynomial((big, big))))
        child = run_child(self.ENTRY, "bounds", path, "--class", "unitary")
        assert child.returncode == 2, child.stderr
        assert child.stdout == ""
        assert child.stderr == "precondition violated: coefficient 0 is not unitary\n"

    @pytest.mark.parametrize("typed", [False, True], ids=["hw", "hw-type"])
    def test_overflowing_operand_is_numeric_failure(self, tmp_path, typed):
        # ||A||_F^2 and A A* overflow, so the normality test runs scaled, and
        # the squared eigenvalue distance overflows: one line, no warning
        big = write_json(tmp_path, "big.json", matrix_to_obj(QMatrix.from_real([[1e160]])))
        zero = write_json(tmp_path, "zero.json", matrix_to_obj(QMatrix.from_real([[0.0]])))
        child = run_child(self.ENTRY, "hw", *(["--type"] if typed else []), big, zero)
        assert child.returncode == 4, child.stderr
        assert child.stdout == ""
        assert child.stderr == "numeric failure: squared distances overflow\n"
