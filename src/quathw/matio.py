"""File formats and machine-readable report serialization.

Matrix file: a JSON object with "rows", "cols" and "entries", where entries
is a rows x cols nested array of quaternion 4-arrays [a0, a1, a2, a3].
Complex scalars elsewhere (spectra in reports) are encoded as 2-arrays
[re, im]; a 2-array inside a matrix file is accepted as a complex entry.

Polynomial file: a JSON object with "size", "degree" and "coefficients",
an ascending-degree array of degree+1 matrix objects of that size.

Parsers reject ragged rows, wrong entry arity, shape mismatches,
non-numeric or non-finite values (JSON NaN, Infinity, 1e400) and boolean
counts, reporting the JSON path of the offending element.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any

from .errors import MatrixFileError
from .hw import InequalityReport
from .qmatrix import QMatrix
from .qpoly import QMatrixPolynomial


def _as_number(x: Any, where: str) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise MatrixFileError(f"{where}: expected a number, got {x!r}")
    try:
        value = float(x)
    except OverflowError:  # an integer literal beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise MatrixFileError(f"{where}: expected a finite number, got {x!r}")
    return value


def _is_positive_int(x: Any) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and x >= 1


def _entry_to_components(entry: Any, where: str) -> list[float]:
    if not isinstance(entry, list) or len(entry) not in (2, 4):
        raise MatrixFileError(
            f"{where}: entries must be 4-arrays [a0,a1,a2,a3] or complex 2-arrays [re,im]"
        )
    values = [_as_number(x, where) for x in entry]
    if len(values) == 2:
        values = values + [0.0, 0.0]
    return values


def matrix_from_obj(obj: Any, where: str = "matrix") -> QMatrix:
    if not isinstance(obj, dict):
        raise MatrixFileError(f"{where}: expected an object")
    for key in ("rows", "cols", "entries"):
        if key not in obj:
            raise MatrixFileError(f"{where}: missing key {key!r}")
    rows, cols = obj["rows"], obj["cols"]
    if not (_is_positive_int(rows) and _is_positive_int(cols)):
        raise MatrixFileError(f"{where}: rows and cols must be positive integers")
    entries = obj["entries"]
    if not isinstance(entries, list) or len(entries) != rows:
        raise MatrixFileError(f"{where}: entries must have exactly {rows} rows")
    parsed = []
    for i, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != cols:
            raise MatrixFileError(f"{where}.entries[{i}]: expected {cols} entries")
        parsed.append(
            [_entry_to_components(e, f"{where}.entries[{i}][{j}]") for j, e in enumerate(row)]
        )
    return QMatrix.from_entries(parsed)


def matrix_to_obj(a: QMatrix) -> dict:
    return {"rows": a.rows, "cols": a.cols, "entries": a.to_entries()}


def polynomial_from_obj(obj: Any, where: str = "polynomial") -> QMatrixPolynomial:
    if not isinstance(obj, dict):
        raise MatrixFileError(f"{where}: expected an object")
    for key in ("size", "degree", "coefficients"):
        if key not in obj:
            raise MatrixFileError(f"{where}: missing key {key!r}")
    size, degree = obj["size"], obj["degree"]
    if not (_is_positive_int(size) and _is_positive_int(degree)):
        raise MatrixFileError(f"{where}: size and degree must be positive integers")
    coeffs = obj["coefficients"]
    if not isinstance(coeffs, list) or len(coeffs) != degree + 1:
        raise MatrixFileError(f"{where}: expected {degree + 1} coefficients")
    mats = []
    for k, c in enumerate(coeffs):
        m = matrix_from_obj(c, f"{where}.coefficients[{k}]")
        if m.rows != size or m.cols != size:
            raise MatrixFileError(
                f"{where}.coefficients[{k}]: expected shape {size}x{size}, got {m.rows}x{m.cols}"
            )
        mats.append(m)
    return QMatrixPolynomial(tuple(mats))


def polynomial_to_obj(p: QMatrixPolynomial) -> dict:
    return {
        "size": p.size,
        "degree": p.degree,
        "coefficients": [matrix_to_obj(c) for c in p.coefficients],
    }


def load_document(path: str) -> QMatrix | QMatrixPolynomial:
    """Parse a file as a matrix or a polynomial, detected by its keys."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise MatrixFileError(f"{path}: {exc}") from exc
    if not text.strip():
        raise MatrixFileError(f"{path}: empty file")
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MatrixFileError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if isinstance(obj, dict) and "coefficients" in obj:
        return polynomial_from_obj(obj, where=path)
    if isinstance(obj, dict) and "entries" in obj:
        return matrix_from_obj(obj, where=path)
    raise MatrixFileError(
        f"{path}: object is neither a matrix (entries) nor a polynomial (coefficients)"
    )


def canonical_digest(obj: Any) -> str:
    """sha256 of the canonical JSON serialization."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def matrix_digest(a: QMatrix) -> str:
    return canonical_digest(matrix_to_obj(a))


def polynomial_digest(p: QMatrixPolynomial) -> str:
    return canonical_digest(polynomial_to_obj(p))


# -- report serialization ------------------------------------------------------


def report_to_obj(report: InequalityReport) -> dict:
    obj = {
        "kind": report.kind,
        "lhs": report.lhs,
        "rhs": report.rhs,
        "slack": report.slack,
        "holds": report.holds,
        "permutation": list(report.permutation_one_based()),
        "digests": dict(report.digests),
    }
    if report.kappa is not None:
        obj["kappa"] = report.kappa
    if report.theorem_class is not None:
        obj["theorem_class"] = report.theorem_class
    return obj


def _complex_pair(value: Any) -> list[float]:
    if isinstance(value, complex):
        return [value.real, value.imag]
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def emit_json(obj: Any) -> str:
    """Machine format: one JSON document, keys sorted, full float precision."""
    return json.dumps(obj, sort_keys=True, default=_complex_pair)

