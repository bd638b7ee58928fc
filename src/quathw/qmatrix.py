"""Dense quaternion matrices and the complex adjoint embedding.

A quaternion matrix A is stored through its unique complex split
A = A1 + A2*j.  The complex adjoint of an n x m matrix is the
2n x 2m complex block matrix

    chi(A) = [[ A1,        A2      ],
              [-conj(A2),  conj(A1)]]

which is a ring homomorphism: chi(A B) = chi(A) chi(B), chi(A*) = chi(A)*,
chi of the n x n identity is the 2n x 2n identity.  Norm bridge:
||chi(A)||_F^2 = 2 ||A||_F^2 and ||chi(A)||_2 = ||A||_2.  (Some sources
state the Frobenius relation without the squares; the squared form is the
correct one, since each quaternion entry contributes its squared modulus
twice to chi.)

Standard eigenvalues of a square A are the n eigenvalues of chi(A) folded
into conjugate pairs, one representative per pair in the closed upper half
plane.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import clinalg
from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import (
    NotDiagonalizableError,
    PairingFailureError,
    ShapeMismatchError,
    SingularMatrixError,
)
from .quaternion import Quaternion

_TINY = np.finfo(float).tiny
_INF = float("inf")
_PRODUCT_SAFE = 2.0**500  # below this ||A||_F, products of two factors of A are finite


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class QMatrix:
    """Immutable dense quaternion matrix backed by its complex split."""

    __slots__ = ("c1", "c2", "_fro")

    def __init__(self, c1: np.ndarray, c2: np.ndarray | None = None):
        c1 = np.array(c1, dtype=complex)
        if c1.ndim != 2:
            raise ShapeMismatchError(f"expected a 2-d array, got ndim {c1.ndim}")
        if c2 is None:
            c2 = np.zeros_like(c1)
        else:
            c2 = np.array(c2, dtype=complex)
        if c2.shape != c1.shape:
            raise ShapeMismatchError(f"split parts differ in shape: {c1.shape} vs {c2.shape}")
        self.c1, self.c2, self._fro = _freeze(c1), _freeze(c2), None

    @classmethod
    def _adopt(cls, c1: np.ndarray, c2: np.ndarray) -> "QMatrix":
        """Wrap complex arrays of equal 2-d shape that nothing else holds,
        without copying or validating them: the results of arithmetic."""
        a = object.__new__(cls)
        a.c1, a.c2, a._fro = _freeze(c1), _freeze(c2), None
        return a

    # -- constructors -------------------------------------------------

    @classmethod
    def from_entries(cls, rows) -> "QMatrix":
        """Build from nested sequences of Quaternion or 4-sequences [a0,a1,a2,a3]."""
        data = []
        width = None
        for row in rows:
            parsed = []
            for entry in row:
                if isinstance(entry, Quaternion):
                    q = entry
                elif isinstance(entry, (int, float)):
                    q = Quaternion.from_real(entry)
                elif isinstance(entry, complex):
                    q = Quaternion.from_complex(entry)
                else:
                    a0, a1, a2, a3 = (float(x) for x in entry)
                    q = Quaternion(a0, a1, a2, a3)
                parsed.append(q)
            if width is None:
                width = len(parsed)
            elif len(parsed) != width:
                raise ShapeMismatchError("ragged rows in matrix entries")
            data.append(parsed)
        if not data or width == 0:
            raise ShapeMismatchError("matrix must have at least one row and one column")
        c1 = np.array([[q.complex_pair()[0] for q in row] for row in data])
        c2 = np.array([[q.complex_pair()[1] for q in row] for row in data])
        return cls(c1, c2)

    @classmethod
    def from_real(cls, a) -> "QMatrix":
        a = np.asarray(a, dtype=float)
        return cls(a.astype(complex))

    @classmethod
    def from_complex(cls, a) -> "QMatrix":
        return cls(np.asarray(a, dtype=complex))

    @classmethod
    def zeros(cls, rows: int, cols: int | None = None) -> "QMatrix":
        cols = rows if cols is None else cols
        return cls._adopt(*(np.zeros((rows, cols), dtype=complex) for _ in range(2)))

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        return cls._adopt(np.eye(n, dtype=complex), np.zeros((n, n), dtype=complex))

    @classmethod
    def diagonal(cls, values) -> "QMatrix":
        """Diagonal matrix from quaternion or complex scalars."""
        z1, z2 = [], []
        for v in values:
            if isinstance(v, Quaternion):
                p1, p2 = v.complex_pair()
            else:
                p1, p2 = complex(v), 0.0
            z1.append(p1)
            z2.append(p2)
        return cls._adopt(*(np.diag(np.array(z, dtype=complex)) for z in (z1, z2)))

    @classmethod
    def block(cls, grid) -> "QMatrix":
        """Assemble from a 2-d grid of QMatrix blocks."""
        return cls._adopt(*(
            np.concatenate([np.concatenate([getattr(b, part) for b in row], axis=1) for row in grid])
            for part in ("c1", "c2")
        ))

    # -- shape and access ----------------------------------------------

    @property
    def rows(self) -> int:
        return self.c1.shape[0]

    @property
    def cols(self) -> int:
        return self.c1.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.c1.shape

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __getitem__(self, key) -> Quaternion:
        i, j = key
        return Quaternion.from_complex_pair(self.c1[i, j], self.c2[i, j])

    def to_entries(self) -> list[list[list[float]]]:
        """Nested [a0, a1, a2, a3] lists, the textual encoding of the matrix."""
        return [
            [
                [self.c1[i, j].real, self.c1[i, j].imag, self.c2[i, j].real, self.c2[i, j].imag]
                for j in range(self.cols)
            ]
            for i in range(self.rows)
        ]

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other: "QMatrix") -> "QMatrix":
        if not isinstance(other, QMatrix):
            return NotImplemented
        if self.shape != other.shape:
            raise ShapeMismatchError(f"cannot add shapes {self.shape} and {other.shape}")
        return QMatrix._adopt(self.c1 + other.c1, self.c2 + other.c2)

    def __sub__(self, other: "QMatrix") -> "QMatrix":
        if not isinstance(other, QMatrix):
            return NotImplemented
        if self.shape != other.shape:
            raise ShapeMismatchError(f"cannot subtract shapes {self.shape} and {other.shape}")
        return QMatrix._adopt(self.c1 - other.c1, self.c2 - other.c2)

    def __neg__(self) -> "QMatrix":
        return QMatrix._adopt(-self.c1, -self.c2)

    def __mul__(self, scalar) -> "QMatrix":
        if isinstance(scalar, (int, float)):
            return QMatrix._adopt(self.c1 * scalar, self.c2 * scalar)
        return NotImplemented

    __rmul__ = __mul__

    def __matmul__(self, other: "QMatrix") -> "QMatrix":
        if not isinstance(other, QMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ShapeMismatchError(f"cannot multiply shapes {self.shape} and {other.shape}")
        # (A1 + A2 j)(B1 + B2 j) = (A1 B1 - A2 conj(B2)) + (A1 B2 + A2 conj(B1)) j
        return QMatrix._adopt(
            self.c1 @ other.c1 - self.c2 @ other.c2.conj(),
            self.c1 @ other.c2 + self.c2 @ other.c1.conj(),
        )

    def scale_left(self, q: Quaternion) -> "QMatrix":
        """q * A, entrywise left multiplication by a quaternion scalar."""
        q1, q2 = q.complex_pair()
        return QMatrix._adopt(
            q1 * self.c1 - q2 * self.c2.conj(), q1 * self.c2 + q2 * self.c1.conj()
        )

    def scale_right(self, q: Quaternion) -> "QMatrix":
        """A * q, entrywise right multiplication by a quaternion scalar."""
        q1, q2 = q.complex_pair()
        return QMatrix._adopt(
            self.c1 * q1 - self.c2 * np.conj(q2), self.c1 * q2 + self.c2 * np.conj(q1)
        )

    def conjugate_transpose(self) -> "QMatrix":
        """A* with entries conj(a_ji)."""
        return QMatrix._adopt(self.c1.conj().T, -self.c2.T)

    @property
    def h(self) -> "QMatrix":
        return self.conjugate_transpose()

    # -- norms and comparison --------------------------------------------

    def frobenius_norm(self) -> float:
        """||A||_F, finite whenever it is below the largest double.

        Computed once per matrix: the arrays are frozen.
        """
        if self._fro is None:
            self._fro = _frobenius_norm(self)
        return self._fro

    def allclose(self, other: "QMatrix", tol: float = 1e-10) -> bool:
        if self.shape != other.shape:
            return False
        return bool(
            np.allclose(self.c1, other.c1, rtol=0.0, atol=tol)
            and np.allclose(self.c2, other.c2, rtol=0.0, atol=tol)
        )

    def __repr__(self) -> str:
        return f"QMatrix(shape={self.shape})"


# -- adjoint embedding ----------------------------------------------------


def adjoint(a: QMatrix) -> np.ndarray:
    """The complex adjoint matrix, exact block assembly (no arithmetic)."""
    n, m = a.shape
    chi = np.empty((2 * n, 2 * m), dtype=complex)
    chi[:n, :m] = a.c1
    chi[:n, m:] = a.c2
    np.negative(a.c2.conj(), out=chi[n:, :m])
    np.conjugate(a.c1, out=chi[n:, m:])
    return chi


def from_adjoint(m: np.ndarray, tol: float = 1e-10) -> QMatrix:
    """Invert the adjoint embedding, validating the block structure."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] % 2 or m.shape[1] % 2:
        raise ShapeMismatchError(f"adjoint image must have even dimensions, got {m.shape}")
    n, p = m.shape[0] // 2, m.shape[1] // 2
    m11, m12 = m[:n, :p], m[:n, p:]
    m21, m22 = m[n:, :p], m[n:, p:]
    scale = 1.0 + float(np.linalg.norm(m, "fro"))
    defect = max(
        float(np.linalg.norm(m22 - m11.conj(), "fro")),
        float(np.linalg.norm(m21 + m12.conj(), "fro")),
    )
    if defect > tol * scale:
        raise ShapeMismatchError(
            f"matrix is not in the image of the adjoint embedding (defect {defect:.3e})"
        )
    return QMatrix(m11, m12)


def _frobenius_norm(a: QMatrix) -> float:
    # sqrt(sum |c1|^2 + sum |c2|^2), squared in place: x * x is x ** 2
    with np.errstate(over="ignore"):
        sq1, sq2 = np.abs(a.c1), np.abs(a.c2)
        sq1 *= sq1
        sq2 *= sq2
        norm = math.sqrt(sq1.sum() + sq2.sum())
        if norm < _INF:
            return norm
        # finite entries whose squares overflow: the norm of A 2^-e, times 2^e
        e = _exponent(a)
        if e is None:
            return norm
        return float(np.ldexp((a * 2.0**-e).frobenius_norm(), e))


def _exponent(a: QMatrix) -> int | None:
    """Binary exponent of A's largest real or imaginary entry part, or None
    when some entry is not finite."""
    big = max(float(np.abs(p).max()) for c in (a.c1, a.c2) for p in (c.real, c.imag))
    return int(np.frexp(big)[1]) if big < _INF else None


def _squared_norm(a: QMatrix) -> float:
    """||A||_F ** 2, and inf where that square overflows."""
    fro = a.frobenius_norm()
    try:
        return fro**2
    except OverflowError:
        return _INF


def spectral_norm(a: QMatrix) -> float:
    """||A||_2 computed as the spectral norm of the complex adjoint."""
    return clinalg.spectral_norm(adjoint(a))


def inverse(a: QMatrix, tols: Tolerances = DEFAULT_TOLERANCES) -> QMatrix:
    """Inverse through the adjoint embedding: chi(A^-1) = chi(A)^-1.

    Raises SingularMatrixError when pivot * ||chi(A)||_F * ||chi(A)^-1||_F >= 1
    (``clinalg.inverse``), so every A that ``condition_number`` rejects, or
    when the computed chi(A)^-1 leaves the adjoint image.
    """
    if not a.is_square:
        raise ShapeMismatchError("only square matrices have inverses")
    try:
        return from_adjoint(clinalg.inverse(adjoint(a), pivot_tol=tols.pivot), tol=1e-8)
    except ShapeMismatchError as exc:
        raise SingularMatrixError(str(exc)) from exc


def condition_number(x: QMatrix, tols: Tolerances = DEFAULT_TOLERANCES) -> float:
    """Spectral condition number ||X||_2 ||X^-1||_2 (1 for unitary X).

    chi preserves products and the spectral norm, so kappa(X) is
    sigma_max / sigma_min of chi(X), read from one SVD.  Raises
    SingularMatrixError when sigma_min <= pivot * ||chi(X)||_F.
    """
    _square(x)
    s = clinalg.singular_values(adjoint(x))
    threshold = tols.pivot * float(np.linalg.norm(s))  # ||chi(X)||_F
    if not s[-1] > threshold:
        raise SingularMatrixError(
            f"smallest singular value {s[-1]:.3e} of chi(X) is at most {threshold:.3e}"
        )
    return float(s[0] / s[-1])


# -- structural predicates --------------------------------------------------


def _square(a: QMatrix) -> QMatrix:
    if not a.is_square:
        raise ShapeMismatchError("operation requires a square matrix")
    return a


def is_hermitian(a: QMatrix, tol: float = 1e-8) -> bool:
    """||A - A*||_F <= tol (1 + ||A||_F), safe from overflow."""
    _square(a)
    return _rescaled_test(a, tol, 1, lambda x, c: (x - x.h).frobenius_norm())


def _rescaled_test(a: QMatrix, tol: float, degree: int, defect) -> bool:
    """defect(A, 1) <= tol (1 + ||A||_F^degree), safe from overflow.

    ``defect(A, c)`` is built from products of A and c times fixed terms, so
    that defect(A t, t^degree) = t^degree defect(A, 1) for a power of two t.
    While ||A||_F < 2^500 no product of two factors of A overflows, and the
    test runs as written.  Past that, when the defect is not finite while A
    is, it runs on A 2^-e, whose entries are at most 1 (e the binary exponent
    of A's largest entry part), as defect(A 2^-e, c) <= tol (c + ||A 2^-e||_F^degree)
    with c = 2^(-e degree): both sides are those of A times c.
    """
    c = 1.0
    if a.frobenius_norm() < _PRODUCT_SAFE:
        d = defect(a, c)
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            d = defect(a, c)
        e = None if d < _INF else _exponent(a)
        if e is not None:
            a = a * 2.0**-e
            c = 2.0 ** (-e * degree)
            d = defect(a, c)
    return d <= tol * (c + (a.frobenius_norm() if degree == 1 else _squared_norm(a)))


def _gram_defect(g: QMatrix, c: float) -> float:
    """||G - c I||_F"""
    eye = QMatrix.identity(g.rows)
    return (g - (eye if c == 1.0 else eye * c)).frobenius_norm()


def is_normal(a: QMatrix, tol: float = 1e-8) -> bool:
    """||A A* - A* A||_F <= tol (1 + ||A||_F^2), safe from overflow."""
    _square(a)
    return _rescaled_test(a, tol, 2, lambda x, c: (x @ x.h - x.h @ x).frobenius_norm())


def is_unitary(a: QMatrix, tol: float = 1e-8) -> bool:
    """||A A* - I||_F and ||A* A - I||_F are at most tol (1 + ||A||_F^2),
    safe from overflow."""
    _square(a)
    return _rescaled_test(a, tol, 2, lambda x, c: _gram_defect(x @ x.h, c)) and _rescaled_test(
        a, tol, 2, lambda x, c: _gram_defect(x.h @ x, c)
    )


def is_positive_semidefinite(a: QMatrix, tol: float = 1e-8) -> bool:
    """Hermitian, with the smallest eigenvalue of chi(A) at least
    -tol (1 + ||A||_F), safe from overflow."""
    _square(a)
    if not is_hermitian(a, tol):
        return False
    sym_tol = max(tol, 1e-10)
    return bool(_rescaled_test(
        a, tol, 1, lambda x, c: -clinalg.hermitian_eigenvalues(adjoint(x), sym_tol=sym_tol)[0]
    ))


def is_diagonal(a: QMatrix, tol: float = 1e-10) -> bool:
    _square(a)
    off1 = a.c1 - np.diag(np.diag(a.c1))
    off2 = a.c2 - np.diag(np.diag(a.c2))
    scale = 1.0 + a.frobenius_norm()
    return float(np.linalg.norm(off1) + np.linalg.norm(off2)) <= tol * scale


# -- standard eigenvalues ----------------------------------------------------


@dataclass(frozen=True)
class StandardSpectrum:
    """The n standard eigenvalues in the closed upper half plane.

    ``values`` are sorted lexicographically by (real, imag);
    ``pairing_residual`` is the largest distance between a spectrum value of
    the adjoint and the conjugate of its matched partner.
    """

    values: tuple[complex, ...]
    pairing_residual: float

    def __len__(self) -> int:
        return len(self.values)


def _fold_conjugate_spectrum(
    w: np.ndarray, scale: float, tols: Tolerances
) -> tuple[list[complex], float, list[tuple[int, int]]]:
    """Pair the 2n eigenvalues of an adjoint with their conjugates.

    Greedy nearest-conjugate matching, most-imaginary value first (lowest
    index on ties), its partner the nearest conjugate (lowest index on
    ties); each pair contributes one representative with nonnegative
    imaginary part, and its indices (a, b) into ``w``, a the upper one.  It
    is made real when its imaginary part is at most ``tols.clamp_imag * scale``.
    The distances are one matrix up front, and the values are visited in
    one fixed (-imag, index) order with consumed ones skipped: removing
    values never changes the order of the rest, so every choice is that of
    re-scanning the remaining values.  Each value's nearest conjugate over
    all other values (first index on ties) is one row argmin up front: when
    that partner is still alive and its distance finite, it is also the
    nearest alive one, and only otherwise does the argmin run over the alive
    values (the first alive value when all their distances overflowed to
    inf).  ``np.hypot`` rounds exactly as ``abs`` of a complex scalar
    (``np.abs`` on complex arrays does not, in the last bit), so ties and
    residuals come out bit for bit.
    """
    if len(w) % 2:
        raise PairingFailureError("adjoint spectrum has odd length")
    clamp = tols.clamp_imag * scale
    w = np.asarray(w, dtype=complex)
    diff = w[np.newaxis, :] - w.conj()[:, np.newaxis]
    dist = np.hypot(diff.real, diff.imag)  # dist[a, b] = |w[b] - conj(w[a])|
    masked = dist.copy()
    np.fill_diagonal(masked, np.inf)
    nearest = masked.argmin(axis=1).tolist()  # first index on ties
    near_ok = np.isfinite(masked.min(axis=1)).tolist()
    values = w.tolist()  # Python complex: the same arithmetic, bit for bit
    alive = [True] * len(values)
    reps: list[complex] = []
    pairs: list[tuple[int, int]] = []
    residual = 0.0
    for a in np.argsort(-w.imag, kind="stable").tolist():
        if not alive[a]:
            continue
        alive[a] = False
        b = nearest[a]
        if not (alive[b] and near_ok[a]):
            b = int(np.where(alive, dist[a], np.inf).argmin())
            if not alive[b]:  # every remaining distance overflowed to inf
                b = alive.index(True)
        alive[b] = False
        residual = max(residual, dist[a, b])
        avg = 0.5 * (values[a] + values[b].conjugate())
        im = abs(avg.imag)
        reps.append(complex(avg.real, 0.0 if im <= clamp else im))
        pairs.append((a, b))
    return reps, residual, pairs


# golden-ratio weight of the skew-Hermitian part: no rational coincidences
_PENCIL_T = (np.sqrt(5.0) - 1.0) / 2.0
_COUPLING = 8.0    # |g_ij| above this * 2n * eps * ||chi||_F joins i and j
_CERTIFICATE = 64.0  # accept when the dropped residual is below this * 2n * eps * ||chi||_F


def _coupled_groups(coupled: np.ndarray) -> np.ndarray:
    """Union-find label of each index, joining i and j where ``coupled[i, j]``."""
    parent = list(range(coupled.shape[0]))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in np.argwhere(coupled).tolist():
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
    return np.array([find(i) for i in range(len(parent))])


@dataclass(frozen=True)
class NormalEigenvalues:
    """The normal route's eigenvalues of chi and what its certificate
    established (``_normal_adjoint_eigenvalues``).

    ``residual`` is the accepted residual: the mass of G = V^H chi V outside
    the groups plus ||V^H V - I||_F ||chi||_F.  ``commutators`` holds
    ||B B^H - B^H B||_F for the block B of G of each group of more than one
    index, empty when every group is a singleton.
    """

    values: np.ndarray
    residual: float
    commutators: tuple[float, ...]


def _normal_adjoint_eigenvalues(chi: np.ndarray) -> NormalEigenvalues | None:
    """Eigenvalues of a normal adjoint from one Hermitian eigensolve, or None.

    The Hermitian part H and the skew-Hermitian part K of a normal chi
    commute, so the eigenvectors V of H + tK diagonalize chi
    (Bunse-Gerstner, Byers & Mehrmann, SIMAX 14, 1993): an eigenvalue
    lambda of chi becomes Re(lambda) + t Im(lambda), and an irrational t
    keeps distinct lambdas apart.  G = V^H chi V is then diagonal except
    where eigh mixes vectors of distinct lambdas whose values of H + tK
    (nearly) coincide.  Those indices are grouped through the entries of G
    that couple them, and each group contributes the eigenvalues of its
    principal submatrix.

    The residual dropped is the mass of G outside the groups plus the
    orthogonality defect of V times ||chi||_F.  G is unitarily similar to
    the normal chi up to that defect, and the diagonal blocks of a normal
    matrix are normal up to the square of the mass outside them, so by the
    Hoffman-Wielandt theorem (Duke Math. J. 20, 1953) the matched
    eigenvalue error is at most that residual, to first order.  Returns
    None, and the caller falls back to the general eigensolver, when it
    exceeds 64 * 2n * eps * ||chi||_F.  The test is relative, so scaling chi
    by a power of two never changes the outcome.

    The values come with the accepted residual and the commutator norm of
    each group's block.  Together they bound ||chi chi^H - chi^H chi||_F
    without forming chi chi^H, which is how ``hw_check`` proves its
    operands normal (the bound is in its docstring).
    """
    basis = _normal_basis(chi)
    if basis is None:
        return None
    g, labels = basis.g, basis.labels
    values = np.diagonal(g).copy()
    commutators = []
    if labels is not None:
        for idx in _groups(labels):
            block = g[np.ix_(idx, idx)]
            values[idx] = np.linalg.eigvals(block)
            block_h = block.conj().T
            with np.errstate(over="ignore", invalid="ignore"):  # not finite past 2^250 or so
                commutators.append(float(np.linalg.norm(block @ block_h - block_h @ block)))
    return NormalEigenvalues(
        values[np.lexsort((values.imag, values.real))], basis.residual, tuple(commutators)
    )


@dataclass(frozen=True)
class _NormalBasis:
    """The eigenvectors V of H + tK for a normal chi, G = V^H chi V, the
    label of each index's group (None when every group is a singleton), the
    accepted residual and the unit 2n eps ||chi||_F that scales the route's
    thresholds (``_normal_basis``)."""

    vectors: np.ndarray
    g: np.ndarray
    labels: np.ndarray | None
    residual: float
    unit: float


def _normal_basis(chi: np.ndarray) -> _NormalBasis | None:
    """The Hermitian eigensolve of ``_normal_adjoint_eigenvalues`` and its
    certificate, or None when the certificate fails."""
    m = chi.shape[0]
    with np.errstate(over="ignore"):
        scale = float(np.linalg.norm(chi))
    if not scale < _INF:  # the general eigensolver copes with the range
        return None
    unit = m * np.finfo(float).eps * scale
    half = (0.5 - 0.5j * _PENCIL_T) * chi  # H + tK = half + half^H
    try:
        _, v = np.linalg.eigh(half + half.conj().T)
    except np.linalg.LinAlgError:  # pragma: no cover - rare in LAPACK
        return None
    vh = v.conj().T
    g = vh @ (chi @ v)
    coupled = np.abs(g) > _COUPLING * unit
    np.fill_diagonal(coupled, False)
    # usually nothing couples: every group is a singleton and the mass
    # outside them is that of G off its diagonal
    labels = _coupled_groups(coupled) if coupled.any() else None
    if labels is None:
        off = g.copy()
        np.fill_diagonal(off, 0.0)
    else:
        off = np.where(labels[:, np.newaxis] == labels[np.newaxis, :], 0.0, g)
    outside = float(np.linalg.norm(off))
    defect = float(np.linalg.norm(vh @ v - np.eye(m)))
    residual = outside + defect * scale
    if not residual <= _CERTIFICATE * unit:
        return None
    return _NormalBasis(v, g, labels, residual, unit)


def _groups(labels: np.ndarray) -> list[np.ndarray]:
    """The indices of each group of more than one index, by label."""
    sizes = np.bincount(labels, minlength=len(labels))
    return [np.flatnonzero(labels == r) for r in np.flatnonzero(sizes > 1)]


def standard_eigenvalues(a: QMatrix, tols: Tolerances = DEFAULT_TOLERANCES) -> StandardSpectrum:
    """Standard eigenvalues of a square quaternion matrix.

    Computes the spectrum of the complex adjoint and folds it into conjugate
    pairs.  Raises PairingFailureError when the fold exceeds the pairing
    tolerance, which signals eigensolver inaccuracy rather than bad input.
    """
    _square(a)
    return _spectrum(a, adjoint(a), None, tols)


def _spectrum(
    a: QMatrix, chi: np.ndarray, found: NormalEigenvalues | None, tols: Tolerances
) -> StandardSpectrum:
    """``standard_eigenvalues`` of A, whose adjoint is ``chi``, from the
    normal route's ``found``, or from the general eigensolver when it is
    None."""
    w = clinalg.eigenvalues(chi).values if found is None else found.values
    reps, residual, _ = _fold_conjugate_spectrum(w, a.frobenius_norm(), tols)
    reps.sort(key=lambda z: (z.real, z.imag))
    return _checked_spectrum(a, reps, residual, tols)


def _checked_spectrum(a: QMatrix, values, residual: float, tols: Tolerances) -> StandardSpectrum:
    """A's sorted fold ``values`` as its standard eigenvalues, or
    PairingFailureError when the fold ``residual`` exceeds the pairing
    tolerance."""
    threshold = tols.pairing * max(a.frobenius_norm(), _TINY)
    if residual > threshold:
        raise PairingFailureError(
            f"conjugate pairing residual {residual:.3e} exceeds {threshold:.3e}"
        )
    return StandardSpectrum(values=tuple(values), pairing_residual=float(residual))


# -- diagonalization ----------------------------------------------------------


@dataclass(frozen=True)
class Diagonalization:
    """Result of diagonalizing a quaternion matrix.

    ``transform`` is X with X^-1 A X = diag(values); ``values`` are standard
    eigenvalues aligned with the columns of X and sorted lexicographically.
    ``residual`` is ||X^-1 A X - diag(values)||_F / max(||A||_F, tiny).
    ``pairing_residual`` is that of the conjugate fold that gave the values,
    0 for closed-form values, within the pairing tolerance as in
    ``standard_eigenvalues``.  ``kappa`` is ``condition_number(transform)``.
    Every record is built by ``_accepted``, the one acceptance step.
    """

    transform: QMatrix
    values: tuple[complex, ...]
    residual: float
    pairing_residual: float
    kappa: float


def _cluster_indices(values: np.ndarray, radius: float) -> list[list[int]]:
    """Group eigenvalues whose pairwise chains stay within ``radius``."""
    diff = values[:, np.newaxis] - values[np.newaxis, :]
    # np.hypot rounds exactly as abs() of a complex scalar
    labels = _coupled_groups(np.hypot(diff.real, diff.imag) <= radius)
    groups: dict[int, list[int]] = {}
    for i, label in enumerate(labels.tolist()):
        groups.setdefault(label, []).append(i)
    return list(groups.values())


def _kernel_basis(
    shifted: np.ndarray, want: int, spread: float, rank_tol: float, floor: float
) -> np.ndarray:
    """Orthonormal basis of the numerical kernel, failing when it is smaller
    than ``want`` (deficient geometric multiplicity).

    The cutoff keeps a floor proportional to the unshifted matrix scale:
    when the shift lands exactly on a scalar matrix, the shifted matrix is
    pure rounding noise and a cutoff relative to its own largest singular
    value would undercount the kernel.
    """
    u, s, vh = np.linalg.svd(shifted)
    sigma_max = s[0] if s.size else 0.0
    cutoff = max(2.0 * spread, rank_tol * sigma_max, rank_tol * floor, _TINY)
    dim = int(np.count_nonzero(s <= cutoff))
    if dim < want:
        raise NotDiagonalizableError(
            f"geometric multiplicity {dim} is below algebraic multiplicity {want}"
        )
    return vh[len(s) - want :].conj().T


def _center_spread(w: np.ndarray, idx: list[int]) -> tuple[complex, float]:
    """Mean of ``w[idx]`` and the largest distance of a member from it."""
    if len(idx) == 1:
        z = complex(w[idx[0]])
        if cmath.isfinite(z):  # np.mean's value: z with its zeros made positive
            return z + 0j, 0.0
    center = complex(np.mean(w[idx]))
    return center, max(abs(w[i] - center) for i in idx)


def _symplectic_partner(v: np.ndarray) -> np.ndarray:
    """For chi(A) v = lam v this vector satisfies chi(A) p = conj(lam) p."""
    n = len(v) // 2
    return np.concatenate([-v[n:].conj(), v[:n].conj()])


def _symplectic_columns(basis: np.ndarray, want: int) -> list[np.ndarray]:
    """``want`` columns of a real eigenvalue's kernel whose symplectic
    partners complete them to an orthonormal basis."""
    chosen: list[np.ndarray] = []
    dirs: list[np.ndarray] = []
    for k in range(basis.shape[1]):
        v = basis[:, k].copy()
        for d in dirs:  # modified Gram-Schmidt with one refresh pass
            v -= d * (d.conj() @ v)
        for d in dirs:
            v -= d * (d.conj() @ v)
        nv = np.linalg.norm(v)
        if nv <= 1e-8:
            continue
        v /= nv
        p = _symplectic_partner(v)
        for d in dirs + [v]:
            p -= d * (d.conj() @ p)
        np_ = np.linalg.norm(p)
        if np_ <= 1e-8:
            raise PairingFailureError("symplectic partner collapsed during eigenspace pairing")
        p /= np_
        chosen.append(v)
        dirs.extend([v, p])
        if len(chosen) == want:
            return chosen
    raise PairingFailureError(
        f"could not extract {want} quaternion columns from a "
        f"{basis.shape[1]}-dimensional real eigenspace"
    )


def diagonalize(a: QMatrix, tols: Tolerances = DEFAULT_TOLERANCES) -> Diagonalization:
    """Diagonalize a square quaternion matrix over the quaternions.

    Works on the complex adjoint.  Its 2n eigenvalues are folded into
    conjugate pairs once, as in ``standard_eigenvalues``, so the values are
    exactly that spectrum.  The n representatives are clustered at the
    ``diag_cluster`` radius, and one SVD per cluster checks its geometric
    multiplicity and gives its quaternion eigenvector columns.  Raises
    NotDiagonalizableError when some eigenvalue is defective; X then meets
    ``_accepted``, the acceptance step of every diagonalization.  A merged
    cluster's columns span its eigenspace but need not be eigenvectors of
    one value.  The radius and the kernel floor are relative to ||A||_F.

    A cluster is real when one of its pairs lies within the radius of
    itself.  It shifts by the real part of the mean of all its members, and
    its even-dimensional kernel is paired symplectically.  Otherwise it is
    complex and shifts by 1/2 (c_up + conj(c_low)), c_up and c_low the means
    of its upper and lower members.  For every eigenvector v of chi(A) at
    lam, J conj(v) is one at conj(lam) (F. Zhang, LAA 251, 1997):
    chi(A) - conj(lam) I = J conj(chi(A) - lam I) J^T with J = [[0, I],
    [-I, 0]], exactly, so the mirrored shift has the same singular values
    and one SVD serves both halves, with the smaller of their spreads.
    """
    _square(a)
    n = a.rows
    chi = adjoint(a)
    fro = a.frobenius_norm()
    scale = max(fro, _TINY)
    w = clinalg.eigenvalues(chi).values
    reps, pairing_residual, pairs = _fold_conjugate_spectrum(w, fro, tols)
    radius = tols.diag_cluster * scale
    eye = np.eye(2 * n, dtype=complex)

    columns: list[tuple[complex, np.ndarray]] = []  # (value, chi-vector) per quaternion column
    for cluster in _cluster_indices(np.array(reps), radius):
        cluster_values = sorted((reps[r] for r in cluster), key=lambda z: (z.real, z.imag))
        cluster_pairs = [pairs[r] for r in cluster]
        upper = sorted(a for a, _ in cluster_pairs)
        lower = sorted(b for _, b in cluster_pairs)
        if any(abs(w[a] - w[b]) <= radius for a, b in cluster_pairs):
            members = sorted(upper + lower)
            center, spread = _center_spread(w, members)
            basis = _kernel_basis(
                chi - center.real * eye, len(members), spread, tols.diag_rank, scale
            )
            vecs = _symplectic_columns(basis, len(cluster))
        else:
            c_up, s_up = _center_spread(w, upper)
            c_low, s_low = _center_spread(w, lower)
            shift = 0.5 * (c_up + c_low.conjugate())
            vecs = _kernel_basis(
                chi - shift * eye, len(cluster), min(s_up, s_low), tols.diag_rank, scale
            ).T
        columns.extend(zip(cluster_values, vecs))

    columns.sort(key=lambda c: (c[0].real, c[0].imag))
    cols = np.column_stack([v for _, v in columns])
    x = QMatrix(cols[:n], -cols[n:].conj())
    return _accepted(a, x, tuple(z for z, _ in columns), pairing_residual, tols)


def _accepted(
    a: QMatrix, x: QMatrix, values: tuple[complex, ...], pairing_residual: float,
    tols: Tolerances,
) -> Diagonalization:
    """X and the values as A's diagonalization, once they pass acceptance.

    Raises NotDiagonalizableError when X is numerically singular or
    ||X^-1 A X - diag(values)||_F / ||A||_F exceeds ``diag_verify``, then
    PairingFailureError when the values' fold residual exceeds the pairing
    tolerance (``_checked_spectrum``), so a defect is reported first.
    """
    try:
        xinv = inverse(x, tols)
    except SingularMatrixError as exc:
        raise NotDiagonalizableError(
            f"eigenvector matrix is numerically singular: {exc}"
        ) from exc
    residual = (
        (xinv @ a @ x) - QMatrix.diagonal(values)
    ).frobenius_norm() / max(a.frobenius_norm(), _TINY)
    if residual > tols.diag_verify:
        raise NotDiagonalizableError(
            f"diagonalization residual {residual:.3e} exceeds {tols.diag_verify:.1e}"
        )
    _checked_spectrum(a, values, pairing_residual, tols)
    return Diagonalization(
        transform=x,
        values=values,
        residual=float(residual),
        pairing_residual=float(pairing_residual),
        kappa=condition_number(x, tols),
    )
