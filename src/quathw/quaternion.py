"""Real quaternion scalars.

A quaternion is a0 + a1*i + a2*j + a3*k with real coefficients and the
defining relations i**2 = j**2 = k**2 = i*j*k = -1.  Multiplication is
associative and distributes over addition but is not commutative, so
left and right division differ: ``p / q`` here means ``p * q.inverse()``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ZeroQuaternionError

_REAL_TYPES = (int, float)


@dataclass(frozen=True)
class Quaternion:
    """Immutable quaternion with double-precision components."""

    a0: float = 0.0
    a1: float = 0.0
    a2: float = 0.0
    a3: float = 0.0

    # -- constructors -------------------------------------------------

    @classmethod
    def from_real(cls, x: float) -> "Quaternion":
        return cls(float(x), 0.0, 0.0, 0.0)

    @classmethod
    def from_complex(cls, z: complex) -> "Quaternion":
        """Embed a complex number as a0 + a1*i."""
        z = complex(z)
        return cls(z.real, z.imag, 0.0, 0.0)

    @classmethod
    def from_complex_pair(cls, z1: complex, z2: complex) -> "Quaternion":
        """Build q = z1 + z2*j from the complex split."""
        z1 = complex(z1)
        z2 = complex(z2)
        return cls(z1.real, z1.imag, z2.real, z2.imag)

    # -- decomposition ------------------------------------------------

    @property
    def real_part(self) -> float:
        return self.a0

    @property
    def complex_part(self) -> complex:
        """Co(q) = a0 + a1*i."""
        return complex(self.a0, self.a1)

    @property
    def imaginary_part(self) -> "Quaternion":
        """Im(q) = a1*i + a2*j + a3*k."""
        return Quaternion(0.0, self.a1, self.a2, self.a3)

    @property
    def imaginary_norm(self) -> float:
        return math.hypot(self.a1, self.a2, self.a3)

    def complex_pair(self) -> tuple[complex, complex]:
        """The unique split q = z1 + z2*j."""
        return complex(self.a0, self.a1), complex(self.a2, self.a3)

    def components(self) -> tuple[float, float, float, float]:
        return (self.a0, self.a1, self.a2, self.a3)

    # -- algebra ------------------------------------------------------

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.a0, -self.a1, -self.a2, -self.a3)

    def modulus_squared(self) -> float:
        return self.a0 ** 2 + self.a1 ** 2 + self.a2 ** 2 + self.a3 ** 2

    def modulus(self) -> float:
        # hypot scales internally, so squares never under- or overflow
        return math.hypot(self.a0, self.a1, self.a2, self.a3)

    def inverse(self) -> "Quaternion":
        """Multiplicative inverse, conjugate(q) / |q|^2."""
        m2 = self.modulus_squared()
        if m2 == 0.0:
            raise ZeroQuaternionError("the zero quaternion has no inverse")
        return Quaternion(self.a0 / m2, -self.a1 / m2, -self.a2 / m2, -self.a3 / m2)

    # -- operators ----------------------------------------------------

    @staticmethod
    def _coerce(other) -> "Quaternion | None":
        if isinstance(other, Quaternion):
            return other
        if isinstance(other, _REAL_TYPES):
            return Quaternion.from_real(other)
        if isinstance(other, complex):
            return Quaternion.from_complex(other)
        return None

    def __add__(self, other):
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return Quaternion(self.a0 + q.a0, self.a1 + q.a1, self.a2 + q.a2, self.a3 + q.a3)

    __radd__ = __add__

    def __sub__(self, other):
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return Quaternion(self.a0 - q.a0, self.a1 - q.a1, self.a2 - q.a2, self.a3 - q.a3)

    def __rsub__(self, other):
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return q - self

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.a0, -self.a1, -self.a2, -self.a3)

    def __mul__(self, other):
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        a0, a1, a2, a3 = self.a0, self.a1, self.a2, self.a3
        b0, b1, b2, b3 = q.a0, q.a1, q.a2, q.a3
        return Quaternion(
            a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
            a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
            a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
            a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
        )

    def __rmul__(self, other):
        # non-commutative: other * self with other coerced
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return q * self

    def __truediv__(self, other):
        if isinstance(other, _REAL_TYPES):
            return Quaternion(self.a0 / other, self.a1 / other, self.a2 / other, self.a3 / other)
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return self * q.inverse()

    def __abs__(self) -> float:
        return self.modulus()

    def __repr__(self) -> str:  # compact, reconstructable
        return f"Quaternion({self.a0!r}, {self.a1!r}, {self.a2!r}, {self.a3!r})"

    def __str__(self) -> str:
        parts = []
        for value, unit in zip(self.components(), ("", "i", "j", "k")):
            if value == 0.0 and parts:
                continue
            sign = "-" if value < 0 else ("+" if parts else "")
            parts.append(f"{sign}{abs(value):g}{unit}")
        return "".join(parts) or "0"


ZERO = Quaternion()
ONE = Quaternion(1.0)
I = Quaternion(0.0, 1.0)
J = Quaternion(0.0, 0.0, 1.0)
K = Quaternion(0.0, 0.0, 0.0, 1.0)


def isclose(p: Quaternion, q: Quaternion, tol: float = 1e-10) -> bool:
    """Componentwise absolute comparison."""
    return (
        abs(p.a0 - q.a0) <= tol
        and abs(p.a1 - q.a1) <= tol
        and abs(p.a2 - q.a2) <= tol
        and abs(p.a3 - q.a3) <= tol
    )


def similar(p: Quaternion, q: Quaternion, tol: float = 1e-10) -> bool:
    """Whether p and q lie in the same similarity class.

    Two quaternions are similar exactly when they share the real part and
    the modulus of the imaginary part; a conjugating witness r with
    r^-1 * q * r = p exists if and only if both quantities agree.
    """
    return (
        abs(p.real_part - q.real_part) <= tol
        and abs(p.imaginary_norm - q.imaginary_norm) <= tol
    )


def standard_representative(q: Quaternion) -> complex:
    """The unique member of q's similarity class in the closed upper half plane.

    Returns Re(q) + |Im(q)|*i as a Python complex number.
    """
    return complex(q.real_part, q.imaginary_norm)


def similarity_witness(q: Quaternion) -> Quaternion:
    """A unit quaternion w with w^-1 * q * w equal to the standard representative.

    For q with nonzero imaginary part the witness rotates the imaginary axis
    u = Im(q)/|Im(q)| onto i; real q returns 1.
    """
    norm_im = q.imaginary_norm
    if norm_im == 0.0 or (q.a2 == 0.0 and q.a3 == 0.0 and q.a1 >= 0.0):
        return ONE  # already in standard form
    u = Quaternion(0.0, q.a1 / norm_im, q.a2 / norm_im, q.a3 / norm_im)
    w = u + I
    m = w.modulus()
    if m < 1e-8:
        # u is (numerically) -i; any axis orthogonal to i conjugates -i to i
        return J
    return w / m
