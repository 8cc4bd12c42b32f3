"""Hermitian geometry of C^2, the projective line, and ball automorphisms.

Conventions used throughout the package:

* the Hermitian inner product is conjugate-linear in the SECOND slot,
  ``<u, v> = u1*conj(v1) + u2*conj(v2)``;
* a CP^1 point is stored as a unit vector whose first component of modulus
  above ``PHASE_EPS`` is real positive, so projective equality is plain
  componentwise comparison: exact when one representative is an exact real
  multiple of the other (each t*zeta_i representable, as for (1, 1j) and
  (3, 3j)), and to roundoff otherwise;
* a ball automorphism is stored as (involution at a) composed with a
  unitary.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

PHASE_EPS = 1e-14


@dataclass(frozen=True, slots=True)
class Complex2:
    """A point of C^2 with coordinates (z1, z2), stored as Python complex."""

    z1: complex
    z2: complex

    def __post_init__(self):
        # cmath.isfinite raises TypeError for a str, which complex() would parse
        if not (cmath.isfinite(self.z1) and cmath.isfinite(self.z2)):
            raise ValueError("Complex2 components must be finite")
        object.__setattr__(self, "z1", complex(self.z1))
        object.__setattr__(self, "z2", complex(self.z2))

    def __sub__(self, other: "Complex2") -> "Complex2":
        return Complex2(self.z1 - other.z1, self.z2 - other.z2)

    def as_array(self) -> np.ndarray:
        return np.array([self.z1, self.z2], dtype=complex)

    def norm(self) -> float:
        return math.sqrt(abs(self.z1) ** 2 + abs(self.z2) ** 2)


def hermitian_inner(u: Complex2, v: Complex2) -> complex:
    """Inner product <u, v>, conjugate-linear in v."""
    return u.z1 * v.z1.conjugate() + u.z2 * v.z2.conjugate()


def _canonical_phase(c1: complex, c2: complex) -> complex:
    """The unit phase that makes the first of c1, c2 of modulus above
    PHASE_EPS real positive (1.0 if neither is)."""
    for c in (c1, c2):
        if abs(c) > PHASE_EPS:
            return c.conjugate() / abs(c)
    return 1.0


@dataclass(frozen=True, slots=True)
class CP1Point:
    """A point of the complex projective line, stored on its canonical
    unit-norm representative."""

    zeta1: complex
    zeta2: complex

    def __post_init__(self):
        z1, z2 = self.zeta1, self.zeta2
        # cmath.isfinite raises TypeError for a str, which complex() would parse
        if not (cmath.isfinite(z1) and cmath.isfinite(z2) and (z1 or z2)):
            raise ValueError("CP1Point needs a nonzero finite representative")
        # divided by its largest real or imaginary part, the representative
        # has moduli in [1, 2]: hypot neither under- nor overflows
        s = max(abs(z1.real), abs(z1.imag), abs(z2.real), abs(z2.imag))
        z1, z2 = complex(z1) / s, complex(z2) / s
        n = math.hypot(abs(z1), abs(z2))
        z1, z2 = z1 / n, z2 / n
        phase = _canonical_phase(z1, z2)
        object.__setattr__(self, "zeta1", z1 * phase)
        object.__setattr__(self, "zeta2", z2 * phase)

    def as_array(self) -> np.ndarray:
        return np.array([self.zeta1, self.zeta2], dtype=complex)

    @property
    def affine(self) -> complex:
        """Affine coordinate z3 = zeta2/zeta1 (infinite at [0:1])."""
        if abs(self.zeta1) <= PHASE_EPS:
            return complex(np.inf)
        return self.zeta2 / self.zeta1


def cp1_distance(p: CP1Point, q: CP1Point) -> float:
    """sin of the Fubini-Study angle: sqrt(1 - |<p,q>|^2) on unit
    representatives, evaluated in the cancellation-free cross-product form
    |p1*q2 - p2*q1| (equal by the Lagrange identity).  Zero iff p = q as
    projective points."""
    return float(min(1.0, abs(p.zeta1 * q.zeta2 - p.zeta2 * q.zeta1)))


def _involution(a: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The standard ball involution phi_a with phi_a(a) = 0, phi_a(0) = a."""
    na2 = float(np.vdot(a, a).real)
    if na2 == 0.0:
        return -z
    s = np.sqrt(1.0 - na2)
    za = complex(np.sum(z * np.conj(a)))  # <z, a>
    pz = (za / na2) * a
    qz = z - pz
    return (a - pz - s * qz) / (1.0 - za)


@dataclass(frozen=True)
class BallAutomorphism:
    """Automorphism of the unit ball B^2, acting as z -> phi_a(U z)."""

    a: Complex2
    U: np.ndarray

    def __post_init__(self):
        U = np.asarray(self.U, dtype=complex)
        if U.shape != (2, 2):
            raise ValueError("unitary factor must be 2x2")
        if np.linalg.norm(U.conj().T @ U - np.eye(2)) > 1e-10:
            raise ValueError("U is not unitary")
        if self.a.norm() >= 1.0:
            raise ValueError("automorphism center must be interior")
        object.__setattr__(self, "U", U)


def apply_automorphism(phi: BallAutomorphism, z: Complex2) -> Complex2:
    """Apply phi to a point of the closed ball."""
    if z.norm() > 1.0 + 1e-12:
        raise ValueError(f"|z| = {z.norm():.6f} > 1")
    w = _involution(phi.a.as_array(), phi.U @ z.as_array())
    return Complex2(*w)
