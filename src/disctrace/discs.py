"""Straight discs of the unit ball B^2 and their projectivized conormal lifts.

A straight disc is the intersection of a complex affine line with the open
ball, parametrized over the unit disc as A(tau) = a + tau*b with a
Hermitian-orthogonal to b and |a|^2 + |b|^2 = 1 (so the boundary circle
lies on the sphere).  Its lift to the projectivized cotangent space is

    A*(tau) = (a + tau*b, [tau*conj(a) + conj(b)]),

which for |tau| = 1 is the projective class of the sphere conormal
[conj(A(tau))].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CoincidentPoints, LineMissesBall, NoSolution, ZeroDirection
from .geometry import CP1Point, Complex2, _canonical_phase, hermitian_inner

_ORTHO_TOL = 1e-12
_BOUNDARY_TOL = 1e-10


@dataclass(frozen=True)
class StraightDisc:
    """Canonical straight disc tau -> a + tau*b.

    a is the foot point (closest point of the line to the origin), b the
    direction scaled so that |a|^2 + |b|^2 = 1, with canonical phase: the
    first component of b of modulus above 1e-14 is real positive.
    """

    a: Complex2
    b: Complex2

    def __post_init__(self):
        av, bv = self.a.as_array(), self.b.as_array()
        nb = np.linalg.norm(bv)
        if nb <= 0:
            raise ValueError("disc direction must be nonzero")
        if abs(np.sum(av * np.conj(bv))) > _ORTHO_TOL:
            raise ValueError("foot point is not orthogonal to the direction")
        if abs(np.vdot(av, av).real + nb**2 - 1.0) > _ORTHO_TOL:
            raise ValueError("|a|^2 + |b|^2 must be 1")

    def point(self, tau: complex) -> Complex2:
        return Complex2(self.a.z1 + tau * self.b.z1, self.a.z2 + tau * self.b.z2)

    def parameter_of(self, p: Complex2) -> complex:
        """tau with A(tau) closest to p (exact when p is on the line)."""
        d = Complex2(p.z1 - self.a.z1, p.z2 - self.a.z2)
        return hermitian_inner(d, self.b) / hermitian_inner(self.b, self.b)

    def line_distance(self, p: Complex2) -> float:
        """Hermitian distance from p to the full complex line of the disc."""
        tau = self.parameter_of(p)
        q = self.point(tau)
        return Complex2(p.z1 - q.z1, p.z2 - q.z2).norm()


@dataclass(frozen=True)
class LiftPoint:
    """A point (z, [zeta]) of the projectivized cotangent space PT*C^2."""

    z: Complex2
    zeta: CP1Point

    @property
    def z3(self) -> complex:
        """Affine chart coordinate zeta2/zeta1."""
        return self.zeta.affine

    def as_c3(self) -> np.ndarray:
        return np.array([self.z.z1, self.z.z2, self.z3], dtype=complex)


def disc_from_line(p: Complex2, v: Complex2) -> StraightDisc:
    """Straight disc cut by the line {p + t*v}."""
    vv = v.as_array()
    nv = np.linalg.norm(vv)
    if nv == 0:
        raise ZeroDirection("line direction is zero")
    pv = p.as_array()
    a = pv - (np.sum(pv * np.conj(vv)) / nv**2) * vv
    na2 = float(np.vdot(a, a).real)
    if na2 >= (1.0 - 1e-12):
        raise LineMissesBall(f"line distance to origin {np.sqrt(na2):.6f}")
    b = _canonical_phase(vv / nv) * np.sqrt(1.0 - na2)
    return StraightDisc(Complex2.from_array(a), Complex2.from_array(b))


def disc_through_two_points(p: Complex2, q: Complex2):
    """Disc through p and q with its parameters: (disc, tau_p, tau_q).

    At least one point must be interior; a second point on the sphere gets
    |tau| = 1.
    """
    dv = np.array([q.z1 - p.z1, q.z2 - p.z2], dtype=complex)
    if np.linalg.norm(dv) == 0:
        raise CoincidentPoints("disc through two points needs distinct points")
    if min(p.norm(), q.norm()) >= 1.0 - _BOUNDARY_TOL:
        raise LineMissesBall("at least one of the points must be interior")
    disc = disc_from_line(p, Complex2.from_array(dv))
    return disc, disc.parameter_of(p), disc.parameter_of(q)


def boundary_point(A: StraightDisc, theta: float) -> Complex2:
    """Boundary circle point A(e^{i theta}), on the unit sphere."""
    return A.point(np.exp(1j * theta))


def lift(A: StraightDisc, tau: complex) -> LiftPoint:
    """Lift point A*(tau) = (A(tau), [tau*conj(a) + conj(b)])."""
    zeta = tau * np.conj(A.a.as_array()) + np.conj(A.b.as_array())
    return LiftPoint(A.point(tau), CP1Point(zeta[0], zeta[1]))


def disc_from_lift_point(z: Complex2, zeta: CP1Point):
    """Invert the lift: the straight disc whose lift passes through
    (z, [zeta]), with the parameter at which it does.

    With c = conj(zeta) and s = zeta . z (bilinear), a lift point of the
    disc a + tau*b has c proportional to conj(tau)*a + b and z = a + tau*b,
    so c - conj(s)*z is proportional to (1 - |tau|^2)*b: the direction of
    the disc through z.  It is nonzero for every interior z, so every
    (z, [zeta]) with |z| < 1 is a lift point.  Raises NoSolution when the
    lift of the recovered disc misses [zeta] by 1e-10 or more, and
    LineMissesBall from disc_from_line when |z|^2 is within 1e-12 of 1.
    """
    if z.norm() >= 1.0:
        raise ValueError("base point must be interior")
    zv, zc = z.as_array(), zeta.as_array()
    s = complex(np.sum(zc * zv))
    disc = disc_from_line(z, Complex2.from_array(np.conj(zc) - np.conj(s) * zv))
    tau0 = disc.parameter_of(z)
    # cp1_distance, in its cross-product form, from the lift class
    # [tau0*conj(a) + conj(b)] of the recovered disc to the unit zeta
    w = tau0 * np.conj(disc.a.as_array()) + np.conj(disc.b.as_array())
    err = min(1.0, float(abs(w[0] * zc[1] - w[1] * zc[0]) / np.linalg.norm(w)))
    if err >= 1e-10:
        raise NoSolution(
            f"no disc through ({z.z1}, {z.z2}) lifting to the given class "
            f"(residual {err:.3e})"
        )
    return disc, tau0
