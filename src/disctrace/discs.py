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

import cmath
import math
from dataclasses import dataclass

from .errors import CollinearPoints, LineMissesBall, NoSolution
from .geometry import CP1Point, Complex2, _canonical_phase, _norm, _norm2, hermitian_inner

_ORTHO_TOL = 1e-12
_BOUNDARY_TOL = 1e-10
# nearer the sphere than |z|^2 = 1 - LINE_MARGIN, a disc parameter rounds to |tau| >= 1
LINE_MARGIN = 1e-12


@dataclass(frozen=True, slots=True)
class StraightDisc:
    """Canonical straight disc tau -> a + tau*b.

    a is the foot point (closest point of the line to the origin), b the
    direction scaled so that |a|^2 + |b|^2 = 1, with canonical phase: the
    first component of b of modulus above 1e-14 is real positive.
    """

    a: Complex2
    b: Complex2

    def __post_init__(self):
        a, b = self.a, self.b
        # _norm2 is inf where a square overflows: a ValueError below, not an
        # OverflowError
        nb2 = _norm2(b.z1, b.z2)
        if nb2 <= 0:
            raise ValueError("disc direction must be nonzero")
        if abs(hermitian_inner(a, b)) > _ORTHO_TOL:
            raise ValueError("foot point is not orthogonal to the direction")
        if abs(_norm2(a.z1, a.z2) + nb2 - 1.0) > _ORTHO_TOL:
            raise ValueError("|a|^2 + |b|^2 must be 1")

    def point(self, tau: complex) -> Complex2:
        return Complex2(self.a.z1 + tau * self.b.z1, self.a.z2 + tau * self.b.z2)

    def parameter_of(self, p: Complex2) -> complex:
        """tau with A(tau) closest to p (exact when p is on the line)."""
        a, b = self.a, self.b
        d = (p.z1 - a.z1) * b.z1.conjugate() + (p.z2 - a.z2) * b.z2.conjugate()
        return d / _norm2(b.z1, b.z2)

    def line_distance(self, p: Complex2) -> float:
        """Hermitian distance from p to the full complex line of the disc."""
        tau = self.parameter_of(p)
        d1 = p.z1 - (self.a.z1 + tau * self.b.z1)
        d2 = p.z2 - (self.a.z2 + tau * self.b.z2)
        return _norm(d1, d2)


@dataclass(frozen=True, slots=True)
class LiftPoint:
    """A point (z, [zeta]) of the projectivized cotangent space PT*C^2."""

    z: Complex2
    zeta: CP1Point

    @property
    def z3(self) -> complex:
        """Affine chart coordinate zeta2/zeta1."""
        return self.zeta.affine


def disc_from_line(p: Complex2, v: Complex2) -> StraightDisc:
    """Straight disc cut by the line {p + t*v}."""
    nv = v.norm()
    if nv == 0:
        raise ValueError("line direction is zero")
    if nv > 1e150:  # nv**2 would overflow; v / nv spans the same line
        v = Complex2(v.z1 / nv, v.z2 / nv)
        nv = v.norm()
    t = hermitian_inner(p, v) / nv**2
    a1, a2 = p.z1 - t * v.z1, p.z2 - t * v.z2
    na2 = _norm2(a1, a2)
    if na2 >= 1.0 - LINE_MARGIN:
        raise LineMissesBall(f"line distance to origin {_norm(a1, a2):.6f}")
    u1, u2 = v.z1 / nv, v.z2 / nv
    phase, nb = _canonical_phase(u1, u2), math.sqrt(1.0 - na2)
    return StraightDisc(Complex2(a1, a2), Complex2(u1 * phase * nb, u2 * phase * nb))


def disc_through_two_points(p: Complex2, q: Complex2):
    """Disc through p and q with its parameters: (disc, tau_p, tau_q).

    At least one point must be interior; a second point on the sphere gets
    |tau| = 1.  Equal points, and distinct points whose difference has a
    norm that underflows to 0, raise CollinearPoints, each with its own
    message.
    """
    dv = q - p
    if dv.norm() == 0:
        raise CollinearPoints(
            "disc through two points needs distinct points" if p == q else
            "disc through two points needs points farther apart: their "
            "difference underflows"
        )
    if min(p.norm(), q.norm()) >= 1.0 - _BOUNDARY_TOL:
        raise LineMissesBall("at least one of the points must be interior")
    disc = disc_from_line(p, dv)
    return disc, disc.parameter_of(p), disc.parameter_of(q)


def boundary_point(A: StraightDisc, theta: float) -> Complex2:
    """Boundary circle point A(e^{i theta}), on the unit sphere."""
    return A.point(cmath.exp(1j * theta))


def _lift_class(A: StraightDisc, tau: complex) -> tuple[complex, complex]:
    """Unnormalized representative tau*conj(a) + conj(b) of the lift class."""
    return (
        tau * A.a.z1.conjugate() + A.b.z1.conjugate(),
        tau * A.a.z2.conjugate() + A.b.z2.conjugate(),
    )


def lift(A: StraightDisc, tau: complex) -> LiftPoint:
    """Lift point A*(tau) = (A(tau), [tau*conj(a) + conj(b)])."""
    return LiftPoint(A.point(tau), CP1Point(*_lift_class(A, tau)))


def disc_from_lift_point(z: Complex2, zeta: CP1Point):
    """Invert the lift: the straight disc whose lift passes through
    (z, [zeta]), with the parameter at which it does.

    With c = conj(zeta) and s = zeta . z (bilinear), a lift point of the
    disc a + tau*b has c proportional to conj(tau)*a + b and z = a + tau*b,
    so c - conj(s)*z is proportional to (1 - |tau|^2)*b: the direction of
    the disc through z.  It is nonzero for every interior z, so every
    (z, [zeta]) with |z| < 1 is a lift point.  Raises NoSolution when the
    lift of the recovered disc misses [zeta] by 1e-10 or more, and
    LineMissesBall from disc_from_line when |z|^2 is within LINE_MARGIN of 1.
    """
    if z.norm() >= 1.0:
        raise ValueError("base point must be interior")
    zeta1, zeta2 = zeta.zeta1, zeta.zeta2
    sc = (zeta1 * z.z1 + zeta2 * z.z2).conjugate()
    direction = Complex2(zeta1.conjugate() - sc * z.z1, zeta2.conjugate() - sc * z.z2)
    disc = disc_from_line(z, direction)
    tau0 = disc.parameter_of(z)
    # cp1_distance, in its cross-product form, from the lift class
    # [tau0*conj(a) + conj(b)] of the recovered disc to the unit zeta
    w1, w2 = _lift_class(disc, tau0)
    err = min(1.0, abs(w1 * zeta2 - w2 * zeta1) / _norm(w1, w2))
    if err >= 1e-10:
        raise NoSolution(
            f"no disc through ({z.z1}, {z.z2}) lifting to the given class "
            f"(residual {err:.3e})"
        )
    return disc, tau0
