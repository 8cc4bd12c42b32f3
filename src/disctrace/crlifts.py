"""Conormal bases, pointing directions, contraction transport, transversality
and direction sweeping for the lifted disc families in C^3.

C^3 carries the chart coordinates (z1, z2, z3) of PT*C^2 with
z3 = zeta2/zeta1.  The union of the lifts of the discs through the origin
is cut out by r = z3 - conj(z2)/conj(z1); its conormal along the lifted
z1-axis disc is spanned by the two holomorphic covectors omega_1, omega_2,
and by omega~_1, omega~_2 when the family center moves to (zeta0, 0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discs import (
    LiftPoint,
    StraightDisc,
    disc_from_line,
    disc_through_two_points,
    lift,
)
from .errors import (
    BoundaryParameterOffCircle,
    ChartEvaluationFailure,
    CurveThroughOrigin,
    DegenerateComplement,
    PoleAtAxis,
    SingularAtCenter,
    SingularAtReflectedPole,
)
from .geometry import Complex2, cp1_distance

Covector3 = np.ndarray  # shape (3,), complex; paired WITHOUT conjugation
Vector3 = np.ndarray  # shape (3,), complex

_POLE_EPS = 1e-14
_FIBER_EPS = 1e-6
_FD_STEP = 1e-4


def m0_defining_value(z1: complex, z2: complex, z3: complex) -> complex:
    """Defining function r = z3 - conj(z2)/conj(z1) of the through-origin
    family manifold (away from z1 = 0)."""
    if abs(z1) <= _POLE_EPS:
        raise PoleAtAxis("defining function has a pole at z1 = 0")
    return z3 - np.conj(z2) / np.conj(z1)


def omega_basis(z1: complex, z2: complex):
    """Holomorphic conormal basis (omega_1, omega_2) of the through-origin
    family: omega_1 = (z2/z1^2, -1/z1, 1), omega_2 = (1/i)(-z2/z1^2, 1/z1, 1)."""
    if abs(z1) <= _POLE_EPS:
        raise PoleAtAxis("omega basis has a pole at z1 = 0")
    w1 = np.array([z2 / z1**2, -1.0 / z1, 1.0], dtype=complex)
    w2 = np.array([-z2 / z1**2, 1.0 / z1, 1.0], dtype=complex) / 1j
    return w1, w2


def omega_tilde_basis(z1: complex, zeta0: complex):
    """Conormal basis along the lifted axis disc for the family centered at
    (zeta0, 0); the singularity sits at zeta0 and its reflected pole at
    1/conj(zeta0)."""
    if abs(z1 - zeta0) <= _POLE_EPS:
        raise SingularAtCenter("omega~ basis is singular at z1 = zeta0")
    if abs(1.0 - z1 * np.conj(zeta0)) <= _POLE_EPS:
        raise SingularAtReflectedPole("omega~ basis is singular at the reflected pole")
    w1 = np.array(
        [0.0, -1.0 / (z1 - zeta0), 1.0 / (1.0 - z1 * np.conj(zeta0))], dtype=complex
    )
    w2 = np.array(
        [0.0, 1.0 / (1j * (z1 - zeta0)), 1.0 / (1j * (1.0 - z1 * np.conj(zeta0)))],
        dtype=complex,
    )
    return w1, w2


def pointing_direction(z2: complex, zeta: complex) -> Vector3:
    """Inward direction, at the boundary point (zeta, 0, 0) of the lifted
    axis disc, of the lifted family through (0, z2):

        v = -(zeta, -z2, conj(z2)/conj(zeta)) / (1 + |z2|^2).
    """
    if abs(abs(zeta) - 1.0) > 1e-12:
        raise BoundaryParameterOffCircle(f"|zeta| = {abs(zeta):.12f}")
    if z2 == 0:
        raise ValueError("family center must be off the axis disc (z2 != 0)")
    return -np.array([zeta, -z2, np.conj(z2) / np.conj(zeta)], dtype=complex) / (
        1.0 + abs(z2) ** 2
    )


def contract(w: Covector3, v: Vector3) -> complex:
    """Bilinear pairing sum(w_i * v_i), no conjugation."""
    return complex(np.sum(np.asarray(w) * np.asarray(v)))


def transported_direction(
    v: Vector3,
    zeta: complex,
    zeta_Q: complex,
    zeta0: complex,
    complement_basis,
) -> Vector3:
    """Transport the extendibility direction v from the boundary parameter
    zeta to the axis point zeta_Q: the real pairings with the omega~ basis
    are constant, so solve for the representative in the given complement.
    """
    w1s, w2s = omega_tilde_basis(zeta, zeta0)
    w1t, w2t = omega_tilde_basis(zeta_Q, zeta0)
    rhs = np.array([contract(w1s, v).real, contract(w2s, v).real])
    e1, e2 = complement_basis
    M = np.array(
        [
            [contract(w1t, e1).real, contract(w1t, e2).real],
            [contract(w2t, e1).real, contract(w2t, e2).real],
        ]
    )
    if np.linalg.cond(M) > 1e12:
        raise DegenerateComplement("transport system is numerically singular")
    x = np.linalg.solve(M, rhs)
    return x[0] * np.asarray(e1) + x[1] * np.asarray(e2)


def _sweep_curve(z2: complex, zeta0: complex, n: int) -> np.ndarray:
    pts = np.empty((n, 2))
    for k in range(n):
        zeta = np.exp(2j * np.pi * k / n)
        w1, w2 = omega_tilde_basis(zeta, zeta0)
        v = pointing_direction(z2, zeta)
        pts[k] = (contract(w1, v).real, contract(w2, v).real)
    return pts


def direction_sweep_winding(
    z2: complex, zeta0: complex, zeta_Q: complex, n: int = 256
) -> int:
    """Winding number about the origin of the closed curve of dual pairing
    coordinates of the transported direction as the boundary parameter
    traverses the circle.  Nonzero winding means the direction sweeps all
    of the normal directions at zeta_Q."""
    if n < 16:
        raise ValueError("need at least 16 samples")
    if abs(zeta_Q - zeta0) <= _POLE_EPS:
        raise SingularAtCenter("target parameter coincides with the singularity")
    pts = _sweep_curve(z2, zeta0, n)
    norms = np.hypot(pts[:, 0], pts[:, 1])
    if np.min(norms) < 1e-12:
        raise CurveThroughOrigin("sweep curve passes through the origin")
    ang = np.angle(pts[:, 0] + 1j * pts[:, 1])
    closed = np.append(ang, ang[0])
    total = np.sum(np.mod(np.diff(closed) + np.pi, 2 * np.pi) - np.pi)
    return int(np.round(total / (2 * np.pi)))


@dataclass(frozen=True)
class FamilyChart:
    """Local chart of the union of lifts of the discs through a fixed
    interior center: (direction chart w, disc parameter tau) -> C^3.

    Directions are v0 + w * v0_perp around the base direction v0.
    Evaluations within 1e-6 of the singular fiber over the center are
    rejected.
    """

    center: Complex2
    v0: Complex2

    def _direction(self, w: complex) -> Complex2:
        v0 = self.v0.as_array()
        v0 = v0 / np.linalg.norm(v0)
        perp = np.array([-np.conj(v0[1]), np.conj(v0[0])])
        return Complex2.from_array(v0 + w * perp)

    def disc(self, w: complex) -> StraightDisc:
        return disc_from_line(self.center, self._direction(w))

    def __call__(self, w: complex, tau: complex) -> np.ndarray:
        try:
            disc = self.disc(w)
        except Exception as exc:  # line through an interior center always meets B^2
            raise ChartEvaluationFailure(str(exc)) from exc
        tau_c = disc.parameter_of(self.center)
        if abs(tau - tau_c) < _FIBER_EPS:
            raise ChartEvaluationFailure("evaluation on the singular fiber")
        lp = lift(disc, tau)
        c3 = lp.as_c3()
        if not np.all(np.isfinite(c3)):
            raise ChartEvaluationFailure("lift leaves the affine chart z1 != 0")
        return c3

    def jacobian(self, w: complex, tau: complex) -> np.ndarray:
        """6x4 real Jacobian of the chart by Richardson-refined central
        differences: rows are (Re, Im) of the C^3 coordinates, columns the
        real directions Re w, Im w, Re tau, Im tau."""

        def central(h):
            cols = []
            for dw, dtau in ((h, 0.0), (1j * h, 0.0), (0.0, h), (0.0, 1j * h)):
                fp = _real6(self(w + dw, tau + dtau))
                fm = _real6(self(w - dw, tau - dtau))
                cols.append((fp - fm) / (2 * h))
            return np.array(cols).T

        a, b = central(_FD_STEP), central(_FD_STEP / 2)
        return (4 * b - a) / 3


def _real6(c3: np.ndarray) -> np.ndarray:
    return np.concatenate([c3.real, c3.imag])


def transversality_rank(P1: Complex2, P2: Complex2, point) -> int:
    """Numerical rank of the stacked tangent spaces of the two lifted
    families at a common boundary lift point.

    Both 4-manifolds contain the full 3-dimensional projectivized sphere
    conormal, so the rank is 5 when the families meet transversally along
    that edge and 4 when they coincide.
    """
    assert isinstance(point, LiftPoint)
    z = point.z
    if abs(z.norm() - 1.0) > 1e-8:
        raise ChartEvaluationFailure("transversality is evaluated on the boundary")
    jacs = []
    for P in (P1, P2):
        disc, _, tau_z = disc_through_two_points(P, z)
        if cp1_distance(lift(disc, tau_z).zeta, point.zeta) > 1e-8:
            raise ChartEvaluationFailure("lift point is not on this family boundary")
        jacs.append(FamilyChart(P, disc.b).jacobian(0.0, tau_z))
    stacked = np.hstack(jacs)
    s = np.linalg.svd(stacked, compute_uv=False)
    return int(np.sum(s > 1e-8 * s[0]))
