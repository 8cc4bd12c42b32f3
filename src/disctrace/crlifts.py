"""Conormal bases, pointing directions, contraction transport, transversality
and direction sweeping for the lifted disc families in C^3.

C^3 carries the chart coordinates (z1, z2, z3) of PT*C^2 with
z3 = zeta2/zeta1.  The union of the lifts of the discs through the origin
is cut out by r = z3 - conj(z2)/conj(z1); its conormal along the lifted
z1-axis disc is spanned by the two holomorphic covectors omega_1, omega_2,
and by omega~_1, omega~_2 when the family center moves to (zeta0, 0).

The union M_P of the lifts of the discs through an interior center P is the
graph of z -> [conj c_P(z)] over the ball minus P, with c_P cubic in
(z, conj z), so its tangent spaces are exact.
"""

from __future__ import annotations

import numpy as np

from .discs import LiftPoint
from .errors import (
    BoundaryParameterOffCircle,
    ChartEvaluationFailure,
    CurveThroughOrigin,
    DegenerateComplement,
    PoleAtAxis,
    SingularAtCenter,
    SingularAtReflectedPole,
)
from .geometry import CP1Point, Complex2, cp1_distance

Covector3 = np.ndarray  # shape (3,), complex; paired WITHOUT conjugation
Vector3 = np.ndarray  # shape (3,), complex

_POLE_EPS = 1e-14
_FIBER_EPS = 1e-6


def m0_defining_value(z1: complex, z2: complex, z3: complex) -> complex:
    """Defining function r = z3 - conj(z2)/conj(z1) of the through-origin
    family manifold (away from z1 = 0).  Broadcasts over arrays."""
    if np.any(np.abs(z1) <= _POLE_EPS):
        raise PoleAtAxis("defining function has a pole at z1 = 0")
    return z3 - np.conj(z2) / np.conj(z1)


def omega_basis(z1: complex, z2: complex):
    """Holomorphic conormal basis (omega_1, omega_2) of the through-origin
    family: omega_1 = (z2/z1^2, -1/z1, 1), omega_2 = (1/i)(-z2/z1^2, 1/z1, 1).
    Broadcasts over arrays z1 and z2 (shape (3, *broadcast shape))."""
    # numpy's complex division, unlike Python's and unlike numpy's complex
    # square (which may fuse multiply-adds in array calls), has the same bits
    # for every argument shape: divide twice by z1, as a numpy value
    z1 = np.asarray(z1, dtype=complex)
    if np.any(np.abs(z1) <= _POLE_EPS):
        raise PoleAtAxis("omega basis has a pole at z1 = 0")
    w1 = np.array(np.broadcast_arrays(z2 / z1 / z1, -1.0 / z1, 1.0), dtype=complex)
    w2 = np.array(np.broadcast_arrays(-z2 / z1 / z1, 1.0 / z1, 1.0), dtype=complex) / 1j
    return w1, w2


def omega_tilde_basis(z1: complex, zeta0: complex):
    """Conormal basis along the lifted axis disc for the family centered at
    (zeta0, 0); the singularity sits at zeta0 and its reflected pole at
    1/conj(zeta0).  Broadcasts over arrays z1 and zeta0 (shape
    (3, *broadcast shape))."""
    # q = 1 - z1*conj(zeta0) in real arithmetic: numpy's SIMD complex
    # multiply can fuse multiply-adds, which would give array calls other
    # bits than scalar ones.  The ufunc keeps q a numpy value, so 1/q is
    # numpy's division for Python scalars too.
    x, y, s, t = np.real(z1), np.imag(z1), np.real(zeta0), np.imag(zeta0)
    p = z1 - zeta0
    q = np.subtract(1.0 - (x * s + y * t), 1j * (y * s - x * t))
    if np.any(np.abs(p) <= _POLE_EPS):
        raise SingularAtCenter("omega~ basis is singular at z1 = zeta0")
    if np.any(np.abs(q) <= _POLE_EPS):
        raise SingularAtReflectedPole("omega~ basis is singular at the reflected pole")
    w1 = np.array(np.broadcast_arrays(0.0, -1.0 / p, 1.0 / q), dtype=complex)
    w2 = np.array(np.broadcast_arrays(0.0, 1.0 / (1j * p), 1.0 / (1j * q)), dtype=complex)
    return w1, w2


def pointing_direction(z2: complex, zeta: complex) -> Vector3:
    """Inward direction, at the boundary point (zeta, 0, 0) of the lifted
    axis disc, of the lifted family through (0, z2):

        v = -(zeta, -z2, conj(z2)/conj(zeta)) / (1 + |z2|^2).

    Broadcasts over arrays zeta and z2 (shape (3, *broadcast shape)).
    """
    r = np.ravel(np.abs(zeta))
    off = np.abs(r - 1.0) > 1e-12
    if np.any(off):
        raise BoundaryParameterOffCircle(f"|zeta| = {r[np.argmax(off)]:.12f}")
    if np.any(z2 == 0):
        raise ValueError("family center must be off the axis disc (z2 != 0)")
    v = np.broadcast_arrays(zeta, -z2, np.conj(z2) / np.conj(zeta))
    # hypot gives |z2| with the same bits for scalars and arrays; numpy's
    # array abs of complex input can differ in the last bit
    return -np.array(v, dtype=complex) / (1.0 + np.hypot(z2.real, z2.imag) ** 2)


def contract(w: Covector3, v: Vector3):
    """Bilinear pairing sum(w_i * v_i), no conjugation, over the first axis:
    a complex for single vectors, an array for stacks of them."""
    s = np.sum(np.asarray(w) * np.asarray(v), axis=0)
    return complex(s) if s.ndim == 0 else s


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


def _sweep_curve(z2: complex, zeta0: complex) -> np.ndarray:
    zeta = np.exp(2j * np.pi * np.arange(256) / 256)
    w1, w2 = omega_tilde_basis(zeta, zeta0)
    v = pointing_direction(z2, zeta)
    return np.column_stack([contract(w1, v).real, contract(w2, v).real])


def direction_sweep_winding(z2: complex, zeta0: complex, zeta_Q: complex) -> int:
    """Winding number about the origin of the closed curve of dual pairing
    coordinates of the transported direction as the boundary parameter
    traverses the 256th roots of unity.  Nonzero winding means the
    direction sweeps all of the normal directions at zeta_Q."""
    if abs(zeta_Q - zeta0) <= _POLE_EPS:
        raise SingularAtCenter("target parameter coincides with the singularity")
    pts = _sweep_curve(z2, zeta0)
    norms = np.hypot(pts[:, 0], pts[:, 1])
    if np.min(norms) < 1e-12:
        raise CurveThroughOrigin("sweep curve passes through the origin")
    ang = np.angle(pts[:, 0] + 1j * pts[:, 1])
    closed = np.append(ang, ang[0])
    total = np.sum(np.mod(np.diff(closed) + np.pi, 2 * np.pi) - np.pi)
    return int(np.round(total / (2 * np.pi)))


# real directions e1, e2, i*e1, i*e2 of the base point, as rows
_BASE_DIRECTIONS = np.array([[1, 0], [0, 1], [1j, 0], [0, 1j]])


def _family_cubic(P: Complex2, z: Complex2) -> tuple[np.ndarray, np.ndarray]:
    """c_P(z) = <z - P, z> z + (1 - |z|^2)(z - P) and, as rows, its exact
    derivatives along the real base directions e1, e2, i*e1, i*e2."""
    zv = z.as_array()
    d = zv - P.as_array()
    if np.linalg.norm(d) < _FIBER_EPS:
        raise ChartEvaluationFailure("evaluation on the singular fiber")
    s = np.vdot(zv, d)  # <z - P, z>
    r = 1.0 - np.vdot(zv, zv).real
    U = _BASE_DIRECTIONS
    ds = U @ np.conj(zv) + np.conj(U) @ d  # <u, z> + <z - P, u>
    dr = -2.0 * (np.conj(U) @ zv).real  # -2 Re <z, u>
    dc = ds[:, None] * zv + dr[:, None] * d + (s + r) * U
    return s * zv + r * d, dc


def family_class(P: Complex2, z: Complex2) -> CP1Point:
    """Lift class [conj c_P(z)] at z of the straight disc through P and z.

    On the disc a + tau*b, z - P = m*b gives c_P(z) = m|b|^2 (conj(tau) a + b):
    the class of discs.lift, with no disc and no tau.  On the sphere it is
    [conj z] for every P.  Raises ChartEvaluationFailure within 1e-6 of the
    singular fiber z = P.
    """
    c, _ = _family_cubic(P, z)
    return CP1Point(np.conj(c[0]), np.conj(c[1]))


def family_tangent(P: Complex2, z: Complex2) -> np.ndarray:
    """Exact 6x4 real tangent [I4; dZ_P] at z of the lifted family through
    P, the graph of z3 = conj(c2/c1) over the ball minus P.

    Rows are (Re z1, Re z2, Re z3, Im z1, Im z2, Im z3); columns the base
    directions Re z1, Re z2, Im z1, Im z2.  Raises ChartEvaluationFailure
    on the singular fiber and where c1 = 0, outside the affine chart.
    """
    c, dc = _family_cubic(P, z)
    if abs(c[0]) <= _POLE_EPS * np.linalg.norm(c):
        raise ChartEvaluationFailure("lift leaves the affine chart z1 != 0")
    dz3 = np.conj((dc[:, 1] * c[0] - c[1] * dc[:, 0]) / c[0] ** 2)
    T = np.zeros((6, 4))
    T[[0, 1, 3, 4], [0, 1, 2, 3]] = 1.0
    T[2], T[5] = dz3.real, dz3.imag
    return T


def transversality_rank(P1: Complex2, P2: Complex2, point) -> int:
    """Numerical rank of the stacked tangent spaces of the two lifted
    families at a common boundary lift point.

    Both 4-manifolds contain the full 3-dimensional projectivized sphere
    conormal, so the rank is 5 when the families meet transversally along
    that edge and 4 when they coincide.
    """
    if not isinstance(point, LiftPoint):
        raise TypeError(f"point must be a LiftPoint, not {type(point).__name__}")
    z = point.z
    if abs(z.norm() - 1.0) > 1e-8:
        raise ChartEvaluationFailure("transversality is evaluated on the boundary")
    if cp1_distance(point.zeta, CP1Point(np.conj(z.z1), np.conj(z.z2))) > 1e-8:
        raise ChartEvaluationFailure("lift point is not on the sphere conormal")
    stacked = np.hstack([family_tangent(P, z) for P in (P1, P2)])
    s = np.linalg.svd(stacked, compute_uv=False)
    return int(np.sum(s > 1e-8 * s[0]))
