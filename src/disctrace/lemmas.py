"""The lemma suite: named numerical checks of the disc, lift and conormal
geometry that the rigidity argument rests on, each against a fixed
threshold, and the random points, directions and discs they are drawn from.

lemma_suite takes only a seed; every sample count is fixed.  The checks
use numpy's Generator, so running them loads numpy.random, which the
kernel pipeline in verification does not.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import crlifts
from .discs import (
    StraightDisc,
    _lift_class,
    boundary_point,
    disc_from_line,
    disc_through_two_points,
    lift,
)
from .geometry import (
    BallAutomorphism,
    CP1Point,
    Complex2,
    apply_automorphism,
    cp1_distance,
)


@dataclass(frozen=True)
class LemmaCheck:
    name: str
    value: float
    threshold: float
    passed: bool
    detail: str = ""

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class LemmaSuiteReport:
    seed: int
    checks: list[LemmaCheck]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "schema": "v1",
            "seed": self.seed,
            "all_passed": self.all_passed,
            "checks": [c.to_json_dict() for c in self.checks],
        }


def random_interior_point(rng, rmax: float = 0.9) -> Complex2:
    while True:
        v = rng.uniform(-rmax, rmax, size=4)
        p = Complex2(complex(v[0], v[1]), complex(v[2], v[3]))
        if 1e-3 < p.norm() < rmax:
            return p


def random_direction(rng) -> Complex2:
    v = rng.normal(size=4)
    v = v / np.linalg.norm(v)
    return Complex2(complex(v[0], v[1]), complex(v[2], v[3]))


def random_disc(rng) -> StraightDisc:
    return disc_from_line(random_interior_point(rng), random_direction(rng))


def _lift_curve_samples(disc: StraightDisc, taus) -> tuple[np.ndarray, np.ndarray]:
    """Base points a + tau*b and unit representatives of the lift classes
    from discs._lift_class, the formula of lift, as (len(taus), 2) arrays."""
    taus = np.asarray(taus)
    base = disc.a.as_array() + taus[:, None] * disc.b.as_array()
    zeta = np.column_stack(_lift_class(disc, taus))
    zeta /= np.linalg.norm(zeta, axis=1, keepdims=True)
    return base, zeta


def _max_class_distance(zeta: np.ndarray, ref: np.ndarray) -> float:
    """Largest cp1_distance between the unit rows of zeta and those of ref
    (broadcast)."""
    cross = zeta[:, 0] * ref[..., 1] - zeta[:, 1] * ref[..., 0]
    return float(min(1.0, np.max(np.abs(cross))))


def _lift_distance_features(
    base: np.ndarray, zeta: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Real rows x, y (n x 10) of lift samples with base points b and unit
    classes zeta such that x_i . y'_j = |b_i - b'_j|^2 + 1 - |<zeta_i, zeta'_j>|^2
    for the rows y' of a second curve.  With u = zeta1*conj(zeta2),
    |<zeta, zeta'>|^2 = |zeta1|^2 |zeta1'|^2 + |zeta2|^2 |zeta2'|^2 + 2 Re(u conj(u'))."""
    u = zeta[:, 0] * np.conj(zeta[:, 1])
    m = np.abs(zeta) ** 2
    nb = np.sum(np.abs(base) ** 2, axis=1)
    one = np.ones(len(base))
    x = np.column_stack([base.real, base.imag, m, u.real, u.imag, nb, one])
    y = np.column_stack(
        [-2 * base.real, -2 * base.imag, -m, -2 * u.real, -2 * u.imag, one, nb + 1.0]
    )
    return x, y


def lift_pair_min_distance(d1: StraightDisc, d2: StraightDisc, P: Complex2) -> float:
    """Minimum combined distance sqrt(|b - b'|^2 + 1 - |<zeta, zeta'>|^2)
    between the two lift curves over interior parameters on 6 radii and 48
    angles, excluding base points within 1e-3 of the common point P.  All
    pairs come from one real matrix product of per-sample features."""
    rr = np.linspace(0.05, 0.95, 6)
    th = 2 * np.pi * np.arange(48) / 48
    taus = (rr[:, None] * np.exp(1j * th)[None, :]).ravel()
    b1, z1 = _lift_curve_samples(d1, taus)
    b2, z2 = _lift_curve_samples(d2, taus)
    Pv = P.as_array()
    keep1 = np.linalg.norm(b1 - Pv, axis=1) > 1e-3
    keep2 = np.linalg.norm(b2 - Pv, axis=1) > 1e-3
    x, _ = _lift_distance_features(b1[keep1], z1[keep1])
    _, y = _lift_distance_features(b2[keep2], z2[keep2])
    # the expansion cancels: roundoff can take the minimum below zero
    return float(np.sqrt(max(0.0, np.min(x @ y.T))))


# unit directions e_i, (e_i + e_j)/sqrt(2) and (e_i + i e_j)/sqrt(2), i < j:
# together they determine the Levi form of a function on C^3
_LEVI_DIRECTIONS = np.array(
    [*np.eye(3)]
    + [
        (np.eye(3)[i] + s * np.eye(3)[j]) / np.sqrt(2)
        for s in (1, 1j)
        for i, j in ((0, 1), (0, 2), (1, 2))
    ]
)


def _circle_mean_defect(u, centres: np.ndarray) -> float:
    """Largest |mean of u over a circle - u at its centre| over the circles
    of radius 0.1 in the _LEVI_DIRECTIONS about the rows of centres, from 32
    samples each; u maps (..., 3) arrays to real (...) arrays.

    A pluriharmonic u is harmonic on every complex line, so its defect is
    roundoff plus the aliasing error of the trapezoidal mean.  A smooth u
    with Levi form L reads 0.01 * L(v, v) + O(1e-4) in direction v."""
    t = 0.1 * np.exp(2j * np.pi * np.arange(32) / 32)
    w = centres[:, None, None, :] + t[:, None] * _LEVI_DIRECTIONS[:, None, :]
    means = np.mean(u(w), axis=2)
    return float(np.max(np.abs(means - u(centres)[:, None])))


def _real_span_solve(w1, w2, wt) -> tuple[np.ndarray, float]:
    """Real coefficients x of the least-squares fit x0*w1 + x1*w2 ~ wt in the
    z2, z3 components (a 4x2 real system), and its residual norm."""
    A = np.array([[w1[1], w2[1]], [w1[2], w2[2]]])
    Ar = np.vstack([A.real, A.imag])
    bvec = np.array([wt[1], wt[2]])
    br = np.concatenate([bvec.real, bvec.imag])
    x = np.linalg.lstsq(Ar, br, rcond=None)[0]
    return x, float(np.linalg.norm(Ar @ x - br))


def lemma_suite(seed: int = 0) -> LemmaSuiteReport:
    """Run the lemma-level numerical checks: disc and lift structure,
    conormal-basis identities, pluriharmonicity, transversality, sweeping."""
    rng = np.random.default_rng(seed)
    checks: list[LemmaCheck] = []

    def add(name, value, threshold, detail="", invert=False):
        ok = value > threshold if invert else value <= threshold
        checks.append(LemmaCheck(name, float(value), float(threshold), bool(ok), detail))

    # discs: sphere attachment of the boundary circle
    worst = 0.0
    th = 2 * np.pi * np.arange(256) / 256
    circle = np.exp(1j * th)
    for _ in range(100):
        pts, _ = _lift_curve_samples(random_disc(rng), circle)
        worst = max(worst, float(np.max(np.abs(np.sum(np.abs(pts) ** 2, axis=1) - 1))))
    add("disc_sphere_attachment", worst, 1e-12, "max | |A(e^it)|^2 - 1 |")

    # discs: canonicalization is symmetric in the two points
    worst = 0.0
    for _ in range(100):
        p, q = random_interior_point(rng), random_interior_point(rng)
        if (p - q).norm() < 1e-6:
            continue
        dpq, _, _ = disc_through_two_points(p, q)
        dqp, _, _ = disc_through_two_points(q, p)
        da, db = dpq.a - dqp.a, dpq.b - dqp.b
        worst = max(worst, abs(da.z1), abs(da.z2), abs(db.z1), abs(db.z2))
    add("disc_canonicalization_symmetry", worst, 1e-12)

    # lifts of discs through the origin are constant in tau
    worst = 0.0
    taus = 0.9 * circle[::8]
    for _ in range(200):
        disc = disc_from_line(Complex2(0, 0), random_direction(rng))
        _, zeta = _lift_curve_samples(disc, taus)
        ref = np.conj(disc.b.as_array())
        worst = max(worst, _max_class_distance(zeta, ref / np.linalg.norm(ref)))
    add("lift_constant_through_origin", worst, 1e-12)

    # boundary lift equals the sphere conormal
    worst = 0.0
    for _ in range(200):
        pts, zeta = _lift_curve_samples(random_disc(rng), circle[::8])
        ref = np.conj(pts) / np.linalg.norm(pts, axis=1, keepdims=True)
        worst = max(worst, _max_class_distance(zeta, ref))
    add("boundary_lift_is_conormal", worst, 1e-12)

    # lift injectivity: distinct discs through one point have disjoint lifts
    worst = np.inf
    for _ in range(200):
        P = random_interior_point(rng)
        d1 = disc_from_line(P, random_direction(rng))
        d2 = disc_from_line(P, random_direction(rng))
        if cp1_distance(
            CP1Point(d1.b.z1, d1.b.z2), CP1Point(d2.b.z1, d2.b.z2)
        ) < 1e-2:
            continue
        worst = min(worst, lift_pair_min_distance(d1, d2, P))
    add("lift_injectivity", worst, 1e-6, "min lift-curve distance", invert=True)

    # automorphisms map straight discs to straight discs
    worst = 0.0
    for _ in range(20):
        disc = random_disc(rng)
        a = random_interior_point(rng, rmax=0.6)
        q = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        U = np.linalg.qr(q)[0]
        phi = BallAutomorphism(a, U)
        imgs = [apply_automorphism(phi, boundary_point(disc, t)) for t in th[::4]]
        sphere_res = max(abs(w.norm() - 1.0) for w in imgs)
        img_disc = disc_from_line(imgs[0], imgs[1] - imgs[0])
        line_res = max(img_disc.line_distance(w) for w in imgs)
        worst = max(worst, float(sphere_res), float(line_res))
    add("automorphism_disc_equivariance", worst, 1e-10)

    # omega basis is holomorphic along the lifted axis disc once its simple
    # pole at the origin is cleared
    worst = 0.0
    nfft = 256
    circle = np.exp(2j * np.pi * np.arange(nfft) / nfft)
    for r in (0.3, 0.6, 0.9):
        z1 = r * circle
        c = np.fft.fft(z1 * np.array(crlifts.omega_basis(z1, 0.0))) / nfft
        worst = max(worst, float(np.max(np.abs(c[..., nfft // 2 :]))))
    add(
        "omega_holomorphy_fft",
        worst,
        1e-10,
        "negative Fourier modes of z1 * omega on circles",
    )

    # omega~ lies in the real span of omega on the boundary circle
    worst = 0.0
    for _ in range(50):
        z1 = np.exp(2j * np.pi * rng.uniform())
        zeta0 = 0.8 * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
        w1, w2 = crlifts.omega_basis(z1, 0.0)
        for wt in crlifts.omega_tilde_basis(z1, zeta0):
            worst = max(worst, _real_span_solve(w1, w2, wt)[1])
    add("span_equality_boundary", worst, 1e-10, "real 2x2 solve residual")

    # instance: at z1 = 1, zeta0 = 0.5 the first tilde covector is 2*omega_1
    w1, w2 = crlifts.omega_basis(1.0, 0.0)
    wt1, _ = crlifts.omega_tilde_basis(1.0, 0.5)
    x, _ = _real_span_solve(w1, w2, wt1)
    add(
        "span_equality_instance",
        float(np.max(np.abs(x - np.array([2.0, 0.0])))),
        1e-10,
        f"coefficients {x.tolist()}",
    )

    # the defining function of the through-origin family is pluriharmonic:
    # Re r has the mean-value property on every complex line
    centres = np.array(
        [
            [
                (0.5 + 0.5 * rng.uniform()) * np.exp(2j * np.pi * rng.uniform()),
                0.5 * rng.uniform() * np.exp(2j * np.pi * rng.uniform()),
                rng.normal() + 1j * rng.normal(),
            ]
            for _ in range(20)
        ]
    )
    worst = _circle_mean_defect(
        lambda w: crlifts.m0_defining_value(w[..., 0], w[..., 1], w[..., 2]).real,
        centres,
    )
    add("m0_pluriharmonicity", worst, 1e-12, "max |circle mean - centre value| of Re r")

    # contraction pairings are real on the circle and match the derived
    # closed forms
    u = rng.uniform(size=(1000, 5))
    z2 = (0.05 + 0.9 * u[:, 0]) * np.exp(2j * np.pi * u[:, 1])
    zeta = np.exp(2j * np.pi * u[:, 2])
    zeta0 = 0.9 * u[:, 3] * np.exp(2j * np.pi * u[:, 4])
    keep = np.abs(zeta - zeta0) >= 1e-3
    z2, zeta, zeta0 = z2[keep], zeta[keep], zeta0[keep]
    v = crlifts.pointing_direction(z2, zeta)
    wt1, wt2 = crlifts.omega_tilde_basis(zeta, zeta0)
    c1 = crlifts.contract(wt1, v)
    c2 = crlifts.contract(wt2, v)
    w = z2 / (zeta - zeta0)
    scale = 1.0 + np.hypot(z2.real, z2.imag) ** 2  # as in pointing_direction
    worst_im = np.max(np.abs([c1.imag, c2.imag]), initial=0.0)
    worst_id = np.max(
        np.abs([c1.real + 2 * w.real / scale, c2.real - 2 * w.imag / scale]),
        initial=0.0,
    )
    add("contraction_realness", worst_im, 1e-12)
    add("contraction_identities", worst_id, 1e-10, "derived +-2 Re/Im closed forms")

    # transversality of the two lifted families along the shared conormal
    # edge.  Both families contain the full 3-dimensional edge, so the
    # stacked tangents top out at rank 5: the pointing direction of one
    # family escapes the tangent space of the other.  Identical families
    # stay at rank 4.
    ranks = []
    while len(ranks) < 100:
        P1 = random_interior_point(rng, rmax=0.7)
        P2 = random_interior_point(rng, rmax=0.7)
        if (P1 - P2).norm() < 0.05:
            continue
        disc1 = disc_from_line(P1, random_direction(rng))
        if disc1.line_distance(P2) < 0.05:
            continue  # boundary point must not be collinear with the centers
        t = rng.uniform(0, 2 * np.pi)
        point = lift(disc1, np.exp(1j * t))
        if abs(point.zeta.zeta1) < 0.1:
            continue  # stay inside the affine chart
        ranks.append(crlifts.transversality_rank(P1, P2, point))
    degenerate = crlifts.transversality_rank(
        Complex2(0.5, 0),
        Complex2(0.5, 0),
        lift(disc_from_line(Complex2(0.5, 0), Complex2(1, 0)), 1.0),
    )
    add(
        "transversality_rank",
        1.0 if all(r == 5 for r in ranks) and degenerate == 4 else 0.0,
        0.5,
        f"ranks in {sorted(set(ranks))} over {len(ranks)} scenes, "
        f"degenerate rank {degenerate}",
        invert=True,
    )

    # the transported direction sweeps all normal directions: nonzero winding
    windings = []
    for _ in range(100):
        z2 = (0.1 + 0.8 * rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        zeta0 = 0.8 * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
        windings.append(crlifts.direction_sweep_winding(z2, zeta0))
    nonzero = all(w != 0 for w in windings)
    add(
        "direction_sweep_winding",
        1.0 if nonzero else 0.0,
        0.5,
        f"windings in {sorted(set(windings))}",
        invert=True,
    )
    w_inst = crlifts.direction_sweep_winding(0.5, 0.5)
    add(
        "winding_instance",
        1.0 if w_inst in (-1, 1) else 0.0,
        0.5,
        f"winding {w_inst} at z2=0.5, zeta0=0.5",
        invert=True,
    )

    return LemmaSuiteReport(seed, checks)
