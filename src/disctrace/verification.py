"""Desk-scale verification experiments.

The central experiment linearizes the separate-extendibility hypothesis:
for families of straight discs through interior points, stack the negative
Fourier coefficients of every reduced sphere monomial along every sampled
disc into a moment matrix.  Its nullspace is the space of polynomials that
extend along all sampled discs; for three non-collinear points it must
coincide with the holomorphic trace span.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import crlifts
from .boundary import (
    HermitianPolynomial,
    gram_matrix,
    holomorphic_basis,
    reduced_basis,
)
from .discs import (
    StraightDisc,
    boundary_point,
    disc_from_line,
    disc_through_two_points,
    lift,
)
from .errors import CollinearPoints, DegenerateSample
from .geometry import (
    BallAutomorphism,
    CP1Point,
    Complex2,
    apply_automorphism,
    cp1_distance,
)
from .moments import _boundary_dft, extension_value

GOLDEN_ANGLE = np.pi * (3.0 - np.sqrt(5.0))
DEFAULT_SVD_TOL = 1e-8
SPECTRAL_GAP_MIN = 1e3


def sample_disc_family(P: Complex2, n: int, seed: int) -> list[StraightDisc]:
    """n distinct discs through P with directions from a jittered Fibonacci
    lattice on the direction sphere; deterministic in (P, n, seed)."""
    if n < 1:
        raise ValueError("need at least one disc")
    rng = np.random.default_rng(seed)
    jitter = rng.normal(scale=0.01, size=(n, 2))
    discs = []
    for i in range(n):
        c = 1.0 - 2.0 * (i + 0.5) / n + jitter[i, 0] / max(n, 8)
        c = float(np.clip(c, -1.0, 1.0))
        half = np.arccos(c) / 2.0
        phi = GOLDEN_ANGLE * i + jitter[i, 1]
        v = Complex2(np.cos(half), np.sin(half) * np.exp(1j * phi))
        discs.append(disc_from_line(P, v))
    return discs


@dataclass(frozen=True)
class MomentMatrix:
    """Rows: (disc index, negative degree k in 1..d); columns: reduced
    basis monomials; entry = Laurent coefficient at -k of the monomial
    restricted to the disc."""

    matrix: np.ndarray
    degree: int
    discs: list[StraightDisc]
    basis: list[tuple[int, int, int, int]]


# working-set cap of one assembly block, in bytes of complex samples
_BLOCK_BYTES = 4 << 20


def build_moment_matrix(d: int, discs: list[StraightDisc]) -> MomentMatrix:
    """Moment matrix of all reduced monomials of degree <= d along the
    given discs.

    The coefficients -1..-d of every non-holomorphic monomial come from
    moments._boundary_dft, the boundary DFT that the moment test shares,
    which is exact for these Laurent polynomials (restrict_to_disc is the
    scalar oracle).  Holomorphic monomials have no negative terms: their
    columns are exactly zero.  Discs are processed in blocks of at most
    _BLOCK_BYTES of samples.
    """
    if d < 1:
        raise ValueError("degree must be at least 1")
    if not discs:
        raise ValueError("need at least one disc")
    basis = reduced_basis(d)
    e = np.array(basis)
    nh = np.flatnonzero(e[:, 2] + e[:, 3] > 0)
    e = e[nh]
    a = np.array([disc.a.as_array() for disc in discs])
    b = np.array([disc.b.as_array() for disc in discs])
    N = 2 * d + 2
    out = np.zeros((len(discs) * d, len(basis)), dtype=complex)
    step = max(1, _BLOCK_BYTES // (16 * N * len(nh)))
    for lo in range(0, len(discs), step):
        hi = min(lo + step, len(discs))
        coeffs = _boundary_dft(a[lo:hi], b[lo:hi], e, d)[:, -1 : -d - 1 : -1, :]
        coeffs /= N
        out[lo * d : hi * d, nh] = coeffs.reshape(-1, len(nh))
    return MomentMatrix(out, d, list(discs), basis)


@dataclass(frozen=True)
class KernelReport:
    """Outcome of a moment-matrix nullspace experiment."""

    kernel_dimension: int
    expected_holomorphic_dimension: int
    max_principal_angle: float | None
    singular_values: np.ndarray
    kernel_basis: np.ndarray  # columns: coefficient vectors over the basis
    basis: list[tuple[int, int, int, int]]
    config: dict = field(default_factory=dict)

    @property
    def spectral_gap(self) -> float:
        s = self.singular_values
        rank = len(s) - self.kernel_dimension
        if not 0 < rank < len(s) or s[rank] == 0:
            return float("inf")
        return float(s[rank - 1] / s[rank])

    def kernel_polynomials(self) -> list[HermitianPolynomial]:
        out = []
        for j in range(self.kernel_basis.shape[1]):
            out.append(
                HermitianPolynomial(
                    {k: self.kernel_basis[i, j] for i, k in enumerate(self.basis)}
                )
            )
        return out

    def to_json_dict(self) -> dict:
        return {
            "schema": "v1",
            "config": self.config,
            "kernel_dimension": self.kernel_dimension,
            "holomorphic_dimension": self.expected_holomorphic_dimension,
            "max_principal_angle": self.max_principal_angle,
            "singular_values": [float(s) for s in self.singular_values],
        }


def _principal_angles_metric(A: np.ndarray, B: np.ndarray, L: np.ndarray) -> np.ndarray:
    """Principal angles between the column spans of A and B in the inner
    product with Cholesky factor L (G = L L^H), ascending.

    Small angles are taken from the sine-based residual SVD, which stays
    accurate where arccos of a cosine near 1 loses half the digits.
    """
    Qa = np.linalg.qr(L.conj().T @ A)[0]
    Qb = np.linalg.qr(L.conj().T @ B)[0]
    C = Qa.conj().T @ Qb
    cosines = np.sort(np.linalg.svd(C, compute_uv=False))[::-1]
    sines = np.sort(np.linalg.svd(Qb - Qa @ C, compute_uv=False))[: len(cosines)]
    angles = np.where(
        cosines > 0.99,
        np.arcsin(np.clip(sines, 0.0, 1.0)),
        np.arccos(np.clip(cosines, -1.0, 1.0)),
    )
    return np.sort(angles)


def _coordinate_span(basis, members) -> np.ndarray:
    """Column matrix selecting the given multi-indices as coordinate
    directions in the basis."""
    pos = {k: i for i, k in enumerate(basis)}
    M = np.zeros((len(basis), len(members)))
    for j, k in enumerate(members):
        M[pos[k], j] = 1.0
    return M


def _nullspace_report(
    matrix: MomentMatrix,
    svd_tol: float,
    predicted_span: np.ndarray | None,
    config: dict,
) -> KernelReport:
    M = matrix.matrix
    norms = np.linalg.norm(M, axis=1)
    M = M / np.where(norms > 0, norms, 1.0)[:, None]
    nrows, ncols = M.shape
    if nrows > ncols:
        # R of M = QR has the singular values and right singular vectors of
        # M, without a rows x cols U
        M = np.linalg.qr(M, mode="r")
    # the thin Vh lacks kernel rows only when there are fewer rows than columns
    _, s, Vh = np.linalg.svd(M, full_matrices=nrows < ncols)
    svals = np.zeros(ncols)
    svals[: len(s)] = s
    rank = int(np.sum(svals > svd_tol * svals[0])) if svals[0] > 0 else 0
    kdim = ncols - rank
    if 0 < rank < ncols and svals[rank] > 0:
        if svals[rank - 1] / svals[rank] < SPECTRAL_GAP_MIN:
            raise DegenerateSample(
                f"spectral gap {svals[rank - 1] / svals[rank]:.1f} below "
                f"{SPECTRAL_GAP_MIN:.0f}"
            )
    kernel = Vh[rank:].conj().T

    angle = None
    hdim = len(holomorphic_basis(matrix.degree))
    if predicted_span is not None and kdim > 0 and predicted_span.shape[1] > 0:
        G = gram_matrix(matrix.basis)
        L = np.linalg.cholesky(G)
        angle = float(np.max(_principal_angles_metric(kernel, predicted_span, L)))
    return KernelReport(kdim, hdim, angle, svals, kernel, matrix.basis, config)


def _assert_general_position(points) -> None:
    """Pairwise distinct points, three of them not on one complex line."""
    d = [p.as_array() - points[0].as_array() for p in points[1:]]
    if d and np.linalg.norm(d[0]) == 0:
        raise CollinearPoints("points must be pairwise distinct")
    if len(d) == 2:
        u = d[0] / np.linalg.norm(d[0])
        resid = d[1] - np.sum(d[1] * np.conj(u)) * u
        if np.linalg.norm(resid) < 1e-10:
            raise CollinearPoints("the three points lie on one complex line")


def _family_report(points, d, n, svd_tol, seed, predicted) -> KernelReport:
    """Nullspace experiment for the disc families through the given interior
    points, n discs each, family j sampled with seed + j.  The angle is
    measured against the coordinate span of the multi-indices in predicted,
    unless it is None."""
    for p in points:
        if p.norm() >= 1.0:
            raise ValueError("points must be interior")
    _assert_general_position(points)
    config = {
        "points": [[p.z1.real, p.z1.imag, p.z2.real, p.z2.imag] for p in points],
        "degree": d,
        "discs_per_point": n,
        "svd_tol": svd_tol,
        "seed": seed,
    }
    if d == 0:
        # no negative-degree rows exist at degree 0: constants are holomorphic
        angle = None if predicted is None else 0.0
        return KernelReport(
            1, 1, angle, np.array([]), np.eye(1, dtype=complex), reduced_basis(0), config
        )
    discs = []
    for j, P in enumerate(points):
        discs.extend(sample_disc_family(P, n, seed + j))
    matrix = build_moment_matrix(d, discs)
    span = None if predicted is None else _coordinate_span(matrix.basis, predicted)
    return _nullspace_report(matrix, svd_tol, span, config)


def kernel_experiment(
    P1: Complex2,
    P2: Complex2,
    P3: Complex2,
    d: int,
    discs_per_point: int,
    svd_tol: float = DEFAULT_SVD_TOL,
    seed: int = 0,
    check_stability: bool = True,
) -> KernelReport:
    """Three-family nullspace experiment: for non-collinear interior points
    the kernel must be exactly the holomorphic trace span of degree <= d."""
    points = (P1, P2, P3)
    holo = holomorphic_basis(d)
    report = _family_report(points, d, discs_per_point, svd_tol, seed, holo)
    if check_stability:
        doubled = _family_report(points, d, 2 * discs_per_point, svd_tol, seed, holo)
        if doubled.kernel_dimension != report.kernel_dimension:
            raise DegenerateSample(
                "kernel dimension not stable under doubling the disc count"
            )
    return report


@dataclass(frozen=True)
class OnePointControl:
    report: KernelReport
    predicted_dimension: int | None
    angle_to_predicted: float | None


def predicted_one_point_kernel(d: int) -> list[tuple[int, int, int, int]]:
    """Reduced monomials extendible along every disc through the origin:
    those with |alpha| >= |beta|."""
    return [k for k in reduced_basis(d) if k[0] + k[1] >= k[2] + k[3]]


def one_point_control(
    P: Complex2, d: int, n: int, seed: int = 0, svd_tol: float = DEFAULT_SVD_TOL
) -> OnePointControl:
    """Single-family control: one point does not suffice.  For P = 0 the
    kernel is compared against the enumerated |alpha| >= |beta| span."""
    predicted = predicted_one_point_kernel(d) if P.norm() < 1e-14 else None
    report = _family_report((P,), d, n, svd_tol, seed, predicted)
    return OnePointControl(
        report,
        None if predicted is None else len(predicted),
        report.max_principal_angle,
    )


def two_point_probe(
    P1: Complex2,
    P2: Complex2,
    d: int,
    n: int,
    seed: int = 0,
    svd_tol: float = DEFAULT_SVD_TOL,
) -> KernelReport:
    """Two-family probe, reported but not asserted: polynomial data is real
    analytic, so two points are already expected to cut the kernel down to
    the holomorphic span.  The reported angle measures containment of the
    holomorphic span in the kernel."""
    return _family_report((P1, P2), d, n, svd_tol, seed, holomorphic_basis(d))


def extension_consistency(
    f: HermitianPolynomial,
    P1: Complex2,
    P2: Complex2,
    P3: Complex2,
    z: Complex2,
    m: int = 3,
    tol: float = 1e-8,
) -> float:
    """Max pairwise discrepancy of the in-disc extension values of f at z
    along the discs joining z to each of the three family centers.  Small
    discrepancy certifies that the glued lifted function descends to a
    function of the base point alone."""
    if m < 2:
        raise ValueError("need at least two discs to compare")
    values = []
    for P in (P1, P2, P3)[: min(m, 3)]:
        disc, tau_z, _ = disc_through_two_points(z, P)
        values.append(extension_value(f, disc, tau_z, tol))
    return max(
        abs(a - b) for i, a in enumerate(values) for b in values[i + 1 :]
    )


# ---------------------------------------------------------------------------
# lemma suite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LemmaCheck:
    name: str
    value: float
    threshold: float
    passed: bool
    detail: str = ""

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "value": self.value,
            "threshold": self.threshold,
            "passed": self.passed,
            "detail": self.detail,
        }


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
    [tau*conj(a) + conj(b)], as (len(taus), 2) arrays."""
    a, b = disc.a.as_array(), disc.b.as_array()
    taus = np.asarray(taus)[:, None]
    base = a + taus * b
    zeta = taus * np.conj(a) + np.conj(b)
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


def lift_pair_min_distance(
    d1: StraightDisc, d2: StraightDisc, P: Complex2, n_tau: int = 48
) -> float:
    """Minimum combined distance sqrt(|b - b'|^2 + 1 - |<zeta, zeta'>|^2)
    between the two lift curves over sampled interior parameters, excluding
    base points within 1e-3 of the common point P.  All pairs come from one
    real matrix product of per-sample features."""
    rr = np.linspace(0.05, 0.95, 6)
    th = 2 * np.pi * np.arange(n_tau) / n_tau
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


def _mixed_wirtinger(u, z: np.ndarray, i: int, j: int, h: float = 1e-3) -> complex:
    """d^2 u / dz_i dzbar_j of a real-valued u on C^3 by Richardson-refined
    central differences."""

    def second(step):
        def d2(ei, ej):
            # central mixed second difference in real directions ei, ej
            def at(si, sj):
                w = z + si * step * ei + sj * step * ej
                return u(w)

            return (at(1, 1) - at(1, -1) - at(-1, 1) + at(-1, -1)) / (4 * step**2)

        ex = np.zeros(3, complex)
        ex[i] = 1.0
        ey = np.zeros(3, complex)
        ey[i] = 1j
        fx = np.zeros(3, complex)
        fx[j] = 1.0
        fy = np.zeros(3, complex)
        fy[j] = 1j
        return 0.25 * (
            d2(ex, fx) + d2(ey, fy) + 1j * (d2(ex, fy)) - 1j * (d2(ey, fx))
        )

    a, b = second(h), second(h / 2)
    return (4 * b - a) / 3


def lemma_suite(
    seed: int = 0,
    samples: int = 200,
    identity_samples: int = 1000,
    scene_samples: int = 100,
) -> LemmaSuiteReport:
    """Run the lemma-level numerical checks: disc and lift structure,
    conormal-basis identities, transversality, sweeping."""
    rng = np.random.default_rng(seed)
    checks: list[LemmaCheck] = []

    def add(name, value, threshold, detail="", invert=False):
        ok = value > threshold if invert else value <= threshold
        checks.append(LemmaCheck(name, float(value), float(threshold), bool(ok), detail))

    # discs: sphere attachment of the boundary circle
    worst = 0.0
    th = 2 * np.pi * np.arange(256) / 256
    circle = np.exp(1j * th)
    for _ in range(min(samples, 100)):
        pts, _ = _lift_curve_samples(random_disc(rng), circle)
        worst = max(worst, float(np.max(np.abs(np.sum(np.abs(pts) ** 2, axis=1) - 1))))
    add("disc_sphere_attachment", worst, 1e-12, "max | |A(e^it)|^2 - 1 |")

    # discs: canonicalization is symmetric in the two points
    worst = 0.0
    for _ in range(min(samples, 100)):
        p, q = random_interior_point(rng), random_interior_point(rng)
        if Complex2(p.z1 - q.z1, p.z2 - q.z2).norm() < 1e-6:
            continue
        dpq, _, _ = disc_through_two_points(p, q)
        dqp, _, _ = disc_through_two_points(q, p)
        diff = np.max(
            np.abs(
                np.concatenate(
                    [
                        dpq.a.as_array() - dqp.a.as_array(),
                        dpq.b.as_array() - dqp.b.as_array(),
                    ]
                )
            )
        )
        worst = max(worst, float(diff))
    add("disc_canonicalization_symmetry", worst, 1e-12)

    # lifts of discs through the origin are constant in tau
    worst = 0.0
    taus = 0.9 * circle[::8]
    for _ in range(samples):
        disc = disc_from_line(Complex2(0, 0), random_direction(rng))
        _, zeta = _lift_curve_samples(disc, taus)
        ref = np.conj(disc.b.as_array())
        worst = max(worst, _max_class_distance(zeta, ref / np.linalg.norm(ref)))
    add("lift_constant_through_origin", worst, 1e-12)

    # boundary lift equals the sphere conormal
    worst = 0.0
    for _ in range(samples):
        pts, zeta = _lift_curve_samples(random_disc(rng), circle[::8])
        ref = np.conj(pts) / np.linalg.norm(pts, axis=1, keepdims=True)
        worst = max(worst, _max_class_distance(zeta, ref))
    add("boundary_lift_is_conormal", worst, 1e-12)

    # lift injectivity: distinct discs through one point have disjoint lifts
    worst = np.inf
    for _ in range(samples):
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
        v = Complex2(imgs[1].z1 - imgs[0].z1, imgs[1].z2 - imgs[0].z2)
        img_disc = disc_from_line(imgs[0], v)
        line_res = max(img_disc.line_distance(w) for w in imgs)
        worst = max(worst, float(sphere_res), float(line_res))
    add("automorphism_disc_equivariance", worst, 1e-10)

    # omega basis is holomorphic along the lifted axis disc once its simple
    # pole at the origin is cleared
    worst = 0.0
    nfft = 256
    circle = np.exp(2j * np.pi * np.arange(nfft) / nfft)
    for r in (0.3, 0.6, 0.9):
        vals = np.array(
            [r * t * np.array(crlifts.omega_basis(r * t, 0.0)) for t in circle]
        )
        for which in range(2):
            for comp in range(3):
                c = np.fft.fft(vals[:, which, comp]) / nfft
                neg = np.abs(c[nfft // 2 :])
                worst = max(worst, float(np.max(neg)))
    add(
        "omega_holomorphy_fft",
        worst,
        1e-10,
        "negative Fourier modes of z1 * omega on circles",
    )

    # omega~ lies in the real span of omega on the boundary circle
    worst = 0.0
    inst = None
    for trial in range(50):
        z1 = np.exp(2j * np.pi * rng.uniform())
        zeta0 = 0.8 * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
        w1, w2 = crlifts.omega_basis(z1, 0.0)
        wt1, wt2 = crlifts.omega_tilde_basis(z1, zeta0)
        A = np.array([[w1[1], w2[1]], [w1[2], w2[2]]])
        Ar = np.vstack([A.real, A.imag])
        for wt in (wt1, wt2):
            bvec = np.array([wt[1], wt[2]])
            br = np.concatenate([bvec.real, bvec.imag])
            x, res, *_ = np.linalg.lstsq(Ar, br, rcond=None)
            resid = np.linalg.norm(Ar @ x - br)
            worst = max(worst, float(resid))
    add("span_equality_boundary", worst, 1e-10, "real 2x2 solve residual")

    # instance: at z1 = 1, zeta0 = 0.5 the first tilde covector is 2*omega_1
    w1, w2 = crlifts.omega_basis(1.0, 0.0)
    wt1, _ = crlifts.omega_tilde_basis(1.0, 0.5)
    A = np.array([[w1[1], w2[1]], [w1[2], w2[2]]])
    Ar = np.vstack([A.real, A.imag])
    br = np.concatenate([np.array([wt1[1], wt1[2]]).real, np.array([wt1[1], wt1[2]]).imag])
    x, *_ = np.linalg.lstsq(Ar, br, rcond=None)
    add(
        "span_equality_instance",
        float(np.max(np.abs(x - np.array([2.0, 0.0])))),
        1e-10,
        f"coefficients {x.tolist()}",
    )

    # the defining function of the through-origin family is pluriharmonic
    def re_r(w):
        return crlifts.m0_defining_value(w[0], w[1], w[2]).real

    worst = 0.0
    for _ in range(20):
        z = np.array(
            [
                (0.5 + 0.5 * rng.uniform()) * np.exp(2j * np.pi * rng.uniform()),
                0.5 * rng.uniform() * np.exp(2j * np.pi * rng.uniform()),
                rng.normal() + 1j * rng.normal(),
            ]
        )
        for i in range(3):
            for j in range(3):
                worst = max(worst, abs(_mixed_wirtinger(re_r, z, i, j)))
    add("m0_pluriharmonicity", worst, 1e-8, "max mixed Wirtinger second derivative")

    # contraction pairings are real on the circle and match the derived
    # closed forms
    u = rng.uniform(size=(identity_samples, 5))
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
    while len(ranks) < scene_samples:
        P1 = random_interior_point(rng, rmax=0.7)
        P2 = random_interior_point(rng, rmax=0.7)
        if Complex2(P1.z1 - P2.z1, P1.z2 - P2.z2).norm() < 0.05:
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
    for _ in range(min(scene_samples, 100)):
        z2 = (0.1 + 0.8 * rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        zeta0 = 0.8 * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
        windings.append(
            crlifts.direction_sweep_winding(z2, zeta0, -1.0 + 0j, n=256)
        )
    nonzero = all(w != 0 for w in windings)
    add(
        "direction_sweep_winding",
        1.0 if nonzero else 0.0,
        0.5,
        f"windings in {sorted(set(windings))}",
        invert=True,
    )
    w_inst = crlifts.direction_sweep_winding(0.5, 0.5, -1.0 + 0j, n=256)
    add(
        "winding_instance",
        1.0 if w_inst in (-1, 1) else 0.0,
        0.5,
        f"winding {w_inst} at z2=0.5, zeta0=0.5",
        invert=True,
    )

    return LemmaSuiteReport(seed, checks)
