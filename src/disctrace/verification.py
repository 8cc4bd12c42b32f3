"""Desk-scale verification experiments.

The central experiment linearizes the separate-extendibility hypothesis:
for families of straight discs through interior points, stack the negative
Fourier coefficients of every reduced sphere monomial along every sampled
disc into a moment matrix.  Its nullspace is the space of polynomials that
extend along all sampled discs; for three non-collinear points it must
coincide with the holomorphic trace span.
"""

from __future__ import annotations

import cmath
import math
import operator
import random
from dataclasses import dataclass, field, replace

import numpy as np

from . import crlifts
from .boundary import (
    HermitianPolynomial,
    _reduced_basis,
    gram_matrix,
    reduced_basis,
)
from .discs import (
    StraightDisc,
    _lift_class,
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
    hermitian_inner,
)
from .moments import _laurent_coefficients, extension_value

GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))
SPECTRAL_GAP_MIN = 1e3


def sample_disc_family(P: Complex2, n: int, seed: int) -> list[StraightDisc]:
    """n distinct discs through P with directions from a jittered Fibonacci
    lattice on the direction sphere.

    Disc i takes the lattice point's height c and azimuth phi, each moved by
    one N(0, 0.01^2) draw, c's first, from the standard library's
    random.Random(seed) (Mersenne Twister, gauss), so the family is
    deterministic in (P, n, seed).  seed must be a non-negative integer.
    """
    if n < 1:
        raise ValueError("need at least one disc")
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("seed must be non-negative")
    rng = random.Random(seed)
    discs = []
    for i in range(n):
        c = 1.0 - 2.0 * (i + 0.5) / n + rng.gauss(0.0, 0.01) / max(n, 8)
        half = math.acos(min(1.0, max(-1.0, c))) / 2.0
        phi = GOLDEN_ANGLE * i + rng.gauss(0.0, 0.01)
        v = Complex2(math.cos(half), math.sin(half) * cmath.exp(1j * phi))
        discs.append(disc_from_line(P, v))
    return discs


@dataclass(frozen=True)
class MomentMatrix:
    """The non-holomorphic block M_nh of the moment matrix, stored as its
    |beta| staircase.  blocks[k - 1], k = 1..d, holds the Laurent
    coefficient -k of the monomials with |beta| >= k restricted to each
    disc: one row per disc, one column per such monomial, the last columns
    of basis.  basis lists the reduced monomials with a conjugate factor in
    reduced_basis order, which sorts them by |beta|, so those with
    |beta| >= k are a suffix of it for every k.  The coefficient -k of a
    monomial with |beta| < k is zero by construction and is not stored;
    neither are the holomorphic monomials, whose columns are zero by
    theorem."""

    blocks: list[np.ndarray]
    basis: list[tuple[int, int, int, int]]

    @property
    def matrix(self) -> np.ndarray:
        """M_nh as a dense array: rows (disc index, negative degree k in
        1..d), columns in basis order, exactly 0.0 where |beta| < k."""
        d, ncols = len(self.blocks), len(self.basis)
        out = np.zeros((len(self.blocks[0]) * d, ncols), dtype=complex)
        for k, block in enumerate(self.blocks, 1):
            out[k - 1 :: d, ncols - block.shape[1] :] = block
        return out


# size of one assembly chunk, in bytes of complex samples
_CHUNK_BYTES = 1 << 19


def _discs_per_chunk(N: int, ncols: int) -> int:
    """Discs in one assembly chunk: as many as keep its N samples of ncols
    monomials per disc within _CHUNK_BYTES, and at least one."""
    return max(1, _CHUNK_BYTES // (16 * N * ncols))


def build_moment_matrix(d: int, discs: list[StraightDisc]) -> MomentMatrix:
    """The block M_nh of the moment matrix of the reduced monomials of
    degree <= d along the given discs, as its |beta| staircase.

    The coefficients -1..-d of every non-holomorphic monomial come from
    moments._laurent_coefficients, which the moment test shares, at d + 1
    samples per disc: the Laurent window [-|beta|, |alpha|] of one monomial
    has at most d + 1 terms, so its coefficients -1..-|beta| are exact (the
    tests compare them with the scalar oracle restrict_to_disc in
    tests/oracles.py).  The basis is sorted by |beta|, so the coefficient -k
    of the monomials with |beta| >= k, a suffix of the columns, goes
    straight into block k; where |beta| < k the same row holds an aliased
    coefficient and is not read.  Discs are processed in chunks of
    _discs_per_chunk discs, at most _CHUNK_BYTES (512 KiB) of samples: one
    chunk keeps about three arrays of that size alive (the samples, a
    gather from its table of z1^i z2^j, and their d coefficient rows), so
    the assembly's scratch stays within a few chunks beyond the staircase
    it stores, whatever the number of discs.
    """
    if d < 1:
        raise ValueError("degree must be at least 1")
    if not discs:
        raise ValueError("need at least one disc")
    basis = [k for k in _reduced_basis(d) if k[2] + k[3] > 0]
    e = np.array(basis)
    # starts[k - 1]: the number of columns with |beta| < k
    starts = np.searchsorted(e[:, 2] + e[:, 3], np.arange(1, d + 1))
    blocks = [np.empty((len(discs), len(basis) - s), dtype=complex) for s in starts]
    step = _discs_per_chunk(d + 1, len(basis))
    for lo in range(0, len(discs), step):
        hi = min(lo + step, len(discs))
        c = _laurent_coefficients(discs[lo:hi], e, d + 1, -np.arange(1, d + 1))
        for k, (s, block) in enumerate(zip(starts, blocks), 1):
            block[lo:hi] = c[:, k - 1, s:]
    return MomentMatrix(blocks, basis)


@dataclass(frozen=True)
class KernelReport:
    """Outcome of a moment-matrix nullspace experiment.  basis is the
    tuple of the reduced monomials in reduced_basis order that every report
    of its degree shares, so its first expected_holomorphic_dimension entries
    are the holomorphic monomials.  The kernel is their coordinate span plus
    the null vectors of the non-holomorphic block of the moment matrix, over
    the rest of basis.  A full-rank block has no null vectors (null_vectors
    has zero columns); its singular values are computed without vectors.
    The kernel contains the holomorphic span by construction, so
    max_principal_angle, the angle to the predicted span, is 0.0 except in
    the one-point control (None off the origin)."""

    kernel_dimension: int
    expected_holomorphic_dimension: int
    max_principal_angle: float | None
    singular_values: np.ndarray
    spectral_gap: float  # the singular-value ratio the rank decision used
    null_vectors: np.ndarray  # columns over basis[expected_holomorphic_dimension:]
    basis: tuple[tuple[int, int, int, int], ...]
    config: dict = field(default_factory=dict)

    @property
    def kernel_basis(self) -> np.ndarray:
        """Columns: orthonormal coefficient vectors over the basis, the
        block-diagonal [[I_h, 0], [0, null_vectors]] with h the holomorphic
        dimension."""
        h = self.expected_holomorphic_dimension
        out = np.zeros((len(self.basis), h + self.null_vectors.shape[1]), dtype=complex)
        out[:h, :h] = np.eye(h)
        out[h:, h:] = self.null_vectors
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


def _max_angle_to_coordinate_span(report: KernelReport, members) -> float:
    """Largest L2 principal angle between the kernel of report and the
    coordinate span of the multi-indices members, over report.basis.

    With G = L L^H the Gram matrix of the basis, L^H maps coefficient
    vectors isometrically into C^N, and the coordinate span maps to a
    column selection of L^H.  Let Q_s and Q_l be orthonormal bases of the
    smaller and the larger image: the 2-norm of the residual
    Q_s - Q_l Q_l^H Q_s is the sine of the largest of the min(dim)
    principal angles.  The sine stays accurate for small angles, where
    arccos of a cosine near 1 loses half the digits.
    """
    Lh = np.linalg.cholesky(gram_matrix(report.basis)).conj().T
    pos = {k: i for i, k in enumerate(report.basis)}
    images = (Lh @ report.kernel_basis, Lh[:, [pos[k] for k in members]])
    Qs, Ql = (np.linalg.qr(M)[0] for M in sorted(images, key=lambda M: M.shape[1]))
    sine = np.linalg.norm(Qs - Ql @ (Ql.conj().T @ Qs), 2)
    return float(np.arcsin(min(1.0, sine)))


def _nullspace_report(matrix: MomentMatrix, d: int, config: dict) -> KernelReport:
    """Kernel of the moment matrix at degree d: the holomorphic coordinate
    span of reduced_basis(d) plus the nullspace of the block M_nh that
    matrix holds.  The rank of M_nh sits at the largest ratio between
    consecutive singular values of the row-normalized M_nh, floored at
    eps * s_0 with the floor appended (Hansen, Rank-Deficient and Discrete
    Ill-Posed Problems, 1998), so full rank is decided by s_min / floor and
    no cutoff is set by the user.

    The singular values come from a square R with R^H R = A^H A, A the
    row-normalized M_nh, whose columns are sorted by |beta|.  A degree-k row
    of M_nh is zero in the columns with |beta| < k, so R is built one
    degree at a time from the staircase blocks of matrix, which this
    consumes: block k, the degree-k rows restricted to the columns with
    |beta| >= k, is taken out of matrix.blocks, row-normalized in place,
    stacked under the rows carried from degree k - 1 and reduced by a QR.
    Its first rows, one per column with |beta| = k, are the rows of R that
    stage k fixes; the rest are zero in those columns and are carried to
    degree k + 1.  The dense M_nh is never formed, and no QR runs on all of
    it.

    The working set stays bounded: each stage keeps compact copies of its
    R rows and of its carried rows, and drops its block, its stack and the
    QR output as soon as they are read.  R is allocated only after stage d,
    when the staircase is used up, and each stage's rows are freed once
    they are copied into it; they stay zero where a stage had fewer rows
    than its width.  Each stage's stack and R are Fortran-ordered, the
    layout LAPACK works in, so numpy's qr and svd copy them straight
    instead of transposing them; the values are those of the C-ordered
    arrays.

    Singular vectors are computed only when the rank is short, the only
    case with null vectors; those of R are those of A, over matrix.basis.
    The kernel contains the holomorphic span by construction, so its angle
    to that span is reported as 0.0.  The report holds the shared basis
    tuple _reduced_basis(d) and no view of R."""
    ncols = len(matrix.basis)
    nrows = len(matrix.blocks[0]) * d
    # starts[k - 1]: the number of columns with |beta| < k, k = 1..d + 1
    starts = [ncols - block.shape[1] for block in matrix.blocks] + [ncols]
    rows = []  # rows[k - 1]: the rows of R that stage k fixes
    carried = np.zeros((0, ncols), dtype=complex)
    for k in range(1, d + 1):
        block = matrix.blocks.pop(0)  # released once copied into the stack
        lo, width = starts[k - 1], starts[k] - starts[k - 1]
        norms = np.linalg.norm(block, axis=1)
        block /= np.where(norms > 0, norms, 1.0)[:, None]
        c = len(carried)
        stack = np.empty((c + len(block), ncols - lo), dtype=complex, order="F")
        stack[:c] = carried
        stack[c:] = block
        del block, carried
        r = np.linalg.qr(stack, mode="r")
        del stack
        # copies, so that neither keeps all of r alive
        rows.append(r[:width].copy())
        carried = r[width:, width:].copy()
        del r
    # rows stay zero where a stage has fewer rows than its width
    R = np.zeros((ncols, ncols), dtype=complex, order="F")
    for lo in starts[:-1]:
        top = rows.pop(0)  # released once copied into R
        R[lo : lo + len(top), lo:] = top
        del top
    svals = np.linalg.svd(R, compute_uv=False)
    floor = np.finfo(float).eps * svals[0]
    steps = np.append(np.maximum(svals, floor), floor)
    ratios = steps[:-1] / steps[1:]
    rank = int(np.argmax(ratios)) + 1
    gap = float(ratios[rank - 1])
    if gap < SPECTRAL_GAP_MIN:
        raise DegenerateSample(
            f"spectral gap {gap:.1f} below {SPECTRAL_GAP_MIN:.0f} "
            f"(rank {rank} of {ncols} columns, {nrows} rows): "
            f"{nrows / ncols:.2f} rows per column of M_nh, which more discs "
            "per point raise; full rank has needed 1.5 or more at degree <= 2 "
            "and 2.2 or more at degree 12"
        )

    if rank < ncols:
        null = np.linalg.svd(R)[2][rank:].conj().T
    else:
        # fresh, not a view of R: a report must not keep R alive
        null = np.zeros((ncols, 0), dtype=complex)
    basis = _reduced_basis(d)
    hdim = len(basis) - ncols
    svals = np.concatenate([svals, np.zeros(hdim)])
    return KernelReport(hdim + ncols - rank, hdim, 0.0, svals, gap, null, basis, config)


def _assert_general_position(points) -> None:
    """Pairwise distinct points, three of them not on one complex line."""
    if any((p - q).norm() == 0 for i, p in enumerate(points) for q in points[:i]):
        raise CollinearPoints("points must be pairwise distinct")
    d = [p - points[0] for p in points[1:]]
    if len(d) == 2:
        u, v = d
        t = hermitian_inner(v, u) / u.norm() ** 2
        if (v - Complex2(t * u.z1, t * u.z2)).norm() < 1e-10:
            raise CollinearPoints("the three points lie on one complex line")


def family_experiment(points, d: int, n: int, seed: int = 0) -> KernelReport:
    """Nullspace experiment for the disc families through the given points,
    n discs each.  The points must be interior (ValueError) and in general
    position (CollinearPoints): pairwise distinct, and three of them not on
    one complex line.  Family j is sampled with seed + j.  Degree 0 gets
    its own report: kernel 1, spectral gap inf."""
    for p in points:
        if p.norm() >= 1.0:
            raise ValueError("points must be interior")
    _assert_general_position(points)
    config = {
        "points": [[p.z1.real, p.z1.imag, p.z2.real, p.z2.imag] for p in points],
        "degree": d,
        "discs_per_point": n,
        "seed": seed,
    }
    if d == 0:
        # no negative-degree rows exist at degree 0: constants are holomorphic
        null = np.zeros((0, 0))
        return KernelReport(
            1, 1, 0.0, np.array([]), float("inf"), null, _reduced_basis(0), config
        )
    discs = []
    for j, P in enumerate(points):
        discs.extend(sample_disc_family(P, n, seed + j))
    return _nullspace_report(build_moment_matrix(d, discs), d, config)


def kernel_experiment(
    P1: Complex2,
    P2: Complex2,
    P3: Complex2,
    d: int,
    discs_per_point: int,
    seed: int = 0,
    check_stability: bool = True,
) -> KernelReport:
    """Three-family nullspace experiment: for non-collinear interior points
    the kernel must be exactly the holomorphic trace span of degree <= d.
    check_stability requires the same kernel dimension at twice the discs."""
    points = (P1, P2, P3)
    report = family_experiment(points, d, discs_per_point, seed)
    if check_stability:
        doubled = family_experiment(points, d, 2 * discs_per_point, seed)
        if doubled.kernel_dimension != report.kernel_dimension:
            raise DegenerateSample(
                "kernel dimension not stable under doubling the disc count "
                f"(discs per point: {discs_per_point} gives kernel dimension "
                f"{report.kernel_dimension}, {2 * discs_per_point} gives "
                f"{doubled.kernel_dimension})"
            )
    return report


def predicted_one_point_kernel(d: int) -> list[tuple[int, int, int, int]]:
    """Reduced monomials extendible along every disc through the origin:
    those with |alpha| >= |beta|."""
    return [k for k in reduced_basis(d) if k[0] + k[1] >= k[2] + k[3]]


def one_point_control(P: Complex2, d: int, n: int, seed: int = 0) -> KernelReport:
    """Single-family control: one point does not suffice.  For P = 0 the
    max_principal_angle is the largest L2 principal angle between the
    kernel and the span of predicted_one_point_kernel(d), the
    |alpha| >= |beta| monomials; elsewhere it is None.  It is the arcsin
    of one residual norm: the smaller span's orthonormal basis less its
    projection onto the larger, both mapped by the conjugate transpose of
    the Gram matrix's Cholesky factor, in which metric L2 is Euclidean."""
    report = family_experiment((P,), d, n, seed)
    if P.norm() >= 1e-14:
        return replace(report, max_principal_angle=None)
    angle = _max_angle_to_coordinate_span(report, predicted_one_point_kernel(d))
    return replace(report, max_principal_angle=angle)


def extension_consistency(
    f: HermitianPolynomial,
    P1: Complex2,
    P2: Complex2,
    P3: Complex2,
    z: Complex2,
) -> tuple[complex, float]:
    """The in-disc extension value of f at z along the disc joining z to
    P1, and the max pairwise discrepancy of the values along the discs
    joining z to each of the three family centers.  Small discrepancy
    certifies that the glued lifted function descends to a function of the
    base point alone."""
    values = []
    for P in (P1, P2, P3):
        disc, tau_z, _ = disc_through_two_points(z, P)
        values.append(extension_value(f, disc, tau_z))
    return values[0], max(
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
