"""Desk-scale verification experiments.

The central experiment linearizes the separate-extendibility hypothesis:
for families of straight discs through interior points, stack the negative
Fourier coefficients of every reduced sphere monomial along every sampled
disc into a moment matrix.  Its nullspace is the space of polynomials that
extend along all sampled discs; for three non-collinear points it must
coincide with the holomorphic trace span, and for the origin alone it is
the span of the |alpha| >= |beta| monomials.
"""

from __future__ import annotations

import cmath
import math
import operator
import random
from dataclasses import dataclass, field, replace

import numpy as np

from .boundary import (
    HermitianPolynomial,
    _reduced_basis,
    gram_matrix,
    reduced_basis,
)
from .discs import StraightDisc, disc_from_line, disc_through_two_points
from .errors import CollinearPoints, DegenerateSample
from .geometry import Complex2, hermitian_inner
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
    max_principal_angle, the angle to the predicted span, is 0.0 except for
    a single point: the angle to the |alpha| >= |beta| span at the origin,
    None elsewhere."""

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


def _check_points(points) -> None:
    """At least one point (ValueError), all of them interior (ValueError),
    pairwise distinct and, from three points on, not all on one complex
    line (CollinearPoints): some offset from the first point is at least
    1e-10 off the complex span of the first offset."""
    if not points:
        raise ValueError("need at least one point")
    if any(p.norm() >= 1.0 for p in points):
        raise ValueError("points must be interior")
    if any((p - q).norm() == 0 for i, p in enumerate(points) for q in points[:i]):
        raise CollinearPoints("points must be pairwise distinct")
    if len(points) < 3:
        return
    u, *rest = (p - points[0] for p in points[1:])
    for v in rest:
        t = hermitian_inner(v, u) / u.norm() ** 2
        if (v - Complex2(t * u.z1, t * u.z2)).norm() >= 1e-10:
            return
    count = "three" if len(points) == 3 else len(points)
    raise CollinearPoints(f"the {count} points lie on one complex line")


def sample_disc_families(points, n: int, seed: int) -> list[list[StraightDisc]]:
    """One disc family per point: family j is sample_disc_family(points[j],
    n, seed + j).  The points must be one or more interior points (ValueError
    otherwise), pairwise distinct and, from three on, not all on one complex
    line (CollinearPoints otherwise)."""
    _check_points(points)
    return [sample_disc_family(P, n, seed + j) for j, P in enumerate(points)]


def predicted_one_point_kernel(d: int) -> list[tuple[int, int, int, int]]:
    """Reduced monomials extendible along every disc through the origin:
    those with |alpha| >= |beta|."""
    return [k for k in reduced_basis(d) if k[0] + k[1] >= k[2] + k[3]]


def kernel_experiment(
    *points: Complex2,
    d: int,
    discs_per_point: int,
    seed: int = 0,
    check_stability: bool = True,
) -> KernelReport:
    """Nullspace experiment for the disc families of sample_disc_families
    through one or more points, checked as there, discs_per_point discs
    each.  For three non-collinear points the kernel must be exactly the
    holomorphic trace span of degree <= d.  Degree 0 gets its own report:
    kernel 1, spectral gap inf.  check_stability requires the same kernel
    dimension at twice the discs.  For one point, max_principal_angle is the
    largest L2 principal angle between the kernel and the span of
    predicted_one_point_kernel(d) at the origin, and None elsewhere."""
    config = {
        "points": [[p.z1.real, p.z1.imag, p.z2.real, p.z2.imag] for p in points],
        "degree": d,
        "discs_per_point": discs_per_point,
        "seed": seed,
    }

    def run(n: int) -> KernelReport:
        families = sample_disc_families(points, n, seed)
        discs = [disc for family in families for disc in family]
        return _nullspace_report(build_moment_matrix(d, discs), d, config)

    if d == 0:
        # no negative-degree rows exist at degree 0: constants are holomorphic,
        # so nothing is sampled and the points are checked here
        _check_points(points)
        null, basis = np.zeros((0, 0)), _reduced_basis(0)
        report = KernelReport(1, 1, 0.0, np.array([]), float("inf"), null, basis, config)
    else:
        report = run(discs_per_point)
        if check_stability:
            doubled = run(2 * discs_per_point)
            if doubled.kernel_dimension != report.kernel_dimension:
                raise DegenerateSample(
                    "kernel dimension not stable under doubling the disc count "
                    f"(discs per point: {discs_per_point} gives kernel dimension "
                    f"{report.kernel_dimension}, {2 * discs_per_point} gives "
                    f"{doubled.kernel_dimension})"
                )
    if len(points) > 1:
        return report
    if points[0].norm() >= 1e-14:
        return replace(report, max_principal_angle=None)
    angle = _max_angle_to_coordinate_span(report, predicted_one_point_kernel(d))
    return replace(report, max_principal_angle=angle)


def extension_consistency(
    f: HermitianPolynomial, *points: Complex2, z: Complex2
) -> tuple[complex, float]:
    """The in-disc extension value of f at z along the disc joining z to
    the first point, and the max pairwise discrepancy of the values along
    the discs joining z to each of two or more points (ValueError for
    fewer: one point leaves no second disc to compare against).  Small
    discrepancy certifies that the glued lifted function descends to a
    function of the base point alone."""
    if len(points) < 2:
        raise ValueError("need at least two points")
    values = []
    for P in points:
        disc, tau_z, _ = disc_through_two_points(z, P)
        values.append(extension_value(f, disc, tau_z))
    return values[0], max(
        abs(a - b) for i, a in enumerate(values) for b in values[i + 1 :]
    )
