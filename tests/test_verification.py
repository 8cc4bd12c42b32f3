import re
import tracemalloc

import numpy as np
import pytest

from disctrace.boundary import (
    HermitianPolynomial,
    gram_matrix,
    reduced_basis,
)
from disctrace.discs import disc_from_line
from disctrace.errors import CollinearPoints, DegenerateSample, NotExtendible
from disctrace.geometry import Complex2
from disctrace import lemmas, verification
from disctrace.lemmas import (
    lemma_suite,
    lift_pair_min_distance,
    random_direction,
    random_interior_point,
)
from disctrace.verification import (
    build_moment_matrix,
    extension_consistency,
    kernel_experiment,
    predicted_one_point_kernel,
    sample_disc_families,
    sample_disc_family,
)
from oracles import (
    dense_singular_values,
    evaluate,
    holomorphic_basis,
    holomorphic_defect,
    kernel_polynomials,
    restrict_to_disc,
)

P1 = Complex2(0.0, 0.0)
P2 = Complex2(0.5, 0.0)
P3 = Complex2(0.0, 0.5)
# two, three and four points in general position
POINT_SETS = {2: (P2, P3), 3: (P1, P2, P3), 4: (P1, P2, P3, Complex2(-0.3, 0.2j))}


@pytest.fixture(scope="module")
def main_report():
    return kernel_experiment(P1, P2, P3, d=4, discs_per_point=30, seed=7)


def _angle_to_holomorphic_span(report) -> float:
    """Largest L2 principal angle between the kernel and the holomorphic
    coordinate span, computed explicitly."""
    return verification._max_angle_to_coordinate_span(
        report, holomorphic_basis(report.config["degree"])
    )


@pytest.fixture
def gram_calls(monkeypatch):
    """Basis sizes of the verification.gram_matrix calls made in the test."""
    calls = []

    def counting(basis):
        calls.append(len(basis))
        return gram_matrix(basis)

    monkeypatch.setattr(verification, "gram_matrix", counting)
    return calls


class TestSampling:
    def test_deterministic(self):
        a = sample_disc_family(P2, 20, seed=5)
        b = sample_disc_family(P2, 20, seed=5)
        for d1, d2 in zip(a, b):
            assert np.array_equal(d1.a.as_array(), d2.a.as_array())
            assert np.array_equal(d1.b.as_array(), d2.b.as_array())

    def test_through_center_and_distinct(self):
        discs = sample_disc_family(P2, 40, seed=1)
        assert len(discs) == 40
        dirs = set()
        for d in discs:
            assert d.line_distance(P2) < 1e-12
            dirs.add((round(d.b.z1.real, 6), round(d.b.z1.imag, 6),
                      round(d.b.z2.real, 6), round(d.b.z2.imag, 6)))
        assert len(dirs) == 40

    def test_needs_positive_count(self):
        with pytest.raises(ValueError):
            sample_disc_family(P2, 0, seed=0)

    def test_needs_nonnegative_integer_seed(self):
        with pytest.raises(ValueError):
            sample_disc_family(P2, 5, seed=-1)
        with pytest.raises(TypeError):
            sample_disc_family(P2, 5, seed=1.5)


class TestSampleDiscFamilies:
    @pytest.mark.parametrize("points", [(P2,), *POINT_SETS.values()], ids=len)
    def test_family_j_is_sampled_at_seed_plus_j(self, points):
        families = sample_disc_families(points, 7, seed=4)
        assert len(families) == len(points)
        for j, (P, family) in enumerate(zip(points, families)):
            expected = sample_disc_family(P, 7, 4 + j)
            assert len(family) == len(expected) == 7
            for got, want in zip(family, expected):
                assert np.array_equal(got.a.as_array(), want.a.as_array())
                assert np.array_equal(got.b.as_array(), want.b.as_array())

    @pytest.mark.parametrize(
        "points,error,message",
        [
            ((), ValueError, "^need at least one point$"),
            ((P1, Complex2(1.5, 0)), ValueError, "^points must be interior$"),
            ((P1, P2, P1), CollinearPoints, "^points must be pairwise distinct$"),
            ((P1, P2, Complex2(0.7, 0)), CollinearPoints,
             "^the three points lie on one complex line$"),
            ((P1, P2, Complex2(-0.5, 0), Complex2(0.25, 0)), CollinearPoints,
             "^the 4 points lie on one complex line$"),
        ],
        ids=["empty", "exterior", "repeated", "collinear-three", "collinear-four"],
    )
    @pytest.mark.parametrize("d", [0, 2])
    def test_rejects_what_kernel_experiment_rejects(self, points, error, message, d):
        with pytest.raises(error, match=message):
            sample_disc_families(points, 5, seed=0)
        with pytest.raises(error, match=message):
            kernel_experiment(*points, d=d, discs_per_point=5)


class TestMomentMatrix:
    def test_shape_and_entries(self):
        discs = sample_disc_family(P2, 5, seed=0)
        M = build_moment_matrix(3, discs)
        basis = [k for k in reduced_basis(3) if k[2] + k[3] > 0]
        assert M.matrix.shape == (15, len(basis))
        # spot check one entry against the scalar restriction
        disc, k, j = discs[2], 2, 7
        mono = HermitianPolynomial({basis[j]: 1.0})
        assert M.matrix[2 * 3 + (k - 1), j] == pytest.approx(
            restrict_to_disc(mono, disc)[-k]
        )

    @pytest.mark.parametrize("d", range(1, 13))
    def test_every_entry_matches_exact_restriction(self, d):
        n = 2 if d >= 10 else 4
        discs = []
        for j, P in enumerate((P1, P2, P3)):
            discs.extend(sample_disc_family(P, n, seed=d + j))
        M = build_moment_matrix(d, discs)
        exact = np.zeros_like(M.matrix)
        for j, idx in enumerate(M.basis):
            mono = HermitianPolynomial({idx: 1.0})
            for i, disc in enumerate(discs):
                laurent = restrict_to_disc(mono, disc)
                exact[i * d : (i + 1) * d, j] = [laurent[-k] for k in range(1, d + 1)]
        assert np.max(np.abs(M.matrix - exact)) < 1e-12

    @pytest.mark.parametrize("d", [4, 8, 12])
    def test_structural_zeros_are_exact(self, d):
        # on a disc boundary only conj(z) gives negative powers of tau, so
        # the coefficient -k of a monomial with |beta| < k is exactly zero
        discs = []
        for j, P in enumerate((P1, P2, P3)):
            discs.extend(sample_disc_family(P, 5, seed=d + j))
        M = build_moment_matrix(d, discs)
        beta = np.array([k[2] + k[3] for k in M.basis])
        zero = np.arange(1, d + 1)[:, None] > beta[None, :]
        assert zero.any()
        dense = M.matrix
        for i in range(len(discs)):
            assert np.all(dense[i * d : (i + 1) * d][zero] == 0.0)

    @pytest.mark.parametrize("d", [4, 8, 12])
    def test_staircase_storage(self, d):
        # block k holds, per disc, the coefficient -k of the monomials with
        # |beta| >= k and nothing else; the dense view puts exact zeros in
        # the rest
        discs = []
        for j, P in enumerate((P1, P2, P3)):
            discs.extend(sample_disc_family(P, 2, seed=d + j))
        M = build_moment_matrix(d, discs)
        beta = np.array([k[2] + k[3] for k in M.basis])
        assert len(M.blocks) == d
        for k, block in enumerate(M.blocks, 1):
            assert block.shape == (len(discs), np.sum(beta >= k))
        assert sum(block.shape[1] for block in M.blocks) == {4: 85, 8: 870, 12: 3731}[d]
        dense = M.matrix
        assert dense.shape == (len(discs) * d, len(M.basis))
        zero = np.arange(1, d + 1)[:, None] > beta[None, :]
        assert np.all(dense.reshape(len(discs), d, -1)[:, zero] == 0.0)

    def test_kernel_path_never_builds_the_dense_matrix(self, monkeypatch):
        # the rank step reads the staircase blocks; the dense view is for
        # readers outside the kernel path
        def fail(self):
            raise AssertionError("the dense M_nh was built")

        monkeypatch.setattr(verification.MomentMatrix, "matrix", property(fail))
        report = kernel_experiment(P1, P2, P3, d=4, discs_per_point=60, seed=7,
                                   check_stability=False)
        assert report.kernel_dimension == 15
        # the rank-short origin control also takes null vectors from R
        control = kernel_experiment(P1, d=4, discs_per_point=60, seed=7,
                                    check_stability=False)
        assert control.kernel_dimension == 32

    def test_holomorphic_columns_vanish(self):
        # M holds only the non-holomorphic columns, in reduced_basis order
        # (sorted by |beta|); the holomorphic ones it leaves out, a prefix
        # of that order, have no negative coefficient
        discs = sample_disc_family(P3, 8, seed=2)
        M = build_moment_matrix(4, discs)
        assert M.basis == [k for k in reduced_basis(4) if k[2] + k[3] > 0]
        for k in holomorphic_basis(4):
            mono = HermitianPolynomial({k: 1.0})
            for disc in discs:
                assert restrict_to_disc(mono, disc).max_negative_modulus() == 0.0

    def test_block_boundaries_do_not_matter(self):
        d = 12
        ncols = len(reduced_basis(d)) - len(holomorphic_basis(d))
        per_block = verification._discs_per_chunk(d + 1, ncols)
        discs = sample_disc_family(P2, 2 * per_block + 4, seed=3)
        assert len(discs) > 2 * per_block  # three blocks: both halves straddle one
        half = len(discs) // 2
        whole = build_moment_matrix(d, discs).matrix
        parts = np.vstack(
            [build_moment_matrix(d, discs[:half]).matrix,
             build_moment_matrix(d, discs[half:]).matrix]
        )
        assert np.max(np.abs(whole - parts)) < 1e-14

    def test_assembly_scratch_is_bounded(self):
        # the doubled kernel-d8 scene: 180 discs, a 2.5 MB staircase.  One
        # chunk holds at most 512 KiB of samples; the assembly keeps about
        # three such arrays alive (samples, a gather, the FFT output) and
        # the monomial table, so its scratch stays under six chunks
        discs = []
        for j, P in enumerate((P1, P2, P3)):
            discs.extend(sample_disc_family(P, 60, seed=7 + j))
        build_moment_matrix(8, discs[:1])  # warm the basis caches
        tracemalloc.start()
        try:
            M = build_moment_matrix(8, discs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        stored = sum(block.nbytes for block in M.blocks)
        assert stored == 180 * 870 * 16
        chunk = 1 << 19
        assert peak < stored + 6 * chunk

    def test_rank_step_scratch_is_bounded(self):
        # d = 12 with 150 discs: an 8.95 MB staircase and an 8.48 MB R.  The
        # rank step keeps only compact copies of each stage's R rows and
        # carried rows, and allocates R once the staircase is used up, so
        # the whole experiment peaks below the two together (it read 22.7 MB
        # when R was allocated first and each stage kept its QR output)
        kernel_experiment(P1, P2, P3, d=12, discs_per_point=50, seed=7,
                          check_stability=False)  # warm the caches
        tracemalloc.start()
        try:
            kernel_experiment(P1, P2, P3, d=12, discs_per_point=50, seed=7,
                              check_stability=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        staircase = 150 * 3731 * 16
        R = 728 * 728 * 16
        assert peak < staircase + R

    def test_degree_guard(self):
        with pytest.raises(ValueError):
            build_moment_matrix(0, sample_disc_family(P2, 2, seed=0))

    def test_needs_a_disc(self):
        with pytest.raises(ValueError):
            build_moment_matrix(3, [])


class TestKernelExperiment:
    def test_main_result(self, main_report):
        assert main_report.kernel_dimension == 15
        assert main_report.expected_holomorphic_dimension == 15
        assert main_report.max_principal_angle < 1e-8
        assert main_report.spectral_gap > 1e3

    def test_kernel_polynomials_are_near_holomorphic(self, main_report):
        for f in kernel_polynomials(main_report):
            assert holomorphic_defect(f) < 1e-8

    def test_monotonicity(self):
        # adding discs never increases the kernel dimension
        dims = []
        for n in (4, 8, 16, 30):
            discs = []
            for j, P in enumerate((P1, P2, P3)):
                discs.extend(sample_disc_family(P, 30, seed=7 + j)[:n])
            M = build_moment_matrix(4, discs)
            s = np.linalg.svd(M.matrix, compute_uv=False)
            rank = int(np.sum(s > 1e-8 * s[0]))
            dims.append(len(reduced_basis(4)) - rank)
        assert dims == sorted(dims, reverse=True)
        assert dims[-1] == 15

    def test_collinear_rejected(self):
        with pytest.raises(CollinearPoints):
            kernel_experiment(P1, P2, Complex2(0.7, 0.0), d=2, discs_per_point=5)
        with pytest.raises(CollinearPoints):
            # complex-line collinearity: 0, (0.1, 0.1i), (0.3, 0.3i)
            kernel_experiment(
                P1,
                Complex2(0.1, 0.1j),
                Complex2(0.3, 0.3j),
                d=2,
                discs_per_point=5,
            )

    def test_exterior_rejected(self):
        with pytest.raises(ValueError):
            kernel_experiment(Complex2(1.5, 0), P2, P3, d=2, discs_per_point=5)
        # the interior check runs before the collinearity check
        with pytest.raises(ValueError):
            kernel_experiment(
                Complex2(1.5, 0), Complex2(2.0, 0), Complex2(3.0, 0),
                d=2, discs_per_point=5,
            )

    def test_unstable_doubling_names_both_runs(self):
        # at d = 2, one disc per point leaves kernel 8 and two leave 6
        with pytest.raises(DegenerateSample) as exc:
            kernel_experiment(P1, P2, P3, d=2, discs_per_point=1)
        assert str(exc.value) == (
            "kernel dimension not stable under doubling the disc count "
            "(discs per point: 1 gives kernel dimension 8, 2 gives 6)"
        )

    @pytest.mark.parametrize("d", [0, 2])
    def test_no_points_rejected(self, d):
        # the degree-0 report needs no sampling, so it must not skip this check
        with pytest.raises(ValueError, match="^need at least one point$"):
            kernel_experiment(d=d, discs_per_point=5)

    def test_degree_zero(self):
        report = kernel_experiment(P1, P2, P3, d=0, discs_per_point=5)
        assert report.kernel_dimension == 1
        assert report.max_principal_angle == 0.0
        assert report.spectral_gap == float("inf")

    @pytest.mark.parametrize("d, n, dim", [(10, 120, 66), (12, 45, 91), (12, 50, 91)])
    def test_high_degree(self, d, n, dim):
        report = kernel_experiment(P1, P2, P3, d=d, discs_per_point=n, seed=7,
                                   check_stability=False)
        assert report.kernel_dimension == report.expected_holomorphic_dimension == dim
        assert report.max_principal_angle < 1e-8
        assert report.spectral_gap > 1e3
        assert report.null_vectors.shape == (len(report.basis) - dim, 0)

    def test_rank_deficit_is_not_full_rank(self):
        # 40 discs per point leave M_nh short of its 728 columns at d = 12
        try:
            report = kernel_experiment(P1, P2, P3, d=12, discs_per_point=40, seed=7,
                                       check_stability=False)
        except DegenerateSample:
            return
        assert report.kernel_dimension != 91

    def test_rank_decision_failure_names_rank_and_shape(self):
        # 44 discs per point at d = 12: the gap falls just short of the gate
        with pytest.raises(DegenerateSample) as info:
            kernel_experiment(P1, P2, P3, d=12, discs_per_point=44, seed=7,
                              check_stability=False)
        m = re.fullmatch(
            r"spectral gap (\d+\.\d) below 1000 "
            r"\(rank \d+ of 728 columns, 1584 rows\): "
            r"2\.18 rows per column of M_nh, which more discs per point raise; "
            r"full rank has needed 1\.5 or more at degree <= 2 "
            r"and 2\.2 or more at degree 12",
            str(info.value),
        )
        assert m is not None, str(info.value)
        assert float(m[1]) < 1e3

    def test_full_rank_skips_the_angle(self, gram_calls):
        report = kernel_experiment(P1, P2, P3, d=4, discs_per_point=60, seed=7)
        assert report.kernel_dimension == 15
        assert report.null_vectors.shape == (40, 0)
        assert report.max_principal_angle == 0.0
        assert gram_calls == []

    def test_report_arrays_own_their_entries(self):
        # callers keep reports, so no array a report holds may be a view
        # into a larger one, such as R or the SVD's factors
        full = kernel_experiment(P1, P2, P3, d=4, discs_per_point=60, seed=7,
                                 check_stability=False)
        short = kernel_experiment(P1, d=4, discs_per_point=60, seed=7,
                                  check_stability=False)
        assert full.null_vectors.shape[1] == 0 < short.null_vectors.shape[1]
        for report in (full, short):
            for value in vars(report).values():
                if isinstance(value, np.ndarray):
                    assert value.base is None or value.base.size == value.size

    def test_reports_share_one_basis(self):
        r1 = kernel_experiment(P1, P2, P3, d=4, discs_per_point=30, seed=7,
                               check_stability=False)
        r2 = kernel_experiment(P2, d=4, discs_per_point=30, seed=3,
                               check_stability=False)
        assert r1.basis is r2.basis
        assert isinstance(r1.basis, tuple) and r1.basis == tuple(reduced_basis(4))
        zero = (
            kernel_experiment(P1, P2, P3, d=0, discs_per_point=5,
                              check_stability=False),
            kernel_experiment(P1, P2, P3, d=0, discs_per_point=5),
        )
        assert zero[0].basis is zero[1].basis == ((0, 0, 0, 0),)

    def test_kept_reports_retain_no_basis(self):
        # each report used to hold its own list of 285 tuples at d = 8,
        # 26 KB; now it holds the shared tuple, so what it retains is its
        # 285 singular values plus under 2 KB
        scene = (P1, P2, P3)
        kernel_experiment(*scene, d=8, discs_per_point=30, seed=7,
                          check_stability=False)  # warm the caches
        tracemalloc.start()
        try:
            kept = [
                kernel_experiment(*scene, d=8, discs_per_point=30, seed=7 + i,
                                  check_stability=False)
                for i in range(20)
            ]
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained / len(kept) < kept[0].singular_values.nbytes + 2048

    def test_short_stages_match_the_dense_values(self):
        # one disc per point at d = 4: 3 rows at every stage, fewer than its
        # width (14, 12, 9 and 5 columns), so R keeps zero rows there
        discs = []
        for j, P in enumerate((P1, P2, P3)):
            discs.extend(sample_disc_family(P, 1, seed=7 + j))
        M = build_moment_matrix(4, discs)
        widths = np.diff([40 - b.shape[1] for b in M.blocks] + [40])
        assert list(widths) == [14, 12, 9, 5]
        s = dense_singular_values(M.matrix)
        report = kernel_experiment(P1, P2, P3, d=4, discs_per_point=1, seed=7,
                                   check_stability=False)
        assert report.kernel_dimension == 55 - 12
        values = report.singular_values[: len(s)]
        assert np.max(np.abs(values - s)) <= 1e-13 * s[0]

    @pytest.mark.parametrize("d, n", [(4, 60), (8, 30), (12, 50)])
    def test_skipped_angle_and_values_match_the_full_computation(self, d, n):
        report = kernel_experiment(P1, P2, P3, d=d, discs_per_point=n, seed=7,
                                   check_stability=False)
        assert _angle_to_holomorphic_span(report) < 1e-14

        discs = []
        for j, P in enumerate((P1, P2, P3)):
            discs.extend(sample_disc_family(P, n, seed=7 + j))
        s = dense_singular_values(build_moment_matrix(d, discs).matrix)
        values = report.singular_values[: len(s)]
        assert np.max(np.abs(values - s)) <= 1e-13 * s[0]

    @staticmethod
    def _check_kernel_basis(P, n):
        """The rank-short one-point control at d = 3 has null vectors, and
        its kernel basis is orthonormal and annihilated by the moment matrix."""
        report = kernel_experiment(P, d=3, discs_per_point=n, seed=7,
                                   check_stability=False)
        assert report.null_vectors.shape[1] > 0
        K = report.kernel_basis
        assert K.shape == (len(report.basis), report.kernel_dimension)
        assert np.allclose(K.conj().T @ K, np.eye(K.shape[1]), atol=1e-12)
        # block-diagonal: the holomorphic coordinates, then the null vectors
        h = report.expected_holomorphic_dimension
        assert np.array_equal(K[:h, :h], np.eye(h))
        assert np.array_equal(K[h:, h:], report.null_vectors)
        assert not K[:h, h:].any() and not K[h:, :h].any()
        nh = [k[2] + k[3] > 0 for k in report.basis]
        M = build_moment_matrix(3, sample_disc_family(P, n, seed=7)).matrix
        assert np.max(np.abs(M @ K[nh])) < 1e-12

    def test_kernel_basis_embeds_null_vectors(self):
        self._check_kernel_basis(P1, 30)

    def test_null_vectors_with_fewer_rows_than_columns(self):
        # 3 discs through (0.5, 0): 9 rows against 20 non-holomorphic columns
        self._check_kernel_basis(P2, 3)

    @pytest.mark.parametrize("d, n", [(3, 4), (4, 6)])
    def test_rank_matches_extended_precision(self, d, n):
        mpmath = pytest.importorskip("mpmath")
        report = kernel_experiment(P1, P2, P3, d=d, discs_per_point=n, seed=0,
                                   check_stability=False)
        discs = []
        for j, P in enumerate((P1, P2, P3)):
            discs.extend(sample_disc_family(P, n, seed=j))
        M_nh = build_moment_matrix(d, discs).matrix
        with mpmath.workdps(40):
            s = mpmath.svd_c(mpmath.matrix(M_nh.tolist()), compute_uv=False)
            s = sorted((float(x) for x in s), reverse=True)
        # 40 digits resolve the smallest singular value far above roundoff
        rank = sum(x > 1e-25 * s[0] for x in s)
        assert rank == M_nh.shape[1] == len(reduced_basis(d)) - report.kernel_dimension
        assert rank == {3: 20, 4: 40}[d]

    def test_undersampled_degenerate(self):
        with pytest.raises(DegenerateSample):
            kernel_experiment(P1, P2, P3, d=4, discs_per_point=2, seed=0)

    def test_seeded_determinism(self):
        r1 = kernel_experiment(P1, P2, P3, d=2, discs_per_point=10, seed=3,
                               check_stability=False)
        r2 = kernel_experiment(P1, P2, P3, d=2, discs_per_point=10, seed=3,
                               check_stability=False)
        assert r1.to_json_dict() == r2.to_json_dict()

    def test_report_json_schema(self, main_report):
        doc = main_report.to_json_dict()
        assert doc["schema"] == "v1"
        assert doc["kernel_dimension"] == 15
        assert len(doc["singular_values"]) == 55
        assert doc["config"]["degree"] == 4


class TestOnePointControl:
    def test_origin_control(self, gram_calls):
        report = kernel_experiment(P1, d=4, discs_per_point=60, seed=7,
                                   check_stability=False)
        assert report.kernel_dimension == 32
        assert len(predicted_one_point_kernel(4)) == 32
        assert report.max_principal_angle < 1e-8
        # |alpha| >= |beta| is not the holomorphic span: the angle is measured
        assert len(gram_calls) == 1

    @pytest.mark.parametrize(
        "swap, angle", [((0, 0, 1, 0), np.pi / 2), ((0, 2, 0, 1), np.arcsin(1 / 3))]
    )
    def test_angle_in_the_l2_metric(self, main_report, swap, angle):
        # z2 swapped for conj(z1), L2-orthogonal to every holomorphic
        # polynomial, or for z2|z2|^2, whose cosine to them is 2*sqrt(2)/3:
        # on S^3, <z2|z2|^2, z2> = 1/3, |z2|^2 = 1/2 and |z2|z2|^2|^2 = 1/4.
        # Near pi/2 the arcsin keeps only half the digits.
        members = [k for k in holomorphic_basis(4) if k != (0, 1, 0, 0)] + [swap]
        got = verification._max_angle_to_coordinate_span(main_report, members)
        assert got == pytest.approx(angle, abs=1e-7)

    def test_predicted_enumeration(self):
        pred = predicted_one_point_kernel(4)
        assert len(pred) == 32
        assert all(k[0] + k[1] >= k[2] + k[3] for k in pred)
        assert set(holomorphic_basis(4)) <= set(pred)

    def test_degree_zero(self):
        report = kernel_experiment(P1, d=0, discs_per_point=5, check_stability=False)
        assert report.kernel_dimension == 1
        assert len(predicted_one_point_kernel(0)) == 1
        assert report.max_principal_angle == 0.0
        # off the origin there is no prediction, and no angle, at every degree
        report = kernel_experiment(P2, d=0, discs_per_point=5, check_stability=False)
        assert report.kernel_dimension == 1
        assert report.max_principal_angle is None

    def test_exterior_rejected(self):
        with pytest.raises(ValueError):
            kernel_experiment(Complex2(0.0, 1.5), d=2, discs_per_point=5,
                              check_stability=False)


class TestTwoPointProbe:
    def test_contains_holomorphic_span(self):
        report = kernel_experiment(P1, P2, d=3, discs_per_point=25, seed=1,
                                   check_stability=False)
        assert report.kernel_dimension >= len(holomorphic_basis(3))
        assert report.max_principal_angle < 1e-8

    @pytest.mark.parametrize("d, n, dim", [(3, 1, 24), (4, 3, 32), (6, 4, 93)])
    def test_rank_short_angle_is_zero_by_construction(self, d, n, dim, gram_calls):
        # null vectors exist, yet the kernel holds the holomorphic coordinate
        # directions by construction: the angle is reported without a Gram matrix
        report = kernel_experiment(Complex2(0.1, 0.05j), P2, d=d, discs_per_point=n,
                                   seed=7, check_stability=False)
        assert report.kernel_dimension == dim
        assert report.null_vectors.shape[1] > 0
        assert report.max_principal_angle == 0.0
        assert gram_calls == []
        assert _angle_to_holomorphic_span(report) < 1e-14

    @pytest.mark.parametrize(
        "points",
        [
            (P1, P2, Complex2(-0.5, 0), Complex2(0.25, 0)),
            (P1, P2, Complex2(-0.5, 0), Complex2(0.25, 0), Complex2(0.1j, 0)),
        ],
        ids=["four", "five"],
    )
    def test_collinear_rejected_whatever_the_number(self, points):
        # every three of these points lie on z2 = 0, and so do all of them
        with pytest.raises(
            CollinearPoints, match=f"^the {len(points)} points lie on one complex line$"
        ):
            kernel_experiment(*points, d=3, discs_per_point=20, seed=7,
                              check_stability=False)

    def test_one_point_off_the_line_passes(self):
        points = (P1, P2, Complex2(-0.5, 0), Complex2(0.25, 0.3))
        report = kernel_experiment(*points, d=3, discs_per_point=20, seed=7,
                                   check_stability=False)
        assert report.kernel_dimension == report.expected_holomorphic_dimension

    def test_distinct_points_required(self):
        # a third point equal to the first or the second also puts the three
        # on one complex line: the error names the coincidence
        for points in [(P2, P2), (P1, P2, P1), (P1, P2, P2)]:
            with pytest.raises(CollinearPoints, match="^points must be pairwise distinct$"):
                kernel_experiment(*points, d=2, discs_per_point=5,
                                  check_stability=False)

    def test_degree_zero(self):
        report = kernel_experiment(P1, P2, d=0, discs_per_point=5,
                                   check_stability=False)
        assert report.kernel_dimension == 1
        assert report.max_principal_angle == 0.0

    def test_exterior_rejected(self):
        with pytest.raises(ValueError):
            kernel_experiment(P1, Complex2(1.5, 0), d=2, discs_per_point=5,
                              check_stability=False)


def holomorphic_value(f: HermitianPolynomial, z: Complex2) -> complex:
    """f(z) for a holomorphic f at an interior z != 0, from oracles.evaluate
    at the sphere point z/|z|: the degree-m part of f scales by |z|^m."""
    r = z.norm()
    parts = {}
    for k, c in f.terms.items():
        parts.setdefault(sum(k), {})[k] = c
    u = Complex2(z.z1 / r, z.z2 / r)
    return sum(r**m * evaluate(HermitianPolynomial(t), u) for m, t in parts.items())


class TestExtensionConsistency:
    HOLOMORPHIC = HermitianPolynomial(
        {(2, 1, 0, 0): 1.0, (0, 0, 0, 0): 0.5, (0, 3, 0, 0): -0.3j, (1, 0, 0, 0): 2.0}
    )
    Z = Complex2(0.1 + 0.05j, 0.2 - 0.1j)

    def test_holomorphic_trivial(self):
        f = HermitianPolynomial.monomial((2, 1), (0, 0))
        value, discrepancy = extension_consistency(f, P1, P2, P3, z=Complex2(0.1, 0.2))
        assert value == pytest.approx(0.1**2 * 0.2, abs=1e-15)
        assert discrepancy < 1e-12

    @pytest.mark.parametrize("count", [2, 3, 4])
    @pytest.mark.parametrize("trace", [False, True], ids=["holomorphic", "times-norm"])
    def test_value_and_discrepancy(self, count, trace):
        # times-norm: f (|z1|^2 + |z2|^2) equals f on the sphere, so its
        # extension into every disc is f itself
        f = self.HOLOMORPHIC
        g = HermitianPolynomial({
            (a1 + e1, a2 + e2, e1, e2): c
            for (a1, a2, _, _), c in f.terms.items() for e1, e2 in ((1, 0), (0, 1))
        }) if trace else f
        value, discrepancy = extension_consistency(g, *POINT_SETS[count], z=self.Z)
        bound = 1e-10 * (1 + sum(abs(c) for c in g.terms.values()))
        assert abs(value - holomorphic_value(f, self.Z)) <= bound
        assert discrepancy < 1e-8

    @pytest.mark.parametrize("count", [2, 3, 4])
    def test_non_extendible(self, count):
        f = HermitianPolynomial.monomial((0, 1), (0, 1))  # |z2|^2
        with pytest.raises(NotExtendible):
            extension_consistency(f, *POINT_SETS[count], z=self.Z)

    @pytest.mark.parametrize("points", [(), (P2,)], ids=["none", "one"])
    def test_needs_two_points(self, points):
        # one point leaves no second disc to compare against
        with pytest.raises(ValueError, match="^need at least two points$"):
            extension_consistency(self.HOLOMORPHIC, *points, z=self.Z)

    def test_kernel_elements(self, main_report):
        rng = np.random.default_rng(0)
        polys = kernel_polynomials(main_report)
        for _ in range(5):
            coeffs = rng.normal(size=len(polys))
            f = HermitianPolynomial()
            for c, p in zip(coeffs, polys):
                f = f + float(c) * p
            z = Complex2(complex(*rng.uniform(-0.3, 0.3, 2)),
                         complex(*rng.uniform(-0.3, 0.3, 2)))
            assert extension_consistency(f, P1, P2, P3, z=z)[1] < 1e-8


def broadcast_min_distance(d1, d2, P, n_tau=48, radius=1e-3):
    """The pairwise lift-curve distance by direct (n, n, 2) differences and
    1 - |<zeta, zeta'>|^2, excluding base points within radius of P: the
    reference of the matrix-product form."""
    rr = np.linspace(0.05, 0.95, 6)
    th = 2 * np.pi * np.arange(n_tau) / n_tau
    taus = (rr[:, None] * np.exp(1j * th)[None, :]).ravel()
    b1, z1 = lemmas._lift_curve_samples(d1, taus)
    b2, z2 = lemmas._lift_curve_samples(d2, taus)
    Pv = P.as_array()
    keep1 = np.linalg.norm(b1 - Pv, axis=1) > radius
    keep2 = np.linalg.norm(b2 - Pv, axis=1) > radius
    b1, z1, b2, z2 = b1[keep1], z1[keep1], b2[keep2], z2[keep2]
    base_d2 = np.sum(np.abs(b1[:, None, :] - b2[None, :, :]) ** 2, axis=2)
    fiber_d2 = np.clip(1.0 - np.abs(z1 @ z2.conj().T) ** 2, 0.0, None)
    return float(np.sqrt(np.min(base_d2 + fiber_d2)))


class TestLiftPairMinDistance:
    def test_matches_broadcast_formula(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            P = random_interior_point(rng)
            d1 = disc_from_line(P, random_direction(rng))
            d2 = disc_from_line(P, random_direction(rng))
            assert abs(lift_pair_min_distance(d1, d2, P) - broadcast_min_distance(d1, d2, P)) < 1e-12

    def test_identical_discs_meet(self):
        # the control the 1e-6 injectivity threshold must reject
        rng = np.random.default_rng(12)
        for _ in range(20):
            P = random_interior_point(rng)
            d = disc_from_line(P, random_direction(rng))
            assert lift_pair_min_distance(d, d, P) < 1e-7

    def test_center_on_the_parameter_grid(self):
        # P = A(tau) at a grid parameter of the first disc, whose sample there
        # falls in the 1e-3 exclusion around P; a second disc through P in a
        # nearby direction often comes closest at P, so the exclusion moves
        # the minimum in some of these scenes
        rng = np.random.default_rng(13)
        taus = np.linspace(0.05, 0.95, 6)[:, None] * np.exp(2j * np.pi * np.arange(48) / 48)
        moved = 0
        for _ in range(50):
            v = random_direction(rng).as_array()
            d1 = disc_from_line(random_interior_point(rng, rmax=0.6), Complex2(*v))
            tau = taus.flat[rng.integers(taus.size)]
            P = d1.point(tau)
            w = v + 3e-2 * random_direction(rng).as_array()
            d2 = disc_from_line(P, Complex2(*w))
            base, _ = lemmas._lift_curve_samples(d1, [tau])
            assert np.linalg.norm(base[0] - P.as_array()) < 1e-3
            expected = broadcast_min_distance(d1, d2, P)
            assert abs(lift_pair_min_distance(d1, d2, P) - expected) < 1e-12
            moved += expected > broadcast_min_distance(d1, d2, P, radius=0.0) + 1e-6
        assert moved > 0


# the order in which lemma_suite reports its checks; bench/run.py compares
# its LEMMA_NAMES with the same tuple
LEMMA_NAMES = (
    "disc_sphere_attachment",
    "disc_canonicalization_symmetry",
    "lift_constant_through_origin",
    "boundary_lift_is_conormal",
    "lift_injectivity",
    "automorphism_disc_equivariance",
    "omega_holomorphy_fft",
    "span_equality_boundary",
    "span_equality_instance",
    "m0_pluriharmonicity",
    "contraction_realness",
    "contraction_identities",
    "transversality_rank",
    "direction_sweep_winding",
    "winding_instance",
)


@pytest.fixture(scope="module")
def lemma_reports():
    return {seed: lemma_suite(seed=seed) for seed in range(5)}


class TestLemmaSuite:
    def test_small_run_structure(self, lemma_reports):
        report = lemma_reports[1]
        assert tuple(c.name for c in report.checks) == LEMMA_NAMES
        assert report.all_passed
        doc = report.to_json_dict()
        assert doc["schema"] == "v1"
        assert doc["all_passed"] is True

    @pytest.mark.parametrize("seed", range(5))
    def test_every_check_passes(self, lemma_reports, seed):
        report = lemma_reports[seed]
        assert tuple(c.name for c in report.checks) == LEMMA_NAMES
        assert [c.name for c in report.checks if not c.passed] == []
        assert report.checks[LEMMA_NAMES.index("m0_pluriharmonicity")].threshold == 1e-12

    def test_winding_entry_value(self, lemma_reports):
        entry = {c.name: c for c in lemma_reports[1].checks}["winding_instance"]
        assert entry.passed


class TestCircleMeanDefect:
    @pytest.mark.parametrize(
        "u, levi",
        [
            # |z2|^2 has Levi form |v2|^2: 1 along e2
            (lambda w: np.abs(w[..., 1]) ** 2, 1.0),
            # Re and Im of z1 conj(z2) are seen only along e1 + e2 and
            # e1 + i e2, each with |v1 conj(v2)| = 1/2
            (lambda w: (w[..., 0] * np.conj(w[..., 1])).real, 0.5),
            (lambda w: (w[..., 0] * np.conj(w[..., 1])).imag, 0.5),
        ],
        ids=["modulus", "mixed-real", "mixed-imaginary"],
    )
    def test_reads_the_levi_form(self, u, levi):
        # the negative control of m0_pluriharmonicity: rho^2 L(v, v) at
        # rho = 0.1, far above its 1e-12 threshold
        rng = np.random.default_rng(5)
        centres = rng.normal(size=(7, 3)) + 1j * rng.normal(size=(7, 3))
        defect = lemmas._circle_mean_defect(u, centres)
        assert defect == pytest.approx(1e-2 * levi, rel=1e-12)
