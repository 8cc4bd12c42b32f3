import numpy as np
import pytest

from disctrace.boundary import HermitianPolynomial, holomorphic_basis, reduced_basis
from disctrace.discs import disc_from_line
from disctrace.errors import CollinearPoints, DegenerateSample
from disctrace.geometry import Complex2
from disctrace import verification
from disctrace.moments import restrict_to_disc
from disctrace.verification import (
    build_moment_matrix,
    extension_consistency,
    kernel_experiment,
    lemma_suite,
    lift_pair_min_distance,
    one_point_control,
    predicted_one_point_kernel,
    random_direction,
    random_interior_point,
    sample_disc_family,
    two_point_probe,
)

P1 = Complex2(0.0, 0.0)
P2 = Complex2(0.5, 0.0)
P3 = Complex2(0.0, 0.5)


@pytest.fixture(scope="module")
def main_report():
    return kernel_experiment(P1, P2, P3, d=4, discs_per_point=30, seed=7)


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


class TestMomentMatrix:
    def test_shape_and_entries(self):
        discs = sample_disc_family(P2, 5, seed=0)
        M = build_moment_matrix(3, discs)
        basis = reduced_basis(3)
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

    def test_holomorphic_columns_vanish(self):
        discs = sample_disc_family(P3, 8, seed=2)
        M = build_moment_matrix(4, discs)
        holo = [M.basis.index(k) for k in holomorphic_basis(4)]
        assert np.all(M.matrix[:, holo] == 0.0)

    def test_block_boundaries_do_not_matter(self):
        d = 12
        bytes_per_disc = 16 * (2 * d + 2) * (len(reduced_basis(d)) - len(holomorphic_basis(d)))
        per_block = verification._BLOCK_BYTES // bytes_per_disc
        discs = sample_disc_family(P2, 2 * per_block + 4, seed=3)
        half = len(discs) // 2
        whole = build_moment_matrix(d, discs).matrix
        parts = np.vstack(
            [build_moment_matrix(d, discs[:half]).matrix,
             build_moment_matrix(d, discs[half:]).matrix]
        )
        assert np.max(np.abs(whole - parts)) < 1e-14

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
        from disctrace.boundary import holomorphic_defect

        for f in main_report.kernel_polynomials():
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
            dims.append(M.matrix.shape[1] - rank)
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

    def test_degree_zero(self):
        report = kernel_experiment(P1, P2, P3, d=0, discs_per_point=5)
        assert report.kernel_dimension == 1
        assert report.max_principal_angle == 0.0
        assert report.spectral_gap == float("inf")

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
    def test_origin_control(self):
        ctl = one_point_control(P1, d=4, n=60, seed=7)
        assert ctl.report.kernel_dimension == 32
        assert ctl.predicted_dimension == 32
        assert ctl.angle_to_predicted < 1e-8

    def test_predicted_enumeration(self):
        pred = predicted_one_point_kernel(4)
        assert len(pred) == 32
        assert all(k[0] + k[1] >= k[2] + k[3] for k in pred)
        assert set(holomorphic_basis(4)) <= set(pred)

    def test_degree_zero(self):
        ctl = one_point_control(P1, d=0, n=5)
        assert ctl.report.kernel_dimension == 1
        assert ctl.predicted_dimension == 1
        assert ctl.angle_to_predicted == 0.0
        # off the origin there is no prediction, at every degree
        ctl = one_point_control(P2, d=0, n=5)
        assert ctl.report.kernel_dimension == 1
        assert ctl.predicted_dimension is None
        assert ctl.angle_to_predicted is None

    def test_exterior_rejected(self):
        with pytest.raises(ValueError):
            one_point_control(Complex2(0.0, 1.5), d=2, n=5)


class TestTwoPointProbe:
    def test_contains_holomorphic_span(self):
        report = two_point_probe(P1, P2, d=3, n=25, seed=1)
        assert report.kernel_dimension >= len(holomorphic_basis(3))
        assert report.max_principal_angle < 1e-8

    def test_distinct_points_required(self):
        with pytest.raises(CollinearPoints):
            two_point_probe(P2, P2, d=2, n=5)

    def test_degree_zero(self):
        report = two_point_probe(P1, P2, d=0, n=5)
        assert report.kernel_dimension == 1
        assert report.max_principal_angle == 0.0

    def test_exterior_rejected(self):
        with pytest.raises(ValueError):
            two_point_probe(P1, Complex2(1.5, 0), d=2, n=5)


class TestExtensionConsistency:
    def test_holomorphic_trivial(self):
        f = HermitianPolynomial.monomial((2, 1), (0, 0))
        assert extension_consistency(f, P1, P2, P3, Complex2(0.1, 0.2)) < 1e-12

    def test_kernel_elements(self, main_report):
        rng = np.random.default_rng(0)
        polys = main_report.kernel_polynomials()
        for _ in range(5):
            coeffs = rng.normal(size=len(polys))
            f = HermitianPolynomial()
            for c, p in zip(coeffs, polys):
                f = f + float(c) * p
            z = Complex2(complex(*rng.uniform(-0.3, 0.3, 2)),
                         complex(*rng.uniform(-0.3, 0.3, 2)))
            assert extension_consistency(f, P1, P2, P3, z, tol=1e-6) < 1e-8

    def test_needs_two_discs(self):
        with pytest.raises(ValueError):
            extension_consistency(HermitianPolynomial(), P1, P2, P3,
                                  Complex2(0.1, 0.0), m=1)


def broadcast_min_distance(d1, d2, P, n_tau=48, radius=1e-3):
    """The pairwise lift-curve distance by direct (n, n, 2) differences and
    1 - |<zeta, zeta'>|^2, excluding base points within radius of P: the
    reference of the matrix-product form."""
    rr = np.linspace(0.05, 0.95, 6)
    th = 2 * np.pi * np.arange(n_tau) / n_tau
    taus = (rr[:, None] * np.exp(1j * th)[None, :]).ravel()
    b1, z1 = verification._lift_curve_samples(d1, taus)
    b2, z2 = verification._lift_curve_samples(d2, taus)
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
            d1 = disc_from_line(random_interior_point(rng, rmax=0.6), Complex2.from_array(v))
            tau = taus.flat[rng.integers(taus.size)]
            P = d1.point(tau)
            w = v + 3e-2 * random_direction(rng).as_array()
            d2 = disc_from_line(P, Complex2.from_array(w))
            base, _ = verification._lift_curve_samples(d1, [tau])
            assert np.linalg.norm(base[0] - P.as_array()) < 1e-3
            expected = broadcast_min_distance(d1, d2, P)
            assert abs(lift_pair_min_distance(d1, d2, P) - expected) < 1e-12
            moved += expected > broadcast_min_distance(d1, d2, P, radius=0.0) + 1e-6
        assert moved > 0


class TestLemmaSuite:
    def test_small_run_structure(self):
        report = lemma_suite(seed=1, samples=20, identity_samples=50,
                             scene_samples=3)
        assert len(report.checks) >= 10
        names = [c.name for c in report.checks]
        assert "span_equality_instance" in names
        assert "winding_instance" in names
        assert report.all_passed
        doc = report.to_json_dict()
        assert doc["schema"] == "v1"
        assert doc["all_passed"] is True

    def test_no_identity_samples(self):
        report = lemma_suite(seed=1, samples=5, identity_samples=0, scene_samples=2)
        checks = {c.name: c for c in report.checks}
        assert checks["contraction_realness"].value == 0.0
        assert checks["contraction_identities"].value == 0.0

    def test_winding_entry_value(self):
        report = lemma_suite(seed=1, samples=5, identity_samples=10,
                             scene_samples=2)
        entry = {c.name: c for c in report.checks}["winding_instance"]
        assert entry.passed
