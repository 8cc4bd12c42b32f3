import numpy as np
import pytest

from disctrace import lemmas
from disctrace.discs import disc_from_line
from disctrace.geometry import Complex2
from disctrace.lemmas import (
    lemma_suite,
    lift_pair_min_distance,
    random_direction,
    random_interior_point,
)


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
