import numpy as np
import pytest

from disctrace import crlifts
from disctrace.crlifts import (
    contract,
    direction_sweep_winding,
    family_class,
    family_tangent,
    m0_defining_value,
    omega_basis,
    omega_tilde_basis,
    pointing_direction,
    transported_direction,
    transversality_rank,
)
from disctrace.discs import LiftPoint, disc_from_line, disc_through_two_points, lift
from disctrace.errors import (
    BoundaryParameterOffCircle,
    ChartEvaluationFailure,
    PoleAtAxis,
    SingularAtCenter,
    SingularAtReflectedPole,
)
from disctrace.geometry import CP1Point, Complex2, cp1_distance
from disctrace.verification import random_direction, random_interior_point


class TestDefiningFunction:
    def test_vanishes_on_lifts_through_origin(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            v = rng.normal(size=4)
            disc = disc_from_line(Complex2(0, 0), Complex2(*(v[:2] @ [1, 1j], v[2:] @ [1, 1j])))
            tau = rng.uniform(0.05, 0.95) * np.exp(2j * np.pi * rng.uniform())
            z1, z2, z3 = lift(disc, tau).as_c3()
            if abs(z1) < 1e-3:
                continue
            assert abs(m0_defining_value(z1, z2, z3)) < 1e-10

    def test_pole_at_axis(self):
        with pytest.raises(PoleAtAxis):
            m0_defining_value(0.0, 0.5, 0.1)
        # the guard covers every element of an array call
        with pytest.raises(PoleAtAxis):
            m0_defining_value(np.array([0.5, 0.0]), 0.5, 0.1)


class TestOmegaBases:
    def test_omega_instance(self):
        w1, w2 = omega_basis(0.5, 0.0)
        assert np.allclose(w1, [0.0, -2.0, 1.0])
        assert np.allclose(w2, np.array([0.0, 2.0, 1.0]) / 1j)

    def test_omega_annihilates_family_tangents(self):
        # omega pairs to zero (bilinearly) with the holomorphic tangents of
        # the through-origin family: d/dtau of the lift and d/db of the
        # direction both lie in its kernel along the lifted axis disc
        for z1 in (0.3, 0.6 + 0.2j, -0.8):
            w1, w2 = omega_basis(z1, 0.0)
            # tangent of the lifted axis disc tau -> (tau, 0, 0)
            t1 = np.array([1.0, 0.0, 0.0])
            for w in (w1, w2):
                assert abs(contract(w, t1)) < 1e-12

    def test_omega_tilde_instance(self):
        w1, w2 = omega_tilde_basis(1.0, 0.5)
        assert np.allclose(w1, [0.0, -2.0, 2.0])
        assert np.allclose(w2, np.array([0.0, 2.0 / 1j, 2.0 / 1j]))

    def test_omega_tilde_reduces_to_omega_span(self):
        # on the unit circle, omega~ at zeta0 = 0 is a real multiple of omega
        for t in np.linspace(0.1, 6.0, 7):
            z1 = np.exp(1j * t)
            w1, w2 = omega_basis(z1, 0.0)
            wt1, wt2 = omega_tilde_basis(z1, 0.0)
            A = np.array([[w1[1], w2[1]], [w1[2], w2[2]]])
            for wt in (wt1, wt2):
                b = np.array([wt[1], wt[2]])
                x = np.linalg.solve(np.vstack([A.real, A.imag])[:2], b.real)
                resid = np.vstack([A.real, A.imag]) @ x - np.concatenate(
                    [b.real, b.imag]
                )
                assert np.linalg.norm(resid) < 1e-10

    def test_omega_broadcasts_bit_identically(self):
        # the lemma suite's holomorphy check makes one array call per radius
        rng = np.random.default_rng(3)
        z1 = rng.normal(size=(4, 50)) + 1j * rng.normal(size=(4, 50))
        z2 = rng.normal(size=50) + 1j * rng.normal(size=50)
        w = omega_basis(z1, z2)
        assert w[0].shape == w[1].shape == (3, 4, 50)
        for i, j in np.ndindex(z1.shape):
            for args in [(z1[i, j], z2[j]), (complex(z1[i, j]), complex(z2[j]))]:
                for wi, wk in zip(w, omega_basis(*args)):
                    assert np.array_equal(wi[:, i, j], wk)
        with pytest.raises(PoleAtAxis):
            omega_basis(np.array([0.5, 0.0, 0.3j]), 0.1)

    def test_singularities(self):
        with pytest.raises(PoleAtAxis):
            omega_basis(0.0, 0.1)
        with pytest.raises(SingularAtCenter):
            omega_tilde_basis(0.5, 0.5)
        with pytest.raises(SingularAtReflectedPole):
            omega_tilde_basis(2.0, 0.5)


class TestPointingDirection:
    def test_instance(self):
        v = pointing_direction(0.5, 1.0)
        assert np.allclose(v, [-0.8, 0.4, -0.4])

    def test_contraction_instance(self):
        v = pointing_direction(0.5, 1.0)
        w1, _ = omega_tilde_basis(1.0, 0.5)
        assert contract(w1, v) == pytest.approx(-1.6)

    def test_realness_and_closed_forms(self):
        rng = np.random.default_rng(1)
        for _ in range(500):
            z2 = (0.05 + 0.9 * rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
            zeta = np.exp(2j * np.pi * rng.uniform())
            zeta0 = 0.9 * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
            if abs(zeta - zeta0) < 1e-3:
                continue
            v = pointing_direction(z2, zeta)
            w1, w2 = omega_tilde_basis(zeta, zeta0)
            c1, c2 = contract(w1, v), contract(w2, v)
            assert abs(c1.imag) < 1e-12 and abs(c2.imag) < 1e-12
            w = z2 / (zeta - zeta0)
            scale = 1.0 + abs(z2) ** 2
            assert c1.real == pytest.approx(-2 * w.real / scale, abs=1e-10)
            assert c2.real == pytest.approx(2 * w.imag / scale, abs=1e-10)

    def test_rejects_off_circle_parameter(self):
        with pytest.raises(BoundaryParameterOffCircle):
            pointing_direction(0.5, 0.9)

    def test_rejects_on_axis_center(self):
        with pytest.raises(ValueError):
            pointing_direction(0.0, 1.0)


class TestTransport:
    def test_preserves_real_pairings(self):
        rng = np.random.default_rng(2)
        zeta0 = 0.3 + 0.2j
        for _ in range(50):
            zeta = np.exp(2j * np.pi * rng.uniform())
            zeta_Q = 0.9 * np.exp(2j * np.pi * rng.uniform())
            if min(abs(zeta - zeta0), abs(zeta_Q - zeta0)) < 0.1:
                continue
            v = pointing_direction(0.4 - 0.1j, zeta)
            e1 = np.array([0.0, 1.0, 0.0], dtype=complex)
            e2 = np.array([0.0, 0.0, 1.0], dtype=complex)
            u = transported_direction(v, zeta, zeta_Q, zeta0, (e1, e2))
            ws, _ = omega_tilde_basis(zeta, zeta0)
            wt, wt2 = omega_tilde_basis(zeta_Q, zeta0)
            assert contract(wt, u).real == pytest.approx(
                contract(ws, v).real, abs=1e-10
            )


class TestWinding:
    def test_instance(self):
        assert direction_sweep_winding(0.5, 0.5, -1.0 + 0j) in (-1, 1)

    def test_nonzero_on_random_scenes(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            z2 = (0.1 + 0.8 * rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
            zeta0 = 0.8 * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
            assert direction_sweep_winding(z2, zeta0, -1.0 + 0j) != 0

    def test_singular_target(self):
        with pytest.raises(SingularAtCenter):
            direction_sweep_winding(0.5, 0.5, 0.5 + 0j)


class TestBroadcast:
    """The sweep functions over an array of boundary parameters agree with
    their scalar calls, and their guards hold for every element."""

    def test_matches_scalar_calls(self):
        rng = np.random.default_rng(8)
        zeta = np.exp(2j * np.pi * rng.uniform(size=64))
        for _ in range(20):
            z2 = (0.1 + 0.8 * rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
            zeta0 = 0.8 * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
            v = pointing_direction(z2, zeta)
            w = omega_tilde_basis(zeta, zeta0)
            pairings = [contract(wi, v) for wi in w]
            assert v.shape == w[0].shape == (3, 64)
            for k, t in enumerate(zeta):
                vk = pointing_direction(z2, t)
                assert np.allclose(v[:, k], vk, rtol=1e-14, atol=0)
                for wi, pi, wk in zip(w, pairings, omega_tilde_basis(t, zeta0)):
                    assert np.allclose(wi[:, k], wk, rtol=1e-14, atol=0)
                    assert abs(pi[k] - contract(wk, vk)) <= 1e-14 * abs(pi[k])

    def test_bit_identical_over_every_argument(self):
        # the lemma suite's contraction check broadcasts over z2, zeta and
        # zeta0 at once and must report the values of its scalar loop
        rng = np.random.default_rng(9)
        u = rng.uniform(size=(500, 5))
        z2 = (0.05 + 0.9 * u[:, 0]) * np.exp(2j * np.pi * u[:, 1])
        zeta = np.exp(2j * np.pi * u[:, 2])
        zeta0 = 0.9 * u[:, 3] * np.exp(2j * np.pi * u[:, 4])
        v = pointing_direction(z2, zeta)
        w = omega_tilde_basis(zeta, zeta0)
        pairings = [contract(wi, v) for wi in w]
        for k in range(len(z2)):
            vk = pointing_direction(z2[k], zeta[k])
            wk = omega_tilde_basis(zeta[k], zeta0[k])
            assert np.array_equal(v[:, k], vk)
            for wi, pi, wik in zip(w, pairings, wk):
                assert np.array_equal(wi[:, k], wik)
                assert pi[k] == contract(wik, vk)

    def test_guards_hold_for_every_element(self):
        circle = np.exp(2j * np.pi * np.arange(8) / 8)
        with pytest.raises(SingularAtCenter):
            omega_tilde_basis(circle, circle[3])
        with pytest.raises(SingularAtReflectedPole):
            omega_tilde_basis(np.append(circle, 2.0), 0.5)
        with pytest.raises(BoundaryParameterOffCircle, match="0.9"):
            pointing_direction(0.5, np.append(circle, 0.9))


class TestFamilyGraph:
    def test_class_matches_lift(self):
        rng = np.random.default_rng(6)
        worst, count = 0.0, 0
        while count < 2000:
            P = random_interior_point(rng)
            disc = disc_from_line(P, random_direction(rng))
            tau = np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
            z = disc.point(tau)
            if Complex2(z.z1 - P.z1, z.z2 - P.z2).norm() <= 1e-3:
                continue
            count += 1
            worst = max(worst, cp1_distance(family_class(P, z), lift(disc, tau).zeta))
        assert worst < 1e-12

    def test_tangent_matches_central_differences(self):
        # the finite-difference oracle lives here only: the package
        # differentiates the closed formula exactly.  Scenes as in the lemma
        # suite, alternately on the sphere and inside the ball.
        rng = np.random.default_rng(7)
        h = 1e-6
        units = np.array([[1, 0], [0, 1], [1j, 0], [0, 1j]])
        tested = 0
        while tested < 200:
            P = random_interior_point(rng, rmax=0.7)
            disc = disc_from_line(P, random_direction(rng))
            r = 1.0 if tested % 2 else np.sqrt(rng.uniform())
            z = disc.point(r * np.exp(2j * np.pi * rng.uniform()))
            if Complex2(z.z1 - P.z1, z.z2 - P.z2).norm() < 0.05:
                continue
            if abs(family_class(P, z).zeta1) < 0.1:
                continue  # stay inside the affine chart
            tested += 1
            zv = z.as_array()

            def z3(w):
                return family_class(P, Complex2.from_array(w)).affine

            fd = np.array([(z3(zv + h * u) - z3(zv - h * u)) / (2 * h) for u in units])
            T = family_tangent(P, z)
            dz3 = T[2] + 1j * T[5]
            assert np.linalg.norm(fd - dz3) <= 1e-8 * np.linalg.norm(dz3)
            assert np.array_equal(T[[0, 1, 3, 4]], np.eye(4))

    def test_rejects_singular_fiber(self):
        P = Complex2(0.2, 0.1j)
        with pytest.raises(ChartEvaluationFailure):
            family_class(P, P)
        with pytest.raises(ChartEvaluationFailure):
            family_tangent(P, P)

    def test_rejects_point_off_the_chart(self):
        # on the sphere the class is [conj z], at infinity in z3 when z1 = 0
        with pytest.raises(ChartEvaluationFailure):
            family_tangent(Complex2(0.2, 0.1j), Complex2(0.0, 1.0))


class TestTransversality:
    def test_generic_rank_is_five(self):
        # both lifted families contain the 3-dimensional sphere-conormal
        # edge, so the stacked tangents reach at most 4 + 4 - 3 = 5
        rng = np.random.default_rng(4)
        ranks = set()
        trials = 0
        while len(ranks) < 1 or trials < 10:
            trials += 1
            v = rng.uniform(-0.5, 0.5, size=8)
            P1 = Complex2(complex(v[0], v[1]), complex(v[2], v[3]))
            P2 = Complex2(complex(v[4], v[5]), complex(v[6], v[7]))
            if Complex2(P1.z1 - P2.z1, P1.z2 - P2.z2).norm() < 0.1:
                continue
            disc = disc_from_line(
                P1, Complex2(complex(*rng.normal(size=2)), complex(*rng.normal(size=2)))
            )
            if disc.line_distance(P2) < 0.05:
                continue
            point = lift(disc, np.exp(2j * np.pi * rng.uniform()))
            if abs(point.zeta.zeta1) < 0.1:
                continue
            ranks.add(transversality_rank(P1, P2, point))
        assert ranks == {5}

    def test_pinned_scene_rank_is_five(self):
        # finite-difference tangents put sigma_6 / sigma_0 above the 1e-8
        # cutoff at this scene (9.6e-8 with unrefined central differences)
        P1 = Complex2(
            0.07149613023570933 + 0.22998241713474166j,
            -0.4606490635264341 + 0.22488009018810706j,
        )
        P2 = Complex2(
            0.36091475925583616 + 0.0016942311864932558j,
            0.12322534912268823 - 0.07333374107601132j,
        )
        z = Complex2(
            0.36542433999933344 - 0.0037564101888834522j,
            -0.9291929729515873 + 0.05523911780554669j,
        )
        disc, _, tau_z = disc_through_two_points(P1, z)
        assert transversality_rank(P1, P2, lift(disc, tau_z)) == 5

    def test_identical_families_rank_four(self):
        P = Complex2(0.5, 0.0)
        point = lift(disc_from_line(P, Complex2(1.0, 0.0)), 1.0)
        assert transversality_rank(P, P, point) == 4

    def test_interior_point_rejected(self):
        P = Complex2(0.5, 0.0)
        point = lift(disc_from_line(P, Complex2(1.0, 0.0)), 0.5)
        with pytest.raises(ChartEvaluationFailure):
            transversality_rank(P, Complex2(0.0, 0.5), point)

    def test_class_off_the_sphere_conormal_rejected(self):
        # every family passes through [conj z] on the sphere; another class
        # is on neither family
        z = Complex2(0.6, 0.8j)
        point = LiftPoint(z, CP1Point(1.0, 0.3))
        with pytest.raises(ChartEvaluationFailure):
            transversality_rank(Complex2(0.5, 0.0), Complex2(0.0, 0.5), point)

    def test_non_lift_point_rejected(self):
        # a TypeError, not an assert that python -O would strip
        point = lift(disc_from_line(Complex2(0.5, 0.0), Complex2(1.0, 0.0)), 1.0)
        with pytest.raises(TypeError, match="LiftPoint"):
            transversality_rank(Complex2(0.5, 0.0), Complex2(0.0, 0.5), point.as_c3())
