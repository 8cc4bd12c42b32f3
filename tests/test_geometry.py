import math
import random

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from disctrace import (
    HermitianPolynomial,
    disc_from_lift_point,
    extension_consistency,
    kernel_experiment,
    sample_disc_families,
)
from disctrace.geometry import (
    BallAutomorphism,
    CP1Point,
    Complex2,
    apply_automorphism,
    cp1_distance,
    hermitian_inner,
)

finite = st.floats(-2.0, 2.0, allow_nan=False)


def cplx(re, im):
    return complex(re, im)


points = st.builds(
    lambda a, b, c, d: Complex2(cplx(a, b), cplx(c, d)), finite, finite, finite, finite
)


class TestComplex2:
    def test_array_round_trip(self):
        p = Complex2(1 + 2j, -0.5j)
        assert np.allclose(Complex2(*p.as_array()).as_array(), p.as_array())

    def test_norm(self):
        assert Complex2(3.0, 4.0).norm() == pytest.approx(5.0)

    def test_norm_of_huge_coordinates(self):
        # a square overflows above about 1.3e154 and used to raise
        # OverflowError; the norm itself is inf only above the float range
        assert Complex2(1e200, 0).norm() == 1e200
        assert Complex2(1e200, 1e200j).norm() == pytest.approx(math.sqrt(2) * 1e200)
        # each square is finite, their sum is not
        assert Complex2(1.2e154, 1.2e154).norm() == pytest.approx(
            math.sqrt(2) * 1.2e154
        )
        assert Complex2(1.7e308 + 1.7e308j, 0).norm() == math.inf

    def test_norm_keeps_its_formula_below_the_overflow(self):
        rng = random.Random(0)
        for _ in range(10_000):
            z1, z2 = (
                complex(*(rng.uniform(-1, 1) * 10.0 ** rng.randint(-150, 149)
                          for _ in range(2)))
                for _ in range(2)
            )
            expected = math.sqrt(abs(z1) ** 2 + abs(z2) ** 2)
            assert Complex2(z1, z2).norm().hex() == expected.hex()

    def test_rejects_non_finite(self):
        # as Python floats and complex numbers and as numpy scalars
        for bad in [np.inf, float("nan"), float("-inf"), complex(0.5, float("nan")),
                    complex(float("inf"), 0.0), np.complex128(complex(0.0, -np.inf)),
                    np.complex128(complex(np.nan, 0.0))]:
            with pytest.raises(ValueError):
                Complex2(bad, 0.0)
            with pytest.raises(ValueError):
                Complex2(0.1j, bad)


class TestHermitianInner:
    @given(points, points)
    def test_conjugate_symmetry(self, u, v):
        assert hermitian_inner(u, v) == pytest.approx(
            np.conj(hermitian_inner(v, u)), abs=1e-12
        )

    @given(points)
    def test_norm_consistency(self, u):
        assert hermitian_inner(u, u).real == pytest.approx(u.norm() ** 2, abs=1e-12)

    def test_second_slot_conjugate_linear(self):
        u, v = Complex2(1.0, 1j), Complex2(2j, 1.0)
        s = 0.3 + 0.7j
        scaled = Complex2(s * v.z1, s * v.z2)
        assert hermitian_inner(u, scaled) == pytest.approx(
            np.conj(s) * hermitian_inner(u, v)
        )

    def test_instance(self):
        # <(1, i), (i, 1)> = 1*(-i) + i*1 = 0
        assert hermitian_inner(Complex2(1.0, 1j), Complex2(1j, 1.0)) == pytest.approx(
            0.0
        )


class TestCP1Point:
    def test_canonical_representative(self):
        p = CP1Point(2j, -2.0)
        assert abs(np.linalg.norm(p.as_array()) - 1.0) < 1e-14
        assert p.zeta1.imag == pytest.approx(0.0, abs=1e-15)
        assert p.zeta1.real > 0

    def test_projective_equality_is_componentwise(self):
        p = CP1Point(1.0, 1j)
        q = CP1Point(-3j, 3.0)  # same class, different representative
        assert np.allclose(p.as_array(), q.as_array())

    def test_exact_real_multiples_are_equal(self):
        # each part is divided by the largest one, so an exact real factor
        # leaves the same quotients, bit for bit
        assert CP1Point(1, 1j) == CP1Point(3, 3j) == CP1Point(0.25, 0.25j)

    def test_affine_chart(self):
        assert CP1Point(2.0, 1j).affine == pytest.approx(0.5j)
        assert CP1Point(0.0, 1.0).affine == complex(np.inf)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            CP1Point(0.0, 0.0)

    def test_tiny_representatives(self):
        # |v|^2 underflows to zero here, but v is a nonzero finite vector
        assert CP1Point(0, 1e-200).as_array() == pytest.approx([0.0, 1.0])
        p = CP1Point(1e-300, 1e-300j)
        assert p.as_array() == pytest.approx(np.array([1.0, 1j]) / np.sqrt(2))
        assert abs(np.linalg.norm(p.as_array()) - 1.0) < 1e-15

    def test_huge_representatives(self):
        # |v|^2 overflows to infinity, but v is a nonzero finite vector
        assert CP1Point(1e200, 0).as_array() == pytest.approx([1.0, 0.0])
        p = CP1Point(1e300, -1e300j)
        assert p.as_array() == pytest.approx(np.array([1.0, -1j]) / np.sqrt(2))


class TestCP1Distance:
    def test_identical_points_exactly_zero(self):
        p = CP1Point(0.3 + 0.4j, 0.5 - 0.2j)
        assert cp1_distance(p, p) == 0.0

    def test_orthogonal_classes(self):
        assert cp1_distance(CP1Point(1.0, 0.0), CP1Point(0.0, 1.0)) == pytest.approx(
            1.0
        )

    @given(finite, finite, finite, finite)
    @example(-1.0, 0.0, 1e-200, 0.0)
    def test_scale_invariance(self, a, b, c, d):
        v = np.array([cplx(a, b) + 1.0, cplx(c, d)])
        assume(np.any(v != 0))  # the zero vector is not a point of CP^1
        p = CP1Point(v[0], v[1])
        q = CP1Point(5j * v[0], 5j * v[1])
        assert cp1_distance(p, q) < 1e-14

    def test_matches_sine_formula(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            v, w = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            p, q = CP1Point(*v), CP1Point(*w)
            ip = abs(np.vdot(q.as_array(), p.as_array()))
            assert cp1_distance(p, q) == pytest.approx(
                np.sqrt(max(0.0, 1.0 - ip**2)), abs=1e-7
            )


class TestBallAutomorphism:
    def test_identity(self):
        # phi_0 is z -> -z, so the identity needs the unitary factor -I
        z = Complex2(0.3, 0.4j)
        w = apply_automorphism(BallAutomorphism(Complex2(0, 0), -np.eye(2)), z)
        assert np.allclose(w.as_array(), z.as_array())

    def test_involution_swaps_center_and_origin(self):
        a = Complex2(0.3, 0.1 - 0.2j)
        phi = BallAutomorphism(a, np.eye(2))
        assert apply_automorphism(phi, a).norm() < 1e-14
        assert np.allclose(
            apply_automorphism(phi, Complex2(0, 0)).as_array(), a.as_array()
        )

    def test_involution_is_self_inverse(self):
        rng = np.random.default_rng(1)
        a = Complex2(0.2 + 0.1j, -0.3j)
        phi = BallAutomorphism(a, np.eye(2))
        for _ in range(50):
            v = rng.uniform(-0.45, 0.45, size=4)
            z = Complex2(cplx(v[0], v[1]), cplx(v[2], v[3]))
            w = apply_automorphism(phi, apply_automorphism(phi, z))
            assert np.allclose(w.as_array(), z.as_array(), atol=1e-13)

    def test_preserves_sphere(self):
        rng = np.random.default_rng(2)
        q = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        phi = BallAutomorphism(Complex2(0.4, 0.2j), np.linalg.qr(q)[0])
        for _ in range(50):
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            v = v / np.linalg.norm(v)
            w = apply_automorphism(phi, Complex2(v[0], v[1]))
            assert abs(w.norm() - 1.0) < 1e-12

    def test_rejects_exterior_point(self):
        phi = BallAutomorphism(Complex2(0, 0), -np.eye(2))
        with pytest.raises(ValueError, match=r"\|z\| = 1\.\d+ > 1"):
            apply_automorphism(phi, Complex2(1.1, 0.2))

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            BallAutomorphism(Complex2(0, 0), np.array([[1.0, 0.0], [0.0, 2.0]]))

    def test_rejects_non_2x2_factor(self):
        with pytest.raises(ValueError, match="2x2"):
            BallAutomorphism(Complex2(0, 0), np.eye(3))

    @pytest.mark.parametrize("a", [Complex2(1.0, 0.0), Complex2(2.0, 0.0)])
    def test_rejects_center_off_the_ball(self, a):
        with pytest.raises(ValueError, match="interior"):
            BallAutomorphism(a, np.eye(2))


HUGE = Complex2(1e200, 0)
INTERIOR = (Complex2(0.5, 0), Complex2(0, 0.5))


@pytest.mark.parametrize(
    "call",
    [
        lambda: kernel_experiment(HUGE, d=2, discs_per_point=3),
        lambda: kernel_experiment(*INTERIOR, HUGE, d=2, discs_per_point=3),
        lambda: sample_disc_families([*INTERIOR, HUGE], 3, 0),
        lambda: extension_consistency(
            HermitianPolynomial({(2, 1, 0, 0): 1.0}), *INTERIOR, z=HUGE
        ),
        lambda: BallAutomorphism(HUGE, np.eye(2)),
        lambda: apply_automorphism(BallAutomorphism(Complex2(0, 0), np.eye(2)), HUGE),
        lambda: disc_from_lift_point(HUGE, CP1Point(1.0, 0.0)),
    ],
    ids=["kernel_experiment", "kernel_experiment-third", "sample_disc_families",
         "extension_consistency", "BallAutomorphism", "apply_automorphism",
         "disc_from_lift_point"],
)
def test_huge_coordinate_is_a_value_error(call):
    # every point check used to square the coordinate and raise OverflowError
    with pytest.raises(ValueError):
        call()
