import json
import os
import subprocess
import sys

import numpy as np
import pytest

import disctrace
from disctrace.boundary import HermitianPolynomial
from disctrace.discs import (
    LiftPoint,
    StraightDisc,
    boundary_point,
    disc_from_lift_point,
    disc_from_line,
    disc_through_two_points,
    lift,
)
from disctrace.errors import CollinearPoints, LineMissesBall, NoSolution
from disctrace.geometry import (
    PHASE_EPS,
    CP1Point,
    Complex2,
    cp1_distance,
    hermitian_inner,
)
from disctrace.moments import extension_value, lifted_value


# g + (|z1|^2 + |z2|^2)*h extends along every disc, and its
# non-holomorphic terms take the sampled Laurent-coefficient path
EXTENDS_ALONG_EVERY_DISC = HermitianPolynomial(
    {(2, 1, 0, 0): 0.3 + 0.1j, (0, 3, 0, 0): -0.2, (0, 0, 0, 0): 0.5,
     (2, 0, 1, 0): 0.4j, (1, 1, 0, 1): 0.4j}
)


def random_interior(rng, rmax=0.9):
    while True:
        v = rng.uniform(-rmax, rmax, size=4)
        p = Complex2(complex(v[0], v[1]), complex(v[2], v[3]))
        if 1e-3 < p.norm() < rmax:
            return p


def random_direction(rng):
    v = rng.normal(size=4)
    return Complex2(complex(v[0], v[1]), complex(v[2], v[3]))


class TestStraightDisc:
    def test_validation(self):
        with pytest.raises(ValueError):
            StraightDisc(Complex2(0.5, 0.0), Complex2(0.5, 0.0))  # not orthogonal
        with pytest.raises(ValueError):
            StraightDisc(Complex2(0.5, 0.0), Complex2(0.0, 1.0))  # norms off
        with pytest.raises(ValueError, match="direction must be nonzero"):
            StraightDisc(Complex2(0.0, 0.0), Complex2(0.0, 0.0))

    def test_boundary_on_sphere(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            disc = disc_from_line(random_interior(rng), random_direction(rng))
            for t in np.linspace(0, 2 * np.pi, 17):
                assert abs(boundary_point(disc, t).norm() - 1.0) < 1e-12

    def test_parameter_of_inverts_point(self):
        disc = disc_from_line(Complex2(0.1, 0.2), Complex2(1.0, 1j))
        for tau in (0.0, 0.3 + 0.4j, -0.9j):
            assert disc.parameter_of(disc.point(tau)) == pytest.approx(tau, abs=1e-13)

    def test_line_distance(self):
        disc = disc_from_line(Complex2(0, 0), Complex2(1.0, 0.0))
        assert disc.line_distance(Complex2(0.5, 0.0)) < 1e-14
        assert disc.line_distance(Complex2(0.0, 0.3)) == pytest.approx(0.3)


class TestDiscFromLine:
    def test_foot_point_orthogonal(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            p, v = random_interior(rng), random_direction(rng)
            disc = disc_from_line(p, v)
            ortho = hermitian_inner(disc.a, disc.b)
            assert abs(ortho) < 2e-12
            assert disc.a.norm() ** 2 + disc.b.norm() ** 2 == pytest.approx(
                1.0, abs=1e-12
            )
            assert disc.line_distance(p) < 1e-12

    def test_same_line_same_disc(self):
        p, v = Complex2(0.1, 0.2j), Complex2(1.0, -1j)
        d1 = disc_from_line(p, v)
        q = d1.point(0.37 - 0.11j)
        d2 = disc_from_line(q, Complex2(-2j * v.z1, -2j * v.z2))
        assert np.allclose(d1.a.as_array(), d2.a.as_array(), atol=1e-13)
        assert np.allclose(d1.b.as_array(), d2.b.as_array(), atol=1e-13)

    def test_zero_direction(self):
        with pytest.raises(ValueError, match="line direction is zero"):
            disc_from_line(Complex2(0.1, 0.0), Complex2(0.0, 0.0))

    def test_line_missing_ball(self):
        with pytest.raises(LineMissesBall):
            disc_from_line(Complex2(2.0, 0.0), Complex2(0.0, 1.0))

    @pytest.mark.parametrize("v1", [0.0, 1e-15, -0.54e-14 + 0.72e-14j, 1.1e-14j, 0.3 - 0.4j])
    def test_canonical_phase_matches_cp1(self, v1):
        # the first component of b above PHASE_EPS in modulus is real
        # positive, as in the canonical representative of CP1Point
        v = Complex2(v1, -0.6 + 0.8j)
        b = disc_from_line(Complex2(0.1, 0.2j), v).b
        lead = b.z1 if abs(v1) > PHASE_EPS else b.z2
        assert lead.real > 0 and abs(lead.imag) <= 1e-15 * abs(lead)
        rep = CP1Point(v.z1, v.z2).as_array()
        assert np.allclose(b.as_array() / b.norm(), rep, rtol=0, atol=1e-15)


class TestDiscThroughTwoPoints:
    def test_instance(self):
        # the disc joining (0, 0.5) to the sphere point (1, 0)
        disc, tau_p, tau_q = disc_through_two_points(
            Complex2(0.0, 0.5), Complex2(1.0, 0.0)
        )
        assert np.allclose(disc.a.as_array(), [0.2, 0.4], atol=1e-12)
        assert np.allclose(disc.b.as_array(), [0.8, -0.4], atol=1e-12)
        assert abs(tau_q) == pytest.approx(1.0, abs=1e-12)
        assert tau_q == pytest.approx(1.0, abs=1e-12)
        for tau, p in ((tau_p, Complex2(0.0, 0.5)), (tau_q, Complex2(1.0, 0.0))):
            assert np.allclose(disc.point(tau).as_array(), p.as_array(), atol=1e-12)

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            p, q = random_interior(rng), random_interior(rng)
            if Complex2(p.z1 - q.z1, p.z2 - q.z2).norm() < 1e-3:
                continue
            d1, _, _ = disc_through_two_points(p, q)
            d2, _, _ = disc_through_two_points(q, p)
            assert np.allclose(d1.a.as_array(), d2.a.as_array(), atol=1e-12)
            assert np.allclose(d1.b.as_array(), d2.b.as_array(), atol=1e-12)

    def test_coincident_rejected(self):
        with pytest.raises(CollinearPoints, match="needs distinct points"):
            disc_through_two_points(Complex2(0.1, 0.0), Complex2(0.1, 0.0))

    def test_two_sphere_points_rejected(self):
        with pytest.raises(LineMissesBall):
            disc_through_two_points(Complex2(1.0, 0.0), Complex2(0.0, 1.0))


class TestLift:
    def test_through_origin_is_constant(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            disc = disc_from_line(Complex2(0, 0), random_direction(rng))
            ref = CP1Point(np.conj(disc.b.z1), np.conj(disc.b.z2))
            for tau in 0.95 * np.exp(1j * np.linspace(0, 2 * np.pi, 13)):
                assert cp1_distance(lift(disc, tau).zeta, ref) < 1e-12

    def test_boundary_is_sphere_conormal(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            disc = disc_from_line(random_interior(rng), random_direction(rng))
            for t in np.linspace(0, 2 * np.pi, 9):
                z = boundary_point(disc, t)
                conormal = CP1Point(np.conj(z.z1), np.conj(z.z2))
                assert cp1_distance(lift(disc, np.exp(1j * t)).zeta, conormal) < 1e-12

    def test_affine_instance(self):
        # for a=(0.2,0.4), b=(0.8,-0.4) the affine lift coordinate is
        # 0.5(tau - 1) / (0.25 tau + 1)
        disc, _, _ = disc_through_two_points(Complex2(0.0, 0.5), Complex2(1.0, 0.0))
        rng = np.random.default_rng(5)
        for _ in range(16):
            tau = rng.uniform(0, 0.99) * np.exp(2j * np.pi * rng.uniform())
            expected = 0.5 * (tau - 1.0) / (0.25 * tau + 1.0)
            assert lift(disc, tau).z3 == pytest.approx(expected, abs=1e-12)

    def test_lift_point_fields(self):
        disc = disc_from_line(Complex2(0.3, 0.0), Complex2(0.0, 1.0))
        lp = lift(disc, 0.2)
        assert isinstance(lp, LiftPoint)
        assert lp.z == disc.point(0.2)
        assert lp.z3 == pytest.approx(lp.zeta.affine)


class TestDiscFromLiftPoint:
    def test_round_trip(self):
        rng = np.random.default_rng(6)
        worst = 0.0
        for _ in range(100):
            disc = disc_from_line(random_interior(rng), random_direction(rng))
            tau = rng.uniform(0.0, 0.95) * np.exp(2j * np.pi * rng.uniform())
            lp = lift(disc, tau)
            rec, tau_rec = disc_from_lift_point(lp.z, lp.zeta)
            err = max(
                np.max(np.abs(rec.a.as_array() - disc.a.as_array())),
                np.max(np.abs(rec.b.as_array() - disc.b.as_array())),
                abs(tau_rec - tau),
            )
            worst = max(worst, float(err))
        assert worst < 1e-9

    def test_through_origin(self):
        disc = disc_from_line(Complex2(0, 0), Complex2(0.6, 0.8j))
        lp = lift(disc, 0.3 + 0.2j)
        rec, tau_rec = disc_from_lift_point(lp.z, lp.zeta)
        assert np.allclose(rec.b.as_array(), disc.b.as_array(), atol=1e-12)
        assert tau_rec == pytest.approx(0.3 + 0.2j, abs=1e-12)

    def test_arbitrary_point_and_class(self):
        # every (z, [zeta]) with |z| < 1 is a lift point, including pairs
        # not built as lifts
        rng = np.random.default_rng(7)
        for _ in range(500):
            z = random_interior(rng, rmax=0.99)
            zeta = CP1Point(*(rng.normal(size=2) + 1j * rng.normal(size=2)))
            disc, tau0 = disc_from_lift_point(z, zeta)
            assert np.allclose(
                disc.point(tau0).as_array(), z.as_array(), rtol=0, atol=1e-12
            )
            assert cp1_distance(lift(disc, tau0).zeta, zeta) < 1e-12

    def test_rejects_boundary_base(self):
        with pytest.raises(ValueError):
            disc_from_lift_point(Complex2(1.0, 0.0), CP1Point(1.0, 0.0))

    def test_round_trip_guard_near_the_sphere(self):
        # at |z|^2 = 1 - 1e-8 the recovered disc's lift misses [zeta] by
        # 1.4e-9, above the 1e-10 guard; at 1 - 1e-6 it is within it
        zeta = CP1Point(1.0, 1j)
        with pytest.raises(NoSolution, match=r"residual 1\.39\de-09"):
            disc_from_lift_point(Complex2(np.sqrt(1.0 - 1e-8), 0.0), zeta)
        disc, tau0 = disc_from_lift_point(Complex2(np.sqrt(1.0 - 1e-6), 0.0), zeta)
        assert cp1_distance(lift(disc, tau0).zeta, zeta) < 1e-10


def _reference_disc_from_line(p, v):
    """disc_from_line in numpy-array arithmetic: the foot point a and the
    direction b, as arrays."""
    pv, vv = np.array([p.z1, p.z2]), np.array([v.z1, v.z2])
    nv = np.linalg.norm(vv)
    a = pv - (np.vdot(vv, pv) / nv**2) * vv
    u = vv / nv
    c = u[0] if abs(u[0]) > PHASE_EPS else u[1]
    return a, u * (np.conj(c) / abs(c)) * np.sqrt(1.0 - np.vdot(a, a).real)


def _reference_disc_from_lift_point(z, zeta):
    """disc_from_lift_point in numpy-array arithmetic: (a, b, tau0)."""
    zv, zc = np.array([z.z1, z.z2]), zeta.as_array()
    a, b = _reference_disc_from_line(z, Complex2(*(np.conj(zc) - np.conj(zc @ zv) * zv)))
    return a, b, np.vdot(b, zv - a) / np.vdot(b, b)


class TestAgainstArrayReference:
    """The per-point path, in Python complex arithmetic, against the same
    formulas in numpy-array arithmetic at 1000 random points.  Lift
    inversion recovers the disc direction from a vector of length
    (1 - |tau|^2)*|b|, so its tolerance grows by 1/(1 - |tau|^2)."""

    def test_disc_from_line(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            p, v = random_interior(rng), random_direction(rng)
            disc = disc_from_line(p, v)
            a, b = _reference_disc_from_line(p, v)
            assert np.max(np.abs(disc.a.as_array() - a)) <= 1e-15
            assert np.max(np.abs(disc.b.as_array() - b)) <= 1e-15

    def test_lift_round_trip_and_lifted_value(self):
        f = EXTENDS_ALONG_EVERY_DISC
        scale = sum(abs(c) for c in f.terms.values())
        rng = np.random.default_rng(12)
        for _ in range(1000):
            P = random_interior(rng)
            disc = disc_from_line(P, random_direction(rng))
            tau = rng.uniform(0.0, 0.95) * np.exp(2j * np.pi * rng.uniform())
            lp = lift(disc, tau)
            tol = 1e-15 / (1.0 - abs(tau) ** 2)
            rec, tau0 = disc_from_lift_point(lp.z, lp.zeta)
            a, b, tau_ref = _reference_disc_from_lift_point(lp.z, lp.zeta)
            assert np.max(np.abs(rec.a.as_array() - a)) <= tol
            assert np.max(np.abs(rec.b.as_array() - b)) <= tol
            # tau0 as a distance along the line
            assert abs(tau0 - tau_ref) * np.linalg.norm(b) <= tol
            ref = StraightDisc(Complex2(*a), Complex2(*b))
            expected = extension_value(f, ref, tau_ref)
            assert abs(lifted_value(f, P, lp) - expected) <= tol * scale


@pytest.mark.parametrize(
    "make",
    [
        lambda: Complex2(0.1, 0.2j),
        lambda: CP1Point(1.0, 1j),
        lambda: disc_from_line(Complex2(0.1, 0.2j), Complex2(1.0, 1j)),
        lambda: lift(disc_from_line(Complex2(0.1, 0.2j), Complex2(1.0, 1j)), 0.3),
    ],
    ids=["Complex2", "CP1Point", "StraightDisc", "LiftPoint"],
)
def test_per_point_classes_have_slots(make):
    # the benchmark and the lemma suite keep thousands of these
    obj = make()
    assert "__slots__" in type(obj).__dict__
    assert not hasattr(obj, "__dict__")


def test_point_arithmetic_ignores_the_callers_number_type():
    # Complex2 stores Python complex, so a lift point made from a numpy tau
    # takes the same arithmetic path as one made from the same complex tau
    def bits(v):
        return v.real.hex(), v.imag.hex()

    f = EXTENDS_ALONG_EVERY_DISC
    rng = np.random.default_rng(14)
    for _ in range(500):
        P = random_interior(rng)
        disc = disc_from_line(P, random_direction(rng))
        tau = rng.uniform(0.0, 0.95) * np.exp(2j * np.pi * rng.uniform())
        lp = lift(disc, tau)
        assert type(lp.z.z1) is complex and type(lp.z.z2) is complex
        expected = lifted_value(f, P, lift(disc, complex(tau)))
        assert bits(lifted_value(f, P, lp)) == bits(expected)
    for bad in ["1", None]:
        with pytest.raises(TypeError):
            Complex2(bad, 0.0)
    for bad in [np.nan, float("nan"), np.complex128(complex(0.0, np.inf)),
                complex(float("-inf"), 0.0)]:
        with pytest.raises(ValueError):
            Complex2(0.0, bad)


def cold_command_modules(tmp_path, f, prefixes):
    """Exit codes of the kernel, test and extend commands on the function f,
    run in one fresh interpreter, and for each prefix the sorted modules
    under it that they and `import disctrace` add to those `import numpy`
    loads."""
    src = os.path.dirname(os.path.dirname(disctrace.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    path = tmp_path / "f.json"
    path.write_text(json.dumps(f.to_json_dict()))
    code = (
        "import contextlib, io, json, sys, numpy\n"
        "def loaded(prefix):\n"
        "    return {m for m in sys.modules if m == prefix or m.startswith(prefix + '.')}\n"
        "prefixes = sys.argv[2:]\n"
        "before = {p: loaded(p) for p in prefixes}\n"
        "import disctrace, disctrace.cli\n"
        "f, pts = sys.argv[1], ['0,0', '0.5,0', '0,0.5']\n"
        "runs = [['kernel', '--points', *pts, '--degree', '2', '--discs', '6'],\n"
        "        ['test', '--function', f, '--point', '0.3,0.2'],\n"
        "        ['extend', '--function', f, '--points', *pts, '--at', '0.2,0.1']]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [disctrace.cli.main(argv) for argv in runs]\n"
        "print(json.dumps([codes, {p: sorted(loaded(p) - before[p]) for p in prefixes}]))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(path), *prefixes], env=env,
        capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout)


def test_cold_commands_leave_scipy_and_numpy_random_out(tmp_path):
    # numpy < 2 loads numpy.random in `import numpy` itself, so only the
    # numpy.random modules the commands add are counted.
    holomorphic = HermitianPolynomial({(2, 1, 0, 0): 1.0})
    codes, added = cold_command_modules(tmp_path, holomorphic, ["scipy", "numpy.random"])
    assert codes == [0, 0, 0]
    assert added == {"scipy": [], "numpy.random": []}


def test_cold_commands_add_no_numpy_fft(tmp_path):
    # the Laurent coefficients of the moment matrix and of the moment test
    # come from a small DFT matrix, not numpy.fft; f has non-holomorphic
    # terms, so test and extend compute them.  numpy < 2 loads numpy.fft in
    # `import numpy` itself, so only the modules the commands add are counted.
    codes, added = cold_command_modules(tmp_path, EXTENDS_ALONG_EVERY_DISC, ["numpy.fft"])
    assert codes == [0, 0, 0]
    assert added == {"numpy.fft": []}
