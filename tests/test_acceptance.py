"""Acceptance gate: one test per criterion, one printed pass/fail line each.

The criterion-5 transversality sub-check requires the stacked tangent
spaces of two lifted disc families at a common boundary lift point to have
rank exactly 5, and rank 4 when the two families coincide.  Each family is a
real 4-manifold whose boundary lifts cover the whole 3-dimensional
projectivized sphere-conormal edge, so both tangent spaces contain the edge
tangent and their sum has dimension at most 4 + 4 - 3 = 5; rank 5 is
transversality along the edge.  Each family is the graph of the closed lift
class z -> [conj c_P(z)] over the ball, so its tangents are exact and the
sixth singular value of the stacked tangents sits at roundoff (required at
most 1e-12 of the largest).
"""

import time

import numpy as np
import pytest

from disctrace import crlifts
from disctrace.boundary import (
    HermitianPolynomial,
    gram_matrix,
    reduced_basis,
)
from disctrace.cli import main
from disctrace.discs import (
    boundary_point,
    disc_from_line,
    disc_through_two_points,
    lift,
)
from disctrace.geometry import CP1Point, Complex2, cp1_distance
from disctrace.lemmas import (
    lift_pair_min_distance,
    random_direction,
    random_interior_point,
)
from disctrace.moments import extension_value
from disctrace.verification import (
    extension_consistency,
    kernel_experiment,
    predicted_one_point_kernel,
)
from oracles import (
    evaluate,
    hopf_quadrature_inner,
    kernel_polynomials,
    restrict_to_disc,
    sphere_inner_product,
)

P1 = Complex2(0.0, 0.0)
P2 = Complex2(0.5, 0.0)
P3 = Complex2(0.0, 0.5)


def report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'} — {detail}")


@pytest.fixture(scope="module")
def main_experiment():
    t0 = time.time()
    rep = kernel_experiment(P1, P2, P3, d=4, discs_per_point=60, seed=7,
                            check_stability=True)
    return rep, time.time() - t0


def test_criterion_1_three_point_kernel(main_experiment, capsys):
    rep, elapsed = main_experiment
    reseeded = kernel_experiment(P1, P2, P3, d=4, discs_per_point=60, seed=21,
                                 check_stability=False)
    ok = (
        rep.kernel_dimension == 15
        and rep.spectral_gap > 1e3
        and rep.max_principal_angle < 1e-8
        and reseeded.kernel_dimension == 15
        and elapsed < 60.0
    )
    report(
        capsys, 1, ok,
        f"kernel dim {rep.kernel_dimension}, gap {rep.spectral_gap:.2e}, "
        f"angle {rep.max_principal_angle:.2e}, reseeded dim "
        f"{reseeded.kernel_dimension}, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_2_one_point_insufficiency(capsys):
    ctl = kernel_experiment(P1, d=4, discs_per_point=60, seed=7, check_stability=False)
    ok = (
        ctl.kernel_dimension == 32
        and len(predicted_one_point_kernel(4)) == 32
        and ctl.kernel_dimension > 15
        and ctl.max_principal_angle < 1e-8
    )
    report(
        capsys, 2, ok,
        f"one-point kernel dim {ctl.kernel_dimension} (> 15), angle "
        f"to predicted span {ctl.max_principal_angle:.2e}",
    )
    assert ok


def test_criterion_3_disc_formula(capsys):
    disc, _, tau_q = disc_through_two_points(Complex2(0.0, 0.5), Complex2(1.0, 0.0))
    coeff_err = max(
        np.max(np.abs(disc.a.as_array() - [0.2, 0.4])),
        np.max(np.abs(disc.b.as_array() - [0.8, -0.4])),
    )
    endpoint_err = max(
        abs(abs(tau_q) - 1.0),
        float(np.max(np.abs(disc.point(1.0).as_array() - [1.0, 0.0]))),
    )
    rng = np.random.default_rng(0)
    lift_err = 0.0
    for _ in range(16):
        tau = rng.uniform(0, 0.99) * np.exp(2j * np.pi * rng.uniform())
        expected = 0.5 * (tau - 1.0) / (0.25 * tau + 1.0)
        lift_err = max(lift_err, abs(lift(disc, tau).z3 - expected))
    ok = coeff_err < 1e-12 and endpoint_err < 1e-12 and lift_err < 1e-12
    report(
        capsys, 3, ok,
        f"disc coefficients to {coeff_err:.1e}, endpoint to {endpoint_err:.1e}, "
        f"affine lift formula to {lift_err:.1e}",
    )
    assert ok


def test_criterion_4_lift_structure(capsys):
    rng = np.random.default_rng(1)
    taus = 0.9 * np.exp(2j * np.pi * np.arange(8) / 8)
    const_err = 0.0
    for _ in range(1000):
        disc = disc_from_line(Complex2(0, 0), random_direction(rng))
        ref = CP1Point(np.conj(disc.b.z1), np.conj(disc.b.z2))
        for tau in taus:
            const_err = max(const_err, cp1_distance(lift(disc, tau).zeta, ref))
    conormal_err = 0.0
    for _ in range(1000):
        disc = disc_from_line(random_interior_point(rng), random_direction(rng))
        for t in np.linspace(0, 2 * np.pi, 5):
            z = boundary_point(disc, t)
            conormal_err = max(
                conormal_err,
                cp1_distance(
                    lift(disc, np.exp(1j * t)).zeta,
                    CP1Point(np.conj(z.z1), np.conj(z.z2)),
                ),
            )
    ok = const_err < 1e-12 and conormal_err < 1e-12
    report(
        capsys, 4, ok,
        f"through-origin lift constancy {const_err:.1e}, boundary conormal "
        f"{conormal_err:.1e} (1000 discs each)",
    )
    assert ok


def edge_tangents(z: Complex2) -> list[np.ndarray]:
    """Real 6-vectors of the tangent space of the projectivized
    sphere-conormal edge z -> (z1, z2, conj(z2)/conj(z1)) at |z| = 1: the
    push-forwards of the sphere tangents i*z, w and i*w, w = (-conj(z2),
    conj(z1))."""
    c1, c2 = np.conj(z.z1), np.conj(z.z2)
    w = np.array([-c2, c1])
    out = []
    for u in (1j * z.as_array(), w, 1j * w):
        du3 = np.conj(u[1]) / c1 - c2 * np.conj(u[0]) / c1**2
        t = np.array([u[0], u[1], du3])
        out.append(np.concatenate([t.real, t.imag]))
    return out


def edge_tangent_residual(P: Complex2, point) -> float:
    """Worst relative least-squares residual of the edge tangents at the
    boundary lift point against the exact graph tangent of the family
    through P."""
    J = crlifts.family_tangent(P, point.z)
    worst = 0.0
    for t in edge_tangents(point.z):
        x, *_ = np.linalg.lstsq(J, t, rcond=None)
        worst = max(worst, float(np.linalg.norm(J @ x - t) / np.linalg.norm(t)))
    return worst


def test_criterion_5_identity_suite(capsys, tmp_path):
    rng = np.random.default_rng(2)

    realness = 0.0
    identity_err = 0.0
    for _ in range(1000):
        z2 = (0.05 + 0.9 * rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        zeta = np.exp(2j * np.pi * rng.uniform())
        zeta0 = 0.9 * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
        if abs(zeta - zeta0) < 1e-3:
            continue
        v = crlifts.pointing_direction(z2, zeta)
        w1, w2 = crlifts.omega_tilde_basis(zeta, zeta0)
        c1, c2 = crlifts.contract(w1, v), crlifts.contract(w2, v)
        realness = max(realness, abs(c1.imag), abs(c2.imag))
        w = z2 / (zeta - zeta0)
        scale = 1.0 + abs(z2) ** 2
        identity_err = max(
            identity_err,
            abs(c1.real + 2 * w.real / scale),
            abs(c2.real - 2 * w.imag / scale),
        )

    span_resid = 0.0
    coeff_imag = 0.0
    for _ in range(100):
        z1 = np.exp(2j * np.pi * rng.uniform())
        zeta0 = 0.8 * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
        w1, w2 = crlifts.omega_basis(z1, 0.0)
        A = np.array([[w1[1], w2[1]], [w1[2], w2[2]]])
        Ar = np.vstack([A.real, A.imag])
        for wt in crlifts.omega_tilde_basis(z1, zeta0):
            b = np.array([wt[1], wt[2]])
            br = np.concatenate([b.real, b.imag])
            x, *_ = np.linalg.lstsq(Ar, br, rcond=None)
            span_resid = max(span_resid, float(np.linalg.norm(Ar @ x - br)))
            full = x[0] * A[:, 0] + x[1] * A[:, 1]
            coeff_imag = max(coeff_imag, float(np.max(np.abs(full - b))))

    w1, w2 = crlifts.omega_basis(1.0, 0.0)
    wt1, _ = crlifts.omega_tilde_basis(1.0, 0.5)
    A = np.array([[w1[1], w2[1]], [w1[2], w2[2]]])
    Ar = np.vstack([A.real, A.imag])
    br = np.concatenate([np.array([wt1[1], wt1[2]]).real,
                         np.array([wt1[1], wt1[2]]).imag])
    x, *_ = np.linalg.lstsq(Ar, br, rcond=None)
    instance_err = float(np.max(np.abs(x - [2.0, 0.0])))

    ranks = []
    sigma5, sigma6 = np.inf, 0.0
    edge_resid = None
    while len(ranks) < 100:
        Q1 = random_interior_point(rng, rmax=0.7)
        Q2 = random_interior_point(rng, rmax=0.7)
        if Complex2(Q1.z1 - Q2.z1, Q1.z2 - Q2.z2).norm() < 0.05:
            continue
        disc = disc_from_line(Q1, random_direction(rng))
        if disc.line_distance(Q2) < 0.05:
            continue
        point = lift(disc, np.exp(2j * np.pi * rng.uniform()))
        if abs(point.zeta.zeta1) < 0.1:
            continue
        ranks.append(crlifts.transversality_rank(Q1, Q2, point))
        s = np.linalg.svd(
            np.hstack([crlifts.family_tangent(Q, point.z) for Q in (Q1, Q2)]),
            compute_uv=False,
        )
        sigma5 = min(sigma5, s[4] / s[0])
        sigma6 = max(sigma6, s[5] / s[0])
        if edge_resid is None:
            edge_resid = max(edge_tangent_residual(Q1, point),
                             edge_tangent_residual(Q2, point))
    P = Complex2(0.5, 0.0)
    coincident_rank = crlifts.transversality_rank(
        P, P, lift(disc_from_line(P, Complex2(1.0, 0.0)), 1.0)
    )
    rank_ok = all(r == 5 for r in ranks) and coincident_rank == 4

    windings = []
    for _ in range(100):
        z2 = (0.1 + 0.8 * rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        zeta0 = 0.8 * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
        windings.append(crlifts.direction_sweep_winding(z2, zeta0))
    winding_ok = all(w != 0 for w in windings)

    lemmas_exit = main(
        ["lemmas", "--seed", "0", "--out", str(tmp_path / "lemmas.json")]
    )

    ok = (
        realness < 1e-12
        and identity_err < 1e-10
        and span_resid < 1e-10
        and coeff_imag < 1e-10
        and instance_err < 1e-10
        and rank_ok
        and sigma6 <= 1e-12
        and edge_resid < 1e-6
        and winding_ok
        and lemmas_exit == 0
    )
    report(
        capsys, 5, ok,
        f"realness {realness:.1e}, identities {identity_err:.1e}, span solves "
        f"{span_resid:.1e}, instance {instance_err:.1e}, transversality ranks "
        f"{sorted(set(ranks))} (required all 5, sigma5/sigma0 >= "
        f"{sigma5:.1e}, sigma6/sigma0 <= {sigma6:.1e}), coincident rank "
        f"{coincident_rank} (required 4), edge tangents in both spans to "
        f"{edge_resid:.1e}, windings nonzero {winding_ok}, lemmas exit "
        f"{lemmas_exit}",
    )
    assert realness < 1e-12
    assert identity_err < 1e-10
    assert span_resid < 1e-10 and coeff_imag < 1e-10
    assert instance_err < 1e-10
    assert winding_ok
    assert lemmas_exit == 0
    assert edge_resid < 1e-6
    assert all(r == 5 for r in ranks), f"stacked ranks {sorted(set(ranks))}"
    assert sigma6 <= 1e-12
    assert coincident_rank == 4


def test_criterion_6_lift_injectivity(capsys):
    rng = np.random.default_rng(3)
    min_dist = np.inf
    base_meet = 0.0
    pairs = 0
    while pairs < 1000:
        P = random_interior_point(rng)
        d1 = disc_from_line(P, random_direction(rng))
        d2 = disc_from_line(P, random_direction(rng))
        if cp1_distance(CP1Point(d1.b.z1, d1.b.z2),
                        CP1Point(d2.b.z1, d2.b.z2)) < 1e-2:
            continue
        pairs += 1
        min_dist = min(min_dist, lift_pair_min_distance(d1, d2, P))
        base_meet = max(base_meet, d1.line_distance(P), d2.line_distance(P))
    ok = min_dist > 1e-6 and base_meet < 1e-12
    report(
        capsys, 6, ok,
        f"min lift-curve distance {min_dist:.2e} over 1000 pairs; base lines "
        f"meet at the common point to {base_meet:.1e}",
    )
    assert ok


def test_criterion_7_gluing_surrogate(main_experiment, capsys):
    rep, _ = main_experiment
    rng = np.random.default_rng(4)
    polys = kernel_polynomials(rep)
    worst = 0.0
    for _ in range(10):
        coeffs = rng.normal(size=len(polys))
        f = HermitianPolynomial()
        for c, p in zip(coeffs, polys):
            f = f + float(c) * p
        for _ in range(20):
            z = random_interior_point(rng, rmax=0.6)
            worst = max(worst, extension_consistency(f, P1, P2, P3, z=z)[1])
    f = HermitianPolynomial.monomial((0, 1), (0, 1))
    d1 = disc_from_line(Complex2(0, 0), Complex2(0.0, 1.0))
    d2 = disc_from_line(Complex2(0, 0), Complex2(1.0, 0.0))
    gap = abs(extension_value(f, d1, 0.0) - extension_value(f, d2, 0.0))
    ok = worst < 1e-8 and gap == pytest.approx(1.0, abs=1e-14)
    report(
        capsys, 7, ok,
        f"kernel-element consistency {worst:.2e} (10 elements x 20 points), "
        f"counterexample "
        f"discrepancy {gap:.12f}",
    )
    assert ok


def test_criterion_8_exactness_oracles(capsys):
    rng = np.random.default_rng(5)
    keys = reduced_basis(6)
    fft_err = 0.0
    for _ in range(100):
        p = random_interior_point(rng)
        disc = disc_from_line(p, random_direction(rng))
        f = HermitianPolynomial(
            {keys[i]: complex(*rng.normal(size=2))
             for i in rng.choice(len(keys), 5)}
        )
        exact = restrict_to_disc(f, disc)
        # the FFT of 256 scalar boundary samples; index -k is coefficient -k
        theta = 2 * np.pi * np.arange(256) / 256
        approx = np.fft.fft(
            [evaluate(f, boundary_point(disc, t)) for t in theta]
        ) / 256
        fft_err = max(
            fft_err, max(abs(exact[k] - approx[k]) for k in range(-7, 8))
        )

    keys4 = reduced_basis(4)
    quad_err = 0.0
    for _ in range(20):
        f = HermitianPolynomial(
            {keys4[i]: complex(*rng.normal(size=2))
             for i in rng.choice(len(keys4), 4)}
        )
        g = HermitianPolynomial(
            {keys4[i]: complex(*rng.normal(size=2))
             for i in rng.choice(len(keys4), 4)}
        )
        quad_err = max(
            quad_err,
            abs(sphere_inner_product(f, g) - hopf_quadrature_inner(f, g)),
        )

    G = gram_matrix(keys4)
    lam_min = float(np.min(np.linalg.eigvalsh(G)))
    ok = fft_err < 1e-12 and quad_err < 1e-6 and len(keys4) == 55 and lam_min > 0
    report(
        capsys, 8, ok,
        f"FFT restriction agreement {fft_err:.1e}, quadrature agreement "
        f"{quad_err:.1e}, basis size {len(keys4)}, Gram lambda_min "
        f"{lam_min:.2e}",
    )
    assert ok


def test_criterion_9_cli_determinism(tmp_path, capsys):
    func = tmp_path / "f.json"
    HermitianPolynomial({(2, 1, 0, 0): 1.0, (0, 0, 0, 0): 0.5}).save(func)
    scene = ["0,0", "0.5,0", "0,0.5"]
    commands = [
        ["kernel", "--points", *scene, "--degree", "3", "--discs", "20",
         "--seed", "7", "--json-only"],
        ["test", "--function", str(func), "--point", "0.2,0.1",
         "--discs", "10", "--seed", "3"],
        ["lemmas", "--seed", "0", "--json-only"],
        ["extend", "--function", str(func), "--points", *scene,
         "--at", "0.2,0.1", "--discs", "10", "--seed", "1"],
    ]

    def run_all():
        out = []
        for argv in commands:
            rc = main(argv)
            out.append((rc, capsys.readouterr().out.encode()))
        return out

    runs = [run_all() for _ in range(4)]
    ok = runs[0] == runs[1] == runs[2] == runs[3]
    report(capsys, 9, ok, f"4 commands byte-identical across 4 reruns: {ok}")
    assert ok
