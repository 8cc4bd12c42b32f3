import numpy as np
import pytest

from disctrace.boundary import HermitianPolynomial, evaluate, reduced_basis
from disctrace.discs import (
    boundary_point,
    disc_from_line,
    disc_through_two_points,
    lift,
)
from disctrace.errors import NotExtendible, NotInFamily
from disctrace.geometry import Complex2
from disctrace.moments import (
    LaurentPolynomial,
    extendibility_test,
    extension_value,
    lifted_value,
    restrict_to_disc,
)
from disctrace.verification import sample_disc_family


def random_disc(rng, rmax=0.9):
    while True:
        v = rng.uniform(-rmax, rmax, size=4)
        p = Complex2(complex(v[0], v[1]), complex(v[2], v[3]))
        if p.norm() < rmax:
            break
    w = rng.normal(size=4)
    return disc_from_line(p, Complex2(complex(w[0], w[1]), complex(w[2], w[3])))


def sphere_multiple(h):
    """(|z1|^2 + |z2|^2 - 1) * h, which vanishes on the sphere."""
    h1, h2 = (
        HermitianPolynomial({tuple(np.add(k, s)): c for k, c in h.terms.items()})
        for s in [(1, 0, 1, 0), (0, 1, 0, 1)]
    )
    return h1 + h2 + (-1.0) * h


def fft_oracle(f, disc, N=256):
    """Fourier coefficients of N scalar boundary samples of f; index k of
    the result (negative k from the end) is the coefficient k."""
    theta = 2 * np.pi * np.arange(N) / N
    samples = [evaluate(f, boundary_point(disc, t)) for t in theta]
    return np.fft.fft(samples) / N


class TestLaurentPolynomial:
    def test_max_negative_modulus(self):
        p = LaurentPolynomial({-2: 3j, -1: 0.0, 0: 5.0, 1: 1.0})
        assert p.max_negative_modulus() == pytest.approx(3.0)
        assert LaurentPolynomial({0: 1.0}).max_negative_modulus() == 0.0

    def test_eval(self):
        p = LaurentPolynomial({-1: 2.0, 0: 1.0, 2: 1.0})
        tau = 0.5j
        assert p.eval_circle(1.0) == pytest.approx(4.0)
        assert p.eval_nonnegative(tau) == pytest.approx(1.0 + tau**2)


class TestRestrictToDisc:
    def test_modulus_squared_instance(self):
        # |z2|^2 on a = (0.2, 0.4), b = (0.8, -0.4):
        # (0.4 - 0.4 tau)(0.4 - 0.4 / tau)
        disc, _, _ = disc_through_two_points(Complex2(0.0, 0.5), Complex2(1.0, 0.0))
        f = HermitianPolynomial.monomial((0, 1), (0, 1))
        r = restrict_to_disc(f, disc)
        assert r[-1] == pytest.approx(-0.16, abs=1e-14)
        assert r[0] == pytest.approx(0.32, abs=1e-14)
        assert r[1] == pytest.approx(-0.16, abs=1e-14)
        assert set(r.coeffs) == {-1, 0, 1}

    def test_through_origin_instance(self):
        disc = disc_from_line(Complex2(0, 0), Complex2(0.0, 1.0))
        f = HermitianPolynomial.monomial((0, 1), (0, 1))
        r = restrict_to_disc(f, disc)
        assert set(r.coeffs) == {0}
        assert r[0] == pytest.approx(1.0)

    def test_fft_agreement(self):
        rng = np.random.default_rng(0)
        keys = reduced_basis(6)
        for _ in range(50):
            disc = random_disc(rng)
            f = HermitianPolynomial(
                {keys[i]: complex(*rng.normal(size=2)) for i in rng.choice(len(keys), 5)}
            )
            exact = restrict_to_disc(f, disc)
            approx = fft_oracle(f, disc)
            for k in range(-7, 8):
                assert abs(exact[k] - approx[k]) < 1e-12

    def test_matches_boundary_values(self):
        rng = np.random.default_rng(1)
        disc = random_disc(rng)
        f = HermitianPolynomial({(1, 1, 0, 2): 1 - 1j, (0, 0, 2, 0): 0.5})
        r = restrict_to_disc(f, disc)
        for t in np.linspace(0, 2 * np.pi, 9):
            assert r.eval_circle(np.exp(1j * t)) == pytest.approx(
                evaluate(f, boundary_point(disc, t)), abs=1e-12
            )


class TestExtendibility:
    def test_holomorphic_always_extends(self):
        rng = np.random.default_rng(2)
        f = HermitianPolynomial({(2, 1, 0, 0): 1.0, (0, 3, 0, 0): -2j})
        for _ in range(50):
            rep = extendibility_test(f, random_disc(rng))
            assert rep.verdict
            assert rep.max_negative_modulus == 0.0

    def test_verdicts(self):
        f = HermitianPolynomial.monomial((0, 1), (0, 1))  # |z2|^2
        through_origin = disc_from_line(Complex2(0, 0), Complex2(1.0, 2j))
        assert extendibility_test(f, through_origin).verdict
        off_origin, _, _ = disc_through_two_points(
            Complex2(0.0, 0.5), Complex2(1.0, 0.0)
        )
        rep = extendibility_test(f, off_origin)
        assert not rep.verdict
        assert rep.max_negative_modulus == pytest.approx(0.16, abs=1e-14)

    @pytest.mark.parametrize("s", [1e-12, 1e8])
    @pytest.mark.parametrize("extendible", [True, False])
    def test_verdict_is_scale_invariant(self, s, extendible):
        # extending along a disc is linear in f, so s*f has the verdicts of f
        if extendible:
            # z1^2 z2 + 0.5 on the sphere, with mixed terms
            f = HermitianPolynomial({(2, 1, 0, 0): 1.0, (0, 0, 0, 0): 0.5}) + sphere_multiple(
                HermitianPolynomial({(1, 0, 0, 1): 1.0, (0, 0, 1, 0): -0.7j})
            )
        else:
            f = HermitianPolynomial.monomial((0, 1), (0, 1))  # |z2|^2
        for disc in sample_disc_family(Complex2(0.3, 0.2), 100, 0):
            assert extendibility_test(f, disc).verdict is extendible
            assert extendibility_test(s * f, disc).verdict is extendible


class TestExtensionValue:
    def test_holomorphic_value(self):
        # holomorphic traces extend to themselves
        f = HermitianPolynomial.monomial((2, 1), (0, 0))
        rng = np.random.default_rng(3)
        for _ in range(20):
            disc = random_disc(rng)
            tau = rng.uniform(0, 0.9) * np.exp(2j * np.pi * rng.uniform())
            z = disc.point(tau)
            assert extension_value(f, disc, tau) == pytest.approx(
                z.z1**2 * z.z2, abs=1e-12
            )

    def test_holomorphic_value_is_direct_evaluation(self):
        # a holomorphic f is its own extension: nothing is added to f(A(tau))
        f = HermitianPolynomial(
            {(2, 1, 0, 0): 0.5 - 1j, (0, 3, 0, 0): 2.0, (0, 0, 0, 0): -0.25}
        )
        rng = np.random.default_rng(11)
        for _ in range(50):
            disc = random_disc(rng)
            tau = rng.uniform(0, 0.9) * np.exp(2j * np.pi * rng.uniform())
            z = disc.point(tau)
            direct = sum(c * z.z1**a1 * z.z2**a2 for (a1, a2, _, _), c in f.terms.items())
            assert extension_value(f, disc, tau) == direct

    def test_not_extendible(self):
        f = HermitianPolynomial.monomial((0, 1), (0, 1))
        disc, tau_z, _ = disc_through_two_points(Complex2(0.0, 0.5), Complex2(1.0, 0.0))
        with pytest.raises(NotExtendible):
            extension_value(f, disc, tau_z)

    def test_boundary_parameter_rejected(self):
        f = HermitianPolynomial()
        disc = disc_from_line(Complex2(0, 0), Complex2(1, 0))
        with pytest.raises(ValueError):
            extension_value(f, disc, 1.0)

    @pytest.mark.parametrize(
        "tau0",
        [float("nan"), complex(0.5, float("nan")), complex(float("nan"), 0.0),
         complex(float("inf"), 0.0), complex(0.0, float("-inf"))],
    )
    def test_nonfinite_parameter_rejected(self, tau0):
        f = HermitianPolynomial.monomial((1, 0), (0, 0))
        disc = disc_from_line(Complex2(0, 0), Complex2(1, 0))
        with pytest.raises(ValueError):
            extension_value(f, disc, tau0)

    def test_counterexample_values(self):
        # |z2|^2 along two discs through the origin: the naive extensions at
        # 0 disagree (1 along the z2-axis, 0 along the z1-axis)
        f = HermitianPolynomial.monomial((0, 1), (0, 1))
        d1 = disc_from_line(Complex2(0, 0), Complex2(0.0, 1.0))
        d2 = disc_from_line(Complex2(0, 0), Complex2(1.0, 0.0))
        v1 = extension_value(f, d1, 0.0)
        v2 = extension_value(f, d2, 0.0)
        assert v1 == pytest.approx(1.0)
        assert v2 == pytest.approx(0.0)


class TestLiftedValue:
    def test_matches_direct_extension(self):
        f = HermitianPolynomial.monomial((1, 1), (0, 0))
        P = Complex2(0.2, 0.1)
        rng = np.random.default_rng(4)
        for _ in range(20):
            w = rng.normal(size=4)
            disc = disc_from_line(P, Complex2(complex(w[0], w[1]), complex(w[2], w[3])))
            tau = rng.uniform(0.05, 0.9) * np.exp(2j * np.pi * rng.uniform())
            lp = lift(disc, tau)
            assert lifted_value(f, P, lp) == pytest.approx(
                extension_value(f, disc, tau), abs=1e-10
            )

    def test_not_in_family(self):
        f = HermitianPolynomial()
        disc = disc_from_line(Complex2(0.5, 0.0), Complex2(0.0, 1.0))
        lp = lift(disc, 0.3)
        with pytest.raises(NotInFamily):
            lifted_value(f, Complex2(-0.5, 0.0), lp)


def _all_keys(d):
    return [
        (a1, a2, b1, b2)
        for a1 in range(d + 1)
        for a2 in range(d + 1 - a1)
        for b1 in range(d + 1 - a1 - a2)
        for b2 in range(d + 1 - a1 - a2 - b1)
    ]


_KINDS = {
    "holomorphic": lambda k: k[2] + k[3] == 0,
    "antiholomorphic": lambda k: k[0] + k[1] == 0,
    "mixed": lambda k: min(k[0], k[2]) == 0,
    # z1*conj(z1) factors left in, as in z1 zbar1 + z2 zbar2 - 1
    "non-normal": lambda k: True,
}


def _random_polynomial(rng, d, kind):
    """Five random terms of the given kind, one of them of degree exactly d."""
    keys = [k for k in _all_keys(d) if _KINDS[kind](k)]
    top = [k for k in keys if sum(k) == d]
    picks = [top[rng.integers(len(top))]] + [keys[i] for i in rng.integers(len(keys), size=4)]
    return HermitianPolynomial({k: complex(*rng.normal(size=2)) for k in picks})


class TestAgainstExactRestriction:
    """The moment test and the extension values, which evaluate the
    holomorphic terms directly and take the rest from one DFT, against the
    exact Laurent restriction."""

    @pytest.mark.parametrize("d", range(13))
    @pytest.mark.parametrize("kind", list(_KINDS))
    def test_every_degree(self, d, kind):
        rng = np.random.default_rng(100 * d + list(_KINDS).index(kind))
        for _ in range(4):
            f = _random_polynomial(rng, d, kind)
            scale = sum(abs(c) for c in f.terms.values())
            P = Complex2(*(0.4 * rng.uniform(-1, 1, size=2) + 0.4j * rng.uniform(-1, 1, size=2)))
            w = rng.normal(size=4)
            disc = disc_from_line(P, Complex2(complex(w[0], w[1]), complex(w[2], w[3])))
            tau = rng.uniform(0.05, 0.9) * np.exp(2j * np.pi * rng.uniform())
            exact = restrict_to_disc(f, disc)

            rep = extendibility_test(f, disc)
            assert type(rep.max_negative_modulus) is float
            assert abs(rep.max_negative_modulus - exact.max_negative_modulus()) <= 1e-12 * scale
            if kind == "holomorphic" or d == 0:
                assert rep.max_negative_modulus == 0.0

            if not rep.verdict:
                with pytest.raises(NotExtendible):
                    extension_value(f, disc, tau)
                continue
            value = extension_value(f, disc, tau)
            assert type(value) is complex
            assert abs(value - exact.eval_nonnegative(tau)) <= 1e-12 * scale
            lifted = lifted_value(f, P, lift(disc, tau))
            assert type(lifted) is complex
            assert abs(lifted - exact.eval_nonnegative(tau)) <= 1e-12 * scale

    def test_extendible_mixed_values(self):
        # g + (|z1|^2 + |z2|^2 - 1)*h is g on the sphere: mixed terms, no
        # negative coefficients, extension values at the default tolerance
        rng = np.random.default_rng(7)
        for d in range(1, 11):
            g = _random_polynomial(rng, d, "holomorphic")
            f = g + sphere_multiple(_random_polynomial(rng, d, "mixed"))
            scale = sum(abs(c) for c in f.terms.values())
            for _ in range(4):
                disc = random_disc(rng)
                tau = rng.uniform(0.05, 0.9) * np.exp(2j * np.pi * rng.uniform())
                exact = restrict_to_disc(f, disc)
                assert exact.max_negative_modulus() <= 1e-12 * scale
                value = extension_value(f, disc, tau)
                assert abs(value - exact.eval_nonnegative(tau)) <= 1e-12 * scale

    def test_sphere_relation(self):
        # z1 zbar1 + z2 zbar2 - 1 vanishes on the sphere, so its restriction
        # is zero and it extends by zero along every disc
        f = HermitianPolynomial({(1, 0, 1, 0): 1.0, (0, 1, 0, 1): 1.0, (0, 0, 0, 0): -1.0})
        rng = np.random.default_rng(6)
        for _ in range(20):
            disc = random_disc(rng)
            rep = extendibility_test(f, disc)
            assert rep.verdict and rep.max_negative_modulus < 1e-15
            tau = rng.uniform(0, 0.9) * np.exp(2j * np.pi * rng.uniform())
            assert abs(extension_value(f, disc, tau)) < 1e-15
