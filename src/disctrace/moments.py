"""Restriction of boundary polynomials to disc boundaries and the moment
test for disc-wise holomorphic extendibility.

On |tau| = 1 a disc boundary satisfies z = a + tau*b and
conj(z) = conj(a) + conj(b)/tau, so a mixed monomial restricts to a
Laurent polynomial in tau.  The restriction extends holomorphically into
the disc iff its negative coefficients vanish.

The moment test and the extension values split f into its holomorphic
terms, which have no negative Laurent terms and extend as themselves (they
are evaluated directly at A(tau0)), and the rest, whose Laurent
coefficients come from _boundary_dft, the one DFT of samples at the 2D + 2
roots of unity (D the top degree) that also builds the moment matrix of
verification.build_moment_matrix; the DFT is exact because the restriction
has degrees in [-D, D].  restrict_to_disc, the exact
coefficient-by-coefficient restriction, is the oracle the tests compare
them with.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boundary import HermitianPolynomial
from .discs import StraightDisc, disc_from_lift_point, LiftPoint
from .errors import NotExtendible, NotInFamily
from .geometry import Complex2

# relative bound of the moment test; see _moment_bound
MOMENT_RTOL = 1e-10


@dataclass(frozen=True)
class LaurentPolynomial:
    """Finite two-sided coefficient sequence {k: c_k}, k in [-K, K]."""

    coeffs: dict[int, complex]

    def __post_init__(self):
        object.__setattr__(
            self,
            "coeffs",
            {int(k): complex(c) for k, c in self.coeffs.items() if c != 0},
        )

    def __getitem__(self, k: int) -> complex:
        return self.coeffs.get(k, 0.0 + 0.0j)

    def max_negative_modulus(self) -> float:
        return max((abs(c) for k, c in self.coeffs.items() if k < 0), default=0.0)

    def eval_nonnegative(self, tau: complex) -> complex:
        """Value at tau of the k >= 0 part (the holomorphic extension)."""
        return complex(
            sum(c * tau**k for k, c in self.coeffs.items() if k >= 0)
        )

    def eval_circle(self, tau: complex) -> complex:
        return complex(sum(c * tau**k for k, c in self.coeffs.items()))


@dataclass(frozen=True)
class ExtendibilityReport:
    max_negative_modulus: float
    verdict: bool


def _poly_pow(base: np.ndarray, n: int) -> np.ndarray:
    """Coefficients of base(tau)^n, ascending degree."""
    out = np.array([1.0 + 0.0j])
    for _ in range(n):
        out = np.convolve(out, base)
    return out


def restrict_to_disc(f: HermitianPolynomial, A: StraightDisc) -> LaurentPolynomial:
    """Exact Laurent expansion of f(A(tau)) on |tau| = 1."""
    a, b = A.a.as_array(), A.b.as_array()
    cache: dict[tuple[int, int], np.ndarray] = {}

    def powers(idx: int, conj: bool, n: int) -> np.ndarray:
        key = (idx + (2 if conj else 0), n)
        if key not in cache:
            if conj:
                base = np.array([np.conj(a[idx]), np.conj(b[idx])])
            else:
                base = np.array([a[idx], b[idx]])
            cache[key] = _poly_pow(base, n)
        return cache[key]

    out: dict[int, complex] = {}
    for (a1, a2, b1, b2), c in f.terms.items():
        pos = np.convolve(powers(0, False, a1), powers(1, False, a2))
        neg = np.convolve(powers(0, True, b1), powers(1, True, b2))
        # pos has degrees 0..|alpha| in tau, neg degrees 0..|beta| in 1/tau
        full = np.convolve(pos, neg[::-1])  # degrees -|beta|..|alpha|
        lo = -(b1 + b2)
        for i, coeff in enumerate(full):
            k = lo + i
            if coeff != 0:
                out[k] = out.get(k, 0.0) + c * coeff
    return LaurentPolynomial(out)


def _boundary_dft(a: np.ndarray, b: np.ndarray, e: np.ndarray, D: int) -> np.ndarray:
    """Unnormalized DFT along tau of the monomials z^alpha conj(z)^beta with
    exponent rows e = (alpha1, alpha2, beta1, beta2), |alpha| + |beta| <= D,
    on the boundaries of the discs a + tau*b ((n, 2) arrays), sampled at the
    N = 2D + 2 roots of unity; shape (n, N, len(e)).

    Divided by N, index k holds the Laurent coefficient k for k = 0..D and
    index -k (that is, N - k) the coefficient -k.
    """
    N = 2 * D + 2
    tau = np.exp(2j * np.pi * np.arange(N) / N)
    z = a[:, None, :] + tau[None, :, None] * b[:, None, :]
    zp = z[..., None] ** np.arange(D + 1)  # (n, N, 2, D + 1)
    zc = zp.conj()
    samples = zp[:, :, 0, e[:, 0]]
    samples *= zp[:, :, 1, e[:, 1]]
    samples *= zc[:, :, 0, e[:, 2]]
    samples *= zc[:, :, 1, e[:, 3]]
    return np.fft.fft(samples, axis=1)


def _nonholomorphic_coefficients(
    f: HermitianPolynomial, A: StraightDisc
) -> tuple[np.ndarray, np.ndarray]:
    """Laurent coefficients on the boundary of A of the non-holomorphic
    terms of f, as (c_0..c_D, c_-1..c_-D), D their top degree; both empty
    when f is holomorphic.  The boundary DFT of those monomials, contracted
    with their coefficients in f.
    """
    e, coeffs, D = f.nonholomorphic_terms
    if not coeffs.size:
        return coeffs, coeffs
    dft = _boundary_dft(A.a.as_array()[None], A.b.as_array()[None], e, D)[0]
    c = dft @ coeffs / (2 * D + 2)
    return c[: D + 1], c[-1 : -D - 1 : -1]


def _max_modulus(coeffs: np.ndarray) -> float:
    return float(np.max(np.abs(coeffs), initial=0.0))


def _moment_bound(f: HermitianPolynomial) -> float:
    """The largest negative-coefficient modulus the moment test takes for
    roundoff: MOMENT_RTOL * sum |c| over the non-holomorphic terms of f,
    0.0 when f is holomorphic.  On a disc boundary each such monomial has
    modulus at most 1, and so has each of its Laurent coefficients; the sum
    therefore bounds every coefficient of f, and the bound scales with f,
    so s*f gets the verdict of f for every s != 0."""
    return MOMENT_RTOL * float(np.sum(np.abs(f.nonholomorphic_terms[1])))


def extendibility_test(f: HermitianPolynomial, A: StraightDisc) -> ExtendibilityReport:
    """Moment test: f extends holomorphically into the disc iff all
    negative Fourier coefficients of its boundary restriction vanish, up to
    the scale-relative bound of MOMENT_RTOL.  Only the non-holomorphic terms
    of f can contribute, so a holomorphic f gives exactly 0.0 and passes."""
    m = _max_modulus(_nonholomorphic_coefficients(f, A)[1])
    return ExtendibilityReport(m, m <= _moment_bound(f))


def extension_value(f: HermitianPolynomial, A: StraightDisc, tau0: complex) -> complex:
    """Value at A(tau0) of the holomorphic extension of f along the disc:
    the holomorphic terms of f evaluated at A(tau0), plus the k >= 0 part
    of the restriction of the other terms evaluated at tau0."""
    if not abs(tau0) < 1.0:  # also rejects nan
        raise ValueError("extension is evaluated at interior parameters")
    pos, neg = _nonholomorphic_coefficients(f, A)
    z = A.point(tau0)
    value = sum(
        c * z.z1**a1 * z.z2**a2 for (a1, a2, b1, b2), c in f.terms.items() if b1 + b2 == 0
    )
    if not neg.size:  # holomorphic f: no moment to test, nothing to add
        return complex(value)
    m, bound = _max_modulus(neg), _moment_bound(f)
    if m > bound:
        raise NotExtendible(f"max negative coefficient modulus {m:.3e} > {bound:.3e}")
    return complex(value + np.polyval(pos[::-1], tau0))


def lifted_value(f: HermitianPolynomial, P: Complex2, L: LiftPoint) -> complex:
    """The lifted function at a point (z, [zeta]) of the family through P:
    the extension value, at z, along the unique disc whose lift passes
    through the point."""
    disc, tau0 = disc_from_lift_point(L.z, L.zeta)
    if disc.line_distance(P) > 1e-8:
        raise NotInFamily("recovered disc does not pass through the family center")
    return extension_value(f, disc, tau0)
