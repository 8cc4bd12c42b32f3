"""Restriction of boundary polynomials to disc boundaries and the moment
test for disc-wise holomorphic extendibility.

On |tau| = 1 a disc boundary satisfies z = a + tau*b and
conj(z) = conj(a) + conj(b)/tau, so a mixed monomial restricts to a
Laurent polynomial in tau.  The restriction extends holomorphically into
the disc iff its negative coefficients vanish.

The moment test and the extension values split f into its holomorphic
terms, which have no negative Laurent terms and extend as themselves (they
are evaluated directly at A(tau0)), and the rest, whose Laurent
coefficients come from _boundary_dft, the one boundary DFT that also builds
the moment matrix of verification.build_moment_matrix.  The moment test
samples at the 2D + 2 roots of unity (D the top degree): the restriction of
a sum of monomials has degrees in [-D, D], so the DFT is exact.  The moment
matrix samples each monomial at d + 1 points, enough for its own Laurent
window.  The tests compare both with the exact coefficient-by-coefficient
restriction, restrict_to_disc in tests/oracles.py.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boundary import HermitianPolynomial
from .discs import StraightDisc, disc_from_lift_point, LiftPoint
from .errors import NotExtendible
from .geometry import Complex2

# relative bound of the moment test; see within_moment_bound
MOMENT_RTOL = 1e-10


@dataclass(frozen=True)
class ExtendibilityReport:
    max_negative_modulus: float
    verdict: bool


def _boundary_dft(a: np.ndarray, b: np.ndarray, e: np.ndarray, N: int) -> np.ndarray:
    """Unnormalized DFT along tau of the monomials z^alpha conj(z)^beta with
    exponent rows e = (alpha1, alpha2, beta1, beta2) on the boundaries of
    the discs a + tau*b ((n, 2) arrays), sampled at the N roots of unity;
    shape (n, N, len(e)).

    The samples come from a table of z1^i z2^j, 0 <= i, j <= e.max(), at
    every sample point: each column is one gather from the table (z^alpha)
    times one gather from its conjugate (conj(z)^beta).

    Divided by N, index k holds the sum of the Laurent coefficients j with
    j = k mod N.  A monomial has coefficients only in [-|beta|, |alpha|], so
    index k holds its coefficient k for 0 <= k <= |alpha| and index N - k its
    coefficient -k for 1 <= k <= |beta| whenever N > |alpha| + |beta|; a sum
    of monomials of degree <= D needs N > 2D.
    """
    tau = np.exp(2j * np.pi * np.arange(N) / N)
    z = a[:, None, :] + tau[None, :, None] * b[:, None, :]
    m = e.max() + 1
    zp = z[..., None] ** np.arange(m)  # (n, N, 2, m)
    table = (zp[:, :, 0, :, None] * zp[:, :, 1, None, :]).reshape(len(a), N, m * m)
    alpha, beta = (e[:, ::2] * m + e[:, 1::2]).T  # positions of z^alpha, z^beta
    samples = table.take(alpha, axis=2)
    samples *= table.conj().take(beta, axis=2)
    return np.fft.fft(samples, axis=1)


def _nonholomorphic_coefficients(
    f: HermitianPolynomial, A: StraightDisc
) -> tuple[np.ndarray, np.ndarray]:
    """Laurent coefficients on the boundary of A of the non-holomorphic
    terms of f, as (c_0..c_D, c_-1..c_-D), D their top degree; both empty
    when f is holomorphic.  The boundary DFT of those monomials, contracted
    with their coefficients over the largest modulus, which cannot overflow;
    only the results are scaled back."""
    e, coeffs, D = f.nonholomorphic_terms
    if not coeffs.size:
        return coeffs, coeffs
    N = 2 * D + 2  # the window [-D, D] of a sum of monomials has 2D + 1 terms
    dft = _boundary_dft(A.a.as_array()[None], A.b.as_array()[None], e, N)[0]
    top = np.abs(coeffs).max()
    c = dft @ (coeffs / top) / N * top
    return c[: D + 1], c[-1 : -D - 1 : -1]


def _max_modulus(coeffs: np.ndarray) -> float:
    return float(np.abs(coeffs).max(initial=0.0))


def within_moment_bound(x: float, coeffs) -> bool:
    """Whether x <= MOMENT_RTOL * sum |c| over coeffs, the roundoff the
    moment test allows: over the non-holomorphic terms of f, whose monomials
    have modulus <= 1 on a disc boundary, the sum bounds every Laurent
    coefficient.  Both sides are divided by max |c|, so neither overflows
    and s*f gets the verdict of f for every s != 0 that leaves f finite."""
    r = np.abs(coeffs).tolist()
    top = max(r, default=0.0)
    return x / top <= MOMENT_RTOL * sum([t / top for t in r]) if top else x == 0.0


def extendibility_test(f: HermitianPolynomial, A: StraightDisc) -> ExtendibilityReport:
    """Moment test: f extends holomorphically into the disc iff all
    negative Fourier coefficients of its boundary restriction vanish, up to
    within_moment_bound over the non-holomorphic terms of f.  Only those
    terms can contribute, so a holomorphic f gives exactly 0.0 and passes."""
    m = _max_modulus(_nonholomorphic_coefficients(f, A)[1])
    return ExtendibilityReport(m, within_moment_bound(m, f.nonholomorphic_terms[1]))


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
    m = _max_modulus(neg)
    if not within_moment_bound(m, f.nonholomorphic_terms[1]):
        raise NotExtendible(f"max negative modulus {m:.3e} > {MOMENT_RTOL} * sum |c|")
    return complex(value + np.polyval(pos[::-1], tau0))


def lifted_value(f: HermitianPolynomial, P: Complex2, L: LiftPoint) -> complex:
    """The lifted function at a point (z, [zeta]) of the family through P:
    the extension value, at z, along the unique disc whose lift passes
    through the point."""
    disc, tau0 = disc_from_lift_point(L.z, L.zeta)
    if disc.line_distance(P) > 1e-8:
        raise ValueError("recovered disc does not pass through the family center")
    return extension_value(f, disc, tau0)
