"""Restriction of boundary polynomials to disc boundaries and the moment
test for disc-wise holomorphic extendibility.

On |tau| = 1 a disc boundary satisfies z = a + tau*b and
conj(z) = conj(a) + conj(b)/tau, so a mixed monomial restricts to a
Laurent polynomial in tau.  The restriction extends holomorphically into
the disc iff its negative coefficients vanish.

The moment test and the extension values split f into its holomorphic
terms, which have no negative Laurent terms and extend as themselves (they
are evaluated directly at A(tau0)), and the rest, whose Laurent
coefficients come from _laurent_coefficients.  That one function also
builds the moment matrix of verification.build_moment_matrix: it samples
the monomials at the N roots of unity and returns the coefficients of the
degrees it is asked for, through one small matrix of tau^-k / N, so no
caller handles the aliasing of degrees mod N or the 1/N.  The moment test
asks for the degrees -D..D from 2D + 2 samples (D the top degree): the
restriction of a sum of monomials has degrees in [-D, D], so they are
exact.  The moment matrix asks for the degrees -1..-d from d + 1 samples,
enough for the Laurent window of each monomial.  The tests compare both
with the exact coefficient-by-coefficient restriction, restrict_to_disc in
tests/oracles.py.
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


def _laurent_coefficients(discs, e: np.ndarray, N: int, ks: np.ndarray) -> np.ndarray:
    """Laurent coefficients ks[i] along tau of the monomials
    z^alpha conj(z)^beta with exponent rows e = (alpha1, alpha2, beta1,
    beta2) on the boundaries a + tau*b of the given n straight discs, from
    their samples at the N roots of unity tau_j; shape (n, len(ks), len(e)),
    row i the coefficient ks[i].

    The samples come from a table of z1^i z2^j, 0 <= i, j <= e.max(), at
    every sample point: each column is one gather from the table (z^alpha)
    times one gather from its conjugate (conj(z)^beta).  One (len(ks), N)
    matrix of tau_j^-k / N takes them to the coefficients.

    The row of degree k holds the sum of the Laurent coefficients j with
    j = k mod N.  A monomial has coefficients only in [-|beta|,
    |alpha|], so its coefficient k is exact for -|beta| <= k <= |alpha|
    whenever N > |alpha| + |beta|; a sum of monomials of degree <= D needs
    N > 2D.
    """
    a = np.array([disc.a.as_array() for disc in discs])
    b = np.array([disc.b.as_array() for disc in discs])
    tau = np.exp(2j * np.pi * np.arange(N) / N)
    z = a[:, None, :] + tau[None, :, None] * b[:, None, :]
    m = e.max() + 1
    zp = z[..., None] ** np.arange(m)  # (n, N, 2, m)
    table = (zp[:, :, 0, :, None] * zp[:, :, 1, None, :]).reshape(len(a), N, m * m)
    alpha, beta = (e[:, ::2] * m + e[:, 1::2]).T  # positions of z^alpha, z^beta
    samples = table.take(alpha, axis=2)
    samples *= table.conj().take(beta, axis=2)
    # tau_j^-k is the root tau_((-k * j) mod N), not a power of tau_j
    return tau[np.outer(-ks, np.arange(N)) % N] / N @ samples


def _nonholomorphic_coefficients(
    f: HermitianPolynomial, A: StraightDisc
) -> tuple[np.ndarray, np.ndarray]:
    """Laurent coefficients on the boundary of A of the non-holomorphic
    terms of f, as (c_0..c_D, c_-D..c_-1), D their top degree; both empty
    when f is holomorphic.  The coefficients -D..D of those monomials,
    contracted with their coefficients over the largest modulus, which
    cannot overflow; only the results are scaled back."""
    e, coeffs, D = f.nonholomorphic_terms
    if not coeffs.size:
        return coeffs, coeffs
    # 2D + 2 samples: the window [-D, D] of a sum of monomials has 2D + 1 terms
    laurent = _laurent_coefficients([A], e, 2 * D + 2, np.arange(-D, D + 1))[0]
    top = np.abs(coeffs).max()
    c = laurent @ (coeffs / top) * top
    return c[D:], c[:D]


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
