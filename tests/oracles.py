"""Reference implementations the tests compare the disctrace pipeline with.

None of these runs in the library: the pipeline restricts polynomials to
disc boundaries through one function (moments._laurent_coefficients), takes
inner products through the Gram matrix (boundary.gram_matrix) and lift
classes through discs.lift.  The oracles do the same work the slow, plain
way:

- restrict_to_disc: the exact Laurent expansion of f(A(tau)) on |tau| = 1,
  coefficient by coefficient, as a LaurentPolynomial;
- evaluate: f at one sphere point;
- sphere_inner_product, holomorphic_basis, holomorphic_defect: the exact
  L^2 inner product on the sphere, term by term, and the distance to the
  holomorphic polynomials; hopf_quadrature_inner cross-checks the inner
  product by quadrature;
- family_class: the lift class of the disc through P and z, with no disc;
- kernel_polynomials: the kernel of a KernelReport as polynomials;
- dense_singular_values: the singular values of the row-normalized moment
  matrix from one QR of all of it, without the |beta| staircase.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from disctrace.boundary import HermitianPolynomial, MultiIndexPair, _monomial_integral
from disctrace.crlifts import _family_cubic
from disctrace.discs import StraightDisc
from disctrace.geometry import CP1Point, Complex2
from disctrace.verification import KernelReport


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


def evaluate(f: HermitianPolynomial, z: Complex2) -> complex:
    """Evaluate f at a sphere point."""
    if abs(z.norm() - 1.0) > 1e-10:
        raise ValueError(f"|z| = {z.norm():.12f}")
    z1, z2 = z.z1, z.z2
    w1, w2 = np.conj(z1), np.conj(z2)
    total = 0.0 + 0.0j
    for (a1, a2, b1, b2), c in f.terms.items():
        total += c * z1**a1 * z2**a2 * w1**b1 * w2**b2
    return complex(total)


def sphere_inner_product(f: HermitianPolynomial, g: HermitianPolynomial) -> complex:
    """Exact L^2 inner product <f, g> = integral f * conj(g) dsigma."""
    total = 0.0 + 0.0j
    for (a1, a2, b1, b2), cf in f.terms.items():
        for (c1, c2, d1, d2), cg in g.terms.items():
            # conj(g) swaps its alpha and beta
            total += (
                cf
                * np.conj(cg)
                * _monomial_integral(a1 + d1, a2 + d2, b1 + c1, b2 + c2)
            )
    return complex(total)


def holomorphic_basis(d: int) -> list[MultiIndexPair]:
    """Multi-indices of the holomorphic monomials z^alpha with |alpha| <= d."""
    return [(a1, a2, 0, 0) for a1 in range(d + 1) for a2 in range(d + 1 - a1)]


def holomorphic_defect(f: HermitianPolynomial) -> float:
    """L^2 distance from f to the span of holomorphic monomials of degree
    up to deg f; zero iff f is a holomorphic polynomial trace.

    The projections are subtracted coefficient by coefficient and the norm
    of the residual polynomial is taken exactly: sqrt(|f|^2 - sum |proj|^2)
    cannot resolve a defect below sqrt(eps) * |f|.
    """
    residual = f
    for a1, a2, _, _ in holomorphic_basis(f.degree):
        mono = HermitianPolynomial.monomial((a1, a2), (0, 0))
        proj = sphere_inner_product(f, mono) / _monomial_integral(a1, a2, a1, a2)
        residual = residual + (-proj) * mono
    return float(np.sqrt(max(0.0, sphere_inner_product(residual, residual).real)))


def hopf_quadrature_inner(f: HermitianPolynomial, g: HermitianPolynomial) -> complex:
    """Quadrature cross-check of the exact inner product: product
    trapezoidal rule in the two Hopf angles, Gauss-Legendre in the radial
    Hopf parameter, with 64 angles and 32 radial nodes."""
    n_radial, n_phi = 32, 64
    u, wu = np.polynomial.legendre.leggauss(n_radial)
    u = 0.5 * (u + 1.0)
    wu = 0.5 * wu
    phis = 2 * np.pi * np.arange(n_phi) / n_phi
    Z1 = np.sqrt(1.0 - u)[:, None, None] * np.exp(1j * phis)[None, :, None]
    Z2 = np.sqrt(u)[:, None, None] * np.exp(1j * phis)[None, None, :]

    def grid_eval(p: HermitianPolynomial) -> np.ndarray:
        out = np.zeros((n_radial, n_phi, n_phi), dtype=complex)
        for (a1, a2, b1, b2), c in p.terms.items():
            out += c * Z1**a1 * Z2**a2 * np.conj(Z1) ** b1 * np.conj(Z2) ** b2
        return out

    vals = grid_eval(f) * np.conj(grid_eval(g))
    return complex(np.sum(wu * np.mean(vals, axis=(1, 2))))


def family_class(P: Complex2, z: Complex2) -> CP1Point:
    """Lift class [conj c_P(z)] at z of the straight disc through P and z.

    On the disc a + tau*b, z - P = m*b gives c_P(z) = m|b|^2 (conj(tau) a + b):
    the class of discs.lift, with no disc and no tau.  On the sphere it is
    [conj z] for every P.  Raises ChartEvaluationFailure within 1e-6 of the
    singular fiber z = P.
    """
    c, _ = _family_cubic(P, z)
    return CP1Point(np.conj(c[0]), np.conj(c[1]))


def kernel_polynomials(report: KernelReport) -> list[HermitianPolynomial]:
    K = report.kernel_basis
    return [
        HermitianPolynomial({k: K[i, j] for i, k in enumerate(report.basis)})
        for j in range(K.shape[1])
    ]


def dense_singular_values(M: np.ndarray) -> np.ndarray:
    """Singular values of M with unit rows (zero rows kept), descending and
    padded with zeros to one per column: the R of one QR of all of M, then a
    values-only SVD."""
    norms = np.linalg.norm(M, axis=1)
    M = M / np.where(norms > 0, norms, 1.0)[:, None]
    s = np.linalg.svd(np.linalg.qr(M, mode="r"), compute_uv=False)
    out = np.zeros(M.shape[1])
    out[: len(s)] = s
    return out
