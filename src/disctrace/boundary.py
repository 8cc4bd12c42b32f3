"""Hermitian (mixed) polynomials on the unit sphere of C^2.

A boundary function is a finite sum f = sum c_{ab} z^a conj(z)^b.  The
sphere relation |z1|^2 + |z2|^2 = 1 is quotiented out by the rewrite
z1*conj(z1) -> 1 - z2*conj(z2), so normal forms are exactly the monomials
with min(alpha1, beta1) = 0.  Inner products in L^2 of the normalized
sphere measure are exact:

    integral z^a conj(z)^b dsigma = delta_{ab} * a1! a2! / (|a| + 1)!.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field
from math import factorial

import numpy as np

from .errors import DegreeOverflow, OffSphere
from .geometry import Complex2

MAX_DEGREE = 12

# key: (alpha1, alpha2, beta1, beta2)
MultiIndexPair = tuple[int, int, int, int]


def _total_degree(k: MultiIndexPair) -> int:
    return sum(k)


@dataclass(frozen=True)
class HermitianPolynomial:
    """Finite sum of monomials z^alpha conj(z)^beta with complex
    coefficients; zero coefficients are never stored."""

    terms: dict[MultiIndexPair, complex] = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for k, c in self.terms.items():
            # operator.index raises TypeError on 1.5 where int() truncates
            k = tuple(operator.index(i) for i in k)
            if len(k) != 4:
                raise ValueError("multi-indices must have 4 entries")
            if any(i < 0 for i in k):
                raise ValueError("multi-indices must be nonnegative")
            if _total_degree(k) > MAX_DEGREE:
                raise DegreeOverflow(
                    f"monomial degree {_total_degree(k)} exceeds cap {MAX_DEGREE}"
                )
            c = complex(c)
            if not np.isfinite(c):
                raise ValueError("coefficients must be finite")
            if c != 0:
                clean[k] = clean.get(k, 0.0) + c
        object.__setattr__(self, "terms", {k: c for k, c in clean.items() if c != 0})

    @property
    def degree(self) -> int:
        return max((_total_degree(k) for k in self.terms), default=0)

    @staticmethod
    def monomial(alpha, beta, coeff: complex = 1.0):
        if len(alpha) != 2 or len(beta) != 2:
            raise ValueError("alpha and beta must have 2 entries")
        return HermitianPolynomial({(*alpha, *beta): coeff})

    def __add__(self, other: "HermitianPolynomial") -> "HermitianPolynomial":
        terms = dict(self.terms)
        for k, c in other.terms.items():
            terms[k] = terms.get(k, 0.0) + c
        return HermitianPolynomial(terms)

    def __mul__(self, scalar: complex) -> "HermitianPolynomial":
        return HermitianPolynomial({k: scalar * c for k, c in self.terms.items()})

    __rmul__ = __mul__

    def conjugate(self) -> "HermitianPolynomial":
        return HermitianPolynomial(
            {(k[2], k[3], k[0], k[1]): np.conj(c) for k, c in self.terms.items()}
        )

    def is_holomorphic(self) -> bool:
        return all(k[2] == 0 and k[3] == 0 for k in self.terms)

    def to_json_dict(self) -> dict:
        return {
            "terms": [
                {
                    "alpha": [k[0], k[1]],
                    "beta": [k[2], k[3]],
                    "re": c.real,
                    "im": c.imag,
                }
                for k, c in sorted(self.terms.items())
            ]
        }

    @staticmethod
    def from_json_dict(doc: dict):
        terms = {}
        for t in doc["terms"]:
            # bool is an int subclass, but JSON true is no exponent
            if not all(
                isinstance(t[key], list)
                and len(t[key]) == 2
                and all(type(i) is int for i in t[key])
                for key in ("alpha", "beta")
            ):
                raise ValueError("alpha and beta must be lists of two integers")
            # JSON true would read as the number 1
            if not all(type(t[key]) in (int, float) for key in ("re", "im")):
                raise ValueError("re and im must be numbers")
            k = (*t["alpha"], *t["beta"])
            terms[k] = terms.get(k, 0.0) + complex(t["re"], t["im"])
        return HermitianPolynomial(terms)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2, sort_keys=True)

    @staticmethod
    def load(path):
        with open(path) as fh:
            return HermitianPolynomial.from_json_dict(json.load(fh))


def evaluate(f: HermitianPolynomial, z: Complex2) -> complex:
    """Evaluate f at a sphere point."""
    if abs(z.norm() - 1.0) > 1e-10:
        raise OffSphere(f"|z| = {z.norm():.12f}")
    z1, z2 = z.z1, z.z2
    w1, w2 = np.conj(z1), np.conj(z2)
    total = 0.0 + 0.0j
    for (a1, a2, b1, b2), c in f.terms.items():
        total += c * z1**a1 * z2**a2 * w1**b1 * w2**b2
    return complex(total)


def normal_form(f: HermitianPolynomial) -> HermitianPolynomial:
    """Rewrite z1*conj(z1) -> 1 - z2*conj(z2) to a fixed point; the result
    has min(alpha1, beta1) = 0 in every monomial and the same values on the
    sphere."""
    pending = dict(f.terms)
    out: dict[MultiIndexPair, complex] = {}
    while pending:
        (a1, a2, b1, b2), c = pending.popitem()
        if c == 0:
            continue
        if a1 >= 1 and b1 >= 1:
            for key, dc in (
                ((a1 - 1, a2, b1 - 1, b2), c),
                ((a1 - 1, a2 + 1, b1 - 1, b2 + 1), -c),
            ):
                pending[key] = pending.get(key, 0.0) + dc
        else:
            out[(a1, a2, b1, b2)] = out.get((a1, a2, b1, b2), 0.0) + c
    return HermitianPolynomial(out)


def reduced_basis(d: int) -> list[MultiIndexPair]:
    """All normal-form multi-index pairs of total degree <= d, in fixed
    lexicographic order."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
    out = []
    for a1 in range(d + 1):
        for a2 in range(d + 1 - a1):
            for b1 in range(d + 1 - a1 - a2):
                for b2 in range(d + 1 - a1 - a2 - b1):
                    if min(a1, b1) == 0:
                        out.append((a1, a2, b1, b2))
    out.sort()
    return out


def _monomial_integral(a1: int, a2: int, b1: int, b2: int) -> float:
    """integral of z^a conj(z)^b over the normalized sphere measure."""
    if (a1, a2) != (b1, b2):
        return 0.0
    return factorial(a1) * factorial(a2) / factorial(a1 + a2 + 1)


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


def gram_matrix(basis: list[MultiIndexPair]) -> np.ndarray:
    """Hermitian Gram matrix G[i, j] = <b_j, b_i> of sphere monomials."""
    e = np.array(basis, dtype=int).reshape(-1, 4)
    # <b_j, b_i> = integral z^c zbar^d * conj(z^a zbar^b): nonzero iff
    # c + b = d + a, with value p! q! / (p + q + 1)! at (p, q) = c + b
    p = e[None, :, 0] + e[:, None, 2]
    q = e[None, :, 1] + e[:, None, 3]
    match = (p == e[None, :, 2] + e[:, None, 0]) & (q == e[None, :, 3] + e[:, None, 1])
    top = int(max(p.max(initial=0), q.max(initial=0)))
    table = np.array(
        [[_monomial_integral(i, j, i, j) for j in range(top + 1)] for i in range(top + 1)]
    )
    return np.where(match, table[p, q], 0.0).astype(complex)


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
