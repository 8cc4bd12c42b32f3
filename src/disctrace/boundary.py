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
from functools import cached_property, lru_cache
from math import factorial

import numpy as np

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
            # bool is an int subclass, but True is no exponent (from_json_dict
            # rejects JSON true too); operator.index raises TypeError on 1.5
            # where int() truncates
            if any(isinstance(i, (bool, np.bool_)) for i in k):
                raise ValueError("multi-index entries must be integers, not bools")
            k = tuple(operator.index(i) for i in k)
            if len(k) != 4:
                raise ValueError("multi-indices must have 4 entries")
            if any(i < 0 for i in k):
                raise ValueError("multi-indices must be nonnegative")
            if _total_degree(k) > MAX_DEGREE:
                raise ValueError(
                    f"monomial degree {_total_degree(k)} exceeds cap {MAX_DEGREE}"
                )
            # np.isfinite raises TypeError for a str, which complex() would parse
            if not np.isfinite(c):
                raise ValueError("coefficients must be finite")
            c = complex(c)
            if c != 0:
                clean[k] = clean.get(k, 0.0) + c
        object.__setattr__(self, "terms", {k: c for k, c in clean.items() if c != 0})

    @property
    def degree(self) -> int:
        return max((_total_degree(k) for k in self.terms), default=0)

    @cached_property
    def nonholomorphic_terms(self) -> tuple[np.ndarray, np.ndarray, int]:
        """The terms with beta != 0, split once: read-only arrays of their
        exponent rows (n, 4) and coefficients (n,), and their top degree D
        (n = D = 0 when f is holomorphic)."""
        keys = [k for k in self.terms if k[2] + k[3] > 0]
        e = np.array(keys, dtype=int).reshape(-1, 4)
        c = np.array([self.terms[k] for k in keys], dtype=complex)
        e.flags.writeable = c.flags.writeable = False
        return e, c, int(e.sum(axis=1).max(initial=0))

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


def reduced_basis(d: int) -> list[MultiIndexPair]:
    """All normal-form multi-index pairs of total degree <= d, sorted by
    |beta| and then lexicographically: the holomorphic monomials come first,
    and those with |beta| >= k form a suffix for every k.  A fresh list,
    which the caller may change; _reduced_basis(d) is the one shared tuple
    that kernel reports hold."""
    return list(_reduced_basis(d))


@lru_cache(maxsize=MAX_DEGREE + 1)
def _reduced_basis(d: int) -> tuple[MultiIndexPair, ...]:
    """reduced_basis(d) as one immutable tuple per degree, built once."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
    out = []
    for a1 in range(d + 1):
        for a2 in range(d + 1 - a1):
            for b1 in range(d + 1 - a1 - a2):
                for b2 in range(d + 1 - a1 - a2 - b1):
                    if min(a1, b1) == 0:
                        out.append((a1, a2, b1, b2))
    out.sort(key=lambda k: (k[2] + k[3], k))
    return tuple(out)


def _monomial_integral(a1: int, a2: int, b1: int, b2: int) -> float:
    """integral of z^a conj(z)^b over the normalized sphere measure."""
    if (a1, a2) != (b1, b2):
        return 0.0
    return factorial(a1) * factorial(a2) / factorial(a1 + a2 + 1)


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
