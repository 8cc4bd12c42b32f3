import json
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disctrace.boundary import HermitianPolynomial, l2_factor, reduced_basis
from disctrace.discs import disc_from_line
from disctrace.geometry import Complex2
from disctrace.moments import extendibility_test, extension_value
from oracles import (
    evaluate,
    holomorphic_basis,
    holomorphic_defect,
    hopf_quadrature_inner,
    sphere_inner_product,
)


small_indices = st.tuples(
    st.integers(0, 2), st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)
)
coeffs = st.builds(
    complex, st.floats(-3, 3, allow_nan=False), st.floats(-3, 3, allow_nan=False)
)
polys = st.dictionaries(small_indices, coeffs, max_size=5).map(HermitianPolynomial)


class TestHermitianPolynomial:
    def test_zero_coefficients_dropped(self):
        f = HermitianPolynomial({(1, 0, 0, 0): 0.0, (0, 1, 0, 0): 2.0})
        assert f.terms == {(0, 1, 0, 0): 2.0}

    def test_degree(self):
        f = HermitianPolynomial({(1, 2, 0, 1): 1.0})
        assert f.degree == 4
        assert HermitianPolynomial().degree == 0

    def test_degree_cap(self):
        # the cap of 12 is the CLI's (tests/test_cli.py); the library takes
        # any degree
        f = HermitianPolynomial({(13, 0, 0, 0): 1.0})
        assert f.degree == 13
        assert HermitianPolynomial({(7, 6, 0, 0): 1.0}).degree == 13
        # z1^13 is holomorphic: exactly no negative coefficient on a disc,
        # and its extension value is its value at the disc's point
        disc = disc_from_line(Complex2(0.3, 0.2j), Complex2(0.6, 0.8))
        assert extendibility_test(f, disc).max_negative_modulus == 0.0
        tau = 0.7 * np.exp(0.4j)
        z = disc.point(tau)
        r = z.norm()
        # evaluate takes sphere points; z1^13 is homogeneous of degree 13
        on_sphere = evaluate(f, Complex2(z.z1 / r, z.z2 / r)) * r**13
        assert extension_value(f, disc, tau) == pytest.approx(on_sphere, rel=1e-12)

    def test_algebra(self):
        f = HermitianPolynomial.monomial((1, 0), (0, 0))
        g = HermitianPolynomial.monomial((0, 1), (0, 0), 2.0)
        h = f + (-1.5j) * g
        assert h.terms == {(1, 0, 0, 0): 1.0, (0, 1, 0, 0): -3j}

    @settings(max_examples=50, deadline=None)
    @given(polys)
    def test_nonholomorphic_terms_split(self, f):
        e, c, D = f.nonholomorphic_terms
        assert f.nonholomorphic_terms is f.nonholomorphic_terms  # split once
        assert e.shape == (len(c), 4) and e.dtype == int and c.dtype == complex
        assert not e.flags.writeable and not c.flags.writeable
        split = {tuple(int(i) for i in k): ck for k, ck in zip(e, c)}
        assert split == {k: ck for k, ck in f.terms.items() if k[2] + k[3] > 0}
        assert D == max((sum(k) for k in split), default=0)
        assert (len(c) == 0) == all(k[2] + k[3] == 0 for k in f.terms)

    def test_json_round_trip(self, tmp_path):
        f = HermitianPolynomial({(1, 0, 0, 2): 0.5 - 1j, (0, 0, 0, 0): 2.0})
        path = tmp_path / "f.json"
        f.save(path)
        doc = json.loads(path.read_text())
        assert set(doc) == {"terms"}
        g = HermitianPolynomial.load(path)
        assert g.terms == f.terms

    @pytest.mark.parametrize("c", [np.nan, np.inf, complex(0, -np.inf)])
    def test_nonfinite_coefficient_rejected(self, c):
        with pytest.raises(ValueError, match="finite"):
            HermitianPolynomial({(1, 0, 0, 0): c})

    @pytest.mark.parametrize("i", [1.5, 1.0, "1"])
    def test_nonintegral_multi_index_rejected(self, i):
        # int() would truncate 1.5 to 1
        with pytest.raises(TypeError):
            HermitianPolynomial({(i, 0, 0, 0): 1.0})

    @pytest.mark.parametrize("c", ["2.5", b"1"])
    def test_string_coefficient_rejected(self, c):
        # complex() parses "2.5" into 2.5 + 0j; Complex2 rejects it too
        with pytest.raises(TypeError):
            HermitianPolynomial({(1, 0, 0, 0): c})

    @pytest.mark.parametrize("i", [True, np.True_])
    def test_bool_multi_index_rejected(self, i):
        # True would read as the exponent 1; from_json_dict rejects JSON true too
        with pytest.raises(ValueError, match="not bools"):
            HermitianPolynomial({(i, 0, 0, 0): 1.0})

    @pytest.mark.parametrize(
        "alpha, beta",
        [([1], [0, 0]), ([1, 0, 5], [0, 0]), ([1.5, 0], [0, 0]),
         ([True, 0], [0, 0]), ([1, 0], "00"), ([1, 0], [0, None])],
    )
    def test_from_json_needs_two_integers(self, alpha, beta):
        doc = {"terms": [{"alpha": alpha, "beta": beta, "re": 1.0, "im": 0.0}]}
        with pytest.raises(ValueError, match="two integers"):
            HermitianPolynomial.from_json_dict(doc)

    @pytest.mark.parametrize("key", [(1, 0), (), (1, 0, 0, 0, 2)])
    def test_multi_index_needs_four_entries(self, key):
        # (1, 0) and () used to fail later in to_json_dict;
        # the fifth entry of (1, 0, 0, 0, 2) was dropped from the JSON form
        with pytest.raises(ValueError, match="4 entries"):
            HermitianPolynomial({key: 1.0})

    @pytest.mark.parametrize("key", [(1, 0, -1, 0), (0, -2, 0, 0)])
    def test_multi_index_needs_nonnegative_entries(self, key):
        with pytest.raises(ValueError, match="nonnegative"):
            HermitianPolynomial({key: 1.0})

    @pytest.mark.parametrize(
        "alpha, beta", [((1, 2, 3), (0, 0)), ((1,), (0, 0)), ((1, 0), (0, 0, 1))]
    )
    def test_monomial_needs_two_entries(self, alpha, beta):
        # (1, 2, 3), (0, 0) used to become the monomial (1, 2, 0, 0)
        with pytest.raises(ValueError, match="2 entries"):
            HermitianPolynomial.monomial(alpha, beta)

    @pytest.mark.parametrize(
        "re, im", [(True, 0.0), (1.0, False), (True, False), ("1", 0.0), (1.0, None)]
    )
    def test_from_json_needs_numeric_coefficients(self, re, im):
        # JSON true used to read as the coefficient 1
        doc = {"terms": [{"alpha": [1, 0], "beta": [0, 0], "re": re, "im": im}]}
        with pytest.raises(ValueError, match="numbers"):
            HermitianPolynomial.from_json_dict(doc)

    def test_from_json_accepts_integer_coefficients(self):
        doc = {"terms": [{"alpha": [1, 0], "beta": [0, 0], "re": 2, "im": -1}]}
        assert HermitianPolynomial.from_json_dict(doc).terms == {(1, 0, 0, 0): 2 - 1j}


class TestEvaluate:
    def test_off_sphere_rejected(self):
        with pytest.raises(ValueError, match=r"\|z\| = 0\.5"):
            evaluate(HermitianPolynomial(), Complex2(0.5, 0.0))

    def test_instance(self):
        f = HermitianPolynomial.monomial((0, 1), (0, 1))  # |z2|^2
        assert evaluate(f, Complex2(0.6, 0.8)) == pytest.approx(0.64)


def test_no_hypothesis_example_database():
    # conftest.py loads a profile without one, which @settings inherits
    assert settings.default.database is None


class TestReducedBasis:
    def test_sizes(self):
        assert len(reduced_basis(0)) == 1
        assert len(reduced_basis(1)) == 5
        assert len(reduced_basis(4)) == 55

    def test_membership(self):
        for k in reduced_basis(3):
            assert min(k[0], k[2]) == 0
            assert sum(k) <= 3

    def test_holomorphic_subset(self):
        basis = set(reduced_basis(4))
        assert len(holomorphic_basis(4)) == 15
        assert set(holomorphic_basis(4)) <= basis

    @pytest.mark.parametrize("d", range(13))
    def test_graded_order(self, d):
        # sorted by |beta| and then lexicographically: the holomorphic
        # monomials are a prefix, and those with |beta| >= k a suffix
        basis = list(reduced_basis(d))
        assert basis == sorted(basis, key=lambda k: (k[2] + k[3], k))
        assert basis[: (d + 1) * (d + 2) // 2] == holomorphic_basis(d)

    def test_one_tuple_per_degree(self):
        # built once per degree and shared: immutable, so no caller can
        # change what another reads
        basis = reduced_basis(4)
        assert isinstance(basis, tuple) and len(basis) == 55
        assert reduced_basis(4) is basis

    @pytest.mark.parametrize("d", [13, 16])
    def test_past_the_cli_cap(self, d):
        # the monomials of degree <= d less those with z1 conj(z1) as a
        # factor, which are z1 conj(z1) times a monomial of degree <= d - 2
        basis = list(reduced_basis(d))
        assert len(basis) == comb(d + 4, 4) - comb(d + 2, 4)
        assert basis == sorted(basis, key=lambda k: (k[2] + k[3], k))

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            reduced_basis(-1)


class TestInnerProduct:
    def test_instances(self):
        z1 = HermitianPolynomial.monomial((1, 0), (0, 0))
        one = HermitianPolynomial.monomial((0, 0), (0, 0))
        z2sq = HermitianPolynomial.monomial((0, 2), (0, 0))
        # exact monomial integrals a1! a2! / (|a| + 1)!
        assert sphere_inner_product(z1, z1) == pytest.approx(0.5)
        assert sphere_inner_product(one, one) == pytest.approx(1.0)
        assert sphere_inner_product(z2sq, z2sq) == pytest.approx(2.0 / 6.0)
        assert sphere_inner_product(z1, one) == pytest.approx(0.0)

    @settings(max_examples=30, deadline=None)
    @given(polys, polys)
    def test_hermitian_symmetry(self, f, g):
        assert sphere_inner_product(f, g) == pytest.approx(
            np.conj(sphere_inner_product(g, f)), abs=1e-9
        )

    @settings(max_examples=30, deadline=None)
    @given(polys)
    def test_positive(self, f):
        assert sphere_inner_product(f, f).real >= -1e-12

    def test_quadrature_agreement(self):
        rng = np.random.default_rng(1)
        keys = reduced_basis(4)
        for _ in range(10):
            f = HermitianPolynomial(
                {keys[i]: complex(*rng.normal(size=2)) for i in rng.choice(55, 4)}
            )
            g = HermitianPolynomial(
                {keys[i]: complex(*rng.normal(size=2)) for i in rng.choice(55, 4)}
            )
            exact = sphere_inner_product(f, g)
            quad = hopf_quadrature_inner(f, g)
            assert abs(exact - quad) < 1e-6


def oracle_gram(basis) -> np.ndarray:
    """G[i, j] = <b_j, b_i> from the term-by-term inner product."""
    monomials = [HermitianPolynomial({k: 1.0}) for k in basis]
    return np.array([[sphere_inner_product(fj, fi) for fj in monomials]
                     for fi in monomials])


class TestL2Factor:
    @pytest.mark.parametrize("d", [0, 3, 8])
    def test_is_the_dense_cholesky_factor(self, d):
        basis = reduced_basis(d)
        G, F = oracle_gram(basis), l2_factor(basis)
        assert F.dtype == float
        # upper triangular, exactly, with a positive diagonal: F^T F is
        # positive definite, and F^T is the unique Cholesky factor of G
        assert np.all(np.tril(F, -1) == 0)
        assert np.all(np.diag(F) > 0)
        assert np.abs(F.T @ F - G).max() <= 1e-15
        assert np.abs(F - np.linalg.cholesky(G).conj().T).max() <= 1e-14

    def test_blocks_by_charge_class_at_degree_12(self):
        basis = reduced_basis(12)
        F = l2_factor(basis)
        charge = np.array([(a1 - b1, a2 - b2) for a1, a2, b1, b2 in basis])
        same = (charge[:, None] == charge[None, :]).all(axis=2)
        assert np.all(F[~same] == 0)
        for c in np.unique(charge, axis=0):
            idx = np.flatnonzero((charge == c).all(axis=1))
            block = F[np.ix_(idx, idx)]
            G = oracle_gram([basis[i] for i in idx])
            assert np.abs(block.T @ block - G).max() <= 1e-15


class TestHolomorphicDefect:
    def test_holomorphic_has_zero_defect(self):
        f = HermitianPolynomial({(2, 1, 0, 0): 1.0, (0, 0, 0, 0): -0.5j})
        assert holomorphic_defect(f) < 1e-12

    def test_conjugate_coordinate(self):
        # distance of conj(z1) to the holomorphic span is sqrt(1/2)
        f = HermitianPolynomial.monomial((0, 0), (1, 0))
        assert holomorphic_defect(f) == pytest.approx(np.sqrt(0.5), abs=1e-12)

    def test_modulus_squared(self):
        # |z2|^2 overlaps only the constant: defect sqrt(1/3 - 1/4)
        f = HermitianPolynomial.monomial((0, 1), (0, 1))
        assert holomorphic_defect(f) == pytest.approx(np.sqrt(1.0 / 12.0), abs=1e-12)

    def test_holomorphic_at_roundoff(self):
        # the residual norm resolves far below sqrt(eps) * |f|
        rng = np.random.default_rng(0)
        for _ in range(50):
            f = HermitianPolynomial(
                {k: complex(*rng.normal(size=2)) for k in holomorphic_basis(6)}
            )
            assert holomorphic_defect(f) <= 1e-14
