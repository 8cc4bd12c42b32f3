import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disctrace.boundary import (
    MAX_DEGREE,
    HermitianPolynomial,
    evaluate,
    gram_matrix,
    holomorphic_basis,
    holomorphic_defect,
    hopf_quadrature_inner,
    normal_form,
    reduced_basis,
    sphere_inner_product,
)
from disctrace.errors import DegreeOverflow, OffSphere
from disctrace.geometry import Complex2


def random_sphere_point(rng):
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    v = v / np.linalg.norm(v)
    return Complex2(v[0], v[1])


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
        assert HermitianPolynomial({(MAX_DEGREE, 0, 0, 0): 1.0}).degree == 12
        with pytest.raises(DegreeOverflow):
            HermitianPolynomial({(7, 6, 0, 0): 1.0})

    def test_algebra(self):
        f = HermitianPolynomial.monomial((1, 0), (0, 0))
        g = HermitianPolynomial.monomial((0, 1), (0, 0), 2.0)
        h = f + (-1.5j) * g
        assert h.terms == {(1, 0, 0, 0): 1.0, (0, 1, 0, 0): -3j}

    def test_conjugate(self):
        f = HermitianPolynomial.monomial((1, 0), (0, 2), 1 + 2j)
        assert f.conjugate().terms == {(0, 2, 1, 0): 1 - 2j}

    def test_is_holomorphic(self):
        assert HermitianPolynomial.monomial((2, 1), (0, 0)).is_holomorphic()
        assert not HermitianPolynomial.monomial((0, 0), (1, 0)).is_holomorphic()

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
        # (1, 0) and () used to fail later in is_holomorphic and to_json_dict;
        # the fifth entry of (1, 0, 0, 0, 2) was dropped from the JSON form
        with pytest.raises(ValueError, match="4 entries"):
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
        with pytest.raises(OffSphere):
            evaluate(HermitianPolynomial(), Complex2(0.5, 0.0))

    def test_instance(self):
        f = HermitianPolynomial.monomial((0, 1), (0, 1))  # |z2|^2
        assert evaluate(f, Complex2(0.6, 0.8)) == pytest.approx(0.64)


class TestNormalForm:
    def test_single_rewrite(self):
        f = HermitianPolynomial.monomial((1, 0), (1, 0))  # z1 conj(z1)
        nf = normal_form(f)
        assert nf.terms == {(0, 0, 0, 0): 1.0, (0, 1, 0, 1): -1.0}

    def test_already_reduced(self):
        f = HermitianPolynomial.monomial((0, 1), (0, 1))
        assert normal_form(f).terms == f.terms

    def test_one_step_instance(self):
        # z1^2 conj(z1) -> z1 - z1 z2 conj(z2)
        f = HermitianPolynomial.monomial((2, 0), (1, 0))
        nf = normal_form(f)
        assert nf.terms == {(1, 0, 0, 0): 1.0, (1, 1, 0, 1): -1.0}

    @settings(max_examples=50, deadline=None)
    @given(polys)
    def test_preserves_sphere_values(self, f):
        nf = normal_form(f)
        assert all(min(k[0], k[2]) == 0 for k in nf.terms)
        rng = np.random.default_rng(0)
        for _ in range(20):
            z = random_sphere_point(rng)
            assert evaluate(f, z) == pytest.approx(evaluate(nf, z), abs=1e-10)


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


class TestGram:
    def test_positive_definite(self):
        G = gram_matrix(reduced_basis(4))
        assert np.linalg.norm(G - G.conj().T) < 1e-14
        assert np.min(np.linalg.eigvalsh(G)) > 0

    def test_entries(self):
        # bit-identical to the exact inner product, entry by entry
        basis = reduced_basis(3)
        G = gram_matrix(basis)
        for i, ki in enumerate(basis):
            fi = HermitianPolynomial({ki: 1.0})
            for j, kj in enumerate(basis):
                fj = HermitianPolynomial({kj: 1.0})
                assert G[i, j] == sphere_inner_product(fj, fi)


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
