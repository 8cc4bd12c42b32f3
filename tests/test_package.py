import disctrace
from disctrace import boundary, crlifts, moments
from disctrace.verification import KernelReport

# the reference implementations that only the tests call; they live in
# tests/oracles.py, not in the library
ORACLES = (
    "LaurentPolynomial",
    "_poly_pow",
    "restrict_to_disc",
    "evaluate",
    "sphere_inner_product",
    "holomorphic_basis",
    "holomorphic_defect",
    "hopf_quadrature_inner",
    "family_class",
    "kernel_polynomials",
)


def test_public_surface_is_the_pipeline():
    namespace = {}
    exec("from disctrace import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(disctrace.__all__)
    for owner in (disctrace, moments, boundary, crlifts, KernelReport):
        assert [name for name in ORACLES if hasattr(owner, name)] == []
