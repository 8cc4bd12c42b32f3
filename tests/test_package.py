import ast
from pathlib import Path

import disctrace
from disctrace import boundary, crlifts, lemmas, moments, verification
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
    for owner in (disctrace, moments, boundary, crlifts, lemmas, KernelReport):
        assert [name for name in ORACLES if hasattr(owner, name)] == []


# the lemma suite and the code only it uses, which live in disctrace.lemmas
LEMMAS_ONLY = (
    "LemmaCheck",
    "LemmaSuiteReport",
    "lemma_suite",
    "random_interior_point",
    "random_direction",
    "random_disc",
    "_lift_curve_samples",
    "_max_class_distance",
    "_lift_distance_features",
    "lift_pair_min_distance",
    "_LEVI_DIRECTIONS",
    "_circle_mean_defect",
    "_real_span_solve",
)


def test_verification_holds_only_the_kernel_pipeline():
    # every import of disctrace compiles verification: it must not carry
    # the lemma suite or its crlifts dependency
    assert not hasattr(verification, "crlifts")
    assert [name for name in LEMMAS_ONLY if hasattr(verification, name)] == []
    assert [name for name in LEMMAS_ONLY if not hasattr(lemmas, name)] == []


def test_degree_cap_is_the_clis_and_cli_uses_public_names():
    # the cap of --degree and of function files guards outside input only,
    # so no library module knows it; the source is parsed, not imported
    src = Path(disctrace.__file__).parent
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(src.glob("*.py"))}
    defines_cap = [
        name
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Name)
        and isinstance(node.ctx, ast.Store)
        and node.id == "MAX_DEGREE"
    ]
    assert defines_cap == ["cli"]
    private = [
        alias.name
        for node in ast.walk(trees["cli"])
        if isinstance(node, ast.ImportFrom)
        and (node.level or node.module.startswith("disctrace"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []
