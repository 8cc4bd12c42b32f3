"""Straight discs of the unit ball in C^2, their projectivized conormal
lifts, and moment tests for disc-wise holomorphic extendibility."""

from .boundary import (
    HermitianPolynomial,
    reduced_basis,
)
from .discs import (
    LiftPoint,
    StraightDisc,
    boundary_point,
    disc_from_lift_point,
    disc_from_line,
    disc_through_two_points,
    lift,
)
from .geometry import (
    BallAutomorphism,
    CP1Point,
    Complex2,
    apply_automorphism,
    cp1_distance,
    hermitian_inner,
)
from .lemmas import lemma_suite
from .moments import (
    ExtendibilityReport,
    extendibility_test,
    extension_value,
    lifted_value,
)
from .verification import (
    KernelReport,
    MomentMatrix,
    build_moment_matrix,
    extension_consistency,
    kernel_experiment,
    sample_disc_families,
    sample_disc_family,
)

__version__ = "0.1.0"

__all__ = [
    "BallAutomorphism",
    "CP1Point",
    "Complex2",
    "ExtendibilityReport",
    "HermitianPolynomial",
    "KernelReport",
    "LiftPoint",
    "MomentMatrix",
    "StraightDisc",
    "apply_automorphism",
    "boundary_point",
    "build_moment_matrix",
    "cp1_distance",
    "disc_from_lift_point",
    "disc_from_line",
    "disc_through_two_points",
    "extendibility_test",
    "extension_consistency",
    "extension_value",
    "hermitian_inner",
    "kernel_experiment",
    "lemma_suite",
    "lift",
    "lifted_value",
    "reduced_basis",
    "sample_disc_families",
    "sample_disc_family",
]
