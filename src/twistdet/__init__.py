"""Exact determinant-like invariants over truncated twisted power series."""

from .errors import (
    AugmentationNotIdentity,
    AugmentationNotOne,
    AugmentationNotUnit,
    ClassRegroupIncompatible,
    CommutationFailed,
    DimensionMismatch,
    FlavorViolated,
    InternalInvariantError,
    LeadingCoeffNotUnit,
    LiteralSyntaxError,
    NeedsRationalCoefficients,
    NeedsTrace,
    NotAUnit,
    NotInvertible,
    NotInWOne,
    RingMismatch,
    TwistdetError,
    WindowUnderflow,
)
from .rings import (
    CoeffRing,
    FiniteGroup,
    GroupAlgebra,
    IntegersMod,
    RationalField,
    RationalMatrixRing,
    RingAutomorphism,
    TruncatedFreeAlgebra,
    cyclic_group,
)
from .series import SeriesRing, TwistedSeries, formal_exp, formal_log
from .literals import parse_series, render_series
from .matrices import (
    LduFactors,
    SeriesMatrix,
    det_stabilize,
    dieudonne_det,
    ldu_decompose,
    mat_invert,
    mat_is_invertible,
    rearrange_inverses_check,
    whitehead_identity_check,
)
from .kgroup import (
    CGenerator,
    CycLogVector,
    FLAVOR_A_KERNEL,
    FLAVOR_AB_BA_KERNEL,
    FLAVOR_B_UNIT,
    FLAVOR_BA_KERNEL,
    FLAVOR_UNIT,
    FLAVORS,
    c_generator,
    commutator_as_c_generator,
    coset_probably_equal,
    cyc_log,
    endo_class_invariant,
    exact_sequence_additivity_check,
    vaserstein_transform,
)
from .novikov import (
    NovikovSeries,
    OrbitCountReport,
    nov_add,
    nov_invert,
    nov_mul,
    nov_neg,
    nov_sub,
    orbit_counts,
    twisted_conjugacy_classes,
    w1_invariant,
)

__version__ = "0.1.0"
