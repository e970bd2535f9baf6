"""torolog: exact combinatorics of toric monoids and the roundings of their
log structures.

The package computes with finitely generated submonoids of Z^d and the
rational polyhedral cones they span: normal forms and duality, face lattices,
saturation, fans of monoids with their affine atlases, monoid morphisms, and
the circle-valued rounding data attached to divisorial log structures --
ghost monoids, rounding-fiber torus ranks and component counts, and the
Milnor-fibration bookkeeping for simple-normal-crossings models.
"""

from torolog.lattice import (
    AbelianGroupInvariants,
    det,
    hnf,
    hnf_basis,
    kernel_basis,
    lattice_rank,
    mat_identity,
    mat_mul,
    mat_vec,
    pairing,
    primitive,
    quotient_invariants,
    snf,
    solve_integer,
    transpose,
)
from torolog.cones import (
    RationalCone,
    contains,
    dim,
    dual_cone,
    intersect,
    is_face_of,
    is_sharp,
)
from torolog.cones import faces as _cone_faces
from torolog.monoids import (
    GhostReport,
    MonoidFace,
    PrimeIdeal,
    ToricMonoid,
    edge,
    exponent_cone,
    ghost,
    gp,
    hilbert_basis,
    is_saturated,
    localize,
    membership,
    monoid_equal,
    prime_ideals,
    saturate,
    saturation_membership,
    weight_cone,
)
from torolog.monoids import faces as _monoid_faces
from torolog.fans import (
    Fan,
    FanOfMonoids,
    FanStratum,
    ValidationFailure,
    ValidationReport,
    affine_atlas,
    normal_fan_of_monoids,
    strata,
    validate_fan,
    validate_fan_of_monoids,
)
from torolog.rounding import (
    ComplexPoint,
    FiberReport,
    LogPointDescriptor,
    LogPointKind,
    LogStalk,
    PointStratum,
    RoundingPoint,
    associated_log_stalk,
    base_point,
    encode_hom,
    evaluate_monomial,
    fiber_structure,
    log_point,
    milnor_stratum_fiber,
    monomial_angle,
    points_of,
    relative_fiber,
    rounding_report,
    strict_restriction_check,
    tau,
)
from torolog.morphisms import (
    ToricMorphismData,
    apply_to_point,
    check_morphism,
    normalization_morphism,
)
from torolog.snc import (
    DualComplex,
    MilnorReport,
    StratumRow,
    link_report,
    milnor_report,
)


def faces(x):
    """Faces of a rational cone or of a toric monoid, smallest first.

    Both kinds carry a face lattice; this dispatches on the argument so the
    natural name works for either. The per-kind functions live at
    ``torolog.cones.faces`` and ``torolog.monoids.faces``.
    """
    if isinstance(x, RationalCone):
        return _cone_faces(x)
    if isinstance(x, ToricMonoid):
        return _monoid_faces(x)
    raise TypeError(
        f"faces expects a cone or a monoid, got {type(x).__name__}"
    )


__version__ = "0.1.0"
