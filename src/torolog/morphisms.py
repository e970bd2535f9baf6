"""Maps between toric charts and fans of monoids.

A morphism of fans of monoids is carried by an integer lattice map ``nu``
between the fans' ambient lattices.  It is admissible when every source cone
lands inside a target cone and the dual map ``nu_dual`` carries the chart
monoid of the smallest such target cone into the source chart.  On points,
a map of chart monoids acts contravariantly: a point on the target chart is
composed with the monoid map, restricting support faces to their preimages
and pushing radial and angular data through the dual coordinates.
"""

from dataclasses import dataclass, field
from functools import reduce

from .cones import contains, intersect
from .fans import (
    FanOfMonoids,
    ValidationFailure,
    ValidationReport,
    affine_atlas,
    validate_fan_of_monoids,
)
from .lattice import mat_identity, mat_vec, solve_integer, transpose
from .monoids import (
    ToricMonoid,
    _face_with_indices,
    _gp_matrix,
    gp,
    membership,
    saturate,
)
from .rounding import (
    ComplexPoint,
    RoundingPoint,
    _combine,
)

__all__ = [
    "ToricMorphismData",
    "apply_to_point",
    "check_morphism",
    "normalization_morphism",
]


@dataclass(frozen=True)
class ToricMorphismData:
    """An integer lattice map between the ambient lattices of two fans.

    ``nu`` is given by rows, mapping vectors of the source lattice into the
    target lattice; ``nu_dual`` is its transpose, acting the other way on
    exponents.
    """

    nu: tuple
    source: FanOfMonoids
    target: FanOfMonoids
    nu_dual: tuple = field(init=False)

    def __post_init__(self):
        nu = tuple(tuple(row) for row in self.nu)
        if len(nu) != self.target.exponent_rank:
            raise ValueError(
                "the matrix must have one row per target coordinate"
            )
        if any(len(row) != self.source.exponent_rank for row in nu):
            raise ValueError(
                "the matrix must have one column per source coordinate"
            )
        if any(not isinstance(x, int) for row in nu for x in row):
            raise ValueError("the matrix entries must be integers")
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "nu_dual", transpose(nu))


def check_morphism(d: ToricMorphismData) -> ValidationReport:
    """Validate that the lattice map carries the source fan into the target.

    Both fans of monoids are validated first and any of their failures are
    surfaced unchanged.  Then, for each source cone, the image must lie in
    some target cone ('no-containing-cone' otherwise), and the dual map must
    send the chart of the smallest containing cone into the source chart
    ('chart-incompatible' otherwise).
    """
    failures = list(validate_fan_of_monoids(d.source).failures)
    failures.extend(validate_fan_of_monoids(d.target).failures)
    if failures:
        return ValidationReport(tuple(failures))

    lookup = dict(d.target.entries)
    for cone1, chart1 in d.source.entries:
        image = [mat_vec(d.nu, v) for v in cone1.generating_vectors()]
        containing = [
            c2
            for c2 in lookup
            if all(contains(c2, w) for w in image)
        ]
        if not containing:
            failures.append(
                ValidationFailure(
                    "no-containing-cone",
                    f"the image of {cone1!r} lies in no target cone",
                )
            )
            continue
        minimal = reduce(intersect, containing)
        chart2 = lookup.get(minimal)
        if chart2 is None:  # pragma: no cover - valid fans are intersection-closed
            failures.append(
                ValidationFailure(
                    "no-containing-cone",
                    f"the target cones containing the image of {cone1!r} "
                    "do not intersect in a target cone",
                )
            )
            continue
        for gen in chart2.generators:
            if membership(chart1, mat_vec(d.nu_dual, gen)) is None:
                failures.append(
                    ValidationFailure(
                        "chart-incompatible",
                        f"the dual image of {gen} from the chart at "
                        f"{minimal!r} is missing from the chart at {cone1!r}",
                    )
                )
    return ValidationReport(tuple(failures))


def normalization_morphism(g: ToricMonoid) -> ToricMorphismData:
    """The atlas of the saturation mapping to the atlas of ``g``.

    Saturating does not change the generated group, so both atlases share
    one coordinate lattice and the identity carries one onto the other.
    """
    return ToricMorphismData(
        mat_identity(len(gp(g))),
        affine_atlas(saturate(g)),
        affine_atlas(g),
    )


def apply_to_point(mu, g2: ToricMonoid, p):
    """Compose a point of ``p.monoid`` with a monoid map out of ``g2``.

    ``mu`` is the integer matrix of a monoid map from ``g2`` into
    ``p.monoid``, given by rows on the ambient lattices.  The resulting
    point is supported on the preimage face, its radial and angular data
    rewritten on that face's group basis; rounding points also carry their
    full character through the dual coordinates.
    """
    g1 = p.monoid
    mu = tuple(tuple(row) for row in mu)
    if len(mu) != g1.ambient_rank or any(
        len(row) != g2.ambient_rank for row in mu
    ):
        raise ValueError(
            "the matrix shape must map the source ambient lattice into the "
            "point's ambient lattice"
        )
    images = [mat_vec(mu, v) for v in g2.generators]
    for v, img in zip(g2.generators, images):
        if membership(g1, img) is None:
            raise ValueError(
                f"the image {img} of {v} is missing from the point's monoid"
            )

    f1 = p.support_face
    support = tuple(
        i
        for i, img in enumerate(images)
        if membership(f1.monoid, img) is not None
    )
    f2 = _face_with_indices(g2, support)
    if f2 is None:  # pragma: no cover - preimages of faces are faces
        raise ValueError(
            "the preimage of the support face is not a face of the source"
        )

    f1mat = _gp_matrix(f1.monoid)
    radial = []
    restricted = []
    for b in gp(f2.monoid):
        coords = solve_integer(f1mat, mat_vec(mu, b))
        if coords is None:  # pragma: no cover - face groups map into face groups
            raise ValueError(
                "the image of the preimage face leaves the support face group"
            )
        radial.append(sum(c * x for c, x in zip(coords, p.radial_log)))
        restricted.append(_combine(coords, p.angle))

    if isinstance(p, RoundingPoint):
        m1mat = _gp_matrix(g1)
        full = []
        for b in gp(g2):
            coords = solve_integer(m1mat, mat_vec(mu, b))
            if coords is None:  # pragma: no cover - groups map into groups
                raise ValueError(
                    "the image of the source group leaves the point's group"
                )
            full.append(_combine(coords, p.angle))
        return RoundingPoint(g2, f2, tuple(radial), tuple(full))
    return ComplexPoint(g2, f2, tuple(radial), tuple(restricted))
