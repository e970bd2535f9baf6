"""Maps between toric charts and fans of monoids.

A morphism of fans of monoids is carried by an integer lattice map ``nu``
between the fans' ambient lattices.  It is admissible when every source cone
lands inside a target cone and the dual map ``nu_dual`` carries the chart
monoid of the smallest such target cone into the source chart.  On points,
a map of chart monoids acts contravariantly: a point on the target chart is
composed with the monoid map, restricting support faces to their preimages
and pushing radial and angular data through the dual coordinates.
"""

from .cones import contains, dual_cone, faces
from .fans import (
    FanOfMonoids,
    ValidationFailure,
    ValidationReport,
    _validated,
    affine_atlas,
)
from .lattice import (
    _int_rows,
    mat_identity,
    mat_vec,
    pairing,
    record,
    transpose,
)
from .monoids import (
    ToricMonoid,
    _coordinates,
    _face_with_indices,
    gp,
    membership,
    saturate,
)
from .rounding import RoundingPoint, _angle

__all__ = [
    "ToricMorphismData",
    "apply_to_point",
    "check_morphism",
    "normalization_morphism",
]


@record
class ToricMorphismData:
    """An integer lattice map between the ambient lattices of two fans.

    ``nu`` is given by rows, mapping vectors of the source lattice into the
    target lattice; ``nu_dual`` is its transpose, acting the other way on
    exponents.
    """

    nu: tuple
    source: FanOfMonoids
    target: FanOfMonoids
    nu_dual: tuple

    def __new__(cls, nu, source, target):
        nu = tuple(tuple(row) for row in nu)
        if len(nu) != target.exponent_rank:
            raise ValueError(
                "the matrix must have one row per target coordinate"
            )
        if any(len(row) != source.exponent_rank for row in nu):
            raise ValueError(
                "the matrix must have one column per source coordinate"
            )
        nu = _int_rows(nu)
        return tuple.__new__(cls, (nu, source, target, transpose(nu)))

    def __getnewargs__(self):
        return self[:3]


def _smallest_face(sigma, image):
    """The smallest face of ``sigma`` containing the vectors ``image``, which
    lie in ``sigma``.  It is cut out by the dual rays vanishing on the whole
    image, so its rays are the rays of ``sigma`` on which all of those
    vanish."""
    cut = [u for u in dual_cone(sigma).rays
           if not any(pairing(u, w) for w in image)]
    rays = tuple(r for r in sigma.rays if not any(pairing(u, r) for u in cut))
    return next(t for t in faces(sigma) if t.rays == rays)


def _chart_failures(d: ToricMorphismData, entries, charts2, top2):
    """The failures of the source entries given, in order: an image lying
    in no target cone, then each dual image missing from the source chart.
    ``charts2`` and ``top2`` are the target's charts and maximal cones.  A
    dual image that is a generator of the source chart needs no search.
    The target is valid, so an image lies in a target cone exactly when it
    lies in a maximal one, and the smallest target cone containing it is a
    face of that one."""
    for cone1, chart1 in entries:
        image = [mat_vec(d.nu, v) for v in cone1.generating_vectors()]
        sigma = next(
            (c2 for c2 in top2 if all(contains(c2, w) for w in image)), None
        )
        if sigma is None:
            yield ValidationFailure(
                "no-containing-cone",
                f"the image of {cone1!r} lies in no target cone",
            )
            continue
        minimal = _smallest_face(sigma, image)
        listed = set(chart1.generators)
        for gen in charts2[minimal].generators:
            pulled = mat_vec(d.nu_dual, gen)
            if pulled not in listed and membership(chart1, pulled) is None:
                yield ValidationFailure(
                    "chart-incompatible",
                    f"the dual image of {gen} from the chart at "
                    f"{minimal!r} is missing from the chart at {cone1!r}",
                )


def check_morphism(d: ToricMorphismData) -> ValidationReport:
    """Validate that the lattice map carries the source fan into the target.

    Both fans of monoids are validated first and any of their failures are
    surfaced unchanged; their charts and maximal cones are read from the
    index their validation keeps.  Then, for each source cone, the image
    must lie in some target cone ('no-containing-cone' otherwise), and the
    dual map must send the chart of the smallest containing cone into the
    source chart ('chart-incompatible' otherwise).  The source cones are
    checked as ``validate_fan_of_monoids`` checks its charts: the maximal
    ones first, stopping at the first failure among them.

    A maximal source cone that passes makes its faces pass
    (Cox-Little-Schenck, *Toric Varieties*, Thm 3.3.4).  Let ``sigma1`` be
    a maximal source cone that passes, ``sigma2`` the smallest target cone
    containing its image, and ``tau1`` a face of ``sigma1``.  The image of
    ``tau1`` lies in ``sigma2`` too, and the target fan is valid, so the
    smallest target cone ``mu`` containing it is a face of ``sigma2``.
    Validation found ``chart(mu) = localize(chart(sigma2), psi)`` and
    ``chart(tau1) = localize(chart(sigma1), phi)``, with ``psi`` and ``phi``
    the faces vanishing on ``mu`` and on ``tau1``.  The dual map carries the
    generators of ``chart(sigma2)`` into ``chart(sigma1)``, which lies in
    ``chart(tau1)``.  For ``b`` in ``psi``, the dual image of ``b`` lies in
    ``chart(sigma1)`` and vanishes on ``tau1``; the weight cone of
    ``chart(sigma1)`` is ``sigma1``, so every generator in a sum for it
    vanishes on ``tau1`` and it lies in ``phi``.  So the dual image of
    ``-b`` lies in ``chart(tau1)``.
    """
    source, charts1, (top1, _) = _validated(d.source)
    target, charts2, (top2, _) = _validated(d.target)
    if source.failures or target.failures:
        return ValidationReport(source.failures + target.failures)
    maximal = [(c, charts1[c]) for c in top1]
    if next(_chart_failures(d, maximal, charts2, top2), None) is None:
        return ValidationReport(())
    failures = _chart_failures(d, d.source.entries, charts2, top2)
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
    f1 = p.support_face
    support = []
    for i, v in enumerate(g2.generators):
        img = mat_vec(mu, v)
        witness = membership(g1, img)
        if witness is None:
            raise ValueError(
                f"the image {img} of {v} is missing from the point's monoid"
            )
        # A sum lies on a face exactly when each generator in it does.
        if all(j in f1.generator_indices for j, c in enumerate(witness) if c):
            support.append(i)
    f2 = _face_with_indices(g2, tuple(support))
    coords, angle = [], []
    if f2 is not None:
        coords = [
            _coordinates(f1.monoid, mat_vec(mu, b)) for b in gp(f2.monoid)
        ]
        rounding = isinstance(p, RoundingPoint)
        angle = [_angle(p, mat_vec(mu, b))
                 for b in gp(g2 if rounding else f2.monoid)]
    # A monoid map pulls the support face back to a face, and carries that
    # face's group and the whole group into the point's.
    if f2 is None or None in coords + angle:  # pragma: no cover
        raise ValueError(
            "the monoid map does not carry the preimage of the support face "
            "and the source group into the point's groups"
        )
    radial = [sum(c * x for c, x in zip(cs, p.radial_log)) for cs in coords]
    return type(p)(g2, f2, radial, angle)
