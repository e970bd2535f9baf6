"""Rounding points, collapse maps and fiber invariants.

A *rounding point* of a toric monoid Γ is a monoid map into the polar target
(nonnegative radii paired with circle angles): its radial part is positive
exactly on a face Φ of Γ and is recorded logarithmically on a basis of
``gp(Φ)``, while its angular part is a full character of ``gp(Γ)`` recorded
as turns, exact fractions whenever the input data is exact.  A *complex
point* keeps only the face data: radii and angles both live on ``gp(Φ)``, and
monomials off the face evaluate to zero.  The collapse map ``tau`` forgets
the extra angles; its fiber over a stratum is a torsor whose character
lattice is the ghost group of the face, which is what
:func:`fiber_structure` and :func:`relative_fiber` report.
"""

import cmath
import math
from fractions import Fraction
from numbers import Rational

from .fans import FanOfMonoids, strata
from .lattice import (
    hnf,
    mat_identity,
    quotient_invariants,
    record,
    transpose,
)
from .monoids import (
    FiberReport,
    MonoidFace,
    ToricMonoid,
    _coordinates,
    _face_with_indices,
    _generator_coordinates,
    _require_face,
    faces,
    ghost,
    gp,
    membership,
)

__all__ = [
    "ComplexPoint",
    "PointStratum",
    "RoundingPoint",
    "encode_hom",
    "evaluate_monomial",
    "fiber_structure",
    "monomial_angle",
    "points_of",
    "relative_fiber",
    "rounding_report",
    "strict_restriction_check",
    "tau",
]

_RELATIVE_TOLERANCE = 1e-9


def _normalize_angle(a):
    """Angles are measured in turns and reduced modulo one.

    Rational inputs stay exact fractions; everything else falls back to
    floating point.
    """
    if isinstance(a, complex):
        raise ValueError("angles must be real numbers measured in turns")
    if isinstance(a, Rational):
        return Fraction(a) % 1
    value = float(a)
    if not math.isfinite(value):
        raise ValueError("angles must be finite")
    # A float just below a whole number reduces to 1.0 once; twice, to 0.0.
    return value % 1.0 % 1.0


def _interpret_unit(u):
    """Second components of images: a unit complex number, or an exact angle
    in turns given as a rational number."""
    if isinstance(u, complex):
        if abs(abs(u) - 1.0) > _RELATIVE_TOLERANCE:
            raise ValueError(f"{u!r} does not lie on the unit circle")
        u = math.atan2(u.imag, u.real) / math.tau
    return _normalize_angle(u)


def _radial_logs(values):
    try:
        radial = tuple(float(x) for x in values)
    except OverflowError:  # an integer or fraction beyond the float range
        radial = (math.inf,)
    if not all(map(math.isfinite, radial)):
        raise ValueError("radial data must be finite")
    return radial


def _interpret_radius(r):
    if isinstance(r, complex):
        raise ValueError("radii must be real numbers")
    if isinstance(r, Rational):
        if r < 0:
            raise ValueError("radii must be nonnegative")
        return Fraction(r)
    value = float(r)
    if not math.isfinite(value) or value < 0:
        raise ValueError("radii must be finite and nonnegative")
    return value


def _log(r):
    """``math.log(r)``, also of an exact radius beyond the float range."""
    try:
        return math.log(r)
    except (OverflowError, ValueError):
        return math.log(r.numerator) - math.log(r.denominator)


def _solving_combinations(rows, k):
    """For rows spanning Z^k, integer combinations hitting each basis vector.

    Returns one tuple of coefficients per coordinate ``j < k`` such that the
    coefficient-weighted sum of the rows is the j-th standard basis vector.
    Used to solve character-interpolation problems: a map defined on the rows
    extends to Z^k by applying these combinations to the target values.
    With the rows as columns, ``m @ u == h`` is the Hermite form, and it is
    ``[I | 0]`` exactly when the rows span Z^k; then the first k columns of
    ``u`` are the combinations.
    """
    h, u = hnf(tuple(tuple(row[i] for row in rows) for i in range(k)))
    if tuple(row[:k] for row in h) != mat_identity(k):
        raise ValueError("the given rows do not span the full lattice")
    return transpose(u)[:k]


def _combine(combination, values):
    return sum((c * v for c, v in zip(combination, values)), Fraction(0))


@record
class RoundingPoint:
    """A map from the monoid into nonnegative radii paired with angles.

    ``radial_log`` lists logarithms of the radii on the group basis of the
    support face; ``angle`` is a character of the full generated group,
    measured in turns on its canonical basis.
    """

    monoid: ToricMonoid
    support_face: MonoidFace
    radial_log: tuple
    angle: tuple

    def __new__(cls, monoid, support_face, radial_log, angle):
        _require_face(monoid, support_face)
        radial = _radial_logs(radial_log)
        if len(radial) != len(gp(support_face.monoid)):
            raise ValueError(
                "radial data must match the rank of the support face group"
            )
        ang = tuple(_normalize_angle(a) for a in angle)
        if len(ang) != len(gp(monoid)):
            raise ValueError(
                "angle data must match the rank of the generated group"
            )
        return tuple.__new__(cls, (monoid, support_face, radial, ang))


@record
class ComplexPoint:
    """A map from the monoid into the complex numbers, supported on a face.

    Radii and angles are both recorded on the group basis of the support
    face; monomials outside the face evaluate to zero.
    """

    monoid: ToricMonoid
    support_face: MonoidFace
    radial_log: tuple
    angle: tuple

    def __new__(cls, monoid, support_face, radial_log, angle):
        _require_face(monoid, support_face)
        k = len(gp(support_face.monoid))
        radial = _radial_logs(radial_log)
        ang = tuple(_normalize_angle(a) for a in angle)
        if len(radial) != k or len(ang) != k:
            raise ValueError(
                "radial and angle data must match the rank of the support "
                "face group"
            )
        return tuple.__new__(cls, (monoid, support_face, radial, ang))


def encode_hom(g: ToricMonoid, images) -> RoundingPoint:
    """Build the rounding point with the given generator images.

    ``images`` lists one ``(radius, unit)`` pair per generator, in generator
    order.  The unit may be a complex number on the unit circle or an exact
    angle in turns given as a rational number.  The zero radii must cut out
    the complement of a face, and the images must satisfy every additive
    relation among the generators: angles exactly (rational case) or to
    1e-9, radii to 1e-9 relative.
    """
    images = tuple(images)
    if len(images) != len(g.generators):
        raise ValueError(
            f"expected {len(g.generators)} images, got {len(images)}"
        )
    radii = tuple(_interpret_radius(r) for r, _ in images)
    angles = tuple(_interpret_unit(u) for _, u in images)

    support = tuple(i for i, r in enumerate(radii) if r != 0)
    face = _face_with_indices(g, support)
    if face is None:
        raise ValueError(
            "the positive radii do not sit on a face of the monoid"
        )

    # Angular part: interpolate a character of the generated group through
    # the given angles, then verify every generator relation.
    gen_coords = _generator_coordinates(g)
    combos = _solving_combinations(gen_coords, len(gp(g)))
    theta = tuple(_normalize_angle(_combine(c, angles)) for c in combos)
    for coords, a in zip(gen_coords, angles):
        delta = _combine(coords, theta) - a
        if (delta % 1 != 0 if isinstance(delta, Fraction)
                else abs(delta - round(delta)) > _RELATIVE_TOLERANCE):
            raise ValueError(
                "the angles violate an additive relation among the generators"
            )

    # Radial part: same interpolation, with logarithms over the face group.
    face_coords = _generator_coordinates(face.monoid)
    logs = tuple(_log(radii[i]) for i in support)
    rho_combos = _solving_combinations(face_coords, len(gp(face.monoid)))
    rho = tuple(float(_combine(c, logs)) for c in rho_combos)
    for coords, target in zip(face_coords, logs):
        predicted = float(_combine(coords, rho))
        if abs(predicted - target) > _RELATIVE_TOLERANCE * max(
            1.0, abs(target)
        ):
            raise ValueError(
                "the radii violate a multiplicative relation among the "
                "generators"
            )

    return RoundingPoint(g, face, rho, theta)


def _angle(p, m):
    """The character of ``p`` at ``m``, in turns and not reduced: read on
    gp(monoid) for a rounding point and on gp(support face) for a complex
    point, or None when ``m`` lies off that group."""
    group = p.monoid if isinstance(p, RoundingPoint) else p.support_face.monoid
    coords = _coordinates(group, m)
    return None if coords is None else _combine(coords, p.angle)


def _element(g: ToricMonoid, m):
    """``m`` as a tuple, refusing a point off the monoid."""
    m = tuple(m)
    if membership(g, m) is None:
        raise ValueError(f"{m} is not an element of the monoid")
    return m


def monomial_angle(p, m):
    """The angle (in turns, modulo one) of the monomial ``m`` at ``p``.

    For a rounding point the full character applies to every element; for a
    complex point the angle only exists where the monomial does not vanish.
    """
    m = _element(p.monoid, m)
    turn = _angle(p, m)
    if turn is None:
        raise ValueError(f"{m} vanishes at the point and carries no angle")
    return _normalize_angle(turn)


def evaluate_monomial(p, m):
    """Evaluate the monomial ``m`` at a point.

    Rounding points return a ``(radius, unit)`` pair with the unit on the
    complex circle; complex points return a single complex number.
    """
    m = _element(p.monoid, m)
    coords = _coordinates(p.support_face.monoid, m)
    polar = isinstance(p, RoundingPoint)
    if coords is None and not polar:
        return 0j
    try:
        radius = 0.0 if coords is None else math.exp(
            sum(c * x for c, x in zip(coords, p.radial_log))
        )
    except OverflowError:
        radius = math.inf
    if not math.isfinite(radius):
        raise ValueError(f"the radius of {m} at the point overflows a float")
    unit = cmath.exp(2j * math.pi * float(_normalize_angle(_angle(p, m))))
    return (radius, unit) if polar else radius * unit


def tau(p: RoundingPoint) -> ComplexPoint:
    """Collapse a rounding point to its complex point.

    The radial data is kept and the character is restricted to the group of
    the support face; all angular data transverse to the face is forgotten.
    """
    restricted = tuple(
        _normalize_angle(_angle(p, b)) for b in gp(p.support_face.monoid)
    )
    return ComplexPoint(p.monoid, p.support_face, p.radial_log, restricted)


def fiber_structure(g: ToricMonoid, f: MonoidFace) -> FiberReport:
    """Fiber of the collapse map over a complex point supported on ``f``.

    The fiber is a torsor under the characters of the ghost group of the
    face, so its rank and component count are read off the ghost invariants.
    """
    return FiberReport.of(ghost(g, f).invariants)


def rounding_report(fm: FanOfMonoids) -> tuple:
    """Per-stratum collapse fibers for a fan of monoids: the
    :class:`~torolog.fans.FanStratum` rows of :func:`~torolog.fans.strata`,
    each with its orbit dimension, fiber shape and boundary flag."""
    return strata(fm)


def relative_fiber(mu_gp, f1: MonoidFace) -> FiberReport:
    """Fiber shape of a map of rounded spaces over a point supported on ``f1``.

    ``mu_gp`` is the integer matrix of the underlying group map into the
    ambient lattice of the face's monoid, given by rows.  The fiber is a
    torsor under the characters of the cokernel of the induced map of ghost
    groups, i.e. the ambient lattice modulo the face group together with the
    image columns of the matrix.
    """
    d1 = f1.monoid.ambient_rank
    mu = tuple(tuple(row) for row in mu_gp)
    if len(mu) != d1:
        raise ValueError(
            "the matrix must have one row per ambient coordinate of the face"
        )
    widths = {len(row) for row in mu}
    if len(widths) > 1:
        raise ValueError("the matrix rows have unequal lengths")
    phi = gp(f1.monoid)
    rows = tuple(
        tuple(b[i] for b in phi) + mu[i] for i in range(d1)
    )
    return FiberReport.of(quotient_invariants(d1, rows))


@record
class PointStratum:
    face: MonoidFace
    torus_rank: int
    fiber: FiberReport


def points_of(g: ToricMonoid) -> tuple:
    """Stratify the polar-valued points of the chart by face: each face
    carries the rank of its torus and the collapse fiber over it."""
    return tuple(
        PointStratum(f, len(gp(f.monoid)), fiber_structure(g, f))
        for f in faces(g)
    )


def strict_restriction_check(g: ToricMonoid, f: MonoidFace) -> bool:
    """Whether restricting to the closed stratum preserves the fibers, which
    it always does; only that ``f`` is a face of ``g`` is checked.

    The fiber over a stratum point can also be counted as the characters of
    gp(g) on the grid ``(1/L)Z/Z`` that restrict to a given character of the
    face group, ``L`` the exponent of the ghost torsion (2 when there is
    none).  They form a coset of the kernel of the face coordinates modulo
    ``L``: with ``s_1, ..., s_r`` the Smith entries of those coordinates and
    ``k`` the rank of gp(g), it has ``L^(k - r) * prod(gcd(s_i, L))``
    elements.  ``L`` is a multiple of every ``s_i``, so that is
    ``prod(s_i) * L^(k - r)``: the component count times ``L`` to the torus
    rank, as read off the ghost.
    """
    _require_face(g, f)
    return True
