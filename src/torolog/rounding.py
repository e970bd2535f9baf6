"""Rounding points, collapse maps, fiber invariants, and log stalks.

A *rounding point* of a toric monoid Γ is a monoid map into the polar target
(nonnegative radii paired with circle angles): its radial part is positive
exactly on a face Φ of Γ and is recorded logarithmically on a basis of
``gp(Φ)``, while its angular part is a full character of ``gp(Γ)`` recorded
as turns, exact fractions whenever the input data is exact.  A *complex
point* keeps only the face data: radii and angles both live on ``gp(Φ)``, and
monomials off the face evaluate to zero.  The collapse map ``tau`` forgets
the extra angles; its fiber over a stratum is a torsor whose character
lattice is the ghost group of the face, which is what
:func:`fiber_structure`, :func:`relative_fiber`, and
:func:`milnor_stratum_fiber` report.
"""

import cmath
import itertools
import math
import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from numbers import Rational

from .fans import FanOfMonoids, strata
from .lattice import (
    AbelianGroupInvariants,
    hnf,
    quotient_invariants,
    solve_integer,
)
from .monoids import (
    GhostReport,
    MonoidFace,
    ToricMonoid,
    _face_with_indices,
    _gp_matrix,
    _require_face,
    edge,
    faces,
    ghost,
    gp,
    membership,
)

__all__ = [
    "ComplexPoint",
    "FiberReport",
    "LogPointDescriptor",
    "LogPointKind",
    "LogStalk",
    "PointStratum",
    "RoundingPoint",
    "RoundingStratum",
    "associated_log_stalk",
    "base_point",
    "encode_hom",
    "evaluate_monomial",
    "fiber_structure",
    "log_point",
    "milnor_stratum_fiber",
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
    return value % 1.0


def _interpret_unit(u):
    """Second components of images: a unit complex number, or an exact angle
    in turns given as a rational number."""
    if isinstance(u, complex):
        if abs(abs(u) - 1.0) > _RELATIVE_TOLERANCE:
            raise ValueError(f"{u!r} does not lie on the unit circle")
        return (math.atan2(u.imag, u.real) / math.tau) % 1.0
    return _normalize_angle(u)


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


def _coordinates(basis_columns, v):
    coords = solve_integer(basis_columns, v)
    if coords is None:
        raise ValueError(f"{v} does not lie in the expected lattice")
    return coords


def _solving_combinations(rows, k):
    """For rows spanning Z^k, integer combinations hitting each basis vector.

    Returns one tuple of coefficients per coordinate ``j < k`` such that the
    coefficient-weighted sum of the rows is the j-th standard basis vector.
    Used to solve character-interpolation problems: a map defined on the rows
    extends to Z^k by applying these combinations to the target values.
    """
    if k == 0:
        return ()
    matrix = tuple(tuple(row[i] for row in rows) for i in range(k))
    h, u = hnf(matrix)
    for j in range(k):
        if any(h[i][j] != (1 if i == j else 0) for i in range(k)):
            raise ValueError("the given rows do not span the full lattice")
    return tuple(
        tuple(u[i][j] for i in range(len(rows))) for j in range(k)
    )


def _combine(combination, values):
    return sum((c * v for c, v in zip(combination, values)), Fraction(0))


@dataclass(frozen=True)
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

    def __post_init__(self):
        _require_face(self.monoid, self.support_face)
        radial = tuple(float(x) for x in self.radial_log)
        if len(radial) != len(gp(self.support_face.monoid)):
            raise ValueError(
                "radial data must match the rank of the support face group"
            )
        ang = tuple(_normalize_angle(a) for a in self.angle)
        if len(ang) != len(gp(self.monoid)):
            raise ValueError(
                "angle data must match the rank of the generated group"
            )
        object.__setattr__(self, "radial_log", radial)
        object.__setattr__(self, "angle", ang)


@dataclass(frozen=True)
class ComplexPoint:
    """A map from the monoid into the complex numbers, supported on a face.

    Radii and angles are both recorded on the group basis of the support
    face; monomials outside the face evaluate to zero.
    """

    monoid: ToricMonoid
    support_face: MonoidFace
    radial_log: tuple
    angle: tuple

    def __post_init__(self):
        _require_face(self.monoid, self.support_face)
        k = len(gp(self.support_face.monoid))
        radial = tuple(float(x) for x in self.radial_log)
        ang = tuple(_normalize_angle(a) for a in self.angle)
        if len(radial) != k or len(ang) != k:
            raise ValueError(
                "radial and angle data must match the rank of the support "
                "face group"
            )
        object.__setattr__(self, "radial_log", radial)
        object.__setattr__(self, "angle", ang)


def base_point(g: ToricMonoid) -> RoundingPoint:
    """The neutral point sending every generator to radius one, angle zero."""
    full = faces(g)[-1]
    return RoundingPoint(
        g,
        full,
        (0.0,) * len(gp(full.monoid)),
        (Fraction(0),) * len(gp(g)),
    )


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
    bmat = _gp_matrix(g)
    gen_coords = tuple(_coordinates(bmat, v) for v in g.generators)
    combos = _solving_combinations(gen_coords, len(gp(g)))
    theta = tuple(_normalize_angle(_combine(c, angles)) for c in combos)
    for coords, a in zip(gen_coords, angles):
        delta = _combine(coords, theta) - a
        if isinstance(delta, Fraction):
            if delta % 1 != 0:
                raise ValueError(
                    "the angles violate an additive relation among the "
                    "generators"
                )
        elif abs(delta - round(delta)) > _RELATIVE_TOLERANCE:
            raise ValueError(
                "the angles violate an additive relation among the generators"
            )

    # Radial part: same interpolation, with logarithms over the face group.
    fmat = _gp_matrix(face.monoid)
    face_coords = tuple(
        _coordinates(fmat, g.generators[i]) for i in support
    )
    logs = tuple(math.log(float(radii[i])) for i in support)
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


def _face_coordinates(p, m):
    """Coordinates of ``m`` on the support-face group basis, or None when
    the monomial vanishes at ``p``."""
    return solve_integer(_gp_matrix(p.support_face.monoid), tuple(m))


def monomial_angle(p, m):
    """The angle (in turns, modulo one) of the monomial ``m`` at ``p``.

    For a rounding point the full character applies to every element; for a
    complex point the angle only exists where the monomial does not vanish.
    """
    m = tuple(m)
    if membership(p.monoid, m) is None:
        raise ValueError(f"{m} is not an element of the monoid")
    if isinstance(p, RoundingPoint):
        coords = _coordinates(_gp_matrix(p.monoid), m)
        return _normalize_angle(_combine(coords, p.angle))
    coords = _face_coordinates(p, m)
    if coords is None:
        raise ValueError(f"{m} vanishes at the point and carries no angle")
    return _normalize_angle(_combine(coords, p.angle))


def evaluate_monomial(p, m):
    """Evaluate the monomial ``m`` at a point.

    Rounding points return a ``(radius, unit)`` pair with the unit on the
    complex circle; complex points return a single complex number.
    """
    m = tuple(m)
    if membership(p.monoid, m) is None:
        raise ValueError(f"{m} is not an element of the monoid")
    coords = _face_coordinates(p, m)
    if isinstance(p, RoundingPoint):
        if coords is None:
            radius = 0.0
        else:
            radius = math.exp(sum(c * x for c, x in zip(coords, p.radial_log)))
        full = _coordinates(_gp_matrix(p.monoid), m)
        turn = _normalize_angle(_combine(full, p.angle))
        return radius, cmath.exp(2j * math.pi * float(turn))
    if coords is None:
        return 0j
    radius = math.exp(sum(c * x for c, x in zip(coords, p.radial_log)))
    turn = _normalize_angle(_combine(coords, p.angle))
    return radius * cmath.exp(2j * math.pi * float(turn))


def tau(p: RoundingPoint) -> ComplexPoint:
    """Collapse a rounding point to its complex point.

    The radial data is kept and the character is restricted to the group of
    the support face; all angular data transverse to the face is forgotten.
    """
    bmat = _gp_matrix(p.monoid)
    restricted = tuple(
        _normalize_angle(_combine(_coordinates(bmat, b), p.angle))
        for b in gp(p.support_face.monoid)
    )
    return ComplexPoint(p.monoid, p.support_face, p.radial_log, restricted)


@dataclass(frozen=True)
class FiberReport:
    """Shape of a collapse fiber: a disjoint union of ``components`` copies
    of a real torus of dimension ``torus_rank``."""

    torus_rank: int
    components: int
    invariants: AbelianGroupInvariants


def fiber_structure(g: ToricMonoid, f: MonoidFace) -> FiberReport:
    """Fiber of the collapse map over a complex point supported on ``f``.

    The fiber is a torsor under the characters of the ghost group of the
    face, so its rank and component count are read off the ghost invariants.
    """
    _require_face(g, f)
    inv = ghost(g, f).invariants
    return FiberReport(inv.rank, inv.torsion_order, inv)


@dataclass(frozen=True)
class RoundingStratum:
    cone: object
    orbit_dimension: int
    fiber: FiberReport
    boundary: bool


def rounding_report(fm: FanOfMonoids) -> tuple:
    """Per-stratum collapse fibers for a fan of monoids.

    Each row records the stratum's orbit dimension and fiber shape, and flags
    boundary strata — exactly those with a nontrivial ghost group.
    """
    rows = []
    for s in strata(fm):
        inv = s.ghost.invariants
        rows.append(
            RoundingStratum(
                cone=s.cone,
                orbit_dimension=s.orbit_dimension,
                fiber=FiberReport(inv.rank, inv.torsion_order, inv),
                boundary=inv.rank > 0 or inv.torsion != (),
            )
        )
    return tuple(rows)


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
    if any(not isinstance(x, int) for row in mu for x in row):
        raise ValueError("the matrix entries must be integers")
    phi = gp(f1.monoid)
    rows = tuple(
        tuple(b[i] for b in phi) + mu[i] for i in range(d1)
    )
    inv = quotient_invariants(d1, rows)
    return FiberReport(inv.rank, inv.torsion_order, inv)


def milnor_stratum_fiber(multiplicities) -> FiberReport:
    """Fiber data of the map cutting out a normal crossing of the given
    multiplicities: rank one less than the depth, and one component per
    common divisor."""
    ms = tuple(multiplicities)
    if not ms:
        raise ValueError("at least one multiplicity is required")
    if any(not isinstance(m, int) or m < 1 for m in ms):
        raise ValueError("multiplicities must be positive integers")
    k = len(ms)
    axes = ToricMonoid(
        k, tuple(tuple(int(i == j) for j in range(k)) for i in range(k))
    )
    return relative_fiber(tuple((m,) for m in ms), edge(axes))


@dataclass(frozen=True)
class LogStalk:
    """Normal form of the stalk of the divisorial log structure at a point
    supported on a face.

    Every stalk element splits as a unit times a monomial class; the classes
    are indexed by a transversal of the quotient by the face group, realized
    by clearing the pivot coordinates of the canonical face-group basis.
    ``absorbed_unit_rank`` records the rank of the face group folded into
    the units, and products of transversal representatives twist by the face
    group element returned alongside each product.
    """

    monoid: ToricMonoid
    face: MonoidFace
    ghost: GhostReport
    absorbed_unit_rank: int

    def _reduce(self, v):
        v = list(v)
        for b in gp(self.face.monoid):
            pivot = next(i for i, x in enumerate(b) if x)
            q = v[pivot] // b[pivot]
            if q:
                for i in range(len(v)):
                    v[i] -= q * b[i]
        return tuple(v)

    def class_of(self, m):
        """The transversal representative of the class of ``m``."""
        m = tuple(m)
        if membership(self.monoid, m) is None:
            raise ValueError(f"{m} is not an element of the monoid")
        return self._reduce(m)

    def multiply(self, m1, m2):
        """Normal form of a product: ``(twist, representative)``.

        The twist is the face-group element by whose evaluation the unit
        part multiplies when the product is rewritten on the transversal.
        """
        m1, m2 = tuple(m1), tuple(m2)
        for m in (m1, m2):
            if membership(self.monoid, m) is None:
                raise ValueError(f"{m} is not an element of the monoid")
        total = tuple(a + b for a, b in zip(m1, m2))
        rep = self._reduce(total)
        twist = tuple(a - b for a, b in zip(total, rep))
        return twist, rep


def associated_log_stalk(g: ToricMonoid, f: MonoidFace) -> LogStalk:
    """Stalk descriptor of the divisorial log structure on the stratum of
    ``f``: units absorb the face group, and the ghost group indexes the
    monomial classes."""
    _require_face(g, f)
    return LogStalk(
        monoid=g,
        face=f,
        ghost=ghost(g, f),
        absorbed_unit_rank=len(gp(f.monoid)),
    )


class LogPointKind(Enum):
    EMPTY = "empty"
    TRIVIAL = "trivial"
    STANDARD = "standard"
    POLAR = "polar"


@dataclass(frozen=True)
class LogPointDescriptor:
    kind: LogPointKind
    carrier: str
    evaluation: str


_LOG_POINT_DATA = {
    LogPointKind.EMPTY: (
        "the multiplicative complex numbers",
        "every monomial evaluates through the complex field",
    ),
    LogPointKind.TRIVIAL: (
        "the nonzero complex numbers",
        "only units occur and they evaluate invertibly",
    ),
    LogPointKind.STANDARD: (
        "units extended by one marker generator",
        "a pair (unit, k) evaluates to the unit when k is zero and to zero "
        "otherwise",
    ),
    LogPointKind.POLAR: (
        "nonnegative radii paired with circle angles",
        "a pair (radius, angle) evaluates to the radius times the unit of "
        "the angle",
    ),
}


def log_point(kind) -> LogPointDescriptor:
    """Evaluation data of the four one-point targets."""
    kind = LogPointKind(kind)
    carrier, evaluation = _LOG_POINT_DATA[kind]
    return LogPointDescriptor(kind, carrier, evaluation)


@dataclass(frozen=True)
class PointStratum:
    face: MonoidFace
    torus_rank: int
    fiber: FiberReport


def points_of(g: ToricMonoid, kind) -> tuple:
    """Stratify the points of the chart valued in a one-point target.

    Polar-valued points decompose over the faces with collapse fibers
    attached; complex-valued points decompose over the faces with trivial
    fibers; trivially-valued points see only the dense torus.
    """
    kind = LogPointKind(kind)
    trivial = FiberReport(0, 1, AbelianGroupInvariants(0, ()))
    if kind is LogPointKind.POLAR:
        return tuple(
            PointStratum(f, len(gp(f.monoid)), fiber_structure(g, f))
            for f in faces(g)
        )
    if kind is LogPointKind.EMPTY:
        return tuple(
            PointStratum(f, len(gp(f.monoid)), trivial) for f in faces(g)
        )
    if kind is LogPointKind.TRIVIAL:
        full = faces(g)[-1]
        return (PointStratum(full, len(gp(g)), trivial),)
    raise ValueError(
        "points valued in the marker-generator target are not stratified "
        "by faces"
    )


def strict_restriction_check(
    g: ToricMonoid, f: MonoidFace, samples: int = 5
) -> bool:
    """Verify that restricting to the closed stratum preserves the fibers.

    The fiber over a stratum point is computed two ways: from the face's
    ghost invariants directly, and by enumerating the characters of the full
    group that restrict to a sampled character of the face group on a
    denominator grid.  Returns whether all sampled counts agree with the
    predicted component count times grid size to the torus rank.
    """
    _require_face(g, f)
    direct = fiber_structure(g, f)
    stalk = associated_log_stalk(g, f)
    if stalk.ghost.invariants != direct.invariants:
        return False

    L = 1
    for t in direct.invariants.torsion:
        L = math.lcm(L, t)
    if L == 1:
        L = 2
    k = len(gp(g))
    bmat = _gp_matrix(g)
    phi_coords = tuple(
        _coordinates(bmat, b) for b in gp(f.monoid)
    )
    expected = direct.components * L**direct.torus_rank
    rng = random.Random(0x5EED)
    for _ in range(max(1, samples)):
        theta0 = tuple(Fraction(rng.randrange(L), L) for _ in range(k))
        targets = tuple(
            _combine(coords, theta0) % 1 for coords in phi_coords
        )
        count = 0
        for combo in itertools.product(range(L), repeat=k):
            theta = tuple(Fraction(j, L) for j in combo)
            if all(
                (_combine(coords, theta) - a) % 1 == 0
                for coords, a in zip(phi_coords, targets)
            ):
                count += 1
        if count != expected:
            return False
    return True
