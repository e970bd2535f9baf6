"""Fans of cones and fans of monoids.

A :class:`Fan` is a finite set of sharp rational cones in a common lattice,
closed under taking faces, any two of which meet in a common face.  A
:class:`FanOfMonoids` additionally assigns to each cone an exponent monoid
with full generated group and matching weight cone, compatibly along faces —
the combinatorial encoding of a toric variety covered by invariant affine
charts.  Validation never raises on axiom failures: it returns a report
listing every violation with a machine-readable code.
"""

from itertools import combinations
from types import MappingProxyType

from .cones import (
    RationalCone,
    dim,
    dual_cone,
    intersect,
    is_sharp,
)
from .cones import faces as cone_faces
from .lattice import _rank, mat_identity, memo, pairing, record
from .monoids import (
    FiberReport,
    GhostReport,
    ToricMonoid,
    _face_with_indices,
    _generator_coordinates,
    ghost,
    gp,
    hilbert_basis,
    localize,
    monoid_equal,
    weight_cone,
)

__all__ = [
    "Fan",
    "FanOfMonoids",
    "FanStratum",
    "ValidationFailure",
    "ValidationReport",
    "affine_atlas",
    "normal_fan_of_monoids",
    "strata",
    "validate_fan",
    "validate_fan_of_monoids",
]


@record
class ValidationFailure:
    code: str
    message: str


@record
class ValidationReport:
    failures: tuple

    @property
    def ok(self) -> bool:
        return not self.failures


def _cone_key(c: RationalCone):
    return (dim(c), c.rays, c.lineality)


@record
class Fan:
    """A finite collection of cones in one lattice, stored deduplicated and
    canonically ordered (dimension first)."""

    ambient_rank: int
    cones: tuple

    def __new__(cls, ambient_rank, cones):
        ambient_rank = _rank(ambient_rank)
        seen = set()
        for c in cones:
            if not isinstance(c, RationalCone):
                raise ValueError(f"not a cone: {c!r}")
            if c.ambient_rank != ambient_rank:
                raise ValueError(
                    f"cone of ambient rank {c.ambient_rank} in a rank-"
                    f"{ambient_rank} fan"
                )
            seen.add(c)
        cones = tuple(sorted(seen, key=_cone_key))
        return tuple.__new__(cls, (ambient_rank, cones))

    def __repr__(self):
        return f"Fan({self.ambient_rank}, {self.cones})"


@record
class FanOfMonoids:
    """Cone/monoid pairs over a shared lattice rank (the M and N sides are
    identified through the dot-product pairing)."""

    exponent_rank: int
    entries: tuple

    def __new__(cls, exponent_rank, entries):
        exponent_rank = _rank(exponent_rank, "rank")
        cleaned = []
        for cone, monoid in entries:
            if not isinstance(cone, RationalCone) or not isinstance(
                monoid, ToricMonoid
            ):
                raise ValueError(f"not a (cone, monoid) pair: {(cone, monoid)!r}")
            if (
                cone.ambient_rank != exponent_rank
                or monoid.ambient_rank != exponent_rank
            ):
                raise ValueError(
                    f"entry ranks {(cone.ambient_rank, monoid.ambient_rank)} "
                    f"do not match fan rank {exponent_rank}"
                )
            cleaned.append((cone, monoid))
        unique = sorted(set(cleaned), key=lambda e: (_cone_key(e[0]), e[1].generators))
        return tuple.__new__(cls, (exponent_rank, tuple(unique)))

    def fan(self) -> Fan:
        # The entries are checked and sorted by _cone_key, so their distinct
        # cones, in order, are already the cones of the Fan.
        return tuple.__new__(Fan, (self.exponent_rank, tuple(dict(self.entries))))

    def __repr__(self):
        return f"FanOfMonoids({self.exponent_rank}, {self.entries})"


@record
class FanStratum:
    """One locally closed stratum of the glued space: its indexing cone, the
    dimension of the corresponding orbit, and the ghost data of any maximal
    chart through it."""

    cone: RationalCone
    orbit_dimension: int
    ghost: GhostReport

    @property
    def fiber(self) -> FiberReport:
        """The collapse fiber: a torsor under the ghost group's characters."""
        return FiberReport.of(self.ghost.invariants)

    @property
    def boundary(self) -> bool:
        """Whether the stratum lies in the boundary: its ghost is nontrivial."""
        inv = self.ghost.invariants
        return inv.rank > 0 or inv.torsion != ()


@memo
def _cover(cones: tuple):
    """The maximal cones of the tuple, in the order given, and a read-only
    map from each face of one of them to the positions there of the maximal
    cones it is a face of; every cone of the tuple is a key.

    A proper face has fewer rays, and a face of a face is a face.  So,
    scanning by ray count downwards, a cone is maximal unless it is a face
    of a maximal cone found before it, and only the face lattices of the
    maximal cones are read.  The faces of a key are the faces of any
    maximal cone above it on its rays, in the same order.
    """
    below, lattices = set(), {}
    for c in sorted(cones, key=lambda c: len(c.rays), reverse=True):
        if c not in below:
            below.update(lattices.setdefault(c, cone_faces(c)))
    top = tuple(c for c in cones if c in lattices)
    above = {}
    for k, m in enumerate(top):
        for face in lattices[m]:
            above[face] = above.get(face, frozenset()) | {k}
    return top, MappingProxyType(above)


def validate_fan(f: Fan) -> ValidationReport:
    """Check sharpness, face closure, and that every two cones meet in a
    cone of the fan that is a face of both.

    One enumeration, read from the fan's cover (``_cover``), yields the
    failures among some cones: each one not sharp, each missing face of
    one, then each pair not meeting in a common face in the fan.  It runs
    on the maximal cones first.  Every cone is a face of one, so if they
    pass, so do all cones, and the fan is valid.  Otherwise it runs on
    every cone, so each violation becomes one entry.

    Two faces of one cone meet in its face spanned by their common rays
    (faces of a cone share its lineality, so this holds for cones with
    lineality too), a face of both, read from its face lattice.  Only pairs
    with no common maximal cone are intersected.  Their meet lies in both
    cones, so it is a face of one exactly when it is a face of a maximal
    cone above it.  The faces of each cone are read there too.
    """
    return ValidationReport(_fan_failures(f.cones, _cover(f.cones)))


def _fan_failures(cones, cover):
    """The failures of the fan of ``cones``, read from their cover."""
    top, above = cover
    ups = [above[c] for c in cones]
    rays = [frozenset(c.rays) for c in cones]
    # Each maximal cone's faces by ray set, each with its presence in the
    # fan: a cone is the face on its rays of each maximal cone above it.
    lattices = [{frozenset(t.rays): [t, False] for t in cone_faces(m)}
                for m in top]
    for r, ks in zip(rays, ups):
        for k in ks:
            lattices[k][r][1] = True

    def failures(positions):
        for i in positions:
            if not is_sharp(cones[i]):
                yield ValidationFailure("not-sharp", f"cone {cones[i]!r} has lineality")
        for i in positions:
            for face, here in lattices[min(ups[i])].values():
                if not here and rays[i].issuperset(face.rays):
                    yield ValidationFailure(
                        "missing-face",
                        f"face {face!r} of {cones[i]!r} is not in the fan",
                    )
        for i, j in combinations(positions, 2):
            a, b = cones[i], cones[j]
            common = ups[i] & ups[j]
            if common:
                meet, here = lattices[min(common)][rays[i] & rays[j]]
            else:
                meet = intersect(a, b)
                up = above.get(meet, frozenset())
                here = up and lattices[min(up)][frozenset(meet.rays)][1]
            if not here:
                yield ValidationFailure(
                    "missing-intersection",
                    f"intersection {meet!r} of {a!r} and {b!r} is not in the fan",
                )
            elif not common and not {min(ups[i]), min(ups[j])} <= up:
                yield ValidationFailure(
                    "improper-intersection",
                    f"intersection {meet!r} of {a!r} and {b!r} is not a "
                    "face of both",
                )

    # A proper face has fewer rays than the maximal cones above it.
    maximal = [i for i, r in enumerate(rays) if len(r) == len(top[min(ups[i])].rays)]
    if next(failures(maximal), None) is None:
        return ()
    return tuple(failures(range(len(cones))))


def _perp_face_indices(monoid: ToricMonoid, cone: RationalCone):
    """Indices of the monoid generators vanishing against every generating
    vector of the cone."""
    vecs = cone.generating_vectors()
    return tuple(
        i
        for i, g in enumerate(monoid.generators)
        if all(pairing(v, g) == 0 for v in vecs)
    )


@memo
def _perp_face(monoid: ToricMonoid, cone: RationalCone):
    """The face of the monoid whose generators vanish on the cone, or None
    when they span no face.  Memoized by value: an atlas, its validation
    and its strata ask for the same pairs."""
    return _face_with_indices(monoid, _perp_face_indices(monoid, cone))


@memo
def _validated(fm: FanOfMonoids):
    """The report of ``validate_fan_of_monoids`` and the index of the fan
    of monoids that ``strata`` and ``check_morphism`` read with it: a
    read-only map from each cone to its chart (the later one, for a cone
    listed twice), and the cover of its cones (``_cover``)."""
    charts = dict(fm.entries)
    cones = tuple(charts)
    cover = top, above = _cover(cones)
    report = _fan_failures(cones, cover)
    identity = mat_identity(fm.exponent_rank)
    certified = {}

    def agreeing(cone, monoid):
        # Only the entry at a cone which ``charts`` holds is certified.
        return certified.get(cone, ()) if charts[cone] is monoid else ()

    def failures(entries):
        # Each failure with the face it concerns, or None for a whole entry.
        for cone, monoid in entries:
            if not agreeing(cone, monoid) and gp(monoid) != identity:
                yield None, ValidationFailure(
                    "group-not-full",
                    f"generators of {monoid!r} span a proper subgroup",
                )
        seen = set()
        for cone, monoid in entries:
            if cone in seen:
                yield None, ValidationFailure(
                    "duplicate-cone", f"two entries share the cone {cone!r}"
                )
            seen.add(cone)
            if not agreeing(cone, monoid) and weight_cone(monoid) != cone:
                yield None, ValidationFailure(
                    "weight-cone-mismatch",
                    f"weight cone of {monoid!r} is {weight_cone(monoid)!r}, "
                    f"entry key is {cone!r}",
                )
        for cone, monoid in entries:
            agree, rays = agreeing(cone, monoid), set(cone.rays)
            for tau in cone_faces(top[min(above[cone])]):
                if not rays.issuperset(tau.rays) or tau == cone or tau in agree:
                    continue
                chart = charts.get(tau)
                if chart is None:
                    continue  # absence is already a fan failure
                if not agree:
                    phi = _perp_face(monoid, tau)
                    if phi is None:
                        yield tau, ValidationFailure(
                            "face-incompatible",
                            f"generators of {monoid!r} vanishing on {tau!r} "
                            "do not span a face",
                        )
                        continue
                    if monoid_equal(chart, localize(monoid, phi)):
                        continue
                yield tau, ValidationFailure(
                    "face-incompatible",
                    f"entry at {tau!r} is not the localization of the "
                    f"entry at {cone!r}",
                )

    failed = [{tau for tau, _ in failures([(s, charts[s])])} for s in top]
    if report or len(charts) < len(fm.entries) or any(failed):
        for sigma, faults in zip(top, failed):
            if None not in faults:
                agree = {t for t in cone_faces(sigma) if t in charts} - faults
                certified.update(dict.fromkeys(agree, agree))
        report += tuple(f for _, f in failures(fm.entries))
    return ValidationReport(report), MappingProxyType(charts), cover


def validate_fan_of_monoids(fm: FanOfMonoids) -> ValidationReport:
    """Check the fan axioms plus the monoid conditions.

    In order: the underlying fan axioms; full generated group per entry; the
    weight cone of each monoid equal to its key cone (and cone keys unique);
    for every face pair ``tau`` of ``sigma``, the entry at ``tau`` equal to
    the localization of the entry at ``sigma`` along the face vanishing on
    ``tau``.  All failures are reported.

    One enumeration yields the failures among some entries, each with the
    face it concerns.  It runs first on each maximal entry alone: if none
    fails, the fan is valid and no cone is listed twice, the fan of monoids
    is valid.  Otherwise it runs on every entry, so each violation becomes
    one report entry.  There each maximal chart whose group and weight cone
    passed certifies itself and each face chart that did not fail.

    A certified chart passes its group and weight cone checks: a
    localization keeps the generated group, and the localization of a chart
    with weight cone ``sigma`` along the face vanishing on ``tau`` has
    weight cone ``(sigma^v + lin(sigma^v & tau^perp))^v = tau``
    (Cox-Little-Schenck, *Toric Varieties*, Prop. 1.2.10).  Localization is
    transitive, so for ``tau`` a face of a face ``sigma'`` certified under
    ``sigma``, the entry at ``tau`` is the localization of the entry at
    ``sigma'`` exactly when ``tau`` is certified under ``sigma``.  So only
    uncertified charts are checked alone.
    """
    return _validated(fm)[0]


def affine_atlas(g: ToricMonoid) -> FanOfMonoids:
    """The invariant affine charts of a monoid, one per face.

    Each face of the weight cone is paired with the localization of the
    monoid at the face of generators vanishing on it.  The atlas lives in
    coordinates of the generated group, so its entries always have full
    generated group regardless of how ``g`` sits in its ambient lattice.
    """
    inner = ToricMonoid(len(gp(g)), _generator_coordinates(g))
    w = weight_cone(inner)
    entries = []
    for tau in cone_faces(w):
        entries.append((tau, localize(inner, _perp_face(inner, tau))))
    return FanOfMonoids(inner.ambient_rank, tuple(entries))


def normal_fan_of_monoids(f: Fan) -> FanOfMonoids:
    """Assign to each fan cone the saturated monoid of lattice points of its
    dual cone, presented by its minimal generating set."""
    entries = []
    for cone in f.cones:
        monoid = ToricMonoid(
            f.ambient_rank, hilbert_basis(dual_cone(cone))
        )
        entries.append((cone, monoid))
    return FanOfMonoids(f.ambient_rank, tuple(entries))


def strata(fm: FanOfMonoids) -> tuple:
    """One stratum per fan cone: orbit dimension and chart ghost data.

    The ghost at a cone is computed in the first maximal chart containing it,
    in canonical order, as the cover that ``_validated`` keeps lists them.
    """
    report, charts, (top, above) = _validated(fm)
    if not report.ok:
        raise ValueError(
            "invalid fan of monoids: "
            + "; ".join(f.code for f in report.failures)
        )
    rows = []
    for cone in charts:
        # Validation found the entry at this cone to be the localization of
        # every maximal chart through it along the face vanishing on the
        # cone, so that face's group is the entry's unit group in each of
        # them, and every maximal chart gives the same ghost invariants.
        monoid = charts[top[min(above[cone])]]
        phi = _perp_face(monoid, cone)
        rows.append(
            FanStratum(
                cone=cone,
                orbit_dimension=fm.exponent_rank - dim(cone),
                ghost=ghost(monoid, phi),
            )
        )
    return tuple(rows)
