"""Fans of cones and fans of monoids.

A :class:`Fan` is a finite set of sharp rational cones in a common lattice,
closed under taking faces and pairwise intersections.  A
:class:`FanOfMonoids` additionally assigns to each cone an exponent monoid
with full generated group and matching weight cone, compatibly along faces —
the combinatorial encoding of a toric variety covered by invariant affine
charts.  Validation never raises on axiom failures: it returns a report
listing every violation with a machine-readable code.
"""

from dataclasses import dataclass

from .cones import RationalCone, contains, dim, dual_cone, intersect, is_sharp
from .cones import faces as cone_faces
from .lattice import mat_identity, pairing, solve_integer
from .monoids import (
    GhostReport,
    ToricMonoid,
    _face_with_indices,
    _gp_matrix,
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


@dataclass(frozen=True)
class ValidationFailure:
    code: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    failures: tuple

    @property
    def ok(self) -> bool:
        return not self.failures


def _cone_key(c: RationalCone):
    return (dim(c), c.rays, c.lineality)


class Fan:
    """A finite collection of cones in one lattice, stored deduplicated and
    canonically ordered (dimension first)."""

    __slots__ = ("ambient_rank", "cones")

    def __init__(self, ambient_rank, cones):
        if ambient_rank < 0:
            raise ValueError(f"ambient rank {ambient_rank} is negative")
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
        self.ambient_rank = ambient_rank
        self.cones = tuple(sorted(seen, key=_cone_key))

    def __eq__(self, other):
        if not isinstance(other, Fan):
            return NotImplemented
        return (
            self.ambient_rank == other.ambient_rank
            and self.cones == other.cones
        )

    def __hash__(self):
        return hash((self.ambient_rank, self.cones))

    def __repr__(self):
        return f"Fan({self.ambient_rank}, {self.cones})"


class FanOfMonoids:
    """Cone/monoid pairs over a shared lattice rank (the M and N sides are
    identified through the dot-product pairing)."""

    __slots__ = ("exponent_rank", "entries")

    def __init__(self, exponent_rank, entries):
        if exponent_rank < 0:
            raise ValueError(f"rank {exponent_rank} is negative")
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
        self.exponent_rank = exponent_rank
        unique = sorted(set(cleaned), key=lambda e: (_cone_key(e[0]), e[1].generators))
        self.entries = tuple(unique)

    def fan(self) -> Fan:
        return Fan(self.exponent_rank, tuple(c for c, _ in self.entries))

    def __eq__(self, other):
        if not isinstance(other, FanOfMonoids):
            return NotImplemented
        return (
            self.exponent_rank == other.exponent_rank
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.exponent_rank, self.entries))

    def __repr__(self):
        return f"FanOfMonoids({self.exponent_rank}, {self.entries})"


@dataclass(frozen=True)
class FanStratum:
    """One locally closed stratum of the glued space: its indexing cone, the
    dimension of the corresponding orbit, and the ghost data of any maximal
    chart through it."""

    cone: RationalCone
    orbit_dimension: int
    ghost: GhostReport


def validate_fan(f: Fan) -> ValidationReport:
    """Check sharpness, face closure, and pairwise intersection closure.

    Every violation becomes one report entry; a valid fan yields an empty
    failure list.
    """
    failures = []
    present = set(f.cones)
    for c in f.cones:
        if not is_sharp(c):
            failures.append(
                ValidationFailure("not-sharp", f"cone {c!r} has lineality")
            )
    for c in f.cones:
        for face in cone_faces(c):
            if face not in present:
                failures.append(
                    ValidationFailure(
                        "missing-face", f"face {face!r} of {c!r} is not in the fan"
                    )
                )
    n = len(f.cones)
    for i in range(n):
        for j in range(i + 1, n):
            meet = intersect(f.cones[i], f.cones[j])
            if meet not in present:
                failures.append(
                    ValidationFailure(
                        "missing-intersection",
                        f"intersection {meet!r} of {f.cones[i]!r} and "
                        f"{f.cones[j]!r} is not in the fan",
                    )
                )
    return ValidationReport(tuple(failures))


def _perp_face_indices(monoid: ToricMonoid, cone: RationalCone):
    """Indices of the monoid generators vanishing against every generating
    vector of the cone."""
    vecs = cone.generating_vectors()
    return tuple(
        i
        for i, g in enumerate(monoid.generators)
        if all(pairing(v, g) == 0 for v in vecs)
    )


def validate_fan_of_monoids(fm: FanOfMonoids) -> ValidationReport:
    """Check the fan axioms plus the monoid conditions.

    In order: the underlying fan axioms; full generated group per entry; the
    weight cone of each monoid equal to its key cone (and cone keys unique);
    for every face pair ``tau`` of ``sigma``, the entry at ``tau`` equal to
    the localization of the entry at ``sigma`` along the face vanishing on
    ``tau``.  All failures are reported.
    """
    failures = list(validate_fan(fm.fan()).failures)
    n = fm.exponent_rank
    identity = mat_identity(n)

    for cone, monoid in fm.entries:
        if gp(monoid) != identity:
            failures.append(
                ValidationFailure(
                    "group-not-full",
                    f"generators of {monoid!r} span a proper subgroup",
                )
            )
    seen = {}
    for cone, monoid in fm.entries:
        if cone in seen:
            failures.append(
                ValidationFailure(
                    "duplicate-cone", f"two entries share the cone {cone!r}"
                )
            )
        seen[cone] = monoid
        if weight_cone(monoid) != cone:
            failures.append(
                ValidationFailure(
                    "weight-cone-mismatch",
                    f"weight cone of {monoid!r} is {weight_cone(monoid)!r}, "
                    f"entry key is {cone!r}",
                )
            )
    for cone, monoid in fm.entries:
        for tau in cone_faces(cone):
            if tau == cone or tau not in seen:
                continue  # absence is already a fan failure
            idx = _perp_face_indices(monoid, tau)
            phi = _face_with_indices(monoid, idx)
            if phi is None:
                failures.append(
                    ValidationFailure(
                        "face-incompatible",
                        f"generators of {monoid!r} vanishing on {tau!r} do "
                        "not span a face",
                    )
                )
                continue
            if not monoid_equal(seen[tau], localize(monoid, phi)):
                failures.append(
                    ValidationFailure(
                        "face-incompatible",
                        f"entry at {tau!r} is not the localization of the "
                        f"entry at {cone!r}",
                    )
                )
    return ValidationReport(tuple(failures))


def _coordinate_monoid(g: ToricMonoid) -> ToricMonoid:
    """Rewrite a monoid on a basis of its own generated group: a monoid in
    Z^k, k the rank of gp(g), with full generated group by construction."""
    bmat = _gp_matrix(g)
    return ToricMonoid(
        len(gp(g)), tuple(solve_integer(bmat, v) for v in g.generators)
    )


def affine_atlas(g: ToricMonoid) -> FanOfMonoids:
    """The invariant affine charts of a monoid, one per face.

    Each face of the weight cone is paired with the localization of the
    monoid at the face of generators vanishing on it.  The atlas lives in
    coordinates of the generated group, so its entries always have full
    generated group regardless of how ``g`` sits in its ambient lattice.
    """
    inner = _coordinate_monoid(g)
    w = weight_cone(inner)
    entries = []
    for tau in cone_faces(w):
        idx = _perp_face_indices(inner, tau)
        phi = _face_with_indices(inner, idx)
        entries.append((tau, localize(inner, phi)))
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


def _contains_cone(outer: RationalCone, inner: RationalCone) -> bool:
    return all(contains(outer, v) for v in inner.generating_vectors())


def strata(fm: FanOfMonoids) -> tuple:
    """One stratum per fan cone: orbit dimension and chart ghost data.

    The ghost at a cone is computed in every maximal chart containing it and
    must come out with the same group invariants; the reported data uses the
    first such chart in canonical order.
    """
    report = validate_fan_of_monoids(fm)
    if not report.ok:
        raise ValueError(
            "invalid fan of monoids: "
            + "; ".join(f.code for f in report.failures)
        )
    cones = [c for c, _ in fm.entries]
    lookup = dict(fm.entries)
    maximal = [
        c
        for c in cones
        if not any(o != c and _contains_cone(o, c) for o in cones)
    ]
    rows = []
    for cone in cones:
        charts = [m for m in maximal if _contains_cone(m, cone)]
        reports = []
        for chart_cone in charts:
            monoid = lookup[chart_cone]
            idx = _perp_face_indices(monoid, cone)
            phi = _face_with_indices(monoid, idx)
            if phi is None:  # pragma: no cover - excluded by validation
                raise ValueError(
                    f"no face of the chart at {chart_cone!r} matches {cone!r}"
                )
            reports.append(ghost(monoid, phi))
        invariant_set = {r.invariants for r in reports}
        if len(invariant_set) != 1:
            raise ValueError(
                f"ghost invariants at {cone!r} depend on the chart: "
                f"{sorted(invariant_set, key=repr)}"
            )
        rows.append(
            FanStratum(
                cone=cone,
                orbit_dimension=fm.exponent_rank - dim(cone),
                ghost=reports[0],
            )
        )
    return tuple(rows)
