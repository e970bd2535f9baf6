"""Fans, fans of monoids, atlases, normal fans, and stratum enumeration."""

import itertools
import random

import pytest

from conftest import random_monoid
from torolog.cones import (
    RationalCone,
    dim,
    dual_cone,
    faces as cone_faces,
    intersect,
    is_sharp,
)
from torolog.fans import (
    Fan,
    FanOfMonoids,
    FanStratum,
    ValidationFailure,
    ValidationReport,
    _cover,
    _perp_face_indices,
    affine_atlas,
    normal_fan_of_monoids,
    strata,
    validate_fan,
    validate_fan_of_monoids,
)
from torolog.lattice import mat_identity
from torolog.monoids import (
    ToricMonoid,
    _face_with_indices,
    ghost,
    gp,
    is_saturated,
    localize,
    monoid_equal,
    saturate,
    weight_cone,
)

QUADRANT = RationalCone(2, ((1, 0), (0, 1)))
X_RAY = RationalCone(2, ((1, 0),))
Y_RAY = RationalCone(2, ((0, 1),))
ORIGIN = RationalCone(2, ())

NN2 = ToricMonoid(2, ((1, 0), (0, 1)))
N_CROSS_Z = ToricMonoid(2, ((1, 0), (0, 1), (0, -1)))
Z_CROSS_N = ToricMonoid(2, ((1, 0), (-1, 0), (0, 1)))
Z2 = ToricMonoid(2, ((1, 0), (-1, 0), (0, 1), (0, -1)))

# The four invariant affine charts of the plane, keyed by the faces of the
# quadrant: the dense torus over the origin cone, a punctured-axis chart over
# each ray, and the full plane over the quadrant.
C2_ATLAS = FanOfMonoids(
    2,
    (
        (QUADRANT, NN2),
        (X_RAY, N_CROSS_Z),
        (Y_RAY, Z_CROSS_N),
        (ORIGIN, Z2),
    ),
)

RAY_POS = RationalCone(1, ((1,),))
RAY_NEG = RationalCone(1, ((-1,),))
POINT_1D = RationalCone(1, ())

P1_FANMON = FanOfMonoids(
    1,
    (
        (POINT_1D, ToricMonoid(1, ((1,), (-1,)))),
        (RAY_POS, ToricMonoid(1, ((1,),))),
        (RAY_NEG, ToricMonoid(1, ((-1,),))),
    ),
)


def codes(report):
    return [f.code for f in report.failures]


# ---------------------------------------------------------------------------
# Fan construction and validation
# ---------------------------------------------------------------------------

def test_fan_deduplicates_and_sorts_cones():
    f = Fan(2, (QUADRANT, ORIGIN, X_RAY, Y_RAY, RationalCone(2, ((0, 1), (1, 0)))))
    assert f.cones == (ORIGIN, Y_RAY, X_RAY, QUADRANT)


def test_a_fan_with_a_non_integral_ambient_rank_is_refused():
    with pytest.raises(ValueError, match=r"^2\.5 is not an integer$"):
        Fan(2.5, ())
    with pytest.raises(ValueError, match=r"^ambient rank -1 is negative$"):
        Fan(-1, ())
    assert Fan("2", (QUADRANT,)).ambient_rank == 2


def test_fan_rejects_mixed_ambient_ranks():
    with pytest.raises(ValueError):
        Fan(2, (QUADRANT, RationalCone(1, ((1,),))))


@pytest.mark.parametrize("build, message", [
    (lambda: Fan(2, (QUADRANT, 5)), "not a cone: 5"),
    (lambda: FanOfMonoids(2, ((QUADRANT, 5),)),
     r"not a \(cone, monoid\) pair: \(RationalCone\(2, .*\), 5\)"),
    (lambda: FanOfMonoids(1, ((QUADRANT, ToricMonoid(2, ())),)),
     r"entry ranks \(2, 2\) do not match fan rank 1"),
])
def test_malformed_fans_are_refused(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


def test_quadrant_fan_passes():
    f = Fan(2, (QUADRANT, X_RAY, Y_RAY, ORIGIN))
    report = validate_fan(f)
    assert report.ok
    assert report.failures == ()


def test_point_fan_passes():
    assert validate_fan(Fan(2, (ORIGIN,))).ok


def test_missing_rays_fail_face_closure():
    report = validate_fan(Fan(2, (QUADRANT, ORIGIN)))
    assert not report.ok
    assert "missing-face" in codes(report)


def test_non_sharp_cone_is_flagged():
    half = RationalCone(2, ((1, 0), (-1, 0), (0, 1)))
    report = validate_fan(Fan(2, (half, X_RAY, ORIGIN)))
    assert "not-sharp" in codes(report)


def test_overlapping_cones_fail_intersection_closure():
    wedge = RationalCone(2, ((1, 1), (-1, 1)))
    cones = (
        QUADRANT,
        wedge,
        X_RAY,
        Y_RAY,
        RationalCone(2, ((1, 1),)),
        RationalCone(2, ((-1, 1),)),
        ORIGIN,
    )
    report = validate_fan(Fan(2, cones))
    assert not report.ok
    assert "missing-intersection" in codes(report)


def test_cones_meeting_off_their_faces_fail_the_fan_axiom():
    # The quadrant and the wedge over (1,1), (-1,1) meet in the cone over
    # (1,1), (0,1): it is in the collection with all faces, but it is a face
    # of neither, so charts cannot glue along it.
    wedge = RationalCone(2, ((1, 1), (-1, 1)))
    meet = RationalCone(2, ((1, 1), (0, 1)))
    rays = [RationalCone(2, (r,)) for r in ((1, 0), (0, 1), (1, 1), (-1, 1))]
    report = validate_fan(Fan(2, (QUADRANT, wedge, meet, *rays, ORIGIN)))
    assert codes(report) == ["improper-intersection"] * 5
    messages = " ".join(f.message for f in report.failures)
    assert repr(QUADRANT) in messages and repr(wedge) in messages


def test_deleting_any_nonmaximal_cone_breaks_the_fan():
    full = Fan(2, (QUADRANT, X_RAY, Y_RAY, ORIGIN))
    assert validate_fan(full).ok
    for removed in (X_RAY, Y_RAY, ORIGIN):
        rest = tuple(c for c in full.cones if c != removed)
        assert not validate_fan(Fan(2, rest)).ok


def test_validation_reports_every_failure():
    # Dropping both rays loses two faces of the quadrant (plus closure
    # failures for the pair); each missing face is reported separately.
    report = validate_fan(Fan(2, (QUADRANT, ORIGIN)))
    missing = [f for f in report.failures if f.code == "missing-face"]
    assert len(missing) >= 2


# ---------------------------------------------------------------------------
# Validation through maximal cones against the pairwise oracle
# ---------------------------------------------------------------------------

def pairwise_validate_fan(f):
    """The fan axioms checked on every pair of cones: the slow route that
    ``validate_fan`` takes only for invalid fans."""
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
            a, b = f.cones[i], f.cones[j]
            meet = intersect(a, b)
            if meet not in present:
                failures.append(
                    ValidationFailure(
                        "missing-intersection",
                        f"intersection {meet!r} of {a!r} and {b!r} is not in "
                        "the fan",
                    )
                )
            elif not (meet in cone_faces(a) and meet in cone_faces(b)):
                failures.append(
                    ValidationFailure(
                        "improper-intersection",
                        f"intersection {meet!r} of {a!r} and {b!r} is not a "
                        "face of both",
                    )
                )
    return ValidationReport(tuple(failures))


def normal_fan(rank, points):
    """The inner normal fan of the lattice polytope spanned by the points:
    at each vertex, the dual of the cone of edge directions out of it, with
    all faces.  None if the polytope is not full-dimensional."""
    maximal = []
    for v in set(points):
        tangent = RationalCone(
            rank, [tuple(p - q for p, q in zip(w, v)) for w in points]
        )
        if is_sharp(tangent):
            maximal.append(dual_cone(tangent))
    if not maximal or not all(is_sharp(c) for c in maximal):
        return None
    return Fan(rank, [f for c in maximal for f in cone_faces(c)])


def maximal_cones(fan):
    return [
        c for c in fan.cones
        if not any(c != o and c in cone_faces(o) for o in fan.cones)
    ]


def seeded_atlases():
    rng = random.Random(71)
    out = []
    for rank in (1, 2, 3, 4):
        for _ in range(6 if rank < 4 else 3):
            out.append(affine_atlas(random_monoid(rng, rank)))
    return out


def seeded_atlas_fans():
    return [atlas.fan() for atlas in seeded_atlases()]


def seeded_normal_fans():
    rng = random.Random(73)
    out = []
    while len(out) < 8:
        rank = 2 if len(out) < 5 else 3
        points = [
            tuple(rng.randint(-2, 2) for _ in range(rank))
            for _ in range(rank + 3)
        ]
        fan = normal_fan(rank, points)
        if fan is not None:
            out.append(fan)
    return out


def broken_fans(fan, rng):
    """The fan with one cone dropped, with one non-sharp cone added and, in
    rank two and up, with one overlapping cone added, alone and with its
    faces.  The overlapping cone runs from the sum of the rays of a top cone
    to a random vector."""
    d = fan.ambient_rank
    cones = list(fan.cones)
    dropped = rng.choice(cones)
    axis = tuple(int(i == 0) for i in range(d))
    line = RationalCone(d, (axis, tuple(-x for x in axis)))
    out = [Fan(d, [c for c in cones if c != dropped]), Fan(d, cones + [line])]
    if d > 1:
        inner = tuple(map(sum, zip(*cones[-1].rays)))
        overlap = cones[-1]
        while overlap in cones or not is_sharp(overlap):
            v = tuple(rng.randint(-2, 2) for _ in range(d))
            overlap = RationalCone(d, (inner, v))
        out.append(Fan(d, cones + [overlap]))
        out.append(Fan(d, cones + list(cone_faces(overlap))))
    return out


def test_validation_matches_the_pairwise_oracle_on_atlases_and_normal_fans():
    fans = seeded_atlas_fans() + seeded_normal_fans()
    assert sum(len(maximal_cones(f)) > 1 for f in fans) >= 8
    for fan in fans:
        report = validate_fan(fan)
        assert report.ok
        assert report == pairwise_validate_fan(fan)


def test_validation_matches_the_pairwise_oracle_on_broken_fans():
    rng = random.Random(79)
    improper = 0
    for fan in seeded_atlas_fans() + seeded_normal_fans():
        if not fan.cones[-1].rays:
            continue
        for broken in broken_fans(fan, rng):
            report = validate_fan(broken)
            assert report == pairwise_validate_fan(broken), broken
            improper += "improper-intersection" in codes(report)
    assert improper > 0


def test_the_eight_cone_overlap_matches_the_pairwise_oracle():
    wedge = RationalCone(2, ((1, 1), (-1, 1)))
    meet = RationalCone(2, ((1, 1), (0, 1)))
    rays = [RationalCone(2, (r,)) for r in ((1, 0), (0, 1), (1, 1), (-1, 1))]
    fan = Fan(2, (QUADRANT, wedge, meet, *rays, ORIGIN))
    assert validate_fan(fan) == pairwise_validate_fan(fan)


def test_the_cover_matches_the_maximal_cone_oracle():
    # The seeded fans and, drawn from the same seed in the same order, the
    # broken fans of the pairwise oracle test above.
    rng = random.Random(79)
    fans = []
    for fan in seeded_atlas_fans() + seeded_normal_fans():
        fans.append(fan)
        if fan.cones[-1].rays:
            fans.extend(broken_fans(fan, rng))
    assert sum(len(maximal_cones(f)) > 1 for f in fans) >= 60
    for fan in fans:
        top, above = _cover(fan.cones)
        assert list(top) == maximal_cones(fan), fan
        assert set(above) == {t for m in top for t in cone_faces(m)}, fan
        for c in fan.cones:
            assert above[c] == {
                k for k, m in enumerate(top) if c in cone_faces(m)
            }, (fan, c)


# ---------------------------------------------------------------------------
# Fan-of-monoids validation
# ---------------------------------------------------------------------------

def test_plane_atlas_passes():
    report = validate_fan_of_monoids(C2_ATLAS)
    assert report.ok, codes(report)


def test_projective_line_fan_of_monoids_passes():
    report = validate_fan_of_monoids(P1_FANMON)
    assert report.ok, codes(report)


def test_wrong_ray_monoid_fails_face_compatibility():
    broken = FanOfMonoids(
        2,
        (
            (QUADRANT, NN2),
            (X_RAY, NN2),
            (Y_RAY, Z_CROSS_N),
            (ORIGIN, Z2),
        ),
    )
    report = validate_fan_of_monoids(broken)
    assert not report.ok
    assert "face-incompatible" in codes(report)
    assert "weight-cone-mismatch" in codes(report)


def test_small_group_fails_gp_condition():
    thin = FanOfMonoids(1, ((POINT_1D, ToricMonoid(1, ((2,), (-2,)))),))
    report = validate_fan_of_monoids(thin)
    assert "group-not-full" in codes(report)


def test_duplicate_cone_keys_are_flagged():
    doubled = FanOfMonoids(
        1,
        (
            (POINT_1D, ToricMonoid(1, ((1,), (-1,)))),
            (POINT_1D, ToricMonoid(1, ((2,), (-1,)))),
        ),
    )
    assert "duplicate-cone" in codes(validate_fan_of_monoids(doubled))


def test_a_fan_of_monoids_with_a_non_integral_rank_is_refused():
    with pytest.raises(ValueError, match=r"^1\.5 is not an integer$"):
        FanOfMonoids(1.5, ())
    with pytest.raises(ValueError, match=r"^rank -1 is negative$"):
        FanOfMonoids(-1, ())
    assert FanOfMonoids(2.0, ()).exponent_rank == 2


def test_fan_of_monoids_rejects_mixed_ranks():
    with pytest.raises(ValueError):
        FanOfMonoids(2, ((QUADRANT, ToricMonoid(1, ((1,),))),))


# ---------------------------------------------------------------------------
# Validation through maximal charts against the per-chart oracle
# ---------------------------------------------------------------------------

def pairwise_validate_fan_of_monoids(fm):
    """The monoid conditions checked on every chart and every face pair:
    the slow route that ``validate_fan_of_monoids`` takes only for invalid
    fans of monoids."""
    failures = list(pairwise_validate_fan(fm.fan()).failures)
    identity = mat_identity(fm.exponent_rank)
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
                continue
            phi = _face_with_indices(monoid, _perp_face_indices(monoid, tau))
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


def seeded_normal_fans_of_monoids():
    """The seeded normal fans and the normal fan of the unit cube.

    The rank-3 seeded normal fans come last, so the seeded mutations drawn
    for the other fans do not depend on them.  Their group charts have up to
    36 units, in opposite pairs."""
    normal = seeded_normal_fans()
    fans = [f for f in normal if f.ambient_rank == 2]
    fans.append(normal_fan(3, list(itertools.product((0, 1), repeat=3))))
    fans += [f for f in normal if f.ambient_rank == 3]
    return [normal_fan_of_monoids(f) for f in fans]


def broken_fans_of_monoids(fm, rng):
    """The fan of monoids under one seeded mutation each: a face chart with
    a generator dropped, a face chart swapped for another chart, a maximal
    chart and the minimal cone's chart in a subgroup of index 2, a maximal
    chart with a smaller weight cone, a cone listed twice with different
    monoids, and a face dropped."""
    rank, entries = fm.exponent_rank, list(fm.entries)
    cones = [c for c, _ in entries]
    top = set(maximal_cones(fm.fan()))
    below = [i for i, c in enumerate(cones) if c not in top]
    upper = [i for i, c in enumerate(cones) if c in top]
    out = []

    def replaced(i, monoid):
        return FanOfMonoids(
            rank, entries[:i] + [(cones[i], monoid)] + entries[i + 1:]
        )

    def doubled(i):
        gens = entries[i][1].generators
        return replaced(i, ToricMonoid(rank, [[2 * x for x in v] for v in gens]))

    if below:
        i = rng.choice(below)
        gens = list(entries[i][1].generators)
        if len(gens) > 1:
            gens.pop(rng.randrange(len(gens)))
            out.append(replaced(i, ToricMonoid(rank, gens)))
        j = rng.choice([j for j in range(len(entries)) if j != i])
        out.append(replaced(i, entries[j][1]))
        out.append(FanOfMonoids(rank, entries[:i] + entries[i + 1:]))
    i = rng.choice(upper)
    monoid = entries[i][1]
    out.append(doubled(i))
    if 0 in below:
        # The minimal cone comes first; its chart is a face chart of every
        # maximal chart.
        out.append(doubled(0))
    sharp = [v for v in monoid.generators
             if tuple(-x for x in v) not in monoid.generators]
    if sharp:
        flipped = tuple(-x for x in rng.choice(sharp))
        out.append(replaced(i, ToricMonoid(rank, monoid.generators + (flipped,))))
    j = rng.randrange(len(entries))
    other = ToricMonoid(rank, entries[j][1].generators + (
        tuple(rng.randint(-2, 2) for _ in range(rank)),
    ))
    if other != entries[j][1]:
        out.append(FanOfMonoids(rank, entries + [(cones[j], other)]))
    return out


def test_monoid_validation_matches_the_oracle_on_atlases_and_normal_fans():
    fans = seeded_atlases() + seeded_normal_fans_of_monoids()
    assert {fm.exponent_rank for fm in fans} == {1, 2, 3, 4}
    for fm in fans:
        report = validate_fan_of_monoids(fm)
        assert report.ok, codes(report)
        assert report == pairwise_validate_fan_of_monoids(fm)


def test_monoid_validation_matches_the_oracle_on_broken_fans_of_monoids():
    rng = random.Random(83)
    seen_codes = set()
    broken_count = 0
    for fm in seeded_atlases() + seeded_normal_fans_of_monoids():
        for broken in broken_fans_of_monoids(fm, rng):
            report = validate_fan_of_monoids(broken)
            assert report == pairwise_validate_fan_of_monoids(broken), broken
            seen_codes.update(codes(report))
            broken_count += not report.ok
    assert broken_count >= 100
    assert {
        "group-not-full",
        "weight-cone-mismatch",
        "duplicate-cone",
        "face-incompatible",
        "missing-face",
    } <= seen_codes


def test_the_fan_of_a_fan_of_monoids_equals_the_fan_of_its_cones():
    # fan() skips Fan's check and sort; the duplicate-cone mutations show
    # that a cone listed twice still appears once.
    rng = random.Random(89)
    for fm in seeded_atlases() + seeded_normal_fans_of_monoids():
        for case in [fm] + broken_fans_of_monoids(fm, rng):
            expected = Fan(case.exponent_rank, [c for c, _ in case.entries])
            assert case.fan() == expected
            assert repr(case.fan()) == repr(expected)


# ---------------------------------------------------------------------------
# Affine atlas
# ---------------------------------------------------------------------------

def test_atlas_of_quadrant_monoid_is_the_plane_atlas():
    atlas = affine_atlas(NN2)
    assert atlas.exponent_rank == 2
    expected = dict(
        ((QUADRANT, NN2), (X_RAY, N_CROSS_Z), (Y_RAY, Z_CROSS_N), (ORIGIN, Z2))
    )
    assert len(atlas.entries) == 4
    for cone, monoid in atlas.entries:
        assert monoid_equal(monoid, expected[cone])


def test_atlas_of_a_group_is_a_single_torus_chart():
    atlas = affine_atlas(Z2)
    assert len(atlas.entries) == 1
    cone, monoid = atlas.entries[0]
    assert cone == ORIGIN
    assert monoid_equal(monoid, Z2)


def test_atlas_of_numerical_monoid():
    g = ToricMonoid(1, ((2,), (3,)))
    atlas = affine_atlas(g)
    assert len(atlas.entries) == 2
    assert atlas.entries[0][0] == POINT_1D
    assert monoid_equal(atlas.entries[0][1], ToricMonoid(1, ((1,), (-1,))))
    assert atlas.entries[1][0] == RAY_POS
    assert monoid_equal(atlas.entries[1][1], g)


def test_atlas_works_in_coordinates_of_the_generated_group():
    # The monoid <(2,0),(3,0)> has a rank-one group, so its atlas lives in
    # one coordinate and reproduces the numerical-monoid picture.
    g = ToricMonoid(2, ((2, 0), (3, 0)))
    atlas = affine_atlas(g)
    assert atlas.exponent_rank == 1
    assert len(atlas.entries) == 2
    assert monoid_equal(atlas.entries[1][1], ToricMonoid(1, ((2,), (3,))))


def test_atlas_always_validates():
    rng = random.Random(57)
    for _ in range(15):
        g = random_monoid(rng, rng.randint(1, 3))
        report = validate_fan_of_monoids(affine_atlas(g))
        assert report.ok, (g, codes(report))


# ---------------------------------------------------------------------------
# Normal fan of monoids
# ---------------------------------------------------------------------------

def test_normal_fan_of_projective_line():
    fan = Fan(1, (POINT_1D, RAY_POS, RAY_NEG))
    nf = normal_fan_of_monoids(fan)
    lookup = dict(nf.entries)
    assert monoid_equal(lookup[POINT_1D], ToricMonoid(1, ((1,), (-1,))))
    assert monoid_equal(lookup[RAY_POS], ToricMonoid(1, ((1,),)))
    assert monoid_equal(lookup[RAY_NEG], ToricMonoid(1, ((-1,),)))


def test_normal_fan_of_quadrant_fan_is_the_plane_atlas():
    fan = Fan(2, (QUADRANT, X_RAY, Y_RAY, ORIGIN))
    nf = normal_fan_of_monoids(fan)
    expected = dict(C2_ATLAS.entries)
    for cone, monoid in nf.entries:
        assert monoid_equal(monoid, expected[cone])
    assert validate_fan_of_monoids(nf).ok


def test_normal_fan_of_trivial_fan_is_the_full_group():
    nf = normal_fan_of_monoids(Fan(2, (ORIGIN,)))
    assert len(nf.entries) == 1
    assert monoid_equal(nf.entries[0][1], Z2)


def test_normal_fan_monoids_are_saturated_fixed_points():
    fan = Fan(2, (QUADRANT, X_RAY, Y_RAY, ORIGIN))
    nf = normal_fan_of_monoids(fan)
    for _, monoid in nf.entries:
        assert is_saturated(monoid)
        assert saturate(monoid) == monoid


def test_normal_fan_of_slanted_fan_validates():
    slant = RationalCone(2, ((1, 0), (1, 2)))
    cones = (slant,) + cone_faces(slant)
    nf = normal_fan_of_monoids(Fan(2, cones))
    assert validate_fan_of_monoids(nf).ok


# ---------------------------------------------------------------------------
# Strata
# ---------------------------------------------------------------------------

def test_strata_of_the_plane_atlas():
    rows = strata(C2_ATLAS)
    assert [r.orbit_dimension for r in rows] == [2, 1, 1, 0]
    assert [r.ghost.invariants.rank for r in rows] == [0, 1, 1, 2]
    assert all(r.ghost.invariants.torsion == () for r in rows)
    assert rows[0].cone == ORIGIN


def test_strata_of_projective_line():
    rows = strata(P1_FANMON)
    assert [r.orbit_dimension for r in rows] == [1, 0, 0]
    assert [r.ghost.invariants.rank for r in rows] == [0, 1, 1]


def test_strata_of_complete_plane_fan():
    quadrants = [
        RationalCone(2, ((sx, 0), (0, sy)))
        for sx in (1, -1)
        for sy in (1, -1)
    ]
    rays = [
        RationalCone(2, ((1, 0),)),
        RationalCone(2, ((-1, 0),)),
        RationalCone(2, ((0, 1),)),
        RationalCone(2, ((0, -1),)),
    ]
    fan = Fan(2, tuple(quadrants) + tuple(rays) + (ORIGIN,))
    assert validate_fan(fan).ok
    nf = normal_fan_of_monoids(fan)
    rows = strata(nf)
    assert len(rows) == 9
    assert sorted(r.orbit_dimension for r in rows) == [0, 0, 0, 0, 1, 1, 1, 1, 2]
    # Every ray sits inside two maximal quadrants; strata itself checks that
    # both charts give the same ghost.
    for r in rows:
        assert r.ghost.invariants.rank == dim(r.cone)


def test_strata_ghost_rank_equals_cone_dimension():
    rng = random.Random(59)
    for _ in range(10):
        g = random_monoid(rng, rng.randint(1, 3))
        for row in strata(affine_atlas(g)):
            assert row.ghost.invariants.rank == dim(row.cone)
            assert row.orbit_dimension == affine_atlas(g).exponent_rank - dim(
                row.cone
            )


def scanned_strata(fm):
    """The strata with each cone's ghost taken in the first maximal chart
    found, by scanning the maximal cones for one the cone is a face of."""
    lookup = dict(fm.entries)
    maximal = maximal_cones(fm.fan())
    rows = []
    for cone in lookup:
        monoid = lookup[next(m for m in maximal if cone in cone_faces(m))]
        phi = _face_with_indices(monoid, _perp_face_indices(monoid, cone))
        rows.append(
            FanStratum(cone, fm.exponent_rank - dim(cone), ghost(monoid, phi))
        )
    return tuple(rows)


def test_strata_match_the_scanning_oracle():
    fans = seeded_atlases() + seeded_normal_fans_of_monoids()
    assert sum(len(maximal_cones(fm.fan())) > 1 for fm in fans) >= 6
    for fm in fans:
        assert strata(fm) == scanned_strata(fm), fm


def test_strata_rejects_invalid_input():
    broken = FanOfMonoids(2, ((QUADRANT, NN2),))  # faces missing
    with pytest.raises(ValueError):
        strata(broken)


def test_strata_row_type():
    rows = strata(P1_FANMON)
    assert all(isinstance(r, FanStratum) for r in rows)


# ---------------------------------------------------------------------------
# Cross-checks between atlas and normal fan
# ---------------------------------------------------------------------------

def test_atlas_of_saturated_monoid_matches_normal_fan_of_its_weight_fan():
    rng = random.Random(61)
    for _ in range(8):
        g = saturate(random_monoid(rng, rng.randint(1, 2)))
        atlas = affine_atlas(g)
        cones = tuple(c for c, _ in atlas.entries)
        nf = normal_fan_of_monoids(Fan(atlas.exponent_rank, cones))
        lookup = dict(nf.entries)
        for cone, monoid in atlas.entries:
            assert monoid_equal(monoid, lookup[cone])
