"""Lattice maps between fans of monoids, and the point maps they induce."""

import collections
import math
import random
from fractions import Fraction

import pytest

from conftest import mat_mul, random_monoid
from test_fans import (
    broken_fans_of_monoids,
    maximal_cones,
    seeded_atlases,
    seeded_normal_fans,
)
from torolog.cones import RationalCone, contains
from torolog.cones import faces as cone_faces
from torolog.fans import (
    Fan,
    FanOfMonoids,
    ValidationFailure,
    ValidationReport,
    affine_atlas,
    normal_fan_of_monoids,
    validate_fan_of_monoids,
)
from torolog.lattice import mat_identity, mat_vec
from torolog.monoids import (
    ToricMonoid,
    edge,
    faces,
    gp,
    is_saturated,
    membership,
    monoid_equal,
    saturate,
)
from torolog.morphisms import (
    ToricMorphismData,
    _smallest_face,
    apply_to_point,
    check_morphism,
    normalization_morphism,
)
from torolog.rounding import (
    ComplexPoint,
    RoundingPoint,
    evaluate_monomial,
    monomial_angle,
)

NN = ToricMonoid(1, ((1,),))
NN2 = ToricMonoid(2, ((1, 0), (0, 1)))
NUMERICAL = ToricMonoid(1, ((2,), (3,)))

LINE_ATLAS = affine_atlas(NN)
PLANE_ATLAS = affine_atlas(NN2)

P1_FANMON = FanOfMonoids(
    1,
    (
        (RationalCone(1, ()), ToricMonoid(1, ((1,), (-1,)))),
        (RationalCone(1, ((1,),)), NN),
        (RationalCone(1, ((-1,),)), ToricMonoid(1, ((-1,),))),
    ),
)


def codes(report):
    return sorted(f.code for f in report.failures)


def full_face(g):
    return faces(g)[-1]


# ---------------------------------------------------------------------------
# Morphism data and validation
# ---------------------------------------------------------------------------

def test_dual_matrix_is_the_transpose():
    d = ToricMorphismData(((1, 2), (3, 4)), PLANE_ATLAS, PLANE_ATLAS)
    assert d.nu_dual == ((1, 3), (2, 4))


def test_morphism_data_rejects_bad_shapes():
    with pytest.raises(ValueError):
        ToricMorphismData(((1,),), PLANE_ATLAS, PLANE_ATLAS)
    with pytest.raises(ValueError):
        ToricMorphismData(((1, 0),), PLANE_ATLAS, PLANE_ATLAS)
    with pytest.raises(ValueError):
        ToricMorphismData(((1, 0), (0, 1), (0, 0)), PLANE_ATLAS, PLANE_ATLAS)


def test_identity_morphism_passes():
    d = ToricMorphismData(((1, 0), (0, 1)), PLANE_ATLAS, PLANE_ATLAS)
    assert check_morphism(d).ok


def test_multiplication_map_passes():
    # The coordinate product: the plane maps onto the line, quadrant to ray.
    d = ToricMorphismData(((1, 1),), PLANE_ATLAS, LINE_ATLAS)
    assert check_morphism(d).ok


def test_uncovered_cone_fails():
    d = ToricMorphismData(((1,),), P1_FANMON, LINE_ATLAS)
    report = check_morphism(d)
    assert not report.ok
    assert codes(report) == ["no-containing-cone"]


def test_chart_incompatibility_fails():
    # The identity covers the cones, but the dense ray chart of the line
    # does not pull back into the numerical-semigroup chart.
    d = ToricMorphismData(((1,),), affine_atlas(NUMERICAL), LINE_ATLAS)
    report = check_morphism(d)
    assert not report.ok
    assert codes(report) == ["chart-incompatible"]


def test_check_morphism_surfaces_invalid_inputs():
    broken = FanOfMonoids(
        2, ((RationalCone(2, ((1, 0), (0, 1))), NN2),)
    )  # faces missing
    d = ToricMorphismData(((1, 0), (0, 1)), broken, PLANE_ATLAS)
    report = check_morphism(d)
    assert not report.ok
    assert "missing-face" in codes(report)


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------

def test_normalization_of_the_cusp():
    d = normalization_morphism(NUMERICAL)
    assert d.nu == ((1,),)
    assert check_morphism(d).ok
    ray = RationalCone(1, ((1,),))
    source_chart = dict(d.source.entries)[ray]
    target_chart = dict(d.target.entries)[ray]
    assert monoid_equal(source_chart, NN)
    assert monoid_equal(target_chart, NUMERICAL)


def test_normalization_passes_for_random_monoids():
    # `monoid saturate` reports this verdict without checking it; here it is
    # checked on 20 draws per rank, with and without unit pairs, per seed.
    for seed in (113, 114):
        rng = random.Random(seed)
        for rank in (1, 2, 3):
            for allow_units in (False, True):
                for _ in range(20):
                    g = random_monoid(rng, rank, allow_units)
                    report = check_morphism(normalization_morphism(g))
                    assert report.ok, (g, report.failures)


# ---------------------------------------------------------------------------
# The check through maximal source cones against the per-cone check
# ---------------------------------------------------------------------------

def pairwise_check_morphism(d):
    """The morphism check cone by cone: for every source cone, one
    membership search per generator of the smallest target chart."""
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
        minimal = next(
            c2 for c2 in containing
            if all(c2 in cone_faces(o) for o in containing)
        )
        for gen in lookup[minimal].generators:
            if membership(chart1, mat_vec(d.nu_dual, gen)) is None:
                failures.append(
                    ValidationFailure(
                        "chart-incompatible",
                        f"the dual image of {gen} from the chart at "
                        f"{minimal!r} is missing from the chart at {cone1!r}",
                    )
                )
    return ValidationReport(tuple(failures))


def fan_with_faces(rank, maximal):
    return normal_fan_of_monoids(
        Fan(rank, [f for c in maximal for f in cone_faces(c)])
    )


# The fan of P1 x P1, and a fan that is not pure: a quadrant and a ray.
QUADRANTS_FANMON = fan_with_faces(2, [
    RationalCone(2, ((sx, 0), (0, sy))) for sx in (1, -1) for sy in (1, -1)
])
QUADRANT_AND_RAY_FANMON = fan_with_faces(2, [
    RationalCone(2, ((1, 0), (0, 1))), RationalCone(2, ((-1, -2),)),
])


# Monoids that are not saturated: the cusp, a rank-2 cusp missing (1, 2),
# and the cone over the lattice quadrilateral with vertices (t, t^2).
CUSPS = [
    NUMERICAL,
    ToricMonoid(2, ((1, 0), (1, 1), (1, 3))),
    ToricMonoid(3, tuple((t, t * t, 1) for t in range(4))),
]


def morphism_corpus():
    """Seeded morphisms between affine atlases of random monoids of ranks
    1-3, with and without unit pairs, and fans with several maximal cones:
    identities, some with one entry moved, normalizations and their
    reverses, maps into charts with a saturation generator added, random
    maps, and identities out of broken fans."""
    rng = random.Random(137)
    monoids = [
        random_monoid(rng, rank, allow_units)
        for rank in (1, 2, 3)
        for allow_units in (False, True)
        for _ in range(5)
    ] + CUSPS
    fans = [affine_atlas(g) for g in monoids] + [
        P1_FANMON, QUADRANTS_FANMON, QUADRANT_AND_RAY_FANMON,
    ] + [
        normal_fan_of_monoids(f)
        for f in seeded_normal_fans() if f.ambient_rank == 2
    ]
    cusps = [g for g in monoids if not is_saturated(g)]
    by_rank = {
        n: [f for f in fans if f.exponent_rank == n] for n in (1, 2, 3)
    }

    def moved_identity(source, target):
        n = source.exponent_rank
        nu = [list(row) for row in mat_identity(n)]
        nu[rng.randrange(n)][rng.randrange(n)] += rng.choice((-1, 1, 2))
        return ToricMorphismData(nu, source, target)

    # The identity carries the quadrant into the plane atlas, but not the
    # ray, which is maximal without being of top dimension.
    draws = [ToricMorphismData(
        mat_identity(2), QUADRANT_AND_RAY_FANMON, PLANE_ATLAS
    )]
    for g in monoids:
        d = normalization_morphism(g)
        draws += [d, ToricMorphismData(d.nu, d.target, d.source)]
    for fm in fans:
        n = fm.exponent_rank
        draws.append(ToricMorphismData(mat_identity(n), fm, fm))
        draws += [
            moved_identity(fm, rng.choice(by_rank[n])) for _ in range(3)
        ]
    for g in cusps:
        # The target chart gains one generator of the saturation.  The
        # group stays the same, so the identity still matches coordinates.
        source = affine_atlas(g)
        identity = mat_identity(source.exponent_rank)
        for h in saturate(g).generators:
            target = affine_atlas(
                ToricMonoid(g.ambient_rank, g.generators + (h,))
            )
            draws += [
                ToricMorphismData(identity, source, target),
                moved_identity(source, target),
            ]
    for fm in rng.sample(fans, 8):
        # Invalid fans: the check must report their failures, not trust
        # charts that validation has not vouched for.
        n = fm.exponent_rank
        draws += [
            ToricMorphismData(mat_identity(n), broken, fm)
            for broken in broken_fans_of_monoids(fm, rng)
        ]
    for _ in range(120):
        source, target = rng.choice(fans), rng.choice(fans)
        nu = [
            [rng.randint(-2, 2) for _ in range(source.exponent_rank)]
            for _ in range(target.exponent_rank)
        ]
        draws.append(ToricMorphismData(nu, source, target))
    return draws


def names_a_face(report, d):
    """Whether some failure of the report is at a non-maximal source cone."""
    top = set(maximal_cones(d.source.fan()))
    faces_named = [
        repr(c) for c, _ in d.source.entries if c not in top
    ]
    return any(
        f.message.startswith(f"the image of {r} ")
        or f.message.endswith(f"chart at {r}")
        for f in report.failures
        for r in faces_named
    )


def test_check_morphism_matches_the_pairwise_oracle():
    seen = collections.Counter()
    for d in morphism_corpus():
        report = check_morphism(d)
        assert report == pairwise_check_morphism(d), d
        seen["passed" if report.ok else "failed"] += 1
        seen["failed at a face"] += names_a_face(report, d)
        seen.update({f.code for f in report.failures})
    assert seen["passed"] >= 150 and seen["failed"] >= 150, seen
    assert seen["failed at a face"] >= 100, seen
    assert seen["no-containing-cone"] >= 100, seen
    assert seen["chart-incompatible"] >= 25, seen
    assert seen["face-incompatible"] >= 5, seen


def scanning_smallest_face(sigma, image):
    """The smallest face of ``sigma`` containing ``image``: the first face
    in ``faces`` order containing every vector, one dual cone per face."""
    return next(
        t for t in cone_faces(sigma) if all(contains(t, w) for w in image)
    )


def test_the_smallest_target_face_matches_the_scan_down_the_faces():
    rng = random.Random(139)
    cases = []
    for d in morphism_corpus():
        for cone1, _ in d.source.entries:
            image = [mat_vec(d.nu, v) for v in cone1.generating_vectors()]
            cases += [(sigma, image) for sigma, _ in d.target.entries
                      if all(contains(sigma, w) for w in image)]

    def combination(sigma):
        """A nonnegative combination of some generators of ``sigma``."""
        w = [0] * sigma.ambient_rank
        gens = sigma.generating_vectors()
        for v in rng.sample(gens, rng.randint(0, len(gens))):
            c = rng.randint(1, 2)
            w = [a + c * b for a, b in zip(w, v)]
        return tuple(w)

    for fm in seeded_atlases():
        for sigma, _ in fm.entries:
            cases += [
                (sigma, [combination(sigma) for _ in range(rng.randint(1, 3))])
                for _ in range(4)
            ]
    proper = 0
    for sigma, image in cases:
        minimal = _smallest_face(sigma, image)
        assert minimal == scanning_smallest_face(sigma, image), (sigma, image)
        proper += minimal != sigma
    assert len(cases) >= 4000 and proper >= 2000, (len(cases), proper)


# ---------------------------------------------------------------------------
# Point maps
# ---------------------------------------------------------------------------

def test_apply_sends_the_cusp_point_to_its_resolution_image():
    p = ComplexPoint(
        NUMERICAL, full_face(NUMERICAL), (math.log(2.0),), (Fraction(0),)
    )
    q = apply_to_point(((2, 3),), NN2, p)
    assert q.monoid == NN2
    assert q.support_face == full_face(NN2)
    assert abs(evaluate_monomial(q, (1, 0)) - 4.0) < 1e-9
    assert abs(evaluate_monomial(q, (0, 1)) - 8.0) < 1e-9


def test_apply_preserves_boundary_support():
    p = ComplexPoint(NUMERICAL, edge(NUMERICAL), (), ())
    q = apply_to_point(((2, 3),), NN2, p)
    assert q.support_face == edge(NN2)
    assert evaluate_monomial(q, (1, 0)) == 0


@pytest.mark.parametrize("call, message", [
    (lambda: ToricMorphismData(((1.5, 0), (0, 1)), PLANE_ATLAS, PLANE_ATLAS),
     "1.5 is not an integer"),
    (lambda: apply_to_point(
        ((1, 0),), NN, RoundingPoint(NN, faces(NN)[-1], (0.0,), (0,))),
     "the matrix shape must map the source ambient lattice into the point's "
     "ambient lattice"),
])
def test_malformed_maps_are_refused(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_apply_rejects_maps_leaving_the_monoid():
    p = ComplexPoint(NN, full_face(NN), (0.0,), (Fraction(0),))
    with pytest.raises(ValueError):
        apply_to_point(((-1,),), NN, p)


def random_complex_point(rng, g):
    f = rng.choice(faces(g))
    k = len(gp(f.monoid))
    return ComplexPoint(
        g,
        f,
        tuple(round(rng.uniform(-1.0, 1.0), 3) for _ in range(k)),
        tuple(Fraction(rng.randrange(8), 8) for _ in range(k)),
    )


def random_member(rng, g, bound=2):
    coeffs = [rng.randint(0, bound) for _ in g.generators]
    return tuple(
        sum(a * v[i] for a, v in zip(coeffs, g.generators))
        for i in range(g.ambient_rank)
    )


def free_monoid(k):
    return ToricMonoid(
        k, tuple(tuple(int(i == j) for j in range(k)) for i in range(k))
    )


def test_apply_commutes_with_evaluation():
    rng = random.Random(127)
    for _ in range(15):
        g1 = random_monoid(rng, rng.randint(1, 2))
        k = rng.randint(1, 2)
        g2 = free_monoid(k)
        mu = tuple(
            zip(*[random_member(rng, g1) for _ in range(k)])
        )  # columns are members of g1
        p = random_complex_point(rng, g1)
        q = apply_to_point(mu, g2, p)
        for _ in range(4):
            m2 = random_member(rng, g2, bound=3)
            direct = evaluate_monomial(p, mat_vec(mu, m2))
            pulled = evaluate_monomial(q, m2)
            assert abs(pulled - direct) <= 1e-9 * max(1.0, abs(direct))


def test_apply_finds_the_support_face_of_the_membership_oracle():
    # The support is the set of source generators whose images lie in the
    # support face's monoid, each found by its own membership search.
    rng = random.Random(137)
    for _ in range(20):
        g1 = random_monoid(rng, rng.randint(1, 3))
        g2 = free_monoid(rng.randint(1, 3))
        mu = tuple(zip(*[
            random_member(rng, rng.choice(faces(g1)).monoid)
            for _ in g2.generators
        ]))
        p = random_complex_point(rng, g1)
        expected = tuple(
            i for i, v in enumerate(g2.generators)
            if membership(p.support_face.monoid, mat_vec(mu, v)) is not None
        )
        q = apply_to_point(mu, g2, p)
        assert q.support_face.generator_indices == expected


def test_apply_is_functorial():
    rng = random.Random(131)
    for _ in range(10):
        g1 = random_monoid(rng, rng.randint(1, 2))
        k, j = rng.randint(1, 2), rng.randint(1, 2)
        g2, g3 = free_monoid(k), free_monoid(j)
        mu = tuple(zip(*[random_member(rng, g1) for _ in range(k)]))
        nu = tuple(
            tuple(rng.randint(0, 2) for _ in range(j)) for _ in range(k)
        )
        p = random_complex_point(rng, g1)
        via_steps = apply_to_point(nu, g3, apply_to_point(mu, g2, p))
        direct = apply_to_point(mat_mul(mu, nu), g3, p)
        assert via_steps.support_face == direct.support_face
        assert via_steps.angle == direct.angle
        assert all(
            abs(a - b) < 1e-9
            for a, b in zip(via_steps.radial_log, direct.radial_log)
        )


def test_apply_acts_on_rounding_points():
    p = RoundingPoint(
        NUMERICAL,
        full_face(NUMERICAL),
        (math.log(2.0),),
        (Fraction(1, 2),),
    )
    q = apply_to_point(((2, 3),), NN2, p)
    assert isinstance(q, RoundingPoint)
    assert monomial_angle(q, (1, 0)) == Fraction(0)  # angle of x^2 at x = -2
    assert monomial_angle(q, (0, 1)) == Fraction(1, 2)
    r, u = evaluate_monomial(q, (0, 1))
    assert abs(r - 8.0) < 1e-9
    assert abs(u - (-1)) < 1e-12
