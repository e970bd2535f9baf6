"""Lattice maps between fans of monoids, and the point maps they induce."""

import math
import random
from fractions import Fraction

import pytest

from conftest import random_monoid
from torolog.cones import RationalCone
from torolog.fans import FanOfMonoids, affine_atlas
from torolog.lattice import mat_mul, mat_vec
from torolog.monoids import ToricMonoid, edge, faces, gp, monoid_equal
from torolog.morphisms import (
    ToricMorphismData,
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
    # checked on 20 draws per rank, with and without unit pairs.
    rng = random.Random(113)
    for rank in (1, 2, 3):
        for allow_units in (False, True):
            for _ in range(20):
                g = random_monoid(rng, rank, allow_units)
                report = check_morphism(normalization_morphism(g))
                assert report.ok, (g, report.failures)


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
