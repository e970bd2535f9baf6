"""Rounding points, fibers, and the stratification of polar points.

Torsor cardinalities are cross-checked by enumerating characters on a
denominator grid, and component counts by a coset search — both independent
of the library's quotient-invariant computations.
"""

import cmath
import itertools
import math
import random
import re
from fractions import Fraction

import pytest

from conftest import edge, mat_mul, random_monoid
from torolog.fans import FanStratum, affine_atlas
from torolog.lattice import hnf, mat_identity, solve_integer
from torolog.monoids import (
    ToricMonoid,
    _generator_coordinates,
    faces,
    ghost,
    gp,
    membership,
)
from torolog.rounding import (
    ComplexPoint,
    FiberReport,
    RoundingPoint,
    _interpret_unit,
    _solving_combinations,
    encode_hom,
    evaluate_monomial,
    fiber_structure,
    monomial_angle,
    points_of,
    relative_fiber,
    rounding_report,
    strict_restriction_check,
    tau,
)
from torolog.snc import DualComplex, milnor_stratum_fiber

NN = ToricMonoid(1, ((1,),))
NN2 = ToricMonoid(2, ((1, 0), (0, 1)))
NUMERICAL = ToricMonoid(1, ((2,), (3,)))
TORSION = ToricMonoid(2, ((2, 0), (0, 1), (1, 1)))
Z2 = ToricMonoid(2, ((1, 0), (-1, 0), (0, 1), (0, -1)))


def xface(g, indices):
    for f in faces(g):
        if f.generator_indices == indices:
            return f
    raise AssertionError(f"no face with indices {indices}")


def test_a_float_angle_just_below_a_whole_turn_reduces_into_the_unit_interval():
    # -1e-20 % 1.0 is 1.0, so a float angle needs a second reduction.
    full = faces(NN)[-1]
    for point in (RoundingPoint, ComplexPoint):
        assert point(NN, full, [0.0], [-1e-20]).angle == (0.0,)
    assert _interpret_unit(complex(1.0, -1e-20)) == 0.0
    assert _interpret_unit(-0.25) == 0.75


# ---------------------------------------------------------------------------
# encode_hom
# ---------------------------------------------------------------------------

def test_encode_positive_image_on_a_ray():
    u = cmath.exp(2j * math.pi / 6)
    p = encode_hom(NN, [(2.0, u)])
    assert p.support_face.generator_indices == (0,)
    assert abs(p.radial_log[0] - math.log(2.0)) < 1e-12
    assert abs(p.angle[0] - Fraction(1, 6)) < 1e-12


def test_encode_boundary_image_keeps_exact_angle():
    p = encode_hom(NN, [(0, Fraction(1, 3))])
    assert p.support_face.generator_indices == ()
    assert p.radial_log == ()
    assert p.angle == (Fraction(1, 3),)


def test_encode_neutral_images_give_the_base_point():
    p = encode_hom(NN2, [(1, 1), (1, 1)])
    assert p.support_face == faces(NN2)[-1]
    assert p.radial_log == (0.0, 0.0)
    assert p.angle == (Fraction(0), Fraction(0))
    assert p == RoundingPoint(NN2, faces(NN2)[-1], (0.0, 0.0), (0, 0))


def test_encode_rejects_non_face_zero_sets():
    # Killing only the interior generator (1,1) leaves {(0,1),(2,0)} positive,
    # which spans no face.
    with pytest.raises(ValueError):
        encode_hom(TORSION, [(1, 1), (0, 1), (1, 1)])


def test_encode_rejects_radius_relation_violation():
    # In <2,3> the images must satisfy r2**3 == r3**2.
    with pytest.raises(ValueError):
        encode_hom(NUMERICAL, [(4.0, 1), (9.0, 1)])


def test_encode_rejects_angle_relation_violation():
    with pytest.raises(ValueError):
        encode_hom(NUMERICAL, [(4.0, Fraction(1, 2)), (8.0, Fraction(1, 2))])


def test_encode_solves_the_character_of_a_negative_point():
    # x = -2 in the cusp chart: x^2 = 4 with angle 0, x^3 = -8 with angle 1/2.
    p = encode_hom(NUMERICAL, [(4.0, Fraction(0)), (8.0, Fraction(1, 2))])
    assert p.angle == (Fraction(1, 2),)
    assert abs(p.radial_log[0] - math.log(2.0)) < 1e-12


def test_encode_takes_exact_radii_beyond_the_float_range():
    # 10**400 overflows a float and 10**-400 underflows to zero.
    for radius, sign in ((10**400, 1), (Fraction(1, 10**400), -1)):
        p = encode_hom(NN, [(radius, 0)])
        assert p.radial_log == pytest.approx((sign * 921.034,), abs=1e-3)
    # Within the float range the logarithm is the float's, bit for bit.
    rng = random.Random(0)
    for _ in range(200):
        r = Fraction(rng.randint(1, 10**30), rng.randint(1, 10**30))
        assert encode_hom(NN, [(r, 0)]).radial_log == (math.log(float(r)),)


def test_encode_rejects_negative_radius_and_bad_unit():
    with pytest.raises(ValueError):
        encode_hom(NN, [(-1.0, 1)])
    with pytest.raises(ValueError):
        encode_hom(NN, [(1.0, 2 + 0j)])


def random_rounding_point(rng, g):
    f = rng.choice(faces(g))
    radial = tuple(
        round(rng.uniform(-1.5, 1.5), 3) for _ in gp(f.monoid)
    )
    angle = tuple(Fraction(rng.randrange(12), 12) for _ in gp(g))
    return RoundingPoint(g, f, radial, angle)


def test_encode_decode_round_trip():
    rng = random.Random(71)
    for _ in range(25):
        g = random_monoid(rng, rng.randint(1, 3))
        p = random_rounding_point(rng, g)
        images = [
            (evaluate_monomial(p, v)[0], monomial_angle(p, v))
            for v in g.generators
        ]
        q = encode_hom(g, images)
        assert q.support_face == p.support_face
        assert q.angle == p.angle
        assert all(
            abs(a - b) < 1e-9 for a, b in zip(q.radial_log, p.radial_log)
        )


def solving_combinations_by_hnf(rows, k):
    """The combinations read off the unimodular transform of the Hermite
    form, which is the identity exactly when the rows span Z^k."""
    if k == 0:
        return ()
    h, u = hnf(tuple(tuple(row[i] for row in rows) for i in range(k)))
    if any(h[i][j] != (i == j) for i in range(k) for j in range(k)):
        raise ValueError("the given rows do not span the full lattice")
    return tuple(tuple(u[i][j] for i in range(len(rows))) for j in range(k))


def solving_combinations_by_solves(rows, k):
    """One integer solve per basis vector, as the combinations were found
    before they were read from a single Hermite transform."""
    matrix = tuple(tuple(row[i] for row in rows) for i in range(k))
    combinations = tuple(solve_integer(matrix, e) for e in mat_identity(k))
    if None in combinations:
        raise ValueError("the given rows do not span the full lattice")
    return combinations


def test_solving_combinations_match_the_hermite_transform():
    # Each face's coordinates span; dropping a row or doubling every row
    # mostly makes sets that do not, which must raise as the solves do.
    rng = random.Random(5)
    failing = 0
    for _ in range(200):
        g = random_monoid(rng, rng.randint(1, 4))
        for f in faces(g):
            rows, k = _generator_coordinates(f.monoid), len(gp(f.monoid))
            assert _solving_combinations(rows, k) == (
                solving_combinations_by_hnf(rows, k)
            ) == solving_combinations_by_solves(rows, k)
            for rs in (rows[:-1], tuple(tuple(2 * x for x in r) for r in rows)):
                try:
                    want = solving_combinations_by_solves(rs, k)
                except ValueError:
                    failing += 1
                    with pytest.raises(ValueError, match="do not span"):
                        _solving_combinations(rs, k)
                else:
                    assert _solving_combinations(rs, k) == want
    assert failing >= 500
    for rows in (((2,),), ((2, 0), (0, 1)), ((1, 1), (2, 2))):
        with pytest.raises(ValueError, match="do not span"):
            _solving_combinations(rows, len(rows[0]))


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def test_evaluate_at_zero_is_one():
    p = random_rounding_point(random.Random(3), NN2)
    r, u = evaluate_monomial(p, (0, 0))
    assert r == 1.0 and u == 1


def test_evaluate_cusp_point():
    p = encode_hom(NUMERICAL, [(4.0, 1), (8.0, 1)])
    r, u = evaluate_monomial(p, (2,))
    assert abs(r - 4.0) < 1e-9
    assert abs(u - 1) < 1e-12


def test_evaluate_boundary_character_powers():
    theta = Fraction(1, 5)
    p = RoundingPoint(NN, edge(NN), (), (theta,))
    r, u = evaluate_monomial(p, (3,))
    assert r == 0.0
    assert abs(u - cmath.exp(2j * math.pi * 3 / 5)) < 1e-12
    assert monomial_angle(p, (3,)) == Fraction(3, 5)


def test_evaluate_rejects_non_members():
    p = RoundingPoint(NUMERICAL, faces(NUMERICAL)[-1], (0.0,), (0,))
    with pytest.raises(ValueError):
        evaluate_monomial(p, (1,))


def test_evaluation_is_multiplicative():
    rng = random.Random(73)
    for _ in range(25):
        g = random_monoid(rng, rng.randint(1, 3))
        p = random_rounding_point(rng, g)
        coeffs1 = [rng.randint(0, 2) for _ in g.generators]
        coeffs2 = [rng.randint(0, 2) for _ in g.generators]
        m1 = tuple(
            sum(a * v[i] for a, v in zip(coeffs1, g.generators))
            for i in range(g.ambient_rank)
        )
        m2 = tuple(
            sum(a * v[i] for a, v in zip(coeffs2, g.generators))
            for i in range(g.ambient_rank)
        )
        msum = tuple(a + b for a, b in zip(m1, m2))
        r1, u1 = evaluate_monomial(p, m1)
        r2, u2 = evaluate_monomial(p, m2)
        rs, us = evaluate_monomial(p, msum)
        assert abs(rs - r1 * r2) <= 1e-12 * max(1.0, abs(r1 * r2))
        assert (
            monomial_angle(p, m1) + monomial_angle(p, m2)
            - monomial_angle(p, msum)
        ) % 1 == 0


# ---------------------------------------------------------------------------
# tau
# ---------------------------------------------------------------------------

def test_tau_is_the_identity_over_the_dense_torus():
    rng = random.Random(79)
    for _ in range(10):
        full = faces(Z2)[-1]
        p = RoundingPoint(
            Z2,
            full,
            tuple(round(rng.uniform(-1, 1), 3) for _ in range(2)),
            tuple(Fraction(rng.randrange(8), 8) for _ in range(2)),
        )
        c = tau(p)
        assert c.support_face == full
        assert c.radial_log == p.radial_log
        assert c.angle == p.angle


def test_tau_sends_boundary_points_to_the_origin():
    p = RoundingPoint(NN, edge(NN), (), (Fraction(2, 7),))
    c = tau(p)
    assert c.support_face.generator_indices == ()
    assert c.radial_log == () and c.angle == ()
    assert evaluate_monomial(c, (1,)) == 0


def test_tau_preserves_the_base_point():
    bp = RoundingPoint(NN2, faces(NN2)[-1], (0.0, 0.0), (0, 0))
    c = tau(bp)
    assert c.support_face == bp.support_face
    assert all(x == 0 for x in c.radial_log)
    assert all(a == 0 for a in c.angle)


def test_tau_collapses_evaluation():
    rng = random.Random(83)
    for _ in range(15):
        g = random_monoid(rng, rng.randint(1, 2))
        p = random_rounding_point(rng, g)
        c = tau(p)
        for v in g.generators:
            r, u = evaluate_monomial(p, v)
            combined = r * u
            assert abs(evaluate_monomial(c, v) - combined) < 1e-9


# ---------------------------------------------------------------------------
# Fibers
# ---------------------------------------------------------------------------

def test_fiber_over_the_origin_of_affine_space():
    for n in range(1, 6):
        g = ToricMonoid(n, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))
        rep = fiber_structure(g, edge(g))
        assert rep.torus_rank == n
        assert rep.components == 1


def brute_force_components(g, f, box=4, order_bound=8):
    """Count torsion classes of gp(g)/gp(f.monoid) by direct coset search."""
    basis = gp(g)
    k = len(basis)
    phi_cols = tuple(
        tuple(b[i] for b in gp(f.monoid)) for i in range(g.ambient_rank)
    )

    def in_phi(v):
        return solve_integer(phi_cols, v) is not None

    def ambient(coords):
        return tuple(
            sum(c * b[i] for c, b in zip(coords, basis))
            for i in range(g.ambient_rank)
        )

    reps = []
    for coords in itertools.product(range(-box, box + 1), repeat=k):
        v = ambient(coords)
        if not any(
            in_phi(tuple(n * x for x in v)) for n in range(1, order_bound + 1)
        ):
            continue
        if any(
            in_phi(tuple(a - b for a, b in zip(v, w))) for w in reps
        ):
            continue
        reps.append(v)
    return len(reps)


def test_fiber_of_torsion_monoid_has_two_components():
    f = xface(TORSION, (2,))
    rep = fiber_structure(TORSION, f)
    assert rep.torus_rank == 1
    assert rep.components == 2
    assert brute_force_components(TORSION, f) == 2


def test_fiber_structure_rejects_foreign_faces():
    with pytest.raises(ValueError, match="is not a face of"):
        fiber_structure(NN2, xface(TORSION, (2,)))


def restricted_angles(g, f, theta0):
    """The restriction of the character ``theta0`` of gp(g), given on its
    canonical basis, to the canonical basis of gp(f.monoid)."""
    bmat = tuple(tuple(b[i] for b in gp(g)) for i in range(g.ambient_rank))
    return [
        sum(c * t for c, t in zip(solve_integer(bmat, b), theta0)) % 1
        for b in gp(f.monoid)
    ]


def count_rounding_points(g, f, point_angles, L):
    """Enumerate denominator-L characters of gp(g) restricting to the given
    angles on gp(f.monoid)."""
    basis = gp(g)
    k = len(basis)
    bmat = tuple(tuple(b[i] for b in basis) for i in range(g.ambient_rank))
    phi_coords = [solve_integer(bmat, b) for b in gp(f.monoid)]
    count = 0
    for combo in itertools.product(range(L), repeat=k):
        theta = [Fraction(j, L) for j in combo]
        if all(
            (sum(c * t for c, t in zip(coords, theta)) - a) % 1 == 0
            for coords, a in zip(phi_coords, point_angles)
        ):
            count += 1
    return count


def test_torsor_cardinality_over_fixed_points():
    rng = random.Random(89)
    cases = [
        (NN2, xface(NN2, (0,))),
        (NN2, faces(NN2)[0]),
        (TORSION, xface(TORSION, (2,))),
        (ToricMonoid(2, ((1, 0), (-1, 0), (0, 1))), None),
    ]
    for g, f in cases:
        if f is None:
            f = faces(g)[0]
        rep = fiber_structure(g, f)
        for L in (2, 3, 4, 6):
            if any(t % L for t in rep.invariants.torsion):
                continue  # L must annihilate the torsion
            # Restrict a random denominator-L character to the face.
            theta0 = [Fraction(rng.randrange(L), L) for _ in gp(g)]
            angles = restricted_angles(g, f, theta0)
            count = count_rounding_points(g, f, angles, L)
            assert count == rep.components * L**rep.torus_rank


# ---------------------------------------------------------------------------
# Rounding reports over fans
# ---------------------------------------------------------------------------

def test_rounding_report_of_the_plane_atlas():
    rows = rounding_report(affine_atlas(NN2))
    assert all(isinstance(r, FanStratum) for r in rows)
    data = [
        (r.orbit_dimension, r.fiber.torus_rank, r.fiber.components, r.boundary)
        for r in rows
    ]
    assert data == [
        (2, 0, 1, False),
        (1, 1, 1, True),
        (1, 1, 1, True),
        (0, 2, 1, True),
    ]


def test_rounding_report_of_projective_line():
    atlas_fan = affine_atlas(ToricMonoid(1, ((1,),)))
    # Build the P1 fan of monoids directly instead: two rays and the origin.
    from torolog.cones import RationalCone
    from torolog.fans import FanOfMonoids

    fm = FanOfMonoids(
        1,
        (
            (RationalCone(1, ()), ToricMonoid(1, ((1,), (-1,)))),
            (RationalCone(1, ((1,),)), ToricMonoid(1, ((1,),))),
            (RationalCone(1, ((-1,),)), ToricMonoid(1, ((-1,),))),
        ),
    )
    rows = rounding_report(fm)
    data = [
        (r.orbit_dimension, r.fiber.torus_rank, r.fiber.components, r.boundary)
        for r in rows
    ]
    assert data == [(1, 0, 1, False), (0, 1, 1, True), (0, 1, 1, True)]
    # The affine chart of the ray monoid shows one of the two circles.
    affine_rows = rounding_report(atlas_fan)
    assert [r.boundary for r in affine_rows] == [False, True]


def test_rounding_report_rejects_invalid_fans():
    from torolog.cones import RationalCone
    from torolog.fans import FanOfMonoids

    broken = FanOfMonoids(2, ((RationalCone(2, ((1, 0), (0, 1))), NN2),))
    with pytest.raises(ValueError):
        rounding_report(broken)


# ---------------------------------------------------------------------------
# Relative and Milnor fibers
# ---------------------------------------------------------------------------

def test_relative_fiber_of_identity_is_trivial():
    rep = relative_fiber(((1, 0), (0, 1)), edge(NN2))
    assert (rep.torus_rank, rep.components) == (0, 1)


def test_relative_fiber_of_diagonal_inclusion():
    rep = relative_fiber(((1,), (1,)), edge(NN2))
    assert (rep.torus_rank, rep.components) == (1, 1)


def test_relative_fiber_detects_torsion():
    rep = relative_fiber(((2,), (4,)), edge(NN2))
    assert (rep.torus_rank, rep.components) == (1, 2)
    assert rep.invariants.torsion == (2,)


def test_relative_fiber_at_the_full_face_is_trivial():
    rep = relative_fiber(((2,), (4,)), faces(NN2)[-1])
    assert (rep.torus_rank, rep.components) == (0, 1)


def test_relative_fiber_rejects_bad_shapes():
    with pytest.raises(ValueError):
        relative_fiber(((1,),), edge(NN2))  # one row, ambient rank two


def test_milnor_fiber_goldens():
    assert (milnor_stratum_fiber((1,)).torus_rank, milnor_stratum_fiber((1,)).components) == (0, 1)
    assert (milnor_stratum_fiber((3,)).torus_rank, milnor_stratum_fiber((3,)).components) == (0, 3)
    assert (milnor_stratum_fiber((2, 4)).torus_rank, milnor_stratum_fiber((2, 4)).components) == (1, 2)
    assert (milnor_stratum_fiber((1, 1)).torus_rank, milnor_stratum_fiber((1, 1)).components) == (1, 1)


def test_milnor_fiber_rejects_bad_multiplicities():
    with pytest.raises(ValueError):
        milnor_stratum_fiber(())
    with pytest.raises(ValueError):
        milnor_stratum_fiber((2, 0))
    with pytest.raises(ValueError):
        milnor_stratum_fiber((-1,))


def test_milnor_fiber_reads_multiplicities_as_the_dual_complex_does():
    # One integrality policy in the module: an integral float is read as
    # its integer, anything else is refused with the lattice's message.
    assert milnor_stratum_fiber((2.0, 4)) == milnor_stratum_fiber((2, 4))
    dc = DualComplex(2, 2, [(0, 1)], (2.0, 4), complete=True)
    assert dc.multiplicities == (2, 4)
    with pytest.raises(ValueError, match="^'x' is not an integer$"):
        milnor_stratum_fiber(("x",))


def test_milnor_components_match_euclid_gcd():
    rng = random.Random(97)
    for _ in range(40):
        k = rng.randint(1, 4)
        ms = tuple(rng.randint(1, 9) for _ in range(k))
        rep = milnor_stratum_fiber(ms)
        assert rep.torus_rank == k - 1
        assert rep.components == math.gcd(*ms)


def test_relative_fiber_is_functorial_on_composites():
    rng = random.Random(101)
    from torolog.lattice import quotient_invariants

    for _ in range(15):
        m1 = tuple(
            tuple(rng.randint(-2, 2) for _ in range(2)) for _ in range(2)
        )
        m2 = tuple(
            tuple(rng.randint(-2, 2) for _ in range(2)) for _ in range(2)
        )
        composite = mat_mul(m2, m1)
        f = edge(NN2)
        rep = relative_fiber(composite, f)
        inv = quotient_invariants(2, composite)
        assert rep.invariants == inv


# ---------------------------------------------------------------------------
# Polar points
# ---------------------------------------------------------------------------

def test_points_of_the_line_in_polar_mode():
    rows = points_of(NN)
    assert len(rows) == 2
    boundary, dense = rows
    assert boundary.face.generator_indices == ()
    assert boundary.torus_rank == 0
    assert (boundary.fiber.torus_rank, boundary.fiber.components) == (1, 1)
    assert dense.torus_rank == 1
    assert (dense.fiber.torus_rank, dense.fiber.components) == (0, 1)


def test_points_of_a_group_is_one_torus():
    rows = points_of(Z2)
    assert len(rows) == 1
    assert rows[0].torus_rank == 2


def test_polar_points_match_the_rounding_report_of_the_atlas():
    rng = random.Random(107)
    for _ in range(4):
        g = random_monoid(rng, rng.randint(1, 3))
        point_rows = sorted(
            (r.torus_rank, r.fiber.torus_rank, r.fiber.components)
            for r in points_of(g)
        )
        report_rows = sorted(
            (r.orbit_dimension, r.fiber.torus_rank, r.fiber.components)
            for r in rounding_report(affine_atlas(g))
        )
        assert point_rows == report_rows


# ---------------------------------------------------------------------------
# Strict restriction
# ---------------------------------------------------------------------------

def enumerated_restriction_check(g, f, samples=5):
    """The strict restriction check by enumeration, kept as the oracle for
    the closed form: for each sampled denominator-L character, count the
    denominator-L characters with the same restriction to the face."""
    rep = fiber_structure(g, f)
    if ghost(g, f).invariants != rep.invariants:
        return False
    L = max(2, math.lcm(*rep.invariants.torsion))
    rng = random.Random(0x5EED)
    for _ in range(max(1, samples)):
        theta0 = [Fraction(rng.randrange(L), L) for _ in gp(g)]
        count = count_rounding_points(g, f, restricted_angles(g, f, theta0), L)
        if count != rep.components * L**rep.torus_rank:
            return False
    return True


def test_strict_restriction_matches_the_enumerator_on_seeded_monoids():
    # One sample per face: the count is the same for every sample, which is
    # what the closed form rests on.
    rng = random.Random(9)
    with_units = 0
    for _ in range(200):
        g = random_monoid(rng, rng.randint(1, 4))
        with_units += bool(edge(g).generator_indices)
        for f in faces(g):
            assert strict_restriction_check(g, f) == (
                enumerated_restriction_check(g, f, samples=1)
            )
    assert with_units >= 50


def test_strict_restriction_matches_the_enumerator_on_the_n_series():
    for n in (2, 3, 5, 8, 12):
        g = ToricMonoid(2, ((n, 0), (0, 1), (1, 1)))
        for f in faces(g):
            assert strict_restriction_check(g, f)
            assert enumerated_restriction_check(g, f)


def test_strict_restriction_on_the_axis():
    assert strict_restriction_check(NN2, xface(NN2, (1,)))


def test_strict_restriction_on_the_full_face():
    assert strict_restriction_check(NN2, faces(NN2)[-1])


def test_strict_restriction_with_torsion():
    assert strict_restriction_check(TORSION, xface(TORSION, (2,)))


def test_fiber_report_component_consistency():
    rng = random.Random(109)
    for _ in range(12):
        g = random_monoid(rng, rng.randint(1, 3))
        for f in faces(g):
            rep = fiber_structure(g, f)
            assert rep.components >= 1
            assert rep.components == rep.invariants.torsion_order
            assert (rep.components == 1) == (rep.invariants.torsion == ())


FULL_NN = faces(NN)[-1]


@pytest.mark.parametrize("call, message", [
    (lambda: RoundingPoint(NN, FULL_NN, (0.0,), (1j,)),
     "angles must be real numbers measured in turns"),
    (lambda: RoundingPoint(NN, FULL_NN, (0.0,), (math.inf,)),
     "angles must be finite"),
    # An integer radial log beyond the float range is no finite float.
    *[(lambda x=x, cls=cls: cls(NN, FULL_NN, (x,), (0,)),
       "radial data must be finite")
      for x in (math.nan, math.inf, -math.inf, 10**400)
      for cls in (RoundingPoint, ComplexPoint)],
    # Exact radii beyond the float range, or a power of an in-range radius
    # beyond it, give a monomial a modulus no float holds.
    *[(lambda r=r, m=m: evaluate_monomial(encode_hom(NN, [(r, 0)]), m),
       f"the radius of {m} at the point overflows a float")
      for r, m in ((10**200, (2,)), (10**400, (1,)))],
    # A finite radial log whose multiple is infinite: no float error is
    # raised on the way, yet the radius is no finite float.
    (lambda: evaluate_monomial(
        RoundingPoint(NN, FULL_NN, (1e308,), (0,)), (3,)),
     "the radius of (3,) at the point overflows a float"),
    (lambda: encode_hom(NN, [(1j, 0)]), "radii must be real numbers"),
    (lambda: encode_hom(NN, [(-1, 0)]), "radii must be nonnegative"),
    (lambda: RoundingPoint(NN, FULL_NN, (), (0,)),
     "radial data must match the rank of the support face group"),
    (lambda: RoundingPoint(NN, FULL_NN, (0.0,), ()),
     "angle data must match the rank of the generated group"),
    (lambda: ComplexPoint(NN, FULL_NN, (0.0,), ()),
     "radial and angle data must match the rank of the support face group"),
    (lambda: encode_hom(NN, [(1, 0), (1, 0)]), "expected 1 images, got 2"),
    (lambda: encode_hom(NUMERICAL, [(1.0, 0.1), (1.0, 0.1)]),
     "the angles violate an additive relation among the generators"),
    (lambda: monomial_angle(
        RoundingPoint(NUMERICAL, faces(NUMERICAL)[-1], (0.0,), (0,)), (1,)),
     "(1,) is not an element of the monoid"),
    (lambda: monomial_angle(ComplexPoint(NN, faces(NN)[0], (), ()), (1,)),
     "(1,) vanishes at the point and carries no angle"),
    (lambda: relative_fiber(((1,), (1, 2)), faces(NN2)[0]),
     "the matrix rows have unequal lengths"),
    (lambda: relative_fiber(((1.5,), (1,)), faces(NN2)[0]),
     "1.5 is not an integer"),
])
def test_malformed_points_and_maps_are_refused(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
