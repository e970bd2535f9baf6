"""Rational polyhedral cones: canonical form, duality, faces, intersection.

The golden duals in the plane (vertical ray <-> upper half-plane, origin <->
everything, first quadrant self-dual) are classical and re-derived inline;
the slanted examples carry their hand derivations as comments.  The
membership property test is backed by an independent certificate search
(Gaussian elimination over Fractions on small generator subsets) that shares
no code with the library.
"""

import itertools
import random
from fractions import Fraction

import pytest

from conftest import random_cone
from torolog.cones import (
    RationalCone,
    contains,
    dim,
    dual_cone,
    faces,
    intersect,
    is_face_of,
    is_sharp,
)

QUADRANT = RationalCone(2, ((1, 0), (0, 1)))
UPPER_HALF_PLANE = RationalCone(2, ((1, 0), (-1, 0), (0, 1)))
VERTICAL_RAY = RationalCone(2, ((0, 1),))
ORIGIN_2D = RationalCone(2, ())
FULL_PLANE = RationalCone(2, ((1, 0), (-1, 0), (0, 1), (0, -1)))
X_AXIS_LINE = RationalCone(2, ((1, 0), (-1, 0)))
# Generated by (1,0) and (1,2): everything between the x-axis and the line y=2x.
SLANTED = RationalCone(2, ((1, 0), (1, 2)))


# ---------------------------------------------------------------------------
# Canonical form
# ---------------------------------------------------------------------------

def test_construction_canonicalizes_redundant_generators():
    a = RationalCone(2, ((1, 0), (0, 1), (1, 1), (2, 3)))
    assert a == QUADRANT
    assert hash(a) == hash(QUADRANT)
    assert a.rays == ((0, 1), (1, 0))
    assert a.lineality == ()


def test_construction_scales_rays_to_primitive():
    assert RationalCone(2, ((2, 0), (0, 3))) == QUADRANT
    assert RationalCone(1, ((3,),)).rays == ((1,),)


def test_construction_ignores_zero_generators():
    assert RationalCone(2, ((0, 0), (1, 0))) == RationalCone(2, ((1, 0),))


def test_construction_detects_lineality_from_opposite_rays():
    assert UPPER_HALF_PLANE.lineality == ((1, 0),)
    assert UPPER_HALF_PLANE.rays == ((0, 1),)


def test_rays_are_reduced_modulo_lineality():
    # (1,1) and (0,1) generate the same half-plane once +-(1,0) is present.
    assert RationalCone(2, ((1, 0), (-1, 0), (1, 1))) == UPPER_HALF_PLANE


def test_generator_length_mismatch_raises():
    with pytest.raises(ValueError):
        RationalCone(2, ((1, 0, 0),))


def test_negative_ambient_rank_raises():
    with pytest.raises(ValueError, match="negative"):
        RationalCone(-1, ())


def test_cones_are_usable_as_dict_keys():
    d = {QUADRANT: "a", UPPER_HALF_PLANE: "b"}
    assert d[RationalCone(2, ((0, 1), (1, 0)))] == "a"


# ---------------------------------------------------------------------------
# Duality goldens
# ---------------------------------------------------------------------------

def test_dual_of_vertical_ray_is_upper_half_plane():
    assert dual_cone(VERTICAL_RAY) == UPPER_HALF_PLANE


def test_dual_of_origin_is_full_plane():
    assert dual_cone(ORIGIN_2D) == FULL_PLANE


def test_dual_of_quadrant_is_quadrant():
    assert dual_cone(QUADRANT) == QUADRANT


def test_dual_of_upper_half_plane_is_vertical_ray():
    assert dual_cone(UPPER_HALF_PLANE) == VERTICAL_RAY


def test_dual_of_full_plane_is_origin():
    assert dual_cone(FULL_PLANE) == ORIGIN_2D


def test_dual_of_slanted_cone_by_hand():
    # {y : <(1,0),y> >= 0, <(1,2),y> >= 0} has extreme rays where one
    # inequality is tight: a=0 gives (0,1); a+2b=0 gives (2,-1).
    assert dual_cone(SLANTED).rays == ((0, 1), (2, -1))
    assert dual_cone(SLANTED).lineality == ()


def test_dual_of_flat_cone_in_three_space_has_lineality():
    c = RationalCone(3, ((1, 0, 0), (0, 1, 0)))
    d = dual_cone(c)
    assert d.rays == ((0, 1, 0), (1, 0, 0))
    assert d.lineality == ((0, 0, 1),)


# ---------------------------------------------------------------------------
# Membership
# ---------------------------------------------------------------------------

def test_contains_generator_sum():
    assert contains(QUADRANT, (1, 1))


def test_contains_rejects_negative_coordinate():
    assert not contains(QUADRANT, (-1, 0))


def test_origin_contains_only_zero():
    assert contains(ORIGIN_2D, (0, 0))
    assert not contains(ORIGIN_2D, (1, 0))


def test_contains_on_slanted_cone():
    assert contains(SLANTED, (1, 1))  # (1,1) = (1,0)/2 + (1,2)/2
    assert not contains(SLANTED, (1, 3))  # above the line y = 2x
    assert not contains(SLANTED, (0, -1))


def test_contains_accepts_fractions():
    assert contains(SLANTED, (1, Fraction(1, 2)))
    assert not contains(SLANTED, (Fraction(1, 2), Fraction(3, 2)))


def test_contains_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        contains(QUADRANT, (1, 0, 0))


# ---------------------------------------------------------------------------
# Faces
# ---------------------------------------------------------------------------

def test_quadrant_has_four_faces_in_canonical_order():
    fs = faces(QUADRANT)
    assert [f.rays for f in fs] == [(), ((0, 1),), ((1, 0),), ((0, 1), (1, 0))]
    assert all(f.lineality == () for f in fs)


def test_origin_has_one_face():
    assert faces(ORIGIN_2D) == (ORIGIN_2D,)


def test_half_plane_has_two_faces():
    fs = faces(UPPER_HALF_PLANE)
    assert fs == (X_AXIS_LINE, UPPER_HALF_PLANE)


def test_full_plane_has_one_face():
    assert faces(FULL_PLANE) == (FULL_PLANE,)


def test_slanted_cone_has_four_faces():
    fs = faces(SLANTED)
    assert len(fs) == 4
    assert {f.rays for f in fs} == {(), ((1, 0),), ((1, 2),), ((1, 0), (1, 2))}


def test_three_dimensional_orthant_has_eight_faces():
    c = RationalCone(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    assert len(faces(c)) == 8


# ---------------------------------------------------------------------------
# Sharpness, dimension, intersection, face-of
# ---------------------------------------------------------------------------

def test_is_sharp():
    assert is_sharp(QUADRANT)
    assert is_sharp(ORIGIN_2D)
    assert not is_sharp(UPPER_HALF_PLANE)
    assert not is_sharp(X_AXIS_LINE)


def test_dim():
    assert dim(QUADRANT) == 2
    assert dim(ORIGIN_2D) == 0
    assert dim(VERTICAL_RAY) == 1
    assert dim(X_AXIS_LINE) == 1
    assert dim(FULL_PLANE) == 2


def test_intersect_nested_cones():
    assert intersect(QUADRANT, UPPER_HALF_PLANE) == QUADRANT


def test_intersect_mirrored_quadrants_gives_shared_ray():
    mirrored = RationalCone(2, ((-1, 0), (0, 1)))
    assert intersect(QUADRANT, mirrored) == VERTICAL_RAY


def test_intersect_is_idempotent():
    assert intersect(SLANTED, SLANTED) == SLANTED


def test_intersect_opposite_half_planes_gives_line():
    lower = RationalCone(2, ((1, 0), (-1, 0), (0, -1)))
    assert intersect(UPPER_HALF_PLANE, lower) == X_AXIS_LINE


def test_is_face_of():
    x_ray = RationalCone(2, ((1, 0),))
    assert is_face_of(x_ray, QUADRANT)
    assert is_face_of(QUADRANT, QUADRANT)
    assert is_face_of(ORIGIN_2D, QUADRANT)
    diagonal = RationalCone(2, ((1, 1),))
    assert not is_face_of(diagonal, QUADRANT)
    assert not is_face_of(VERTICAL_RAY, UPPER_HALF_PLANE)


# ---------------------------------------------------------------------------
# Properties on a random corpus
# ---------------------------------------------------------------------------

def generating_vectors(c):
    return c.rays + c.lineality + tuple(tuple(-x for x in v) for v in c.lineality)


def same_member_set(a, b):
    return all(contains(b, v) for v in generating_vectors(a)) and all(
        contains(a, v) for v in generating_vectors(b)
    )


def test_duality_is_an_involution_on_random_cones():
    rng = random.Random(2024)
    for _ in range(60):
        c = random_cone(rng, rng.randint(1, 4))
        dd = dual_cone(dual_cone(c))
        assert same_member_set(c, dd)
        assert dd == c  # canonical forms agree, not just member sets


def test_cone_dimension_plus_dual_lineality_dimension_is_ambient_rank():
    rng = random.Random(77)
    for _ in range(60):
        rank = rng.randint(1, 4)
        c = random_cone(rng, rank)
        assert dim(c) + len(dual_cone(c).lineality) == rank


def test_generators_lie_in_their_own_cone():
    rng = random.Random(5)
    for _ in range(40):
        c = random_cone(rng, rng.randint(1, 4))
        for v in generating_vectors(c):
            assert contains(c, v)


def test_dual_generators_pair_nonnegatively_with_primal_generators():
    rng = random.Random(6)
    for _ in range(40):
        c = random_cone(rng, rng.randint(1, 4))
        d = dual_cone(c)
        for f in d.rays:
            for v in generating_vectors(c):
                assert sum(a * b for a, b in zip(f, v)) >= 0
        for l in d.lineality:
            for v in generating_vectors(c):
                assert sum(a * b for a, b in zip(l, v)) == 0


def test_faces_are_closed_under_intersection_and_nesting():
    rng = random.Random(8)
    for _ in range(15):
        c = random_cone(rng, rng.randint(1, 3))
        fs = faces(c)
        face_set = set(fs)
        for f in fs:
            assert is_face_of(f, c)
            assert set(faces(f)) <= face_set
        for f, g in itertools.combinations(fs, 2):
            assert intersect(f, g) in face_set


# ---------------------------------------------------------------------------
# Independent membership oracle (Caratheodory over Fractions)
# ---------------------------------------------------------------------------

def solve_nonneg_combination(subset, v):
    """Solve sum(l_i * s_i) == v by Gaussian elimination over Fractions.

    Returns the coefficient list when the subset is linearly independent, the
    system is consistent, and all coefficients are nonnegative; else None.
    """
    d = len(v)
    k = len(subset)
    rows = [
        [Fraction(subset[j][i]) for j in range(k)] + [Fraction(v[i])]
        for i in range(d)
    ]
    r = 0
    for c in range(k):
        pr = next((i for i in range(r, d) if rows[i][c]), None)
        if pr is None:
            return None  # dependent subset; a smaller subset will cover it
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(d):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    if any(rows[i][k] for i in range(r, d)):
        return None
    lam = [rows[i][k] for i in range(r)]
    return lam if all(x >= 0 for x in lam) else None


def membership_oracle(c, v):
    # Caratheodory: v lies in the cone iff some linearly independent subset of
    # the generators expresses it with nonnegative coefficients.
    gens = generating_vectors(c)
    if not any(v):
        return True
    for k in range(1, c.ambient_rank + 1):
        for subset in itertools.combinations(gens, k):
            if solve_nonneg_combination(subset, v) is not None:
                return True
    return False


def test_contains_matches_certificate_search():
    rng = random.Random(99)
    for _ in range(25):
        rank = rng.randint(1, 3)
        c = random_cone(rng, rank)
        # A guaranteed-inside point: random nonnegative generator combination.
        gens = generating_vectors(c)
        coeffs = [rng.randint(0, 3) for _ in gens]
        inside = tuple(
            sum(k * g[i] for k, g in zip(coeffs, gens)) for i in range(rank)
        )
        assert contains(c, inside)
        assert membership_oracle(c, inside)
        for _ in range(8):
            v = tuple(rng.randint(-6, 6) for _ in range(rank))
            assert contains(c, v) == membership_oracle(c, v)
