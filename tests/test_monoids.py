"""Toric monoids: membership, faces, saturation, localization, ghosts.

Non-trivial expected values carry their derivations inline.  The membership
property test is backed by a meet-in-the-middle coefficient enumeration that
shares no code with the library.
"""

import itertools
import random

import pytest

from conftest import random_monoid
from torolog.cones import RationalCone, faces as cone_faces, is_face_of
from torolog.lattice import pairing
from torolog.monoids import (
    ToricMonoid,
    edge,
    exponent_cone,
    faces,
    ghost,
    gp,
    hilbert_basis,
    is_saturated,
    localize,
    membership,
    monoid_equal,
    prime_ideals,
    saturate,
    saturation_membership,
    weight_cone,
)

NN2 = ToricMonoid(2, ((1, 0), (0, 1)))
Z_CROSS_N = ToricMonoid(2, ((1, 0), (-1, 0), (0, 1)))
Z2 = ToricMonoid(2, ((1, 0), (-1, 0), (0, 1), (0, -1)))
NUMERICAL = ToricMonoid(1, ((2,), (3,)))  # the numerical monoid <2,3>
# Saturation index 2 along the x-axis: (1,0) has a double in the monoid but
# is not a member itself.
TORSION = ToricMonoid(2, ((2, 0), (0, 1), (1, 1)))


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

def test_generators_are_deduplicated_sorted_and_zero_free():
    g = ToricMonoid(2, ((0, 1), (1, 0), (0, 0), (0, 1)))
    assert g.generators == ((0, 1), (1, 0))


def test_generator_length_mismatch_raises():
    with pytest.raises(ValueError):
        ToricMonoid(2, ((1, 0, 0),))


def test_negative_ambient_rank_raises():
    with pytest.raises(ValueError, match="negative"):
        ToricMonoid(-1, ())


def test_structural_equality_and_hash():
    assert ToricMonoid(2, ((1, 0), (0, 1))) == NN2
    assert hash(ToricMonoid(2, ((1, 0), (0, 1)))) == hash(NN2)
    assert ToricMonoid(2, ((1, 0),)) != NN2


# ---------------------------------------------------------------------------
# Membership
# ---------------------------------------------------------------------------

def witness_is_valid(g, m, coeffs):
    assert len(coeffs) == len(g.generators)
    assert all(a >= 0 for a in coeffs)
    combined = tuple(
        sum(a * v[i] for a, v in zip(coeffs, g.generators))
        for i in range(g.ambient_rank)
    )
    return combined == tuple(m)


def test_membership_of_seven_in_numerical_monoid():
    w = membership(NUMERICAL, (7,))  # 7 = 2+2+3
    assert w is not None
    assert witness_is_valid(NUMERICAL, (7,), w)


def test_one_is_not_in_numerical_monoid():
    assert membership(NUMERICAL, (1,)) is None
    assert membership(NUMERICAL, (-2,)) is None


def test_zero_is_always_a_member():
    assert membership(NUMERICAL, (0,)) == (0, 0)
    assert membership(TORSION, (0, 0)) == (0, 0, 0)


def test_membership_with_units():
    w = membership(Z_CROSS_N, (-5, 2))
    assert w is not None
    assert witness_is_valid(Z_CROSS_N, (-5, 2), w)
    assert membership(Z_CROSS_N, (3, -1)) is None


def test_membership_on_torsion_monoid():
    # (1,0): 2a+c=1 and b+c=0 force c=0, 2a=1 — impossible.
    assert membership(TORSION, (1, 0)) is None
    w = membership(TORSION, (3, 1))  # (2,0)+(1,1)
    assert w is not None
    assert witness_is_valid(TORSION, (3, 1), w)


def test_membership_is_deterministic():
    assert membership(NUMERICAL, (12,)) == membership(NUMERICAL, (12,))


def test_membership_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        membership(NN2, (1, 2, 3))


def test_membership_witnesses_on_random_combinations():
    rng = random.Random(41)
    for _ in range(40):
        rank = rng.randint(1, 3)
        g = random_monoid(rng, rank)
        coeffs = [rng.randint(0, 3) for _ in g.generators]
        m = tuple(
            sum(a * v[i] for a, v in zip(coeffs, g.generators))
            for i in range(rank)
        )
        w = membership(g, m)
        assert w is not None
        assert witness_is_valid(g, m, w)


def brute_force_membership(generators, m, bound=12):
    """Meet-in-the-middle enumeration of all coefficient vectors <= bound."""
    half = len(generators) // 2
    left, right = generators[:half], generators[half:]
    d = len(m)

    def sums(vecs):
        table = {}
        ranges = [range(bound + 1)] * len(vecs)
        for coeffs in itertools.product(*ranges):
            p = tuple(
                sum(a * v[i] for a, v in zip(coeffs, vecs)) for i in range(d)
            )
            table.setdefault(p, coeffs)
        return table

    left_sums = sums(left)
    for p, coeffs in sums(right).items():
        rest = tuple(mi - pi for mi, pi in zip(m, p))
        if rest in left_sums:
            return left_sums[rest] + coeffs
    return None


def test_membership_matches_brute_force_enumeration():
    rng = random.Random(4242)
    for _ in range(60):
        rank = rng.randint(1, 3)
        g = random_monoid(rng, rank, allow_units=False)
        m = tuple(rng.randint(-6, 6) for _ in range(rank))
        expected = brute_force_membership(g.generators, m)
        got = membership(g, m)
        if expected is not None:
            assert got is not None
            assert witness_is_valid(g, m, got)
        else:
            assert got is None


# ---------------------------------------------------------------------------
# Group generated, cones
# ---------------------------------------------------------------------------

def test_gp_of_numerical_monoid_is_all_integers():
    assert gp(NUMERICAL) == ((1,),)


def test_gp_of_torsion_monoid_is_full_lattice():
    # (1,1)-(0,1) = (1,0), so the group contains both basis vectors.
    assert gp(TORSION) == ((1, 0), (0, 1))


def test_gp_of_quadrant_monoid():
    assert gp(NN2) == ((1, 0), (0, 1))


def test_gp_of_flat_monoid_is_rank_one():
    g = ToricMonoid(2, ((2, 0), (3, 0)))
    assert gp(g) == ((1, 0),)


def test_exponent_cones():
    assert exponent_cone(NN2) == RationalCone(2, ((1, 0), (0, 1)))
    assert exponent_cone(NUMERICAL) == RationalCone(1, ((1,),))
    assert exponent_cone(Z_CROSS_N) == RationalCone(2, ((1, 0), (-1, 0), (0, 1)))


def test_weight_cones():
    assert weight_cone(NN2) == RationalCone(2, ((1, 0), (0, 1)))
    assert weight_cone(Z2) == RationalCone(2, ())
    assert weight_cone(Z_CROSS_N) == RationalCone(2, ((0, 1),))


# ---------------------------------------------------------------------------
# Edge, faces, prime ideals
# ---------------------------------------------------------------------------

def test_edge_of_sharp_monoid_is_trivial():
    e = edge(NN2)
    assert e.generator_indices == ()
    assert e.monoid.generators == ()


def test_edge_of_half_open_monoid_is_the_unit_line():
    e = edge(Z_CROSS_N)
    # Generators are sorted: (-1,0), (0,1), (1,0); the units are the x-axis pair.
    assert e.generator_indices == (0, 2)
    assert monoid_equal(e.monoid, ToricMonoid(2, ((1, 0), (-1, 0))))


def test_edge_of_group_is_everything():
    assert edge(Z2).generator_indices == (0, 1, 2, 3)


def test_faces_of_quadrant_monoid():
    fs = faces(NN2)
    assert [f.generator_indices for f in fs] == [(), (0,), (1,), (0, 1)]
    assert fs[0].monoid.generators == ()
    assert fs[1].monoid.generators == ((0, 1),)
    assert fs[2].monoid.generators == ((1, 0),)
    assert fs[3].monoid == NN2


def test_faces_of_numerical_monoid():
    fs = faces(NUMERICAL)
    assert len(fs) == 2
    assert fs[0].generator_indices == ()
    assert fs[1].generator_indices == (0, 1)


def test_group_has_one_face():
    assert len(faces(Z2)) == 1


def test_faces_of_torsion_monoid():
    fs = faces(TORSION)
    # Generators sorted: (0,1), (1,1), (2,0).  The x-axis face holds (2,0)
    # only; the y-axis face holds (0,1); (1,1) is interior.
    assert [f.generator_indices for f in fs] == [(), (0,), (2,), (0, 1, 2)]


def test_first_face_is_the_edge():
    rng = random.Random(13)
    for _ in range(20):
        g = random_monoid(rng, rng.randint(1, 3))
        assert faces(g)[0] == edge(g)


def test_face_count_matches_cone_face_count():
    rng = random.Random(14)
    for _ in range(20):
        g = random_monoid(rng, rng.randint(1, 3))
        assert len(faces(g)) == len(cone_faces(exponent_cone(g)))


def test_weight_cone_faces_biject_with_monoid_faces_reversing_order():
    rng = random.Random(15)
    for _ in range(15):
        g = random_monoid(rng, rng.randint(1, 3))
        labels = {f.generator_indices for f in faces(g)}
        seen = {}
        for tau in cone_faces(weight_cone(g)):
            perp = tuple(
                i
                for i, v in enumerate(g.generators)
                if all(pairing(t, v) == 0 for t in tau.generating_vectors())
            )
            assert perp in labels
            seen[tau] = set(perp)
        assert len(seen) == len(labels)
        for t1, t2 in itertools.combinations(seen, 2):
            # Inclusion of weight-cone faces reverses inclusion of labels.
            if is_face_of(t1, t2):
                assert seen[t2] <= seen[t1]
            if is_face_of(t2, t1):
                assert seen[t1] <= seen[t2]


def test_prime_ideals_of_quadrant():
    ps = prime_ideals(NN2)
    assert len(ps) == 4
    by_face = {p.face.generator_indices: p.complement_indices for p in ps}
    assert by_face[(0, 1)] == ()  # complement of the whole monoid: empty ideal
    assert by_face[()] == (0, 1)  # maximal ideal: everything off the edge
    assert by_face[(0,)] == (1,)


def test_prime_ideal_counts():
    assert len(prime_ideals(Z2)) == 1
    assert len(prime_ideals(NUMERICAL)) == 2


# ---------------------------------------------------------------------------
# Saturation
# ---------------------------------------------------------------------------

def test_saturation_membership_in_numerical_monoid():
    assert saturation_membership(NUMERICAL, (1,))
    assert not saturation_membership(NUMERICAL, (-1,))


def test_saturation_membership_respects_the_group():
    # (1,0) is in the group and the cone of TORSION even though 2a+c=1 has
    # no solution in the monoid itself.
    assert saturation_membership(TORSION, (1, 0))
    assert membership(TORSION, (1, 0)) is None
    # (1,1) with a half: outside the group? (1,2) is inside cone and group.
    assert saturation_membership(TORSION, (1, 2))


def test_hilbert_basis_of_slanted_cone():
    # Lattice points of the fundamental parallelepiped of (1,0),(1,2) are
    # (0,0),(1,1) up to the generators; the minimal generating set is the
    # two rays plus the interior point (1,1).
    c = RationalCone(2, ((1, 0), (1, 2)))
    assert hilbert_basis(c) == ((1, 0), (1, 1), (1, 2))


def test_hilbert_basis_of_quadrant():
    assert hilbert_basis(RationalCone(2, ((1, 0), (0, 1)))) == ((0, 1), (1, 0))


def test_hilbert_basis_of_ray():
    assert hilbert_basis(RationalCone(1, ((1,),))) == ((1,),)
    assert hilbert_basis(RationalCone(1, ((3,),))) == ((1,),)


def test_hilbert_basis_of_half_plane_includes_unit_pair():
    c = RationalCone(2, ((1, 0), (-1, 0), (0, 1)))
    hb = hilbert_basis(c)
    assert set(hb) == {(1, 0), (-1, 0), (0, 1)}


def test_hilbert_basis_elements_are_irreducible():
    rng = random.Random(17)
    for _ in range(15):
        a = (rng.randint(1, 4), rng.randint(0, 3))
        b = (rng.randint(0, 3), rng.randint(1, 4))
        c = RationalCone(2, (a, b))
        hb = hilbert_basis(c)
        for i, v in enumerate(hb):
            others = ToricMonoid(2, hb[:i] + hb[i + 1 :])
            if others.generators:
                assert membership(others, v) is None


def test_saturate_numerical_monoid():
    assert saturate(NUMERICAL) == ToricMonoid(1, ((1,),))


def test_saturate_is_identity_on_quadrant():
    assert saturate(NN2) == NN2


def test_saturate_torsion_monoid_fills_the_quadrant():
    assert saturate(TORSION) == NN2


def test_saturate_flat_monoid_uses_its_own_group():
    # <(2,0),(3,0)> generates the rank-one group Z(1,0); its saturation is
    # the ray monoid on that axis, not anything of rank two.
    g = ToricMonoid(2, ((2, 0), (3, 0)))
    assert saturate(g) == ToricMonoid(2, ((1, 0),))


def test_saturate_monoid_with_units():
    assert monoid_equal(saturate(Z_CROSS_N), Z_CROSS_N)


def test_is_saturated():
    assert is_saturated(NN2)
    assert not is_saturated(NUMERICAL)
    assert is_saturated(Z2)
    assert not is_saturated(TORSION)


def test_saturate_is_idempotent_and_contains_the_monoid():
    rng = random.Random(19)
    for _ in range(15):
        g = random_monoid(rng, rng.randint(1, 3))
        s = saturate(g)
        assert is_saturated(s)
        assert monoid_equal(saturate(s), s)
        for v in g.generators:
            assert saturation_membership(g, v)
            assert membership(s, v) is not None


def test_membership_implies_saturation_membership():
    rng = random.Random(23)
    for _ in range(25):
        rank = rng.randint(1, 3)
        g = random_monoid(rng, rank)
        m = tuple(rng.randint(-5, 5) for _ in range(rank))
        if membership(g, m) is not None:
            assert saturation_membership(g, m)


# ---------------------------------------------------------------------------
# Localization
# ---------------------------------------------------------------------------

def test_localize_quadrant_at_axis_face():
    fs = faces(NN2)
    at_x_axis = fs[2]  # the face holding (1,0)
    assert monoid_equal(localize(NN2, at_x_axis), Z_CROSS_N)
    at_y_axis = fs[1]
    assert monoid_equal(
        localize(NN2, at_y_axis), ToricMonoid(2, ((1, 0), (0, 1), (0, -1)))
    )


def test_localize_at_edge_is_identity():
    assert monoid_equal(localize(NN2, edge(NN2)), NN2)


def test_localize_at_whole_monoid_gives_the_group():
    assert monoid_equal(localize(NN2, faces(NN2)[-1]), Z2)


def test_localize_rejects_foreign_faces():
    # The face <(2,0)> at index 2 belongs to TORSION, not to the quadrant.
    with pytest.raises(ValueError):
        localize(NN2, faces(TORSION)[2])


# ---------------------------------------------------------------------------
# Ghosts
# ---------------------------------------------------------------------------

def test_ghost_of_ray_monoid_at_origin():
    n = ToricMonoid(1, ((1,),))
    rep = ghost(n, edge(n))
    assert rep.invariants.rank == 1
    assert rep.invariants.torsion == ()


def test_ghost_at_whole_monoid_is_trivial():
    rep = ghost(NN2, faces(NN2)[-1])
    assert rep.invariants.rank == 0
    assert rep.invariants.torsion == ()


def test_ghost_of_torsion_monoid_at_x_axis_face():
    f = faces(TORSION)[2]  # the face holding (2,0)
    rep = ghost(TORSION, f)
    assert rep.invariants.rank == 1
    assert rep.invariants.torsion == (2,)


def test_ghost_rank_splits_the_ambient_group_rank():
    rng = random.Random(29)
    for _ in range(15):
        g = random_monoid(rng, rng.randint(1, 3))
        total = len(gp(g))
        for f in faces(g):
            rep = ghost(g, f)
            assert rep.invariants.rank + len(gp(f.monoid)) == total


def test_ghosts_of_saturated_monoids_are_torsion_free():
    rng = random.Random(31)
    seen = 0
    while seen < 20:
        g = saturate(random_monoid(rng, rng.randint(1, 3)))
        seen += 1
        for f in faces(g):
            assert ghost(g, f).invariants.torsion == ()


def test_ghost_sharp_generator_images_have_expected_shape():
    f = faces(TORSION)[2]
    rep = ghost(TORSION, f)
    assert len(rep.sharp_generators) == len(TORSION.generators)
    for free, tors in rep.sharp_generators:
        assert len(free) == rep.invariants.rank
        assert len(tors) == len(rep.invariants.torsion)
    # The units (face generators) map to zero.
    for i in f.generator_indices:
        free, tors = rep.sharp_generators[i]
        assert not any(free) and not any(tors)


# ---------------------------------------------------------------------------
# Monoid equality
# ---------------------------------------------------------------------------

def test_monoid_equal_ignores_redundant_generators():
    assert monoid_equal(NN2, ToricMonoid(2, ((1, 0), (0, 1), (1, 1))))


def test_monoid_equal_distinguishes_different_monoids():
    assert not monoid_equal(NN2, Z_CROSS_N)


def test_monoid_equal_is_reflexive():
    assert monoid_equal(TORSION, TORSION)


def test_package_level_faces_dispatches_on_argument_type():
    import torolog

    assert torolog.faces(NN2) == faces(NN2)
    cone = weight_cone(NN2)
    assert torolog.faces(cone) == cone_faces(cone)
    with pytest.raises(TypeError):
        torolog.faces((1, 2))
