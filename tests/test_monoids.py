"""Toric monoids: membership, faces, saturation, localization, ghosts.

Non-trivial expected values carry their derivations inline.  The membership
property test is backed by a meet-in-the-middle coefficient enumeration that
shares no code with the library.
"""

import itertools
import random

import pytest

from conftest import edge, random_monoid
from torolog.cones import (
    RationalCone,
    _dual_description,
    contains,
    dual_cone,
)
from torolog.cones import faces as cone_faces
from torolog.lattice import (
    AbelianGroupInvariants,
    mat_vec,
    pairing,
    snf,
    solve_integer,
    transpose,
)
from torolog.monoids import (
    MonoidFace,
    ToricMonoid,
    _face_with_indices,
    _generator_coordinates,
    _gp_matrix,
    _parallelepiped,
    _require_face,
    _splitting,
    _triangulation,
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


def test_a_non_integral_ambient_rank_is_refused():
    with pytest.raises(ValueError, match=r"^2\.5 is not an integer$"):
        ToricMonoid(2.5, ())
    assert ToricMonoid(2.0, [(1, 0)]).ambient_rank == 2


def test_a_non_integral_generator_entry_is_refused():
    # int() would truncate 1.5 to 1; exact conversions are still read.
    with pytest.raises(ValueError, match=r"^1\.5 is not an integer$"):
        ToricMonoid(1, [(1.5,)])
    assert ToricMonoid(2, [(2.0, "3")]).generators == ((2, 3),)


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


def test_membership_refuses_a_non_integral_point():
    # Truncating 5.9 would certify 5 = 2 + 3 instead.
    with pytest.raises(ValueError, match=r"^5\.9 is not an integer$"):
        membership(NUMERICAL, (5.9,))
    assert membership(NUMERICAL, (5.0,)) == membership(NUMERICAL, (5,))


def membership_by_dict_search(g, m):
    """The membership search that collects the sharp coefficients in a dict
    on the way back up and assembles the witness in a second pass.  The
    in-place search must return the same witness."""
    m = tuple(int(x) for x in m)
    n = len(g.generators)
    if not any(m):
        return (0,) * n
    if not g.generators:
        return None
    if not contains(exponent_cone(g), m):
        return None
    if solve_integer(_gp_matrix(g), m) is None:
        return None
    unit_idx, sharp_idx, w, unit_columns, relieve = _splitting(g)
    sharp = [(i, g.generators[i], pairing(w, g.generators[i])) for i in sharp_idx]
    failed = set()

    def unit_part(rem):
        if not unit_idx:
            return () if not any(rem) else None
        c = solve_integer(unit_columns, rem)
        if c is None:
            return None
        shift = 0
        for ci, zi in zip(c, relieve):
            if ci < 0:
                shift = max(shift, (-ci + zi - 1) // zi)
        return tuple(ci + shift * zi for ci, zi in zip(c, relieve))

    def search(pos, rem, rem_budget):
        if pos == len(sharp):
            if rem_budget != 0:
                return None
            uc = unit_part(rem)
            return None if uc is None else ({}, uc)
        key = (pos, rem)
        if key in failed:
            return None
        _, vec, wv = sharp[pos]
        for a in range(rem_budget // wv + 1):
            nxt = tuple(r - a * x for r, x in zip(rem, vec))
            found = search(pos + 1, nxt, rem_budget - a * wv)
            if found is not None:
                found[0][sharp[pos][0]] = a
                return found
        failed.add(key)
        return None

    found = search(0, m, pairing(w, m))
    if found is None:
        return None
    witness = [0] * n
    for i, a in found[0].items():
        witness[i] = a
    for i, a in zip(unit_idx, found[1]):
        witness[i] = a
    return tuple(witness)


def test_membership_witnesses_equal_the_dict_search():
    rng = random.Random(5)
    corpus = [random_monoid(rng, rng.randint(1, 4)) for _ in range(120)]
    corpus += unpaired_unit_monoids(rng, 80) + paired_unit_monoids(rng, 30)
    found = 0
    for g in corpus:
        points = [tuple(rng.randint(-7, 7) for _ in range(g.ambient_rank))
                  for _ in range(3)]
        coeffs = [rng.randint(0, 3) for _ in g.generators]
        points.append(mat_vec(transpose(g.generators), coeffs))
        for m in points:
            w = membership(g, m)
            assert w == membership_by_dict_search(g, m)
            found += w is not None
    assert found >= 300


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


def test_relieve_is_a_strictly_positive_relation_among_the_units():
    # membership shifts unit coefficients by multiples of relieve, so it must
    # be strictly positive and sum the unit generators to zero.
    rng = random.Random(61)
    corpus = [Z2, ToricMonoid(3, ((1, 0, 0), (0, 1, 0), (-1, -1, 0),
                                  (2, 3, 0), (0, 0, 1)))]
    corpus += [random_monoid(rng, rng.randint(1, 4)) for _ in range(200)]
    corpus += unpaired_unit_monoids(rng, 100)
    with_units = unpaired = 0
    for g in corpus:
        unit_idx, _, _, _, relieve = _splitting(g)
        if not unit_idx:
            assert relieve is None
            continue
        with_units += 1
        assert len(relieve) == len(unit_idx)
        assert all(z > 0 for z in relieve)
        units = [g.generators[i] for i in unit_idx]
        assert all(
            sum(z * u[i] for z, u in zip(relieve, units)) == 0
            for i in range(g.ambient_rank)
        )
        if any(tuple(-x for x in u) not in units for u in units):
            # Read from one dual cone, relieve sums the same extreme rays
            # as the oracle's double description pass.
            unpaired += 1
            assert relieve == tuple(map(sum, zip(*circuit_rays(units))))
    assert with_units >= 150 and unpaired >= 100


def circuit_rays(units):
    """The extreme rays of {x >= 0 : sum(x_j * unit_j) == 0}, the positive
    circuits of the units, from one double-description pass.  Their sum is
    the ``relieve`` of a chart whose units do not come in pairs."""
    n = len(units)
    columns = [tuple(u[i] for u in units) for i in range(len(units[0]))]
    _, rays = _dual_description(
        n,
        [tuple(int(i == j) for j in range(n)) for i in range(n)]
        + columns + [tuple(-x for x in c) for c in columns],
    )
    return rays


def paired_unit_monoids(rng, count):
    """Seeded monoids whose unit generators come in pairs u, -u."""
    out = []
    while len(out) < count:
        rank = rng.randint(1, 4)
        gens = list(random_monoid(rng, rank, allow_units=False).generators)
        for _ in range(rng.randint(1, rank)):
            v = tuple(rng.randint(-3, 3) for _ in range(rank))
            gens += [v, tuple(-x for x in v)]
        g = ToricMonoid(rank, gens)
        units = {g.generators[i] for i in _splitting(g)[0]}
        if units and all(tuple(-x for x in u) in units for u in units):
            out.append(g)
    return out


def unpaired_unit_monoids(rng, count):
    """Seeded monoids with a unit whose negative is not a generator."""
    out = []
    while len(out) < count:
        rank = rng.randint(1, 4)
        g = ToricMonoid(rank, [
            tuple(rng.randint(-3, 3) for _ in range(rank))
            for _ in range(rng.randint(2, rank + 4))
        ])
        units = {g.generators[i] for i in _splitting(g)[0]}
        if any(tuple(-x for x in u) not in units for u in units):
            out.append(g)
    return out


def test_paired_units_relieve_by_their_pair_relations():
    # Each pair relation e_j + e_k, for unit_k = -unit_j, is a circuit of
    # the units, so it is among the oracle's rays; relieve is their sum.
    rng = random.Random(67)
    for g in paired_unit_monoids(rng, 60):
        unit_idx, _, _, _, relieve = _splitting(g)
        units = [g.generators[i] for i in unit_idx]
        n = len(units)
        assert relieve == (1,) * n
        assert all(
            sum(z * u[i] for z, u in zip(relieve, units)) == 0
            for i in range(g.ambient_rank)
        )
        pairs = {
            tuple(int(k in (j, units.index(tuple(-x for x in u))))
                  for k in range(n))
            for j, u in enumerate(units)
        }
        assert pairs <= set(circuit_rays(units))
        assert relieve == tuple(map(sum, zip(*pairs)))
        coeffs = [rng.randint(0, 3) for _ in g.generators]
        m = mat_vec(transpose(g.generators), coeffs)
        assert witness_is_valid(g, m, membership(g, m))


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


def edge_by_negatives(g):
    """The edge's generator indices by definition: the generators whose
    negatives lie in the exponent cone."""
    cone = exponent_cone(g)
    return tuple(
        i for i, v in enumerate(g.generators)
        if contains(cone, tuple(-x for x in v))
    )


def test_first_face_is_the_edge():
    rng = random.Random(13)
    with_units = 0
    for _ in range(600):
        g = random_monoid(rng, rng.randint(1, 4))
        idx = edge_by_negatives(g)
        with_units += bool(idx)
        e = faces(g)[0]
        assert e == edge(g)
        assert e.generator_indices == idx
        assert e.monoid.generators == tuple(g.generators[i] for i in idx)
    assert with_units >= 150


def test_face_count_matches_cone_face_count():
    rng = random.Random(14)
    for _ in range(20):
        g = random_monoid(rng, rng.randint(1, 3))
        assert len(faces(g)) == len(cone_faces(exponent_cone(g)))


def test_faces_match_the_pairing_of_each_face_with_every_normal():
    # The oracle pairs each face's rays, then each generator, with every
    # facet normal, where ``faces`` pairs each ray and generator once.
    rng = random.Random(16)
    with_units = 0
    for _ in range(300):
        g = random_monoid(rng, rng.randint(1, 4))
        cone = exponent_cone(g)
        normals = weight_cone(g).rays
        with_units += bool(cone.lineality)
        expected = []
        for f in cone_faces(cone):
            tight = [n for n in normals
                     if not any(pairing(n, r) for r in f.rays)]
            expected.append(tuple(
                i for i, v in enumerate(g.generators)
                if not any(pairing(n, v) for n in tight)
            ))
        assert [f.generator_indices for f in faces(g)] == expected
        assert all(
            f.monoid.generators == tuple(g.generators[i] for i in idx)
            for f, idx in zip(faces(g), expected)
        )
    assert with_units >= 50


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
            if t1 in cone_faces(t2):
                assert seen[t2] <= seen[t1]
            if t2 in cone_faces(t1):
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
    # (1,2) is inside cone and group.
    assert saturation_membership(TORSION, (1, 2))
    # (1,0) is inside the cone of 2N x N but outside its group 2Z x Z.
    assert not saturation_membership(ToricMonoid(2, ((2, 0), (0, 1))), (1, 0))


def test_saturation_membership_refuses_a_point_of_another_rank():
    with pytest.raises(ValueError, match=r"^point \(1, 2\) does not have length 1$"):
        saturation_membership(NUMERICAL, (1, 2))


def test_saturation_membership_refuses_a_non_integral_point():
    # Truncating 0.5 to 0 would answer True.
    with pytest.raises(ValueError, match=r"^0\.5 is not an integer$"):
        saturation_membership(ToricMonoid(1, ((1,),)), (0.5,))


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


def _box_points(lo, hi):
    ranges = [range(a, b + 1) for a, b in zip(lo, hi)]
    return itertools.product(*ranges)


def _representable(x, basis, weights, wx):
    """Whether ``x`` is a nonnegative integer combination of ``basis``."""
    memo = {}

    def rec(v, wv):
        if wv == 0:
            return not any(v)
        if v in memo:
            return memo[v]
        memo[v] = False
        for b, wb in zip(basis, weights):
            if wb <= wv and rec(tuple(a - c for a, c in zip(v, b)), wv - wb):
                memo[v] = True
                break
        return memo[v]

    return rec(tuple(x), wx)


def box_hilbert_basis(cone):
    """Oracle for sharp cones: every point of the rays' bounding box that the
    cone contains, scanned by a functional positive on the cone and kept
    unless a search finds it a combination of the points kept before."""
    d = cone.ambient_rank
    rays = cone.rays
    if not rays:
        return ()
    lo = [sum(min(0, r[i]) for r in rays) for i in range(d)]
    hi = [sum(max(0, r[i]) for r in rays) for i in range(d)]
    w = tuple(sum(r[i] for r in dual_cone(cone).rays) for i in range(d))
    candidates = [p for p in _box_points(lo, hi) if any(p) and contains(cone, p)]
    candidates.sort(key=lambda p: (pairing(w, p), p))
    accepted, weights = [], []
    for x in candidates:
        if not _representable(x, accepted, weights, pairing(w, x)):
            accepted.append(x)
            weights.append(pairing(w, x))
    return tuple(sorted(accepted))


# Entry bounds by rank that keep the box oracle within seconds.
ORACLE_BOUNDS = {1: 4, 2: 4, 3: 2, 4: 1}


def seeded_cones(seed, count, sharp=False):
    """Cones of ranks 1-4 with entries within ``ORACLE_BOUNDS``; about a
    quarter of them with a line unless ``sharp``."""
    rng = random.Random(seed)
    cones = []
    while len(cones) < count:
        d = rng.randint(1, 4)
        b = ORACLE_BOUNDS[d]
        gens = [
            tuple(rng.randint(-b, b) for _ in range(d))
            for _ in range(rng.randint(1, d + 2))
        ]
        if rng.random() < 0.25:
            gens.append(tuple(-x for x in gens[0]))
        c = RationalCone(d, gens)
        if not (sharp and c.lineality):
            cones.append(c)
    return cones


def test_hilbert_basis_matches_the_box_oracle():
    # With lineality the basis is compared modulo units: in the coordinates
    # of the Smith form of the lineality columns the units are the first
    # coordinates, and what is left must be the oracle's basis of the image.
    lines = 0
    for c in seeded_cones(83, 120):
        hb = hilbert_basis(c)
        assert all(contains(c, x) for x in hb)
        if not c.lineality:
            assert hb == box_hilbert_basis(c), c
            continue
        lines += 1
        ell, d = len(c.lineality), c.ambient_rank
        units = {v for b in c.lineality for v in (b, tuple(-x for x in b))}
        _, u, _ = snf(transpose(c.lineality))
        image = RationalCone(d - ell, [mat_vec(u, r)[ell:] for r in c.rays])
        expected = box_hilbert_basis(image)
        assert units <= set(hb)
        assert len(hb) == len(units) + len(expected), c
        assert {mat_vec(u, x)[ell:] for x in set(hb) - units} == set(expected)
    assert lines >= 20


def test_hilbert_basis_of_a_mirrored_cone_is_the_mirrored_basis():
    # Sharp cones only: with a line each element is fixed only up to units.
    def mirror(v, i):
        return tuple(-x if j == i else x for j, x in enumerate(v))

    for c in seeded_cones(89, 60, sharp=True):
        hb = hilbert_basis(c)
        for i in range(c.ambient_rank):
            flipped = RationalCone(c.ambient_rank, [mirror(r, i) for r in c.rays])
            assert hilbert_basis(flipped) == tuple(sorted(mirror(x, i) for x in hb))


def full_scan_hilbert_basis(cone):
    """Oracle for sharp cones: the same candidates as ``hilbert_basis``, each
    tested against every point kept before it, whatever its degree."""
    if not cone.rays:
        return ()
    w = tuple(map(sum, zip(*dual_cone(cone).rays)))
    candidates = set(cone.rays).union(
        *map(_parallelepiped, _triangulation(cone))
    )
    candidates.discard((0,) * cone.ambient_rank)
    accepted = []
    for x in sorted(candidates, key=lambda p: (pairing(w, p), p)):
        if not any(
            contains(cone, tuple(a - b for a, b in zip(x, y)))
            for y in accepted
        ):
            accepted.append(x)
    return tuple(sorted(accepted))


def test_hilbert_basis_matches_the_full_scan_oracle():
    # Seeded sharp cones of ranks 2-4, and thin cones whose large bases are
    # where the degree bound skips the most tests.
    rng = random.Random(97)
    corpus = []
    while len(corpus) < 150:
        d = rng.randint(2, 4)
        b = {2: 9, 3: 6, 4: 3}[d]
        gens = [
            tuple(rng.randint(-b, b) for _ in range(d))
            for _ in range(rng.randint(d, d + 2))
        ]
        c = RationalCone(d, gens)
        if not c.lineality:
            corpus.append(c)
    for n in (40, 150):
        corpus.append(RationalCone(2, ((0, 1), (n, 1))))
        corpus.append(RationalCone(2, ((0, 1), (n, n - 1))))
        corpus.append(RationalCone(3, ((1, 0, 0), (0, 1, 0), (1, 1, n))))
    sizes = []
    for c in corpus:
        hb = hilbert_basis(c)
        assert hb == full_scan_hilbert_basis(c), c
        sizes.append(len(hb))
    assert max(sizes) > 150 and sum(s >= 20 for s in sizes) >= 10


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


def full_transform_ghost(g, f):
    """Oracle: the invariants and generator images of the ghost, from every
    row of the Smith transform, dropping the rows with Smith entry 1."""
    k = len(gp(g))
    coords = _generator_coordinates(g)
    cols = tuple(
        tuple(coords[j][i] for j in f.generator_indices) for i in range(k)
    )
    s, u, _ = snf(cols)
    diag = [s[i][i] for i in range(min(k, len(f.generator_indices)))]
    nonzero = [i for i, dv in enumerate(diag) if dv != 0]
    torsion_pos = [i for i in nonzero if diag[i] > 1]
    free_pos = [i for i in range(k) if i not in nonzero]
    images = []
    for c in coords:
        y = mat_vec(u, c)
        images.append((
            tuple(y[i] for i in free_pos),
            tuple(y[i] % diag[i] for i in torsion_pos),
        ))
    invariants = AbelianGroupInvariants(
        k - len(nonzero), tuple(diag[i] for i in torsion_pos)
    )
    return invariants, tuple(images)


def test_ghost_matches_the_full_smith_transform():
    rng = random.Random(1919)
    torsion = 0
    for _ in range(60):
        g = random_monoid(rng, rng.randint(1, 4))
        for f in faces(g):
            rep = ghost(g, f)
            assert (rep.invariants, rep.sharp_generators) == (
                full_transform_ghost(g, f)
            )
            torsion += bool(rep.invariants.torsion)
    assert torsion >= 20


# ---------------------------------------------------------------------------
# Face lookup
# ---------------------------------------------------------------------------

def scan_face_with_indices(g, indices):
    """Oracle: the face with exactly these generator indices, found by a
    linear scan of the faces."""
    for face in faces(g):
        if face.generator_indices == indices:
            return face
    return None


def test_face_lookup_matches_a_linear_scan_of_the_faces():
    rng = random.Random(2121)
    with_units = misses = foreign = 0
    for _ in range(80):
        g = random_monoid(rng, rng.randint(1, 4))
        with_units += bool(exponent_cone(g).lineality)
        n = len(g.generators)
        # Every index subset, in order and reversed, plus one out of range:
        # faces and non-faces alike.
        subsets = [
            idx
            for k in range(n + 1)
            for idx in itertools.combinations(range(n), k)
        ]
        subsets += [idx[::-1] for idx in subsets if len(idx) > 1] + [(n,)]
        for idx in subsets:
            expected = scan_face_with_indices(g, idx)
            assert _face_with_indices(g, idx) == expected
            misses += expected is None
        # The faces of g pass; a face of the doubled monoid has the indices
        # of a face of g but another face monoid, and the faces of a random
        # monoid may share indices with faces of g.
        doubled = ToricMonoid(
            g.ambient_rank, [tuple(2 * x for x in v) for v in g.generators]
        )
        other = random_monoid(rng, g.ambient_rank)
        for f in faces(g) + faces(doubled) + faces(other) + (
            MonoidFace(g, tuple(range(n))[::-1]),
        ):
            if f in faces(g):
                _require_face(g, f)
            else:
                foreign += scan_face_with_indices(g, f.generator_indices) is not None
                with pytest.raises(ValueError, match="is not a face of"):
                    _require_face(g, f)
    assert with_units >= 10 and misses >= 1000 and foreign >= 300


# ---------------------------------------------------------------------------
# Monoid equality
# ---------------------------------------------------------------------------

def test_monoid_equal_ignores_redundant_generators():
    assert monoid_equal(NN2, ToricMonoid(2, ((1, 0), (0, 1), (1, 1))))


def test_monoid_equal_distinguishes_different_monoids():
    assert not monoid_equal(NN2, Z_CROSS_N)
    assert not monoid_equal(NUMERICAL, NN2)


def test_a_monoid_equals_no_value_of_another_type():
    assert NN2 != NN2.generators
    assert NN2 != (2, NN2.generators)


def test_monoid_equal_is_reflexive():
    assert monoid_equal(TORSION, TORSION)


def mutual_membership(a, b):
    """Oracle: every generator of each monoid searched for in the other."""
    return (
        a.ambient_rank == b.ambient_rank
        and all(membership(a, v) is not None for v in b.generators)
        and all(membership(b, v) is not None for v in a.generators)
    )


def test_monoid_equal_matches_mutual_membership():
    rng = random.Random(4242)
    equal_presentations = unequal = 0
    for _ in range(60):
        g = random_monoid(rng, rng.randint(1, 4))
        d = g.ambient_rank
        pairs = []
        # A redundant generator: the sum of two listed ones.
        u, v = rng.choice(g.generators), rng.choice(g.generators)
        summed = tuple(a + b for a, b in zip(u, v))
        pairs.append((g, ToricMonoid(d, g.generators + (summed,))))
        # A localization of a localization against every one-step
        # localization: exactly one of them is the same monoid.
        loc = localize(g, rng.choice(faces(g)))
        twice = localize(loc, rng.choice(faces(loc)))
        partners = [localize(g, f) for f in faces(g)]
        pairs += [(twice, p) for p in partners]
        for a, b in pairs:
            expected = mutual_membership(a, b)
            assert monoid_equal(a, b) == expected
            assert monoid_equal(b, a) == expected
            equal_presentations += expected and a != b
            unequal += not expected
        assert sum(monoid_equal(twice, p) for p in partners) == 1
    assert equal_presentations >= 30 and unequal >= 30


def test_face_generators_are_those_the_cone_face_contains():
    # Oracle: the old selection, one containment test per generator and face.
    rng = random.Random(1717)
    with_units = 0
    for _ in range(120):
        g = random_monoid(rng, rng.randint(1, 4))
        with_units += bool(exponent_cone(g).lineality)
        expected = [
            tuple(i for i, v in enumerate(g.generators) if contains(f, v))
            for f in cone_faces(exponent_cone(g))
        ]
        assert [f.generator_indices for f in faces(g)] == expected
    assert with_units >= 10


def test_package_level_faces_dispatches_on_argument_type():
    import torolog

    assert torolog.faces(NN2) == faces(NN2)
    cone = weight_cone(NN2)
    assert torolog.faces(cone) == cone_faces(cone)
    with pytest.raises(TypeError):
        torolog.faces((1, 2))
