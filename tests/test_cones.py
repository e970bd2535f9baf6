"""Rational polyhedral cones: canonical form, duality, faces, intersection.

The golden duals in the plane (vertical ray <-> upper half-plane, origin <->
everything, first quadrant self-dual) are classical and re-derived inline;
the slanted examples carry their hand derivations as comments.  The
membership property test is backed by an independent certificate search
(Gaussian elimination over Fractions on small generator subsets) that shares
no code with the library.  The one-pass normal forms are compared with the
two-pass construction they replaced, kept at the end as an oracle, and so
is the dual that every kind of cone reads from the vectors it was built with.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from conftest import lattice_rank, random_cone
from torolog.cones import (
    RationalCone,
    _dual_description,
    contains,
    dim,
    dual_cone,
    faces,
    intersect,
    is_sharp,
)
from torolog.lattice import (
    hnf_basis, kernel_basis, pairing, primitive,
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


def test_a_non_integral_rank_or_entry_is_refused():
    # int() would read rank 2.5 as 2 and the entry 0.5 as 0.
    with pytest.raises(ValueError, match=r"^2\.5 is not an integer$"):
        RationalCone(2.5, ((1, 0),))
    with pytest.raises(ValueError, match=r"^0\.5 is not an integer$"):
        RationalCone(2, ((1, 0.5),))
    assert RationalCone(2.0, (("1", 0.0),)) == RationalCone(2, ((1, 0),))


@pytest.mark.parametrize("call", [
    lambda: intersect(QUADRANT, RationalCone(1, ())),
    lambda: intersect(RationalCone(1, ()), QUADRANT),
])
def test_cones_of_different_ranks_are_refused(call):
    with pytest.raises(ValueError, match="^cones live in different ambient ranks$"):
        call()


def test_cones_are_usable_as_dict_keys():
    d = {QUADRANT: "a", UPPER_HALF_PLANE: "b"}
    assert d[RationalCone(2, ((0, 1), (1, 0)))] == "a"


def test_a_cone_equals_no_value_of_another_type():
    assert QUADRANT != QUADRANT.rays
    assert QUADRANT != (2, QUADRANT.rays, QUADRANT.lineality)


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


def test_dim_matches_the_rank_of_rays_and_lineality():
    # The rank of the rays and lineality basis, which ``dim`` computes only
    # for cones with more than three rays, is the oracle.
    rng = random.Random(17)
    small = {False: 0, True: 0}
    for _ in range(400):
        rank = rng.randint(1, 5)
        c = random_cone(rng, rank)
        if rng.random() < 0.3:
            c = RationalCone(rank, c.generating_vectors() + tuple(
                tuple(rng.randint(-2, 2) for _ in range(rank)) for _ in range(2)
            ) + ((0,) * (rank - 1) + (1,), (0,) * (rank - 1) + (-1,)))
        gens = c.rays + c.lineality
        expected = lattice_rank(
            tuple(tuple(g[i] for g in gens) for i in range(rank))
        ) if gens else 0
        assert dim(c) == expected
        if len(c.rays) <= 3:
            small[bool(c.lineality)] += 1
    assert min(small.values()) >= 50


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


def test_faces_equal_their_rebuild_by_double_description():
    # Oracle: the old construction, each face canonicalized from its rays
    # and both signs of the parent's lineality.
    rng = random.Random(2026)
    with_lineality = 0
    for _ in range(120):
        c = random_cone(rng, rng.randint(1, 4))
        with_lineality += bool(c.lineality)
        lin = c.lineality + tuple(tuple(-x for x in v) for v in c.lineality)
        for f in faces(c):
            rebuilt = RationalCone(c.ambient_rank, f.rays + lin)
            assert f == rebuilt and hash(f) == hash(rebuilt)
    assert with_lineality >= 10


def test_faces_come_in_the_order_of_their_dimensions():
    # Oracle: the order by the rank of each face's rays, computed for every
    # face, which the walk skips where it knows the dimension.
    rng = random.Random(2027)
    line = lambda d: ((0,) * (d - 1) + (1,), (0,) * (d - 1) + (-1,))
    cube = lambda k: list(itertools.product((-1, 1), repeat=k))
    # The cone over a triangle times a square has triangles and squares
    # among its 3-dimensional faces, and neither are facets.
    prism = [(1,) + t + q for t in ((0, 0), (1, 0), (0, 1)) for q in cube(2)]
    corpus = [
        RationalCone(5, [(1,) + v for v in cube(4)]),
        RationalCone(6, [(1,) + v + (0,) for v in cube(4)] + list(line(6))),
        RationalCone(5, prism),
        RationalCone(6, [v + (0,) for v in prism] + list(line(6))),
    ]
    for _ in range(150):
        rank = rng.randint(1, 5)
        gens = [
            tuple(rng.randint(-2, 2) for _ in range(rank))
            for _ in range(rng.randint(1, 2 * rank + 2))
        ]
        if rng.random() < 0.3:
            gens += line(rank)
        corpus.append(RationalCone(rank, gens))
    seen = {False: 0, True: 0}
    for c in corpus:
        fs = faces(c)
        assert fs == tuple(
            sorted(fs, key=lambda f: (dim(f), f.rays, f.lineality))
        )
        # Faces whose dimension the walk has to compute.
        seen[bool(c.lineality)] += sum(
            len(f.rays) > 3 and dim(f) < dim(c) - 1 for f in fs
        )
    assert min(seen.values()) > 0


# ---------------------------------------------------------------------------
# Two-pass oracle: the normal form by double description there and back
# ---------------------------------------------------------------------------

def _neg(v):
    return tuple(-x for x in v)


def _reduce_mod_lineality(v, lin):
    """Canonical representative of a ray modulo the lineality space: the
    projection killing the coordinates at the Hermite pivot rows, rescaled to
    a primitive integer vector.  Returns None if v lies in the space."""
    x = [Fraction(t) for t in v]
    for b in lin:
        p = next(i for i, t in enumerate(b) if t)
        if x[p]:
            coef = x[p] / b[p]
            x = [xi - coef * bi for xi, bi in zip(x, b)]
    if not any(x):
        return None
    den = math.lcm(*(t.denominator for t in x))
    return primitive(tuple(int(t * den) for t in x))


def _canonical_form(d, generators):
    """``(rays, lineality)`` of the cone in Z^d spanned by a tuple of integer
    vectors."""
    gens = []
    for v in generators:
        if len(v) != d:
            raise ValueError("generator length does not match the ambient rank")
        if any(v):
            gens.append(primitive(v))
    # Pass 1: half-space description of the dual; pass 2: back to an extreme
    # generator description of the original cone.
    dlin, drays = _dual_description(d, gens)
    constraints = drays + dlin + [_neg(l) for l in dlin]
    plin, prays = _dual_description(d, constraints)
    if plin:
        orth = kernel_basis(tuple(plin))
        if orth:
            lattice = kernel_basis(tuple(orth))
        else:
            lattice = tuple(tuple(int(i == j) for j in range(d)) for i in range(d))
        lineality = hnf_basis(lattice)
    else:
        lineality = ()
    rays = set()
    for r in prays:
        reduced = _reduce_mod_lineality(r, lineality)
        if reduced is not None:
            rays.add(reduced)
    return tuple(sorted(rays)), lineality


def oracle_dual(d, generators):
    """Normal form of the dual: a pass to its generators, then two more."""
    lin, rays = _dual_description(d, generators)
    return _canonical_form(d, tuple(rays) + tuple(lin) + tuple(map(_neg, lin)))


def spanning_set(form):
    rays, lineality = form
    return rays + lineality + tuple(map(_neg, lineality))


def oracle_intersect(d, a, b):
    (ra, la), (rb, lb) = (oracle_dual(d, spanning_set(c)) for c in (a, b))
    constraints = ra + rb + tuple(v for l in la + lb for v in (l, _neg(l)))
    lin, rays = _dual_description(d, constraints)
    return _canonical_form(d, tuple(rays) + tuple(lin) + tuple(map(_neg, lin)))


def awkward_generators(rng, rank):
    """Generators with zero vectors, duplicates and opposite pairs; entries
    shrink as the rank grows so the corpus stays fast."""
    bound = {1: 5, 2: 4, 3: 3, 4: 2, 5: 1}[rank]
    gens = [
        tuple(rng.randint(-bound, bound) for _ in range(rank))
        for _ in range(rng.randint(0, rank + 2))
    ]
    if rng.random() < 0.1:
        gens.append((0,) * rank)
    if gens and rng.random() < 0.2:
        gens.append(rng.choice(gens))
    if gens and rng.random() < 0.3:
        gens.append(_neg(rng.choice(gens)))
    rng.shuffle(gens)
    return tuple(gens)


def test_one_pass_normal_forms_match_the_two_pass_oracle():
    rng = random.Random(91)
    with_lineality = 0
    # The memo is bypassed, so every dual is read from the vectors spanning
    # it that the cone at hand was built with.
    dual_of = dual_cone.__wrapped__
    for _ in range(600):
        rank = rng.randint(1, 5)
        gens = awkward_generators(rng, rank)
        other = awkward_generators(rng, rank)
        a, b = RationalCone(rank, gens), RationalCone(rank, other)
        with_lineality += bool(a.lineality)
        assert (a.rays, a.lineality) == _canonical_form(rank, gens)
        meet = intersect(a, b)
        assert (meet.rays, meet.lineality) == oracle_intersect(
            rank, (a.rays, a.lineality), (b.rays, b.lineality)
        )
        # Construction, duals, intersections and faces each build their cone
        # with vectors spanning its dual.
        for x in (a, dual_of(a), meet) + faces(a):
            expected = oracle_dual(rank, x.generating_vectors())
            span = tuple(v for part in x._dual_span for v in part)
            assert _canonical_form(rank, span) == expected
            dual = dual_of(x)
            assert (dual.rays, dual.lineality) == expected
            assert dual_of(dual) == x
    assert with_lineality >= 60


# ---------------------------------------------------------------------------
# Oracle: the double description pass that scans every plus/minus pair
# ---------------------------------------------------------------------------

def scanning_dual_description(d, constraints):
    """``_dual_description`` without the rank filter: every plus/minus pair
    is tested for adjacency by the combinatorial scan alone."""
    lin = [tuple(int(i == j) for j in range(d)) for i in range(d)]
    rays = []
    processed = 0
    for g in constraints:
        g = tuple(g)
        if not any(g):
            continue
        idx = processed
        pos = next((k for k, v in enumerate(lin) if pairing(g, v)), None)
        if pos is not None:
            v0 = lin.pop(pos)
            if pairing(g, v0) < 0:
                v0 = _neg(v0)
            a = pairing(g, v0)
            lin = [
                w
                if not pairing(g, w)
                else primitive(
                    tuple(a * wi - pairing(g, w) * vi for wi, vi in zip(w, v0))
                )
                for w in lin
            ]
            new_rays = []
            for r, tight in rays:
                c = pairing(g, r)
                if c == 0:
                    new_rays.append((r, tight | {idx}))
                else:
                    proj = tuple(a * ri - c * vi for ri, vi in zip(r, v0))
                    if any(proj):
                        new_rays.append((primitive(proj), tight | {idx}))
            new_rays.append((v0, frozenset(range(idx))))
            rays = new_rays
        else:
            plus = [(r, t) for r, t in rays if pairing(g, r) > 0]
            zero = [(r, t | {idx}) for r, t in rays if pairing(g, r) == 0]
            minus = [(r, t) for r, t in rays if pairing(g, r) < 0]
            combos = []
            for p, tp in plus:
                for n, tn in minus:
                    common = tp & tn
                    adjacent = not any(
                        common <= tq for q, tq in rays if q != p and q != n
                    )
                    if adjacent:
                        w = tuple(
                            pairing(g, p) * ni - pairing(g, n) * pi
                            for pi, ni in zip(p, n)
                        )
                        combos.append((primitive(w), common | {idx}))
            rays = plus + zero + combos
        processed += 1
    return lin, [r for r, _ in rays]


def cyclic_generators(d, n):
    """The rays (1, t, ..., t^(d-1)) for t = 1..n of the cyclic cone (d, n):
    the cone over a cyclic polytope, with many facets."""
    return [tuple(t ** k for k in range(d)) for t in range(1, n + 1)]


def test_the_rank_filter_keeps_every_double_description_pass():
    # The cyclic cone (6, 32) is left out: the scan alone takes seconds on it.
    inputs = [
        (d, cyclic_generators(d, n))
        for d in (4, 5, 6) for n in (12, 20, 32) if (d, n) != (6, 32)
    ]
    rng = random.Random(97)
    for _ in range(400):
        d = rng.randint(1, 5)
        gens = [
            tuple(rng.randint(-4, 4) for _ in range(d))
            for _ in range(rng.randint(0, d + 6))
        ]
        if gens and rng.random() < 0.3:
            gens.append(_neg(rng.choice(gens)))
        inputs.append((d, gens))
    with_lineality = 0
    for d, gens in inputs:
        lin, rays = _dual_description(d, gens)
        assert (lin, rays) == scanning_dual_description(d, gens)
        with_lineality += bool(lin)
    assert with_lineality >= 40
