"""Changes of coordinates as an oracle: every answer moves with U in GL_n(Z).

A unimodular U carries Z^n onto itself, so it carries a cone, its dual, its
faces and its lattice points, and a monoid with its faces, ghosts, fibers,
saturation and affine atlas, onto those of the image.  None of these checks
needs a slower algorithm to compare against.  Some answers are not
equivariant and are compared by value instead: ``ToricMonoid`` sorts its
generators, so faces match by their generator vectors, not their indices;
the unit generators of a Hilbert basis (and of ``saturate``) are one basis
of the unit lattice among many; ``hnf`` is not equivariant, so the atlas,
which lives in Hermite coordinates of the generated group, is compared
through its verdict and its strata.
"""

import collections
import random

from conftest import mat_mul, random_cone, random_monoid
from torolog.cones import RationalCone, dual_cone, faces as cone_faces
from torolog.fans import affine_atlas, strata, validate_fan_of_monoids
from torolog.lattice import mat_identity, transpose
from torolog.monoids import (
    ToricMonoid,
    faces,
    ghost,
    hilbert_basis,
    is_saturated,
    membership,
    monoid_equal,
    saturate,
)
from torolog.rounding import fiber_structure


def unimodular(rng: random.Random, n: int):
    """A random U in GL_n(Z) and its inverse: a product of elementary
    matrices, sign flips and a permutation, each applied on the left to U
    and, inverted, on the right to its inverse."""
    u = [list(row) for row in mat_identity(n)]
    v = [list(row) for row in mat_identity(n)]
    for _ in range(2 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        k = rng.choice((-2, -1, 1, 2))
        u[i] = [a + k * b for a, b in zip(u[i], u[j])]  # row i += k row j
        for row in v:  # column j -= k column i
            row[j] -= k * row[i]
    for i in range(n):
        if rng.random() < 0.5:
            u[i] = [-a for a in u[i]]
            for row in v:
                row[i] = -row[i]
    perm = rng.sample(range(n), n)
    u = [u[p] for p in perm]
    v = [[row[p] for p in perm] for row in v]
    return tuple(map(tuple, u)), tuple(map(tuple, v))


def act(u, vectors):
    return tuple(tuple(sum(a * x for a, x in zip(row, w)) for row in u)
                 for w in vectors)


def moved_cone(u, c: RationalCone) -> RationalCone:
    return RationalCone(c.ambient_rank, act(u, c.generating_vectors()))


def moved_monoid(u, g: ToricMonoid) -> ToricMonoid:
    return ToricMonoid(g.ambient_rank, act(u, g.generators))


def check_cone(u, u_inv, c: RationalCone):
    uc = moved_cone(u, c)
    # A functional f on U c pulls back to U^T f on c: the dual moves by U^-T.
    assert dual_cone(uc) == moved_cone(transpose(u_inv), dual_cone(c))
    assert set(cone_faces(uc)) == {moved_cone(u, f) for f in cone_faces(c)}
    basis, moved = hilbert_basis(uc), act(u, hilbert_basis(c))
    if c.lineality:
        assert monoid_equal(ToricMonoid(c.ambient_rank, basis),
                            ToricMonoid(c.ambient_rank, moved))
    else:
        assert set(basis) == set(moved)


def check_monoid(rng: random.Random, u, g: ToricMonoid):
    n = g.ambient_rank
    ug = moved_monoid(u, g)
    by_vectors = {frozenset(f.monoid.generators): f for f in faces(ug)}
    moved = {frozenset(act(u, f.monoid.generators)): f for f in faces(g)}
    assert by_vectors.keys() == moved.keys()
    for vectors, f in moved.items():
        uf = by_vectors[vectors]
        assert ghost(ug, uf).invariants == ghost(g, f).invariants
        assert fiber_structure(ug, uf) == fiber_structure(g, f)
    assert is_saturated(ug) == is_saturated(g)
    assert monoid_equal(saturate(ug), moved_monoid(u, saturate(g)))
    for _ in range(4):
        m = tuple(rng.randint(-3, 3) for _ in range(n))
        um = act(u, (m,))[0]
        assert (membership(ug, um) is None) == (membership(g, m) is None)
    atlas, moved_atlas = affine_atlas(g), affine_atlas(ug)
    report = validate_fan_of_monoids(atlas)
    moved_report = validate_fan_of_monoids(moved_atlas)
    assert report == moved_report and report.ok

    def fibers(fm):
        return collections.Counter(
            (s.orbit_dimension, s.fiber) for s in strata(fm)
        )

    assert fibers(moved_atlas) == fibers(atlas)


def test_every_answer_moves_with_a_change_of_coordinates():
    rng = random.Random(18)
    for trial in range(200):
        n = trial % 4 + 1
        u, u_inv = unimodular(rng, n)
        assert mat_mul(u, u_inv) == mat_identity(n)
        check_cone(u, u_inv, random_cone(rng, n))
        check_monoid(rng, u, random_monoid(rng, n))
