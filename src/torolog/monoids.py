"""Finitely generated submonoids of integer lattices.

A :class:`ToricMonoid` is stored as a finite generating set inside ``Z^d``.
Everything else — membership certificates, the generated group, the face
lattice, saturation, localization, ghost quotients — is computed exactly on
demand; what the other computations reuse is memoized by the monoid's value.
"""

import itertools
from types import MappingProxyType

from .cones import RationalCone, contains, dim, dual_cone
from .cones import faces as cone_faces
from .lattice import (
    AbelianGroupInvariants,
    IntMat,
    _integral,
    _quotient,
    _rank,
    hnf_basis,
    mat_identity,
    mat_vec,
    memo,
    pairing,
    record,
    snf,
    solve_integer,
    transpose,
)

__all__ = [
    "FiberReport",
    "GhostReport",
    "MonoidFace",
    "PrimeIdeal",
    "ToricMonoid",
    "exponent_cone",
    "faces",
    "ghost",
    "gp",
    "hilbert_basis",
    "is_saturated",
    "localize",
    "membership",
    "monoid_equal",
    "prime_ideals",
    "saturate",
    "saturation_membership",
    "weight_cone",
]


class ToricMonoid:
    """A finitely generated submonoid of ``Z^ambient_rank``.

    Generators are deduplicated, sorted, and stripped of the zero vector, so
    equal generator *sets* give structurally equal objects.  Two monoids with
    different generating sets may still describe the same submonoid — use
    :func:`monoid_equal` for semantic comparison.
    """

    __slots__ = ("ambient_rank", "generators")

    def __init__(self, ambient_rank, generators):
        ambient_rank = _rank(ambient_rank)
        cleaned = set()
        for v in generators:
            v = tuple(map(_integral, v))
            if len(v) != ambient_rank:
                raise ValueError(
                    f"generator {v!r} does not have length {ambient_rank}"
                )
            if any(v):
                cleaned.add(v)
        self.ambient_rank = ambient_rank
        self.generators = tuple(sorted(cleaned))

    def __eq__(self, other):
        if not isinstance(other, ToricMonoid):
            return NotImplemented
        return (
            self.ambient_rank == other.ambient_rank
            and self.generators == other.generators
        )

    def __hash__(self):
        return hash((self.ambient_rank, self.generators))

    def __repr__(self):
        return f"ToricMonoid({self.ambient_rank}, {self.generators})"


@record
class MonoidFace:
    """A face of a monoid: the face submonoid plus the parent generator
    indices lying on it."""

    monoid: ToricMonoid
    generator_indices: tuple


@record
class PrimeIdeal:
    """A prime ideal, recorded as the face it is the complement of together
    with the generator indices it contains."""

    face: MonoidFace
    complement_indices: tuple


@record
class GhostReport:
    """The quotient of the generated group by a face's group.

    ``sharp_generators`` lists, for each generator of the parent monoid, its
    image in the quotient as a ``(free_coordinates, torsion_residues)`` pair.
    """

    face: MonoidFace
    invariants: AbelianGroupInvariants
    sharp_generators: tuple


@record
class FiberReport:
    """Shape of a collapse fiber: a disjoint union of ``components`` copies
    of a real torus of dimension ``torus_rank``."""

    torus_rank: int
    components: int
    invariants: AbelianGroupInvariants

    @classmethod
    def of(cls, inv: AbelianGroupInvariants) -> "FiberReport":
        """The fiber whose character lattice has invariants ``inv``."""
        return cls(inv.rank, inv.torsion_order, inv)


@memo
def exponent_cone(g: ToricMonoid) -> RationalCone:
    """The rational cone spanned by the generators."""
    return RationalCone(g.ambient_rank, g.generators)


def weight_cone(g: ToricMonoid) -> RationalCone:
    """The dual of the exponent cone: functionals nonnegative on the monoid."""
    return dual_cone(exponent_cone(g))


@memo
def gp(g: ToricMonoid) -> IntMat:
    """A canonical basis of the group generated by the monoid."""
    return hnf_basis(g.generators)


@memo
def _gp_matrix(g: ToricMonoid):
    """Basis of gp(g) as a matrix with the basis vectors for columns."""
    basis = gp(g)
    return tuple(tuple(b[i] for b in basis) for i in range(g.ambient_rank))


def _coordinates(g: ToricMonoid, v):
    """Coordinates of ``v`` on the basis ``gp(g)``, or None off gp(g)."""
    return solve_integer(_gp_matrix(g), tuple(v))


@memo
def _generator_coordinates(g: ToricMonoid):
    """Coordinates of each generator on the basis ``gp(g)``."""
    return tuple(_coordinates(g, v) for v in g.generators)


@memo
def _splitting(g: ToricMonoid):
    """Unit/sharp decomposition used by the membership search.

    Returns ``(unit_idx, sharp_idx, w, unit_columns, relieve)`` where ``w`` is
    a functional vanishing exactly on the units among all generators, and
    ``relieve`` is a strictly positive integer vector with
    ``sum(relieve[j] * unit_j) == 0``, used to shift integer coefficients on
    the unit generators into the nonnegative range.  When every unit's
    negative is a generator, ``relieve`` is all ones, the sum of the pair
    relations, with no double description pass.  Otherwise it is the sum of
    the extreme rays of ``{x >= 0 : sum(x_j * unit_j) == 0}``, read from one
    dual cone.
    """
    cone = exponent_cone(g)
    unit_idx = tuple(
        i
        for i, v in enumerate(g.generators)
        if contains(cone, tuple(-x for x in v))
    )
    sharp_idx = tuple(
        i for i in range(len(g.generators)) if i not in set(unit_idx)
    )
    w = tuple(map(sum, zip(*dual_cone(cone).rays))) or (0,) * g.ambient_rank
    n = len(unit_idx)
    unit_columns = tuple(
        tuple(g.generators[j][i] for j in unit_idx)
        for i in range(g.ambient_rank)
    )
    units = {g.generators[j] for j in unit_idx}
    if not n:
        relieve = None
    elif all(tuple(-x for x in u) in units for u in units):
        # The generators are distinct and nonzero, so the units split into
        # pairs u, -u, whose relations sum to the all-ones relation.
        relieve = (1,) * n
    else:
        # The cone {x >= 0 : sum(x_j * unit_j) == 0} lies in the orthant, so
        # it is pointed and its dual's rays are all of its extreme rays.  Each
        # -unit_j is a nonnegative combination of units, so every coordinate
        # is positive on some ray and the sum of the rays is strictly positive.
        negated = tuple(tuple(-x for x in r) for r in unit_columns)
        circuits = dual_cone(
            RationalCone(n, mat_identity(n) + unit_columns + negated)
        )
        relieve = tuple(map(sum, zip(*circuits.rays)))
    return unit_idx, sharp_idx, w, unit_columns, relieve


def membership(g: ToricMonoid, m) -> "tuple | None":
    """Certificate that ``m`` lies in the monoid.

    Returns a tuple of nonnegative integer coefficients, one per generator,
    summing to ``m`` — or None when ``m`` is not a member.  Compare against
    None; the all-zero witness for ``m = 0`` is a valid return value.
    """
    m = tuple(map(_integral, m))
    if not saturation_membership(g, m):
        return None  # outside the cone or the generated group
    witness = [0] * len(g.generators)
    if not any(m):
        return tuple(witness)

    unit_idx, sharp_idx, w, unit_columns, relieve = _splitting(g)
    sharp = [(i, g.generators[i], pairing(w, g.generators[i])) for i in sharp_idx]
    failed = set()

    def search(pos, rem, budget):
        # Writes witness slots on the way down.  The path that succeeds
        # writes every slot again, so no failed branch needs to reset one.
        if pos == len(sharp):
            if budget or not unit_idx:
                return not budget and not any(rem)
            c = solve_integer(unit_columns, rem)
            if c is None:
                return False
            shift = max([0] + [-(ci // z) for ci, z in zip(c, relieve)])
            for i, ci, z in zip(unit_idx, c, relieve):
                witness[i] = ci + shift * z
            return True
        if (pos, rem) in failed:
            return False
        i, vec, wv = sharp[pos]
        for a in range(budget // wv + 1):
            witness[i] = a
            nxt = tuple(r - a * x for r, x in zip(rem, vec))
            if search(pos + 1, nxt, budget - a * wv):
                return True
        failed.add((pos, rem))
        return False

    return tuple(witness) if search(0, m, pairing(w, m)) else None


@memo
def faces(g: ToricMonoid) -> tuple:
    """All faces, in bijection with the faces of the exponent cone.

    Each face submonoid is generated by the parent generators lying on the
    corresponding cone face; the ordering follows the cone face ordering
    (dimension first), so the edge comes first and the monoid itself last.
    """
    cone = exponent_cone(g)
    normals = dual_cone(cone).rays
    # The facet normals vanishing on each ray and on each generator.
    zeros = {v: frozenset(i for i, n in enumerate(normals) if not pairing(n, v))
             for v in cone.rays + g.generators}
    every = frozenset(range(len(normals)))
    out = []
    for f in cone_faces(cone):
        # v lies on f iff every facet normal vanishing on f vanishes on v.
        tight = every.intersection(*(zeros[r] for r in f.rays))
        idx = tuple(i for i, v in enumerate(g.generators) if tight <= zeros[v])
        out.append(
            MonoidFace(
                ToricMonoid(g.ambient_rank, tuple(g.generators[i] for i in idx)),
                idx,
            )
        )
    return tuple(out)


@memo
def _face_index(g: ToricMonoid):
    """Each face keyed by its generator indices, read-only because every
    caller shares it.  Distinct faces span distinct cone faces, so they have
    distinct index sets."""
    return MappingProxyType({f.generator_indices: f for f in faces(g)})


def _require_face(g: ToricMonoid, f: MonoidFace):
    if _face_with_indices(g, f.generator_indices) != f:
        raise ValueError(f"{f!r} is not a face of {g!r}")


def _face_with_indices(g: ToricMonoid, indices):
    """The face whose generator index set is exactly ``indices``, or None."""
    return _face_index(g).get(indices)


def prime_ideals(g: ToricMonoid) -> tuple:
    """One prime ideal per face, in the order of :func:`faces`: the set of
    generators off that face."""
    out = []
    all_idx = range(len(g.generators))
    for f in faces(g):
        onface = set(f.generator_indices)
        out.append(
            PrimeIdeal(f, tuple(i for i in all_idx if i not in onface))
        )
    return tuple(out)


def saturation_membership(g: ToricMonoid, m) -> bool:
    """Whether ``m`` lies in the saturation: in the exponent cone and in
    the generated group."""
    m = tuple(map(_integral, m))
    if len(m) != g.ambient_rank:
        raise ValueError(f"point {m!r} does not have length {g.ambient_rank}")
    return contains(exponent_cone(g), m) and _coordinates(g, m) is not None


def hilbert_basis(cone: RationalCone) -> tuple:
    """Minimal generating set of the lattice points of a rational cone.

    For cones with lineality the result is minimal modulo units and includes
    a basis of the unit lattice together with its negatives.

    A sharp cone is covered by the simplicial cones of a triangulation, and a
    lattice point of a simplicial cone is a point of its half-open
    fundamental parallelepiped plus a nonnegative integer combination of its
    rays.  So every irreducible point is a ray or a parallelepiped point.
    The candidates are scanned by a functional positive on the cone, and one
    is kept unless it minus a point kept before still lies in the cone: the
    kept points are exactly the irreducible ones.  A reducible ``x`` minus
    some basis point of at most half its degree lies in the cone, so ``x``
    is tested only against the kept points that light.
    """
    if cone.lineality:
        return _hilbert_basis_with_units(cone)
    if not cone.rays:
        return ()
    w = tuple(map(sum, zip(*dual_cone(cone).rays)))
    simplices = _triangulation(cone)
    candidates = set(cone.rays).union(*map(_parallelepiped, simplices))
    candidates.discard((0,) * cone.ambient_rank)
    accepted = []  # (degree, point), by degree
    for deg, x in sorted((pairing(w, p), p) for p in candidates):
        light = itertools.takewhile(lambda k: 2 * k[0] <= deg, accepted)
        if not any(
            contains(cone, tuple(a - b for a, b in zip(x, y))) for _, y in light
        ):
            accepted.append((deg, x))
    return tuple(sorted(x for _, x in accepted))


def _triangulation(cone: RationalCone) -> list:
    """Ray tuples of simplicial cones covering a sharp cone: the pulling
    triangulation from its first ray, which puts that ray in front of each
    simplex of the facets that miss it."""
    rays = cone.rays
    n = dim(cone)
    if len(rays) == n:
        return [rays]
    return [
        (rays[0],) + simplex
        for f in cone_faces(cone)
        if dim(f) == n - 1 and rays[0] not in f.rays
        for simplex in _triangulation(f)
    ]


def _parallelepiped(rays):
    """Lattice points ``sum(t_j * r_j)``, ``0 <= t_j < 1``, of linearly
    independent rays ``r_j``.

    With ``u R v = S`` the Smith form of the ray columns ``R``, the lattice
    points of their span are ``R v (a / s)`` for integer vectors ``a``.  Taking
    ``a_i`` modulo ``s_i`` and each coefficient of ``v (a / s)`` modulo 1
    lists every point once.  All of it is scaled by the last Smith entry,
    which every other one divides, so the arithmetic stays integral.
    """
    columns = transpose(rays)
    s, _, v = snf(columns)
    diag = [s[i][i] for i in range(len(rays))]
    n = diag[-1]
    for a in itertools.product(*map(range, diag)):
        t = mat_vec(v, [ai * (n // si) for ai, si in zip(a, diag)])
        yield tuple(x // n for x in mat_vec(columns, [c % n for c in t]))


def _hilbert_basis_with_units(cone: RationalCone) -> tuple:
    """Hilbert basis of a cone with lineality: split off the unit lattice,
    compute on the sharp quotient, and lift back."""
    d = cone.ambient_rank
    lin = cone.lineality
    ell = len(lin)
    _, u, _ = snf(transpose(lin))
    # The lineality lattice is saturated, so u carries it onto the span of
    # the first ell coordinate vectors.
    proj_rays = tuple(mat_vec(u, r)[ell:] for r in cone.rays)
    inner = hilbert_basis(RationalCone(d - ell, proj_rays))
    out = {solve_integer(u, (0,) * ell + h) for h in inner}
    out.update(v for b in lin for v in (b, tuple(-x for x in b)))
    return tuple(sorted(out))


@memo
def saturate(g: ToricMonoid) -> ToricMonoid:
    """The saturation: all group elements lying in the exponent cone.

    Computed in coordinates of the generated group, where the saturation is
    exactly the set of lattice points of the coordinate cone.
    """
    basis = gp(g)
    if not basis:
        return ToricMonoid(g.ambient_rank, ())
    hb = hilbert_basis(RationalCone(len(basis), _generator_coordinates(g)))
    bmat = _gp_matrix(g)
    return ToricMonoid(g.ambient_rank, tuple(mat_vec(bmat, h) for h in hb))


def is_saturated(g: ToricMonoid) -> bool:
    """Whether the monoid already contains its saturation."""
    return all(membership(g, v) is not None for v in saturate(g).generators)


def localize(g: ToricMonoid, f: MonoidFace) -> ToricMonoid:
    """Invert a face: adjoin the negatives of its generators."""
    _require_face(g, f)
    extra = tuple(tuple(-x for x in v) for v in f.monoid.generators)
    return ToricMonoid(g.ambient_rank, g.generators + extra)


@memo
def ghost(g: ToricMonoid, f: MonoidFace) -> GhostReport:
    """The quotient of the generated group by the face's group, with the
    images of all generators in free/torsion coordinates, read from the
    Smith form of the face generators' coordinates (``_quotient``).
    Memoized by value: the atlas, its strata and the fibers of one monoid
    share each face's ghost.
    """
    _require_face(g, f)
    k = len(gp(g))
    coords = _generator_coordinates(g)
    cols = tuple(
        tuple(coords[j][i] for j in f.generator_indices) for i in range(k)
    )
    invariants, free_rows, torsion = _quotient(k, cols)
    images = tuple(
        (
            tuple(pairing(row, c) for row in free_rows),
            tuple(pairing(row, c) % dv for row, dv in torsion),
        )
        for c in coords
    )
    return GhostReport(f, invariants, images)


def monoid_equal(a: ToricMonoid, b: ToricMonoid) -> bool:
    """Semantic equality: mutual membership of generators.  A generator
    that both monoids list needs no search."""
    if a.ambient_rank != b.ambient_rank:
        return False
    shared = set(a.generators) & set(b.generators)
    return all(
        membership(g, v) is not None
        for g, h in ((a, b), (b, a)) for v in h.generators if v not in shared
    )
