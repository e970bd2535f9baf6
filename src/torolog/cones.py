"""Exact rational polyhedral cones.

A cone is stored in a canonical normal form: the saturated lattice of its
lineality space (largest linear subspace inside the cone) as a Hermite basis,
plus the primitive extreme rays reduced modulo that subspace and sorted.
Two generator presentations of the same cone therefore construct equal,
hash-equal objects.

The workhorse is an incremental double description pass (`_dual_description`)
that converts a half-space description into a generator description.  Given
vectors spanning a cone and vectors spanning its dual, the normal form needs
no pass: the lineality is the integer kernel of the dual's vectors, and the
extreme rays are the vectors whose tight sets on the dual's are maximal.  So
every cone is built with a spanning set of its dual.  Construction gets it
from one pass over the generators; the dual of a cone gets the cone's own
generators; a face gets its parent's dual and the negated facet normals
tight on it; an intersection gets both duals.  Duals, faces and duals of
duals therefore cost no pass, and intersection costs one.  The fan readers
of the command line take each listed face of a listed cone from that cone's
face lattice, so a listed atlas costs one pass.  All arithmetic is in
integers.  Canonical forms, duals, dimensions and face lattices are memoized
by value.
"""

from __future__ import annotations

from torolog.lattice import (
    _integral,
    _rank,
    hnf_basis,
    kernel_basis,
    lattice_rank,
    mat_identity,
    memo,
    pairing,
    primitive,
)

__all__ = [
    "RationalCone",
    "contains",
    "dim",
    "dual_cone",
    "faces",
    "intersect",
    "is_sharp",
]


def _neg(v):
    return tuple(-x for x in v)


def _dual_description(d, constraints):
    """Generator form of ``{y in R^d : <g, y> >= 0 for every g}``.

    Returns ``(lineality_basis, extreme_rays)`` as lists of integer vectors.
    Incremental double description, starting from the full space.  While some
    current lineality vector pairs nonzero with the incoming constraint, the
    space pivots: that vector (signed positive against the constraint)
    becomes a ray and everything else is projected into the constraint
    hyperplane.  Otherwise the classical plus/zero/minus step runs, and a
    positive/negative ray pair spawns a combination only when adjacent —
    no third ray is tight on every constraint the pair is jointly tight on —
    which keeps the ray list exactly the extreme rays throughout.
    """
    lin = [tuple(int(i == j) for j in range(d)) for i in range(d)]
    rays = []  # (vector, frozenset of indices of constraints the ray is tight on)
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
            # The pivot vector came from the old lineality, so it is tight on
            # every constraint processed before this one and on nothing else.
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
                    # Adjacent: the face tight on common has dimension
                    # len(lin) + 2, so common has rank d - len(lin) - 2.
                    adjacent = len(common) >= d - len(lin) - 2 and not any(
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


def _normal_form(d, gens, dual):
    """``(rays, lineality)`` of the cone spanned by ``gens``, given vectors
    ``dual`` that span its dual cone.

    The lineality space is where every dual vector vanishes.  A face is cut
    out by the dual vectors vanishing on it, so the face spanned by a
    generator is named by its tight set, and smaller faces have larger tight
    sets.  A generator off the lineality space therefore spans an extreme ray
    exactly when no other generator off it has a strictly larger tight set
    (Fukuda-Prodon, *Double description method revisited*, 1996).
    """
    if dual:
        lineality = hnf_basis(kernel_basis(tuple(dual)))
    else:
        lineality = mat_identity(d)
    tight = [
        frozenset(i for i, f in enumerate(dual) if not pairing(f, g)) for g in gens
    ]
    proper = {t for t in tight if len(t) < len(dual)}
    rays = set()
    for g, t in zip(gens, tight):
        if t in proper and not any(t < u for u in proper):
            # Kill the coordinate at each Hermite pivot; pivots are positive,
            # so each step scales the rational projection by a positive factor.
            x = g
            for b in lineality:
                p = next(i for i, v in enumerate(b) if v)
                if x[p]:
                    x = tuple(b[p] * xi - x[p] * bi for xi, bi in zip(x, b))
            rays.add(primitive(x))
    return tuple(sorted(rays)), lineality


def _cone(d, rays, lineality, dual_span) -> RationalCone:
    """A cone built from a normal form without canonicalizing it again.

    ``dual_span`` is a tuple of vector tuples that together span the dual
    cone; the parts let the faces of a cone share its dual's vectors.
    """
    c = object.__new__(RationalCone)
    c.ambient_rank, c.rays, c.lineality = d, rays, lineality
    c._dual_span = dual_span
    return c


@memo
def _canonical_form(d, generators):
    """The normal form ``(rays, lineality)`` of the cone in Z^d spanned by a
    tuple of integer vectors, and vectors spanning its dual, from one double
    description pass."""
    gens = [primitive(v) for v in generators if any(v)]
    dlin, drays = _dual_description(d, gens)
    dual = tuple(drays + dlin + [_neg(l) for l in dlin])
    return _normal_form(d, gens, dual), dual


def _checked(d, generators):
    """``generators`` as integer tuples, checked as those of a cone in Z^d."""
    _rank(d)
    gens = tuple(tuple(map(_integral, v)) for v in generators)
    if any(len(v) != d for v in gens):
        raise ValueError("generator length does not match the ambient rank")
    return gens


class RationalCone:
    """A rational polyhedral cone in normal form.

    ``rays`` are the primitive extreme rays (reduced modulo the lineality
    space, lexicographically sorted); ``lineality`` is the Hermite basis of
    the saturated lattice of the largest linear subspace contained in the
    cone.  Construction canonicalizes any generator list, so equality and
    hashing are structural.  ``_dual_span`` holds vectors spanning the dual
    cone, as a tuple of vector tuples; every cone is built with it.
    """

    __slots__ = ("ambient_rank", "rays", "lineality", "_dual_span")

    def __init__(self, ambient_rank, generators=()):
        self.ambient_rank = _integral(ambient_rank)
        generators = _checked(self.ambient_rank, generators)
        (self.rays, self.lineality), dual = _canonical_form(
            self.ambient_rank, generators
        )
        self._dual_span = (dual,)

    def generating_vectors(self):
        """Rays plus both signs of the lineality basis: a generating set."""
        return self.rays + self.lineality + tuple(_neg(l) for l in self.lineality)

    def __eq__(self, other):
        if not isinstance(other, RationalCone):
            return NotImplemented
        return (
            self.ambient_rank == other.ambient_rank
            and self.rays == other.rays
            and self.lineality == other.lineality
        )

    def __hash__(self):
        return hash((self.ambient_rank, self.rays, self.lineality))

    def __repr__(self):
        return (
            f"RationalCone({self.ambient_rank}, rays={list(self.rays)}, "
            f"lineality={list(self.lineality)})"
        )


@memo
def dual_cone(c: RationalCone) -> RationalCone:
    """The dual cone {y : <x, y> >= 0 for all x in c}, in canonical form."""
    d = c.ambient_rank
    gens = c.generating_vectors()
    span = [v for part in c._dual_span for v in part]
    return _cone(d, *_normal_form(d, span, gens), (gens,))


def contains(c: RationalCone, v) -> bool:
    """Membership test; v may have int or Fraction entries."""
    if len(v) != c.ambient_rank:
        raise ValueError("vector length does not match the ambient rank")
    d = dual_cone(c)
    return all(pairing(f, v) >= 0 for f in d.rays) and all(
        pairing(l, v) == 0 for l in d.lineality
    )


@memo
def dim(c: RationalCone) -> int:
    """Dimension of the linear span of the cone.  Modulo the lineality the
    cone is pointed with extreme rays, and a pointed cone of dimension k < 3
    has k extreme rays, so up to 3 rays add one dimension each."""
    if len(c.rays) <= 3:
        return len(c.lineality) + len(c.rays)
    return lattice_rank(c.rays + c.lineality)


def is_sharp(c: RationalCone) -> bool:
    """True iff the cone contains no line."""
    return not c.lineality


@memo
def faces(c: RationalCone) -> tuple[RationalCone, ...]:
    """Every face of the cone, from the minimal face up to the cone itself.

    A face is determined by the set of extreme rays lying on it, and every
    face arises by repeatedly intersecting with supporting hyperplanes of
    facet normals, so a breadth-first walk over tight ray-index sets visits
    each face exactly once.  Sorted by (dimension, rays) for determinism.

    The dual of a face tau is the dual of the cone plus the negated facet
    normals vanishing on tau, so each face shares the dual's spanning vectors.
    """
    dual = dual_cone(c)
    shared = dual.generating_vectors()
    # The rays each facet normal vanishes on.
    zeros = [
        frozenset(i for i, r in enumerate(c.rays) if not pairing(f, r))
        for f in dual.rays
    ]
    start = frozenset(range(len(c.rays)))
    labels = {start}
    queue = [start]
    while queue:
        cur = queue.pop()
        for z in zeros:
            child = cur & z
            if child != cur and child not in labels:
                labels.add(child)
                queue.append(child)
    negated = [_neg(f) for f in dual.rays]
    # Each face's dimension, without a rank computation where the walk knows
    # it: a facet normal's zero set is the ray set of a facet, one dimension
    # below the cone, and a face with up to three rays is keyed as in `dim`.
    ell, top = len(c.lineality), dim(c)
    facets = set(zeros)
    keyed = []
    for label in labels:
        f = _cone(
            c.ambient_rank,
            tuple(c.rays[i] for i in sorted(label)),
            c.lineality,
            (shared, tuple(n for n, z in zip(negated, zeros) if label <= z)),
        )
        if label == start:
            k = top
        elif label in facets:
            k = top - 1
        elif len(label) <= 3:
            k = ell + len(label)
        else:
            k = dim(f)
        keyed.append(((k, f.rays), f))
    # Faces share the lineality and differ in their rays, so keys never tie.
    keyed.sort(key=lambda kf: kf[0])
    return tuple(f for _, f in keyed)


def intersect(a: RationalCone, b: RationalCone) -> RationalCone:
    """Intersection, computed by merging the two facet systems."""
    if a.ambient_rank != b.ambient_rank:
        raise ValueError("cones live in different ambient ranks")
    da, db = dual_cone(a), dual_cone(b)
    constraints = da.rays + db.rays + tuple(
        v for l in da.lineality + db.lineality for v in (l, _neg(l))
    )
    d = a.ambient_rank
    lin, rays = _dual_description(d, constraints)
    gens = rays + lin + [_neg(l) for l in lin]
    return _cone(d, *_normal_form(d, gens, constraints), (constraints,))
