"""Exact rational polyhedral cones.

A cone is stored in a canonical normal form: the saturated lattice of its
lineality space (largest linear subspace inside the cone) as a Hermite basis,
plus the primitive extreme rays reduced modulo that subspace and sorted.
Two generator presentations of the same cone therefore construct equal,
hash-equal objects.

The workhorse is an incremental double description pass (`_dual_description`)
that converts a half-space description into a generator description; duality,
intersection and canonicalization are all small compositions of it.  All
arithmetic is exact (ints, with Fractions only in the ray-reduction step).
Canonical forms, duals and face lattices are memoized by value.
"""

from __future__ import annotations

import math
from fractions import Fraction

from torolog.lattice import (
    hnf_basis,
    kernel_basis,
    lattice_rank,
    memo,
    primitive,
)

__all__ = [
    "RationalCone",
    "contains",
    "dim",
    "dual_cone",
    "faces",
    "intersect",
    "is_face_of",
    "is_sharp",
]


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


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
        pos = next((k for k, v in enumerate(lin) if _dot(g, v)), None)
        if pos is not None:
            v0 = lin.pop(pos)
            if _dot(g, v0) < 0:
                v0 = _neg(v0)
            a = _dot(g, v0)
            lin = [
                w
                if not _dot(g, w)
                else primitive(
                    tuple(a * wi - _dot(g, w) * vi for wi, vi in zip(w, v0))
                )
                for w in lin
            ]
            new_rays = []
            for r, tight in rays:
                c = _dot(g, r)
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
            plus = [(r, t) for r, t in rays if _dot(g, r) > 0]
            zero = [(r, t | {idx}) for r, t in rays if _dot(g, r) == 0]
            minus = [(r, t) for r, t in rays if _dot(g, r) < 0]
            combos = []
            for p, tp in plus:
                for n, tn in minus:
                    common = tp & tn
                    adjacent = not any(
                        common <= tq for q, tq in rays if q != p and q != n
                    )
                    if adjacent:
                        w = tuple(
                            _dot(g, p) * ni - _dot(g, n) * pi
                            for pi, ni in zip(p, n)
                        )
                        combos.append((primitive(w), common | {idx}))
            rays = plus + zero + combos
        processed += 1
    return lin, [r for r, _ in rays]


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


@memo
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


class RationalCone:
    """A rational polyhedral cone in normal form.

    ``rays`` are the primitive extreme rays (reduced modulo the lineality
    space, lexicographically sorted); ``lineality`` is the Hermite basis of
    the saturated lattice of the largest linear subspace contained in the
    cone.  Construction canonicalizes any generator list, so equality and
    hashing are structural.
    """

    __slots__ = ("ambient_rank", "rays", "lineality")

    def __init__(self, ambient_rank, generators=()):
        self.ambient_rank = int(ambient_rank)
        if self.ambient_rank < 0:
            raise ValueError(f"ambient rank {self.ambient_rank} is negative")
        self.rays, self.lineality = _canonical_form(
            self.ambient_rank,
            tuple(tuple(int(x) for x in v) for v in generators),
        )

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
    dlin, drays = _dual_description(c.ambient_rank, c.generating_vectors())
    return RationalCone(
        c.ambient_rank, tuple(drays) + tuple(dlin) + tuple(_neg(l) for l in dlin)
    )


def contains(c: RationalCone, v) -> bool:
    """Membership test; v may have int or Fraction entries."""
    if len(v) != c.ambient_rank:
        raise ValueError("vector length does not match the ambient rank")
    d = dual_cone(c)
    return all(_dot(f, v) >= 0 for f in d.rays) and all(
        _dot(l, v) == 0 for l in d.lineality
    )


def dim(c: RationalCone) -> int:
    """Dimension of the linear span of the cone."""
    gens = c.rays + c.lineality
    if not gens:
        return 0
    return lattice_rank(
        tuple(tuple(g[i] for g in gens) for i in range(c.ambient_rank))
    )


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
    """
    facets = dual_cone(c).rays
    start = frozenset(range(len(c.rays)))
    labels = {start}
    queue = [start]
    while queue:
        cur = queue.pop()
        for f in facets:
            child = frozenset(i for i in cur if _dot(f, c.rays[i]) == 0)
            if child != cur and child not in labels:
                labels.add(child)
                queue.append(child)
    lin_gens = c.lineality + tuple(_neg(l) for l in c.lineality)
    out = [
        RationalCone(
            c.ambient_rank,
            tuple(c.rays[i] for i in sorted(label)) + lin_gens,
        )
        for label in labels
    ]
    out.sort(key=lambda f: (dim(f), f.rays, f.lineality))
    return tuple(out)


def is_face_of(f: RationalCone, c: RationalCone) -> bool:
    if f.ambient_rank != c.ambient_rank:
        raise ValueError("cones live in different ambient ranks")
    return f in faces(c)


def intersect(a: RationalCone, b: RationalCone) -> RationalCone:
    """Intersection, computed by merging the two facet systems."""
    if a.ambient_rank != b.ambient_rank:
        raise ValueError("cones live in different ambient ranks")
    da, db = dual_cone(a), dual_cone(b)
    constraints = (
        list(da.rays)
        + list(db.rays)
        + [v for l in da.lineality for v in (l, _neg(l))]
        + [v for l in db.lineality for v in (l, _neg(l))]
    )
    lin, rays = _dual_description(a.ambient_rank, constraints)
    return RationalCone(
        a.ambient_rank, tuple(rays) + tuple(lin) + tuple(_neg(l) for l in lin)
    )
