"""Stratum reports for simple normal crossing models.

A :class:`DualComplex` records which divisor components meet: one vertex per
component, one simplex per nonempty intersection, closed under subsets, with
at most ``ambient_dim`` components through any point.  Intersections with
several connected components are entered by repeating the simplex.  The local
model at a depth-k stratum is the free monoid on k generators, so the link
fiber is one torus of rank k (the ghost group of that monoid at its closed
point is ``Z^k``) and Milnor-type fibers come from
:func:`milnor_stratum_fiber` applied to the restricted multiplicities.
"""

import math
from itertools import chain

from .lattice import AbelianGroupInvariants, _integral, record
from .monoids import FiberReport

__all__ = [
    "DualComplex",
    "MilnorReport",
    "StratumRow",
    "link_report",
    "milnor_report",
    "milnor_stratum_fiber",
]


@record
class DualComplex:
    """The intersection combinatorics of a normal crossing divisor."""

    ambient_dim: int
    vertex_count: int
    simplices: tuple
    multiplicities: tuple

    def __new__(
        cls,
        ambient_dim: int,
        vertex_count: int,
        simplices,
        multiplicities=None,
        complete: bool = False,
    ):
        ambient_dim = _integral(ambient_dim)
        vertex_count = _integral(vertex_count)
        if ambient_dim < 0 or vertex_count < 0:
            raise ValueError("dimensions and vertex counts are nonnegative")

        cleaned = []
        for s in simplices:
            s = tuple(map(_integral, s))
            if not s:
                raise ValueError("simplices must be nonempty")
            if len(set(s)) != len(s):
                raise ValueError(f"simplex {s} repeats a vertex")
            if any(v < 0 or v >= vertex_count for v in s):
                raise ValueError(f"simplex {s} uses an unknown vertex")
            s = tuple(sorted(s))
            if len(s) > ambient_dim:
                raise ValueError(
                    f"simplex {s} exceeds the ambient dimension {ambient_dim}"
                )
            cleaned.append(s)

        # Every proper face of a simplex, then every singleton: a complete
        # complex adds the missing ones, a strict one rejects the first.
        # Both are enumerated lazily, so a strict complex is rejected in
        # time bounded by its first missing face.
        present = set(cleaned)
        needed = ((s, sub) for s in tuple(present) for sub in _proper_subsets(s))
        singletons = ((None, (v,)) for v in range(vertex_count))
        for s, sub in chain(needed, singletons):
            if sub in present:
                continue
            if not complete:
                raise ValueError(
                    f"simplex {s} is present but its face {sub} is missing"
                    if s else f"vertex {sub[0]} has no singleton simplex"
                )
            present.add(sub)
            cleaned.append(sub)

        if multiplicities is not None:
            multiplicities = tuple(map(_integral, multiplicities))
            if len(multiplicities) != vertex_count:
                raise ValueError("one multiplicity per vertex is required")
            if any(m < 1 for m in multiplicities):
                raise ValueError("multiplicities must be positive")

        simplices = tuple(sorted(cleaned, key=lambda s: (len(s), s)))
        return tuple.__new__(
            cls, (ambient_dim, vertex_count, simplices, multiplicities)
        )

    def __repr__(self):
        return (
            f"DualComplex({self.ambient_dim}, {self.vertex_count}, "
            f"{self.simplices!r}, multiplicities={self.multiplicities!r})"
        )


def _proper_subsets(s):
    for mask in range(1, (1 << len(s)) - 1):
        yield tuple(s[i] for i in range(len(s)) if mask >> i & 1)


@record
class StratumRow:
    simplex: tuple
    stratum_dimension: int
    fiber: FiberReport


@record
class MilnorReport:
    rows: tuple
    components_by_depth: tuple


def milnor_stratum_fiber(multiplicities) -> FiberReport:
    """Fiber data of the map cutting out a normal crossing of the given
    multiplicities: rank one less than the depth, and one component per
    common divisor.

    This is :func:`~torolog.rounding.relative_fiber` of the multiplicity
    column at the closed point of the free monoid, read off in closed form:
    the lattice modulo one vector of content ``g`` is ``Z^(k-1) x Z/g``.
    """
    ms = tuple(multiplicities)
    if not ms:
        raise ValueError("at least one multiplicity is required")
    if any(not isinstance(m, int) or m < 1 for m in ms):
        raise ValueError("multiplicities must be positive integers")
    g = math.gcd(*ms)
    return FiberReport.of(
        AbelianGroupInvariants(len(ms) - 1, (g,) if g > 1 else ())
    )


def link_report(dc: DualComplex) -> tuple:
    """One row per simplex: the boundary-torus fiber of the local model.

    A depth-k stratum carries the free local model on k generators, so its
    fiber is a single torus of rank k over a stratum of complex dimension
    ``ambient_dim - k``.
    """
    return tuple(
        StratumRow(
            s,
            dc.ambient_dim - len(s),
            FiberReport.of(AbelianGroupInvariants(len(s), ())),
        )
        for s in dc.simplices
    )


def milnor_report(dc: DualComplex) -> MilnorReport:
    """One row per simplex: the fiber of the multiplicity map on the stratum.

    Each simplex restricts the vertex multiplicities, giving a union of
    ``gcd`` tori of rank one less than the depth; the summary totals the
    component counts at each depth.
    """
    if dc.multiplicities is None:
        raise ValueError("the complex carries no multiplicities")
    rows = []
    totals = {}
    for s in dc.simplices:
        fiber = milnor_stratum_fiber(tuple(dc.multiplicities[v] for v in s))
        rows.append(StratumRow(s, dc.ambient_dim - len(s), fiber))
        totals[len(s)] = totals.get(len(s), 0) + fiber.components
    return MilnorReport(tuple(rows), tuple(sorted(totals.items())))
