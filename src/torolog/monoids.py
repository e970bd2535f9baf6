"""Finitely generated submonoids of integer lattices.

A :class:`ToricMonoid` is stored as a finite generating set inside ``Z^d``.
Everything else — membership certificates, the generated group, the face
lattice, saturation, localization, ghost quotients — is computed exactly on
demand; what the other computations reuse is memoized by the monoid's value.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .cones import RationalCone, contains, dual_cone
from .cones import faces as cone_faces
from .lattice import (
    AbelianGroupInvariants,
    IntMat,
    hnf_basis,
    lattice_rank,
    mat_vec,
    memo,
    pairing,
    snf,
    solve_integer,
)

__all__ = [
    "GhostReport",
    "MonoidFace",
    "PrimeIdeal",
    "ToricMonoid",
    "edge",
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
        if ambient_rank < 0:
            raise ValueError(f"ambient rank {ambient_rank} is negative")
        cleaned = set()
        for v in generators:
            v = tuple(int(x) for x in v)
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


@dataclass(frozen=True)
class MonoidFace:
    """A face of a monoid: the face submonoid plus the parent generator
    indices lying on it."""

    monoid: ToricMonoid
    generator_indices: tuple


@dataclass(frozen=True)
class PrimeIdeal:
    """A prime ideal, recorded as the face it is the complement of together
    with the generator indices it contains."""

    face: MonoidFace
    complement_indices: tuple


@dataclass(frozen=True)
class GhostReport:
    """The quotient of the generated group by a face's group.

    ``sharp_generators`` lists, for each generator of the parent monoid, its
    image in the quotient as a ``(free_coordinates, torsion_residues)`` pair.
    """

    face: MonoidFace
    invariants: AbelianGroupInvariants
    sharp_generators: tuple


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


def _nonneg_rational_combination(vectors, target):
    """Solve ``sum(c_i * vectors[i]) == target`` with rational ``c_i >= 0``.

    Searches linearly independent subsets of the generating vectors, which
    suffices because any conic combination can be carried by one of them.
    Returns a full-length coefficient list or None.
    """
    d = len(target)
    n = len(vectors)
    r = min(lattice_rank(vectors), n) if vectors else 0
    if not any(target):
        return [Fraction(0)] * n
    for size in range(1, r + 1):
        for subset in itertools.combinations(range(n), size):
            sol = _solve_exact([vectors[i] for i in subset], target, d)
            if sol is not None and all(c >= 0 for c in sol):
                full = [Fraction(0)] * n
                for i, c in zip(subset, sol):
                    full[i] = c
                return full
    return None


def _solve_exact(cols, target, d):
    """Unique rational solution of ``cols @ x == target`` for independent
    columns, or None if the system is inconsistent or dependent."""
    k = len(cols)
    rows = [
        [Fraction(cols[j][i]) for j in range(k)] + [Fraction(target[i])]
        for i in range(d)
    ]
    pivot_rows = []
    row = 0
    for col in range(k):
        sel = next((r for r in range(row, d) if rows[r][col] != 0), None)
        if sel is None:
            return None  # dependent columns
        rows[row], rows[sel] = rows[sel], rows[row]
        pv = rows[row][col]
        rows[row] = [x / pv for x in rows[row]]
        for r in range(d):
            if r != row and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[row])]
        pivot_rows.append(row)
        row += 1
    if any(rows[r][k] != 0 for r in range(row, d)):
        return None
    return [rows[r][k] for r in pivot_rows]


@memo
def _splitting(g: ToricMonoid):
    """Unit/sharp decomposition used by the membership search and ``edge``.

    Returns ``(unit_idx, sharp_idx, w, unit_columns, relieve)`` where ``w`` is
    a functional vanishing exactly on the units among all generators, and
    ``relieve`` is a strictly positive integer vector with
    ``sum(relieve[j] * unit_j) == 0``, used to shift integer coefficients on
    the unit generators into the nonnegative range.
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
    dual = dual_cone(cone)
    w = tuple(
        sum(r[i] for r in dual.rays) for i in range(g.ambient_rank)
    ) if dual.rays else (0,) * g.ambient_rank
    units = [g.generators[i] for i in unit_idx]
    relieve = None
    if units:
        total = [0] * len(units)
        for j, u in enumerate(units):
            neg = tuple(-x for x in u)
            combo = _nonneg_rational_combination(units, neg)
            if combo is None:  # pragma: no cover - units span a linear space
                raise RuntimeError("unit generators do not close up")
            combo[j] += 1
            denom = math.lcm(*(c.denominator for c in combo))
            for i, c in enumerate(combo):
                total[i] += int(c * denom)
        relieve = tuple(total)
    unit_columns = tuple(
        tuple(u[i] for u in units) for i in range(g.ambient_rank)
    )
    return unit_idx, sharp_idx, w, unit_columns, relieve


def membership(g: ToricMonoid, m) -> "tuple | None":
    """Certificate that ``m`` lies in the monoid.

    Returns a tuple of nonnegative integer coefficients, one per generator,
    summing to ``m`` — or None when ``m`` is not a member.  Compare against
    None; the all-zero witness for ``m = 0`` is a valid return value.
    """
    m = tuple(int(x) for x in m)
    if len(m) != g.ambient_rank:
        raise ValueError(f"point {m!r} does not have length {g.ambient_rank}")
    n = len(g.generators)
    if not any(m):
        return (0,) * n
    if not g.generators:
        return None
    cone = exponent_cone(g)
    if not contains(cone, m):
        return None
    gen_columns = tuple(
        tuple(v[i] for v in g.generators) for i in range(g.ambient_rank)
    )
    if solve_integer(gen_columns, m) is None:
        return None  # not even in the generated group

    unit_idx, sharp_idx, w, unit_columns, relieve = _splitting(g)
    sharp = [(i, g.generators[i], pairing(w, g.generators[i])) for i in sharp_idx]
    budget = pairing(w, m)
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
                shift = max(shift, (-ci + zi - 1) // zi)  # ceil(-ci / zi)
        return tuple(ci + shift * zi for ci, zi in zip(c, relieve))

    def search(pos, rem, rem_budget):
        if pos == len(sharp):
            if rem_budget != 0:
                return None
            uc = unit_part(rem)
            if uc is None:
                return None
            return {}, uc
        key = (pos, rem)
        if key in failed:
            return None
        _, vec, wv = sharp[pos]
        for a in range(rem_budget // wv + 1):
            nxt = tuple(r - a * x for r, x in zip(rem, vec))
            found = search(pos + 1, nxt, rem_budget - a * wv)
            if found is not None:
                coeffs, uc = found
                coeffs[sharp[pos][0]] = a
                return coeffs, uc
        failed.add(key)
        return None

    found = search(0, m, budget)
    if found is None:
        return None
    sharp_coeffs, unit_coeffs = found
    witness = [0] * n
    for i, a in sharp_coeffs.items():
        witness[i] = a
    for i, a in zip(unit_idx, unit_coeffs):
        witness[i] = a
    return tuple(witness)


def edge(g: ToricMonoid) -> MonoidFace:
    """The minimal face: the submonoid of units, which is a group."""
    idx = _splitting(g)[0]
    return MonoidFace(
        ToricMonoid(g.ambient_rank, tuple(g.generators[i] for i in idx)), idx
    )


@memo
def faces(g: ToricMonoid) -> tuple:
    """All faces, in bijection with the faces of the exponent cone.

    Each face submonoid is generated by the parent generators lying on the
    corresponding cone face; the ordering follows the cone face ordering
    (dimension first), so the edge comes first and the monoid itself last.
    """
    out = []
    for f in cone_faces(exponent_cone(g)):
        idx = tuple(i for i, v in enumerate(g.generators) if contains(f, v))
        out.append(
            MonoidFace(
                ToricMonoid(g.ambient_rank, tuple(g.generators[i] for i in idx)),
                idx,
            )
        )
    return tuple(out)


def _require_face(g: ToricMonoid, f: MonoidFace):
    if f not in faces(g):
        raise ValueError(f"{f!r} is not a face of {g!r}")


def _face_with_indices(g: ToricMonoid, indices):
    """The face whose generator index set is exactly ``indices``, or None."""
    for face in faces(g):
        if face.generator_indices == indices:
            return face
    return None


def prime_ideals(g: ToricMonoid) -> tuple:
    """One prime ideal per face: the set of generators off that face."""
    out = []
    all_idx = range(len(g.generators))
    for f in faces(g):
        onface = set(f.generator_indices)
        out.append(
            PrimeIdeal(f, tuple(i for i in all_idx if i not in onface))
        )
    return tuple(out)


def saturation_membership(g: ToricMonoid, m) -> bool:
    """Whether ``m`` lies in the saturation: in the generated group and in
    the exponent cone."""
    m = tuple(int(x) for x in m)
    if len(m) != g.ambient_rank:
        raise ValueError(f"point {m!r} does not have length {g.ambient_rank}")
    if solve_integer(_gp_matrix(g), m) is None:
        return False
    return contains(exponent_cone(g), m)


def hilbert_basis(cone: RationalCone, lattice=None) -> tuple:
    """Minimal generating set of the lattice points of a rational cone.

    ``lattice`` defaults to the standard integer lattice; a full-rank basis
    of a sublattice of ``Z^d`` may be supplied instead.  For cones with
    lineality the result is minimal modulo units and includes a basis of the
    unit lattice together with its negatives.
    """
    d = cone.ambient_rank
    if lattice is not None:
        basis = tuple(tuple(int(x) for x in b) for b in lattice)
        if len(basis) != d:
            raise ValueError("lattice basis must have full rank")
        bmat_cols = list(basis)
        transformed = []
        for r in cone.generating_vectors():
            sol = _solve_exact(bmat_cols, r, d)
            if sol is None:
                raise ValueError("lattice basis must have full rank")
            denom = math.lcm(*(c.denominator for c in sol))
            transformed.append(tuple(int(c * denom) for c in sol))
        inner = hilbert_basis(RationalCone(d, transformed))
        back = tuple(
            tuple(sum(h[j] * basis[j][i] for j in range(d)) for i in range(d))
            for h in inner
        )
        return tuple(sorted(back))

    if cone.lineality:
        return _hilbert_basis_with_units(cone)
    rays = cone.rays
    if not rays:
        return ()
    lo = [sum(min(0, r[i]) for r in rays) for i in range(d)]
    hi = [sum(max(0, r[i]) for r in rays) for i in range(d)]
    dual = dual_cone(cone)
    w = tuple(sum(r[i] for r in dual.rays) for i in range(d))

    candidates = []
    for p in _box_points(lo, hi):
        if any(p) and contains(cone, p):
            candidates.append(p)
    candidates.sort(key=lambda p: (pairing(w, p), p))

    accepted = []
    weights = []
    for x in candidates:
        if not _representable(x, accepted, weights, pairing(w, x)):
            accepted.append(x)
            weights.append(pairing(w, x))
    return tuple(sorted(accepted))


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


def _hilbert_basis_with_units(cone: RationalCone) -> tuple:
    """Hilbert basis of a cone with lineality: split off the unit lattice,
    compute on the sharp quotient, and lift back."""
    d = cone.ambient_rank
    lin = cone.lineality
    ell = len(lin)
    lin_columns = tuple(tuple(b[i] for b in lin) for i in range(d))
    s, u, v = snf(lin_columns)
    # The lineality lattice is saturated, so u carries it onto the span of
    # the first ell coordinate vectors.
    proj_rays = []
    for r in cone.rays:
        ur = mat_vec(u, r)
        proj_rays.append(tuple(ur[ell:]))
    inner = hilbert_basis(RationalCone(d - ell, tuple(proj_rays)))
    uinv = _integer_inverse(u)
    lifted = [mat_vec(uinv, (0,) * ell + tuple(h)) for h in inner]
    out = set(lifted)
    for b in lin:
        out.add(tuple(b))
        out.add(tuple(-x for x in b))
    return tuple(sorted(out))


def _integer_inverse(u):
    """Inverse of a unimodular integer matrix."""
    d = len(u)
    cols = []
    for j in range(d):
        e = tuple(1 if i == j else 0 for i in range(d))
        x = solve_integer(u, e)
        if x is None:  # pragma: no cover - u is unimodular by construction
            raise ValueError("matrix is not unimodular")
        cols.append(x)
    return tuple(tuple(cols[j][i] for j in range(d)) for i in range(d))


def saturate(g: ToricMonoid) -> ToricMonoid:
    """The saturation: all group elements lying in the exponent cone.

    Computed in coordinates of the generated group, where the saturation is
    exactly the set of lattice points of the coordinate cone.
    """
    basis = gp(g)
    if not basis:
        return ToricMonoid(g.ambient_rank, ())
    k = len(basis)
    bmat = _gp_matrix(g)
    coords = []
    for v in g.generators:
        c = solve_integer(bmat, v)
        coords.append(c)
    hb = hilbert_basis(RationalCone(k, tuple(coords)))
    return ToricMonoid(g.ambient_rank, tuple(mat_vec(bmat, h) for h in hb))


def is_saturated(g: ToricMonoid) -> bool:
    """Whether the monoid already contains its saturation."""
    return all(membership(g, v) is not None for v in saturate(g).generators)


def localize(g: ToricMonoid, f: MonoidFace) -> ToricMonoid:
    """Invert a face: adjoin the negatives of its generators."""
    _require_face(g, f)
    extra = tuple(tuple(-x for x in v) for v in f.monoid.generators)
    return ToricMonoid(g.ambient_rank, g.generators + extra)


def ghost(g: ToricMonoid, f: MonoidFace) -> GhostReport:
    """The quotient of the generated group by the face's group, with the
    images of all generators in free/torsion coordinates."""
    _require_face(g, f)
    basis = gp(g)
    k = len(basis)
    bmat = _gp_matrix(g)
    face_coords = [solve_integer(bmat, v) for v in f.monoid.generators]
    cols = tuple(
        tuple(c[i] for c in face_coords) for i in range(k)
    )
    s, u, v = snf(cols)
    diag = [s[i][i] for i in range(min(k, len(face_coords)))]
    nonzero = [i for i, dv in enumerate(diag) if dv != 0]
    torsion_pos = [i for i in nonzero if diag[i] > 1]
    free_pos = [i for i in range(k) if i not in set(nonzero)]
    invariants = AbelianGroupInvariants(
        k - len(nonzero), tuple(diag[i] for i in torsion_pos)
    )
    images = []
    for gen in g.generators:
        y = mat_vec(u, solve_integer(bmat, gen))
        free = tuple(y[i] for i in free_pos)
        tors = tuple(y[i] % diag[i] for i in torsion_pos)
        images.append((free, tors))
    return GhostReport(f, invariants, tuple(images))


def monoid_equal(a: ToricMonoid, b: ToricMonoid) -> bool:
    """Semantic equality: mutual membership of generators."""
    if a.ambient_rank != b.ambient_rank:
        return False
    return all(membership(a, v) is not None for v in b.generators) and all(
        membership(b, v) is not None for v in a.generators
    )
