"""Exact integer linear algebra over Z^d.

A matrix is a tuple of rows, each row a tuple of Python ints; a vector is a
tuple of ints.  Everything here is exact and fraction-free.  The ambient
ranks in this package stay in the single digits, so the implementations
favour being checkable by eye over asymptotic cleverness.

The two normal forms drive everything else:

* ``hnf`` -- column-style Hermite form ``m @ u == h``, used for membership
  in subgroups, kernels, canonical subgroup bases, and integer solving.
* ``snf`` -- Smith form ``u @ m @ v == s``, used to read off the isomorphism
  type of a finitely generated abelian group presented by generators.

Each form runs its elimination once, on one working matrix: ``m`` with the
identity appended, as extra columns for Hermite and as extra rows and
columns for Smith, so every step updates the transforms with the matrix
(Cohen, *A Course in Computational Algebraic Number Theory*, §2.4).  Both
are memoized by the value of the matrix, so every caller factors a given
matrix once.  ``memo`` is the one cache policy of the package.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from operator import mul

IntVec = tuple[int, ...]
IntMat = tuple[IntVec, ...]

# Entries kept by each memo.  The work shared within one request (the faces,
# face correspondences, dimensions and ghosts of one atlas, each computed
# once and read again by its validation, strata and fibers) fits in 64
# entries: larger sizes were no faster on the benchmark workloads and only
# raised peak memory.
MEMO_SIZE = 64

# Least-recently-used cache keyed by the values of the (hashable) arguments.
# Every caller gets the same result object, so memoized results are immutable.
memo = functools.lru_cache(maxsize=MEMO_SIZE)


def record(cls):
    """Class decorator: ``cls`` as an immutable named tuple of its annotated
    fields, with the methods and docstring of its body.  A record equals
    only records of its own class, hashes as the tuple of its fields and
    prints as ``Name(field=value, ...)``.  A ``__new__`` in the body builds
    the value with ``tuple.__new__``, since ``super()`` there names ``cls``."""
    def eq(self, other):
        return self.__class__ is other.__class__ and tuple.__eq__(self, other)
    body = dict(vars(cls), __slots__=(), __eq__=eq, __hash__=tuple.__hash__,
                __ne__=lambda self, other: not eq(self, other))
    del body["__dict__"], body["__weakref__"]
    fields = namedtuple(cls.__name__, cls.__annotations__, module=cls.__module__)
    return type(cls.__name__, (fields,), body)


__all__ = [
    "IntVec",
    "IntMat",
    "AbelianGroupInvariants",
    "mat_identity",
    "mat_vec",
    "transpose",
    "hnf",
    "snf",
    "hnf_basis",
    "kernel_basis",
    "lattice_rank",
    "solve_integer",
    "quotient_invariants",
    "pairing",
    "primitive",
]


def _integral(x) -> int:
    """``x`` as an int, refusing any value that ``int()`` would change, such
    as ``1.5``, or cannot read, such as ``None``, ``'x'``, ``nan`` or
    ``inf``.  A decimal string is read as ``int()`` reads it."""
    try:
        n = int(x)
        if n == x or isinstance(x, str):
            return n
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"{x!r} is not an integer")


def _rank(x, what="ambient rank") -> int:
    """``x`` as an int, refusing a negative rank."""
    n = _integral(x)
    if n < 0:
        raise ValueError(f"{what} {n} is negative")
    return n


def _int_rows(m) -> IntMat:
    """The rows of ``m`` with each entry read by ``_integral``."""
    return tuple(tuple(map(_integral, row)) for row in m)


def mat_identity(n: int) -> IntMat:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def mat_vec(m: IntMat, v: IntVec) -> IntVec:
    if (len(m[0]) if m else 0) != len(v):
        raise ValueError("matrix and vector dimensions do not match")
    return tuple(sum(row[k] * v[k] for k in range(len(v))) for row in m)


def transpose(m: IntMat) -> IntMat:
    if not m:
        return ()
    return tuple(tuple(m[i][j] for i in range(len(m))) for j in range(len(m[0])))


def hnf(m: IntMat) -> tuple[IntMat, IntMat]:
    """Column Hermite normal form: ``(h, u)`` with ``m @ u == h``, u unimodular.

    The form is canonical: pivot rows strictly increase left to right, every
    pivot is positive, the entries to the *left* of a pivot in its row lie in
    ``[0, pivot)``, and zero columns are pushed to the end.  Canonicity is what
    lets callers compare subgroups by comparing bases (see ``hnf_basis``).
    """
    return _hnf(tuple(map(tuple, m)))


@memo
def _hnf(m):
    rows = len(m)
    cols = len(m[0]) if m else 0
    # Working column j is column j of m over column j of the identity, so each
    # column operation keeps m @ u == h between the two blocks.
    w = [[m[i][j] for i in range(rows)] + [int(i == j) for i in range(cols)]
         for j in range(cols)]
    col = 0
    for row in range(rows):
        if col == cols:
            break
        live = [j for j in range(col, cols) if w[j][row] != 0]
        while len(live) > 1:
            # Euclid across the row: smallest entry to the front, fold the
            # rest down by floored quotients.  min-abs strictly decreases.
            j0 = min(live, key=lambda j: abs(w[j][row]))
            w[col], w[j0] = w[j0], w[col]
            p = w[col][row]
            for j in range(col + 1, cols):
                if q := w[j][row] // p:
                    w[j] = [x - q * y for x, y in zip(w[j], w[col])]
            live = [j for j in range(col, cols) if w[j][row] != 0]
        if not live:
            continue
        w[col], w[live[0]] = w[live[0]], w[col]
        if w[col][row] < 0:
            w[col] = [-x for x in w[col]]
        p = w[col][row]
        for j in range(col):
            # Columns left of the pivot are zero above this row at their own
            # pivot positions, so this cannot disturb earlier reductions.
            if q := w[j][row] // p:
                w[j] = [x - q * y for x, y in zip(w[j], w[col])]
        col += 1
    h = tuple(tuple(w[j][i] for j in range(cols)) for i in range(rows))
    u = tuple(tuple(w[j][i] for j in range(cols)) for i in range(rows, rows + cols))
    return h, u


def snf(m: IntMat) -> tuple[IntMat, IntMat, IntMat]:
    """Smith normal form: ``(s, u, v)`` with ``u @ m @ v == s``.

    ``u`` and ``v`` are unimodular and ``s`` is diagonal with nonnegative
    entries satisfying ``s[0][0] | s[1][1] | ...`` (zeros trailing).  The
    divisibility chain is enforced during the reduction: after each corner is
    cleared, any entry of the remaining block that the corner does not divide
    gets its row folded into the corner row and the corner is redone.
    """
    return _snf(tuple(map(tuple, m)))


@memo
def _snf(m):
    rows = len(m)
    cols = len(m[0]) if m else 0
    # Each row of m followed by the matching identity row (the u block), then
    # cols identity rows (the v block): a row operation among the first rows
    # rows updates a and u together, and a column operation among the first
    # cols columns updates a and v together.
    a = [list(r) + [int(i == j) for j in range(rows)] for i, r in enumerate(m)]
    a += [[int(i == j) for j in range(cols)] for i in range(cols)]
    for t in range(min(rows, cols)):
        while True:
            entries = [
                (i, j) for i in range(t, rows) for j in range(t, cols) if a[i][j]
            ]
            if not entries:
                break
            pi, pj = min(entries, key=lambda ij: abs(a[ij[0]][ij[1]]))
            a[t], a[pi] = a[pi], a[t]
            if pj != t:
                for r in a:
                    r[t], r[pj] = r[pj], r[t]
            p = a[t][t]
            clean = True
            for i in range(t + 1, rows):
                if q := a[i][t] // p:
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                    if a[i][t]:
                        clean = False
            for j in range(t + 1, cols):
                if q := a[t][j] // p:
                    for r in a:
                        r[j] -= q * r[t]
                    if a[t][j]:
                        clean = False
            if not clean:
                continue
            offender = None
            for i in range(t + 1, rows):
                if any(a[i][j] % p for j in range(t + 1, cols)):
                    offender = i
                    break
            if offender is None:
                break
            a[t] = [x + y for x, y in zip(a[t], a[offender])]
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
    s = tuple(tuple(r[:cols]) for r in a[:rows])
    u = tuple(tuple(r[cols:]) for r in a[:rows])
    return s, u, tuple(tuple(r) for r in a[rows:])


def hnf_basis(vectors) -> tuple[IntVec, ...]:
    """Canonical basis of the subgroup of Z^d generated by ``vectors``.

    Returns the nonzero columns of the column Hermite form of the matrix with
    the given vectors as columns.  Two generating sets span the same subgroup
    iff they yield equal bases, so this doubles as a subgroup equality test.
    """
    vecs = [tuple(v) for v in vectors]
    if not vecs:
        return ()
    d = len(vecs[0])
    if any(len(v) != d for v in vecs):
        raise ValueError("generators live in lattices of different ranks")
    h, _ = hnf(tuple(tuple(v[i] for v in vecs) for i in range(d)))
    return tuple(
        col
        for j in range(len(vecs))
        if any(col := tuple(h[i][j] for i in range(d)))
    )


def kernel_basis(m: IntMat) -> tuple[IntVec, ...]:
    """Basis of the integer kernel ``{x : m @ x == 0}``.

    These are the transform columns sitting over the zero columns of the
    Hermite form; they span a saturated subgroup, so every rational kernel
    vector is a rational combination of them.
    """
    rows = len(m)
    cols = len(m[0]) if m else 0
    h, u = hnf(m)
    return tuple(
        tuple(u[i][j] for i in range(cols))
        for j in range(cols)
        if not any(h[i][j] for i in range(rows))
    )


def lattice_rank(m: IntMat) -> int:
    """Rank of the column span (equivalently the row span) of ``m``."""
    rows = len(m)
    cols = len(m[0]) if m else 0
    h, _ = hnf(m)
    return sum(1 for j in range(cols) if any(h[i][j] for i in range(rows)))


def solve_integer(m: IntMat, b: IntVec) -> IntVec | None:
    """One integer solution of ``m @ x == b``, or ``None`` if there is none.

    Via the Hermite form ``m @ u == h`` the system becomes ``h @ y == b``,
    which substitution solves down the pivot rows; free coordinates of ``y``
    are set to zero, so the answer is canonical for a fixed ``m``.
    """
    rows = len(m)
    cols = len(m[0]) if m else 0
    if len(b) != rows:
        raise ValueError("right-hand side has the wrong length")
    h, u = hnf(m)
    y = [0] * cols
    residual = list(b)
    for j in range(cols):
        nz = [i for i in range(rows) if h[i][j]]
        if not nz:
            break  # zero columns are trailing
        r = nz[0]
        if residual[r] % h[r][j]:
            return None
        y[j] = residual[r] // h[r][j]
        if y[j]:
            for i in range(rows):
                residual[i] -= y[j] * h[i][j]
    if any(residual):
        return None
    return tuple(sum(u[i][k] * y[k] for k in range(cols)) for i in range(cols))


@record
class AbelianGroupInvariants:
    """Isomorphism type Z^rank x Z/t1 x ... x Z/tk with t1 | t2 | ... | tk.

    The torsion tuple lists only the invariant factors > 1.
    """

    rank: int
    torsion: tuple[int, ...]

    @property
    def torsion_order(self) -> int:
        return math.prod(self.torsion)

    @property
    def is_free(self) -> bool:
        return not self.torsion


def quotient_invariants(ambient_rank: int, columns: IntMat) -> AbelianGroupInvariants:
    """Invariants of Z^ambient_rank modulo the span of the matrix columns.

    The matrix is given by rows (so it has ``ambient_rank`` rows and one
    column per subgroup generator).  Reading the Smith diagonal: each entry
    > 1 is an invariant factor, each 1 kills a free generator, and the free
    rank is whatever the nonzero diagonal does not account for.
    """
    ambient_rank = _integral(ambient_rank)
    columns = tuple(tuple(map(_integral, row)) for row in columns)
    if len(columns) != ambient_rank:
        raise ValueError("matrix must have one row per ambient coordinate")
    s, _, _ = snf(columns)
    ncols = len(s[0]) if s else 0
    diag = [s[i][i] for i in range(min(ambient_rank, ncols))]
    nonzero = [d for d in diag if d]
    return AbelianGroupInvariants(
        rank=ambient_rank - len(nonzero),
        torsion=tuple(d for d in nonzero if d > 1),
    )


def pairing(w: IntVec, m: IntVec) -> int:
    """The perfect pairing between a lattice and its dual: the dot product."""
    if len(w) != len(m):
        raise ValueError("paired vectors must have the same length")
    return sum(map(mul, w, m))


def primitive(v: IntVec) -> IntVec:
    """The primitive vector on the same ray: ``v`` divided by the gcd of its
    entries.  Rejects the zero vector, which spans no ray."""
    g = math.gcd(*v) if v else 0
    if g == 0:
        raise ValueError("the zero vector has no primitive representative")
    return tuple(x // g for x in v)
