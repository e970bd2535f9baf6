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

Both are memoized by the value of the matrix, so every caller factors a
given matrix once.  ``memo`` is the one cache policy of the package.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

IntVec = tuple[int, ...]
IntMat = tuple[IntVec, ...]

# Entries kept by each memo.  The work shared within one request (the faces,
# localizations and ghosts of one atlas) fits in 64 entries: larger sizes
# were no faster on the benchmark workloads and only raised peak memory.
MEMO_SIZE = 64

# Least-recently-used cache keyed by the values of the (hashable) arguments.
# Every caller gets the same result object, so memoized results are immutable.
memo = functools.lru_cache(maxsize=MEMO_SIZE)

__all__ = [
    "IntVec",
    "IntMat",
    "AbelianGroupInvariants",
    "mat_identity",
    "mat_mul",
    "mat_vec",
    "transpose",
    "det",
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


def mat_identity(n: int) -> IntMat:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def mat_mul(a: IntMat, b: IntMat) -> IntMat:
    inner = len(a[0]) if a else 0
    if inner != len(b):
        raise ValueError("matrix dimensions do not match")
    cols = len(b[0]) if b else 0
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols))
        for i in range(len(a))
    )


def mat_vec(m: IntMat, v: IntVec) -> IntVec:
    if (len(m[0]) if m else 0) != len(v):
        raise ValueError("matrix and vector dimensions do not match")
    return tuple(sum(row[k] * v[k] for k in range(len(v))) for row in m)


def transpose(m: IntMat) -> IntMat:
    if not m:
        return ()
    return tuple(tuple(m[i][j] for i in range(len(m))) for j in range(len(m[0])))


def det(m: IntMat) -> int:
    """Determinant by fraction-free Bareiss elimination (all divisions exact)."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("determinant needs a square matrix")
    if n == 0:
        return 1
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


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
    # Work with explicit column lists; u starts as the identity and receives
    # exactly the column operations applied to w, preserving m @ u == w.
    w = [[m[i][j] for i in range(rows)] for j in range(cols)]
    u = [[int(i == j) for i in range(cols)] for j in range(cols)]
    col = 0
    for row in range(rows):
        if col == cols:
            break
        live = [j for j in range(col, cols) if w[j][row] != 0]
        while len(live) > 1:
            # Euclid across the row: smallest entry to the front, fold the
            # rest down by floored quotients.  min-abs strictly decreases.
            j0 = min(live, key=lambda j: abs(w[j][row]))
            if j0 != col:
                w[col], w[j0] = w[j0], w[col]
                u[col], u[j0] = u[j0], u[col]
            p = w[col][row]
            for j in range(col + 1, cols):
                if w[j][row]:
                    q = w[j][row] // p
                    if q:
                        w[j] = [x - q * y for x, y in zip(w[j], w[col])]
                        u[j] = [x - q * y for x, y in zip(u[j], u[col])]
            live = [j for j in range(col, cols) if w[j][row] != 0]
        if not live:
            continue
        if live[0] != col:
            w[col], w[live[0]] = w[live[0]], w[col]
            u[col], u[live[0]] = u[live[0]], u[col]
        if w[col][row] < 0:
            w[col] = [-x for x in w[col]]
            u[col] = [-x for x in u[col]]
        p = w[col][row]
        for j in range(col):
            # Columns left of the pivot are zero above this row at their own
            # pivot positions, so this cannot disturb earlier reductions.
            q = w[j][row] // p
            if q:
                w[j] = [x - q * y for x, y in zip(w[j], w[col])]
                u[j] = [x - q * y for x, y in zip(u[j], u[col])]
        col += 1
    h = tuple(tuple(w[j][i] for j in range(cols)) for i in range(rows))
    ut = tuple(tuple(u[j][i] for j in range(cols)) for i in range(cols))
    return h, ut


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
    a = [list(r) for r in m]
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]
    v = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def row_op(i, k, q):  # row_i -= q * row_k
        a[i] = [x - q * y for x, y in zip(a[i], a[k])]
        u[i] = [x - q * y for x, y in zip(u[i], u[k])]

    def row_swap(i, k):
        a[i], a[k] = a[k], a[i]
        u[i], u[k] = u[k], u[i]

    def col_op(j, k, q):  # col_j -= q * col_k
        for r in a:
            r[j] -= q * r[k]
        for r in v:
            r[j] -= q * r[k]

    def col_swap(j, k):
        for r in a:
            r[j], r[k] = r[k], r[j]
        for r in v:
            r[j], r[k] = r[k], r[j]

    for t in range(min(rows, cols)):
        while True:
            entries = [
                (i, j) for i in range(t, rows) for j in range(t, cols) if a[i][j]
            ]
            if not entries:
                break
            pi, pj = min(entries, key=lambda ij: abs(a[ij[0]][ij[1]]))
            if pi != t:
                row_swap(t, pi)
            if pj != t:
                col_swap(t, pj)
            p = a[t][t]
            clean = True
            for i in range(t + 1, rows):
                if a[i][t]:
                    row_op(i, t, a[i][t] // p)
                    if a[i][t]:
                        clean = False
            for j in range(t + 1, cols):
                if a[t][j]:
                    col_op(j, t, a[t][j] // p)
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
            row_op(t, offender, -1)
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
    s = tuple(tuple(r) for r in a)
    return s, tuple(tuple(r) for r in u), tuple(tuple(r) for r in v)


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


@dataclass(frozen=True)
class AbelianGroupInvariants:
    """Isomorphism type Z^rank x Z/t1 x ... x Z/tk with t1 | t2 | ... | tk.

    The torsion tuple lists only the invariant factors > 1.
    """

    rank: int
    torsion: tuple[int, ...]

    @property
    def torsion_order(self) -> int:
        n = 1
        for t in self.torsion:
            n *= t
        return n

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
    return sum(a * b for a, b in zip(w, m))


def primitive(v: IntVec) -> IntVec:
    """The primitive vector on the same ray: ``v`` divided by the gcd of its
    entries.  Rejects the zero vector, which spans no ray."""
    g = math.gcd(*v) if v else 0
    if g == 0:
        raise ValueError("the zero vector has no primitive representative")
    return tuple(x // g for x in v)
