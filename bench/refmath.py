"""Reference mathematics for the benchmark, written apart from torolog.

Everything here is small and direct: Gaussian elimination over the
rationals, Carathéodory-style cone membership, face enumeration of cones of
rank at most three, and bounded enumeration of monoid elements.  The
corpus generator uses it to choose inputs and the checkers use it to verify
answers, so none of it may import torolog.
"""

import itertools
import math
from fractions import Fraction


def primitive(v):
    g = math.gcd(*v)
    return tuple(x // g for x in v)


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def rank(vectors):
    """Rank of a list of equal-length integer vectors."""
    rows = [[Fraction(x) for x in v] for v in vectors]
    r = 0
    width = len(rows[0]) if rows else 0
    for col in range(width):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col] / rows[r][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def solve(columns, target):
    """The rational coefficients ``c`` with ``sum(c_i columns[i]) == target``
    for linearly independent ``columns``, or None if there are none."""
    d, k = len(target), len(columns)
    rows = [
        [Fraction(columns[j][i]) for j in range(k)] + [Fraction(target[i])]
        for i in range(d)
    ]
    r = 0
    for col in range(k):
        pivot = next((i for i in range(r, d) if rows[i][col]), None)
        if pivot is None:
            return None
        rows[r], rows[pivot] = rows[pivot], rows[r]
        rows[r] = [x / rows[r][col] for x in rows[r]]
        for i in range(d):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    if any(rows[i][k] for i in range(r, d)):
        return None
    return [rows[i][k] for i in range(k)]


def in_cone(generators, x):
    """Whether ``x`` is a nonnegative real combination of ``generators``.

    By Carathéodory a conic combination can always be carried by a linearly
    independent subset, so trying every such subset decides membership.
    """
    if not any(x):
        return True
    d = len(x)
    for size in range(1, min(d, len(generators)) + 1):
        for subset in itertools.combinations(generators, size):
            c = solve(subset, x)
            if c is not None and all(v >= 0 for v in c):
                return True
    return False


def extreme_rays(generators):
    """Primitive extreme rays of a pointed cone, sorted."""
    dirs = sorted({primitive(v) for v in generators if any(v)})
    return [
        r for r in dirs if not in_cone([s for s in dirs if s != r], r)
    ]


def face_index_sets(generators):
    """Generator index sets of every face of the pointed cone spanned by
    ``generators``, for cones of dimension at most three: the empty face,
    one face per extreme ray, the facets in dimension three, and the cone."""
    gens = [tuple(v) for v in generators]
    d = rank(gens)
    if d > 3:
        raise ValueError("face enumeration is only written for rank <= 3")
    out = {(), tuple(range(len(gens)))}
    for r in extreme_rays(gens):
        out.add(tuple(i for i, g in enumerate(gens) if primitive(g) == r))
    if d == 3:
        out.update(idx for _, idx in facets(gens))
    return sorted(out, key=lambda s: (len(s), s))


def facets(generators):
    """``(inward primitive normal, generator index set)`` for every facet of
    the full-dimensional pointed cone spanned by ``generators``."""
    gens = [tuple(v) for v in generators]
    return [
        (n, tuple(i for i, g in enumerate(gens) if not dot(n, g)))
        for n in facet_normals(gens)
    ]


def determinant(rows):
    """Determinant of a square integer matrix."""
    m = [[Fraction(x) for x in r] for r in rows]
    n = len(m)
    out = Fraction(1)
    for c in range(n):
        p = next((i for i in range(c, n) if m[i][c]), None)
        if p is None:
            return 0
        if p != c:
            m[c], m[p] = m[p], m[c]
            out = -out
        out *= m[c][c]
        for i in range(c + 1, n):
            f = m[i][c] / m[c][c]
            m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return int(out)


def spans_lattice(vectors):
    """Whether the integer vectors generate all of ``Z^d``: the gcd of their
    maximal minors is one."""
    d = len(vectors[0])
    g = 0
    for rows in itertools.combinations(vectors, d):
        g = math.gcd(g, determinant(rows))
    return g == 1


def reachable(generators, weight, bound):
    """Every sum of generators whose ``weight`` pairing is at most ``bound``.

    ``weight`` must pair positively with every generator, so the search is
    finite.  Returns a set of vectors, the zero vector included.
    """
    gens = [(tuple(g), dot(weight, g)) for g in generators]
    if any(w <= 0 for _, w in gens):
        raise ValueError("the weight must be positive on every generator")
    zero = (0,) * len(weight)
    seen = {zero}
    frontier = [(zero, 0)]
    while frontier:
        nxt = []
        for v, w in frontier:
            for g, wg in gens:
                if w + wg <= bound:
                    u = tuple(a + b for a, b in zip(v, g))
                    if u not in seen:
                        seen.add(u)
                        nxt.append((u, w + wg))
        frontier = nxt
    return seen


def semigroup_table(generators, bound):
    """``table[x]`` is 1 exactly when ``x`` is a sum of the positive
    integers ``generators``, for ``0 <= x <= bound``."""
    table = bytearray(bound + 1)
    table[0] = 1
    for x in range(bound + 1):
        if table[x]:
            for a in generators:
                if x + a <= bound:
                    table[x + a] = 1
    return table


def is_combination(x, basis, weight):
    """Whether ``x`` is a nonnegative integer combination of ``basis``;
    ``weight`` must pair positively with every basis vector."""
    memo = {}
    ws = [dot(weight, b) for b in basis]

    def rec(v, wv):
        if wv == 0:
            return not any(v)
        if wv < 0:
            return False
        if v not in memo:
            memo[v] = any(
                rec(tuple(a - c for a, c in zip(v, b)), wv - wb)
                for b, wb in zip(basis, ws)
            )
        return memo[v]

    return rec(tuple(x), dot(weight, x))


def _inverse_scaled(rays):
    """``(A, D)`` with ``A`` integer and ``D > 0`` such that the coordinates
    of ``p`` in the basis ``rays`` are ``A p / D``."""
    d = len(rays)
    cols = [solve(rays, tuple(int(i == j) for i in range(d))) for j in range(d)]
    D = 1
    for c in cols:
        for x in c:
            D = D * x.denominator // math.gcd(D, x.denominator)
    return [[int(cols[j][i] * D) for j in range(d)] for i in range(d)], D


def parallelepiped_points(rays):
    """Lattice points ``sum(l_i rays[i])`` with every ``l_i`` in [0, 1), for
    linearly independent ``rays`` spanning the whole space."""
    d = len(rays)
    a, D = _inverse_scaled(rays)
    lo = [sum(min(0, r[i]) for r in rays) for i in range(d)]
    hi = [sum(max(0, r[i]) for r in rays) for i in range(d)]
    out = []
    for p in itertools.product(*(range(x, y + 1) for x, y in zip(lo, hi))):
        if all(0 <= dot(row, p) < D for row in a):
            out.append(p)
    return out


def facet_normals(rays):
    """Inward primitive normals of the facets of the full-dimensional pointed
    cone spanned by ``rays``: the hyperplanes through ``d - 1`` independent
    rays that have every ray on one side.  The normal's entries are the
    signed maximal minors of those rays."""
    rays = [tuple(r) for r in rays]
    d = len(rays[0])
    out = set()
    for sub in itertools.combinations(rays, d - 1):
        n = tuple(
            (-1) ** i * determinant([r[:i] + r[i + 1:] for r in sub])
            for i in range(d)
        )
        if not any(n):
            continue
        n = primitive(n)
        signs = {(dot(n, r) > 0) - (dot(n, r) < 0) for r in rays}
        if signs <= {0, -1}:
            n = tuple(-x for x in n)
        elif not signs <= {0, 1}:
            continue
        out.add(n)
    return sorted(out)


def simplicial_pieces(rays):
    """Sets of linearly independent extreme rays whose cones cover the
    full-dimensional pointed cone spanned by ``rays``, for rank at most
    three.  A simplicial cone is its own piece; otherwise each piece joins
    the first extreme ray to a facet that does not contain it."""
    ext = extreme_rays(rays)
    if len(ext) == len(ext[0]):
        return [ext]
    if len(ext[0]) != 3:
        raise ValueError("triangulation is only written for rank <= 3")
    apex = ext[0]
    return [
        [apex] + [r for r in ext if not dot(n, r)]
        for n in facet_normals(ext)
        if dot(n, apex)
    ]


def positive_weight(generators):
    """A small integer functional positive on every generator, or None."""
    d = len(generators[0])
    for size in range(1, 4):
        for w in itertools.product(range(-size, size + 1), repeat=d):
            if all(dot(w, g) > 0 for g in generators):
                return w
    return None
