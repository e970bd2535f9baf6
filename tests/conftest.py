"""Shared corpus generators, oracles and the in-process command line for the
test suite.

Plain functions rather than fixtures: the property tests want explicit seeded
`random.Random` instances so every run exercises the same corpus.
"""

import contextlib
import io
import random
import sys

from torolog.cli import main
from torolog.lattice import IntMat, hnf
from torolog.monoids import MonoidFace, ToricMonoid, faces


def run_cli(argv, stdin):
    """Run one ``torolog`` command in this process with ``stdin`` as its
    input; return ``(exit code, stdout, stderr)``."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def random_cone(rng: random.Random, rank: int):
    """A small random cone, occasionally with forced lineality."""
    from torolog.cones import RationalCone

    gens = []
    for _ in range(rng.randint(1, rank + 2)):
        v = tuple(rng.randint(-4, 4) for _ in range(rank))
        if any(v):
            gens.append(v)
    if gens and rng.random() < 0.3:
        flipped = rng.choice(gens)
        gens.append(tuple(-x for x in flipped))
    return RationalCone(rank, tuple(gens))


def random_monoid(rng: random.Random, rank: int, allow_units: bool = True):
    """A small random toric monoid; sometimes includes a unit pair."""
    from torolog.monoids import ToricMonoid

    gens = []
    for _ in range(rng.randint(1, rank + 2)):
        v = tuple(rng.randint(-3, 3) for _ in range(rank))
        if any(v):
            gens.append(v)
    if not gens:
        gens.append((1,) + (0,) * (rank - 1))
    if allow_units and rng.random() < 0.25:
        flipped = rng.choice(gens)
        gens.append(tuple(-x for x in flipped))
    return ToricMonoid(rank, tuple(gens))


# Matrix product and determinant: the oracles that check the transforms of
# the normal forms (``m @ u == h``, ``det(u) in (1, -1)``).
def mat_mul(a: IntMat, b: IntMat) -> IntMat:
    inner = len(a[0]) if a else 0
    if inner != len(b):
        raise ValueError("matrix dimensions do not match")
    cols = len(b[0]) if b else 0
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols))
        for i in range(len(a))
    )


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


# Rank and the minimal face: the oracles for ``cones.dim`` and for the face
# that ``monoids.faces`` lists first.
def lattice_rank(m: IntMat) -> int:
    """Rank of the column span (equivalently the row span) of ``m``."""
    rows = len(m)
    cols = len(m[0]) if m else 0
    h, _ = hnf(m)
    return sum(1 for j in range(cols) if any(h[i][j] for i in range(rows)))


def edge(g: ToricMonoid) -> MonoidFace:
    """The minimal face: the submonoid of units, which is a group."""
    return faces(g)[0]
