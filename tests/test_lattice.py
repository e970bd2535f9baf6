"""Exact integer linear algebra: normal forms, quotients, the duality pairing.

Expected values for the non-trivial cases were derived by hand (the derivations
are recorded next to each assertion) or cross-checked against brute-force
reference routines and, where sympy is installed, its Hermite and Smith forms;
both are deliberately independent of the library code.
"""

import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import det, mat_mul
from torolog.lattice import (
    _hnf,
    _integral,
    _snf,
    hnf,
    hnf_basis,
    mat_vec,
    snf,
    quotient_invariants,
    pairing,
    primitive,
    mat_identity,
    lattice_rank,
    solve_integer,
)
from torolog.fans import affine_atlas
from torolog.monoids import ToricMonoid, faces
from torolog.morphisms import ToricMorphismData
from torolog.rounding import relative_fiber


def is_unimodular(u):
    return det(u) in (1, -1)


# ---------------------------------------------------------------------------
# Hermite normal form (column style: m @ u == h)
# ---------------------------------------------------------------------------

def test_hnf_identity_is_fixed():
    m = ((1, 0), (0, 1))
    h, u = hnf(m)
    assert h == ((1, 0), (0, 1))
    assert u == ((1, 0), (0, 1))


def test_hnf_euclid_on_first_row():
    # Columns (2,0) and (3,0): gcd(2,3)=1, so the column span of the first row
    # is Z x {0} and the HNF columns are (1,0),(0,0).
    m = ((2, 3), (0, 0))
    h, u = hnf(m)
    assert h == ((1, 0), (0, 0))
    assert mat_mul(m, u) == h
    assert is_unimodular(u)


def test_hnf_zero_matrix():
    m = ((0, 0), (0, 0))
    h, u = hnf(m)
    assert h == m
    assert is_unimodular(u)


def test_hnf_transform_is_exact():
    rng = random.Random(7)
    for _ in range(50):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = tuple(
            tuple(rng.randint(-9, 9) for _ in range(cols)) for _ in range(rows)
        )
        h, u = hnf(m)
        assert mat_mul(m, u) == h
        assert is_unimodular(u)
        # Column echelon shape: pivots move strictly down, zero columns last.
        pivots = []
        for j in range(cols):
            col = [h[i][j] for i in range(rows)]
            nonzero = [i for i, x in enumerate(col) if x]
            if nonzero:
                pivots.append(nonzero[0])
        assert pivots == sorted(pivots)
        for j in range(len(pivots), cols):
            assert all(h[i][j] == 0 for i in range(rows))
        # Pivot entries positive, entries to their left reduced and nonnegative.
        for j, i in enumerate(pivots):
            assert h[i][j] > 0
            for jj in range(j):
                assert 0 <= h[i][jj] < h[i][j]


# ---------------------------------------------------------------------------
# Smith normal form (u @ m @ v == s)
# ---------------------------------------------------------------------------

def test_snf_hand_reduction_of_diag_2_3():
    # diag(2,3): add column 2 to column 1 -> [[2,0],[3,3]]; then row/column
    # Euclid turns the corner entry into gcd(2,3)=1 and the determinant 6 must
    # be preserved, giving diag(1,6).
    m = ((2, 0), (0, 3))
    s, u, v = snf(m)
    assert s == ((1, 0), (0, 6))
    assert mat_mul(mat_mul(u, m), v) == s
    assert is_unimodular(u) and is_unimodular(v)


def test_snf_identity():
    m = mat_identity(3)
    s, u, v = snf(m)
    assert s == m


def test_snf_single_column_already_diagonal():
    m = ((2,), (0,))
    s, u, v = snf(m)
    assert s == ((2,), (0,))
    assert mat_mul(mat_mul(u, m), v) == s


def test_snf_divisibility_and_sign_normalization():
    rng = random.Random(11)
    for _ in range(80):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = tuple(
            tuple(rng.randint(-12, 12) for _ in range(cols)) for _ in range(rows)
        )
        s, u, v = snf(m)
        assert mat_mul(mat_mul(u, m), v) == s
        assert is_unimodular(u) and is_unimodular(v)
        diag = [s[i][i] for i in range(min(rows, cols))]
        assert all(d >= 0 for d in diag)
        for a, b in zip(diag, diag[1:]):
            if a != 0:
                assert b % a == 0
            else:
                assert b == 0
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert s[i][j] == 0


@given(
    st.lists(
        st.lists(st.integers(min_value=-30, max_value=30), min_size=3, max_size=3),
        min_size=2,
        max_size=4,
    )
)
@settings(max_examples=60, deadline=None)
def test_snf_relation_holds_on_hypothesis_matrices(rows):
    m = tuple(tuple(r) for r in rows)
    s, u, v = snf(m)
    assert mat_mul(mat_mul(u, m), v) == s
    assert is_unimodular(u) and is_unimodular(v)


# ---------------------------------------------------------------------------
# Quotient invariants Z^d / <columns>
# ---------------------------------------------------------------------------

def test_quotient_by_single_even_vector():
    # Z^2 / <(2,0)> = Z/2 + Z: one invariant factor 2, free rank 1.
    inv = quotient_invariants(2, (((2,), (0,))))
    assert inv.rank == 1
    assert inv.torsion == (2,)
    assert not inv.is_free


def test_quotient_by_nothing_is_free():
    inv = quotient_invariants(2, ((), ()))
    assert inv.rank == 2
    assert inv.torsion == ()
    assert inv.is_free


def test_quotient_by_full_basis_is_trivial():
    inv = quotient_invariants(2, ((1, 0), (0, 1)))
    assert inv.rank == 0
    assert inv.torsion == ()


def test_quotient_invariants_refuse_a_non_integral_entry():
    with pytest.raises(ValueError, match=r"^1\.5 is not an integer$"):
        quotient_invariants(1, ((1.5,),))
    assert quotient_invariants(1, ((3.0,),)).torsion == (3,)


def test_quotient_invariants_refuse_a_non_integral_rank():
    with pytest.raises(ValueError, match=r"^1\.5 is not an integer$"):
        quotient_invariants(1.5, ((2,),))
    assert quotient_invariants(1.0, ((2,),)).torsion == (2,)


def brute_force_coset_count(columns):
    """Index of the rank-2 subgroup of Z^2 spanned by the columns of a 2x2
    integer matrix, counted as the number of integer points in the half-open
    fundamental parallelogram {A t : t in [0,1)^2} — one point per coset.

    Independent of the library: plain Fraction solves over a bounding box.
    """
    (a, b), (c, d) = columns
    assert a * d - b * c != 0
    corners = [(0, 0), (a, c), (b, d), (a + b, c + d)]
    xs = [p[0] for p in corners]
    ys = [p[1] for p in corners]
    count = 0
    detm = a * d - b * c
    for x in range(min(xs) - 1, max(xs) + 2):
        for y in range(min(ys) - 1, max(ys) + 2):
            # Solve (x,y) = t*(a,c) + s*(b,d) by Cramer's rule.
            t = Fraction(x * d - y * b, detm)
            s = Fraction(a * y - c * x, detm)
            if 0 <= t < 1 and 0 <= s < 1:
                count += 1
    return count


def test_quotient_invariants_agree_with_coset_count_small_indices():
    rng = random.Random(3)
    checked = 0
    while checked < 25:
        m = ((rng.randint(-6, 6), rng.randint(-6, 6)),
             (rng.randint(-6, 6), rng.randint(-6, 6)))
        d = m[0][0] * m[1][1] - m[0][1] * m[1][0]
        if d == 0 or abs(d) > 50:
            continue
        inv = quotient_invariants(2, m)
        assert inv.rank == 0
        prod = 1
        for t in inv.torsion:
            prod *= t
        assert prod == brute_force_coset_count(m)
        checked += 1


def test_quotient_torsion_is_divisibility_sorted():
    inv = quotient_invariants(2, ((2, 0), (0, 4)))
    assert inv.torsion == (2, 4)
    inv2 = quotient_invariants(2, ((2, 2), (2, -2)))
    # det = -8; invariant factors of [[2,2],[2,-2]] are 2, 4.
    assert inv2.torsion == (2, 4)


# ---------------------------------------------------------------------------
# Pairing and primitive vectors
# ---------------------------------------------------------------------------

def test_pairing_orthogonal_basis_vectors():
    assert pairing((1, 0), (0, 1)) == 0


def test_pairing_dot_product_by_hand():
    assert pairing((2, 3), (1, 1)) == 5


def test_pairing_zero_vector():
    assert pairing((4, -7), (0, 0)) == 0


def test_pairing_length_mismatch_raises():
    with pytest.raises(ValueError):
        pairing((1, 0), (1,))


@given(
    st.lists(st.integers(-1000, 1000), min_size=3, max_size=3),
    st.lists(st.integers(-1000, 1000), min_size=3, max_size=3),
    st.lists(st.integers(-1000, 1000), min_size=3, max_size=3),
)
@settings(max_examples=100, deadline=None)
def test_pairing_is_bilinear(w, m1, m2):
    w, m1, m2 = tuple(w), tuple(m1), tuple(m2)
    total = tuple(a + b for a, b in zip(m1, m2))
    assert pairing(w, total) == pairing(w, m1) + pairing(w, m2)


def test_primitive_divides_by_gcd():
    assert primitive((4, 6)) == (2, 3)


def test_primitive_fixed_point():
    assert primitive((1, 0)) == (1, 0)


def test_primitive_preserves_sign():
    assert primitive((0, -5)) == (0, -1)


def test_primitive_zero_vector_rejected():
    with pytest.raises(ValueError):
        primitive((0, 0))


# ---------------------------------------------------------------------------
# Solver helpers used across modules
# ---------------------------------------------------------------------------

def test_det_of_the_empty_matrix_is_one_and_of_a_singular_one_zero():
    assert det(()) == 1
    # No entry below the zero corner is nonzero, so no row swap can help.
    assert det(((0, 1), (0, 2))) == 0


def test_solve_integer_finds_exact_solution():
    # columns (2,1),(1,1): solve for (5,3) -> x = (2,1).
    m = ((2, 1), (1, 1))
    x = solve_integer(m, (5, 3))
    assert x == (2, 1)


def test_solve_integer_reports_unsolvable():
    m = ((2,), (0,))
    assert solve_integer(m, (1, 0)) is None
    assert solve_integer(m, (0, 1)) is None


def test_integral_keeps_exact_values_and_refuses_the_rest():
    assert [_integral(x) for x in (3, -2, 4.0, Fraction(6, 2), "7", True)] == [
        3, -2, 4, 3, 7, 1
    ]
    for x, shown in ((1.5, "1.5"), (Fraction(1, 2), "Fraction(1, 2)")):
        with pytest.raises(ValueError, match=rf"^{re.escape(shown)} is not an integer$"):
            _integral(x)
    with pytest.raises(ValueError):
        _integral("1.5")


LINE = ToricMonoid(1, ((1,),))


@pytest.mark.parametrize("x", [None, [1], "x", math.nan, math.inf], ids=repr)
@pytest.mark.parametrize("build", [
    _integral,
    lambda x: ToricMonoid(1, ((x,),)),
    lambda x: ToricMorphismData(
        ((x,),), affine_atlas(LINE), affine_atlas(LINE)
    ),
    lambda x: relative_fiber(((x,),), faces(LINE)[-1]),
], ids=["_integral", "ToricMonoid", "ToricMorphismData", "relative_fiber"])
def test_an_entry_int_cannot_read_gets_the_one_integrality_refusal(build, x):
    # int() raises TypeError, ValueError or OverflowError on these; each
    # reader answers with the one refusal instead.
    with pytest.raises(
        ValueError, match=rf"^{re.escape(repr(x))} is not an integer$"
    ):
        build(x)


@pytest.mark.parametrize("call, message", [
    (lambda: mat_vec(((1, 2),), (1,)),
     "matrix and vector dimensions do not match"),
    (lambda: hnf_basis([(1, 0), (1,)]),
     "generators live in lattices of different ranks"),
    (lambda: solve_integer(((1, 0),), (1, 2)),
     "right-hand side has the wrong length"),
    (lambda: quotient_invariants(2, ((1,),)),
     "matrix must have one row per ambient coordinate"),
])
def test_malformed_arguments_are_refused(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_lattice_rank():
    assert lattice_rank(((1, 2), (2, 4))) == 1
    assert lattice_rank(((1, 0), (0, 1))) == 2
    assert lattice_rank(((0, 0), (0, 0))) == 0


# ---------------------------------------------------------------------------
# Oracle: sympy's Hermite and Smith forms (a test-only dependency)
# ---------------------------------------------------------------------------

def seeded_matrices(seed, count):
    """Integer matrices of 1-5 rows and columns; a third of them get a row
    that repeats the sum of two others, so rank-deficient cases occur."""
    rng = random.Random(seed)
    for _ in range(count):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        if rows > 1 and rng.random() < 0.3:
            a, b = rng.sample(m, 2)
            m.append([x + y for x, y in zip(a, b)])
        yield tuple(map(tuple, m))


def test_hnf_spans_the_column_lattice_of_sympys_hermite_form():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import hermite_normal_form

    for m in seeded_matrices(17, 80):
        h, _ = hnf(m)
        rank = sum(any(row[j] for row in h) for j in range(len(h[0])))
        want = hermite_normal_form(sympy.Matrix(m))
        assert want.cols == rank
        if rank:
            basis = sympy.Matrix([row[:rank] for row in h])
            assert hermite_normal_form(basis) == want


def test_snf_diagonal_equals_sympys_smith_form():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form

    for m in seeded_matrices(19, 80):
        s, _, _ = snf(m)
        want = smith_normal_form(sympy.Matrix(m), domain=sympy.ZZ)
        diag = range(min(len(m), len(m[0])))
        assert [s[i][i] for i in diag] == [abs(int(want[i, i])) for i in diag]


# ---------------------------------------------------------------------------
# Oracle: the normal forms as they were before each ran on one working matrix
# ---------------------------------------------------------------------------

def oracle_hnf(m):
    """``_hnf`` with its elimination written out on ``w`` and on ``u``."""
    rows = len(m)
    cols = len(m[0]) if m else 0
    w = [[m[i][j] for i in range(rows)] for j in range(cols)]
    u = [[int(i == j) for i in range(cols)] for j in range(cols)]
    col = 0
    for row in range(rows):
        if col == cols:
            break
        live = [j for j in range(col, cols) if w[j][row] != 0]
        while len(live) > 1:
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
            q = w[j][row] // p
            if q:
                w[j] = [x - q * y for x, y in zip(w[j], w[col])]
                u[j] = [x - q * y for x, y in zip(u[j], u[col])]
        col += 1
    h = tuple(tuple(w[j][i] for j in range(cols)) for i in range(rows))
    ut = tuple(tuple(u[j][i] for j in range(cols)) for i in range(cols))
    return h, ut


def oracle_snf(m):
    """``_snf`` with every row operation applied to ``a`` and ``u`` and every
    column operation to ``a`` and ``v`` separately."""
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


def kernel_corpus(seed, count):
    """Matrices of 0-7 rows and 0-8 columns with entries up to 50 in absolute
    value: dense, sparse (mostly zero) and rank-deficient ones, the empty
    matrix and matrices with rows but no columns among them."""
    rng = random.Random(seed)
    for _ in range(count):
        rows, cols = rng.randint(0, 7), rng.randint(0, 8)
        bound = rng.choice((1, 3, 9, 50))
        density = rng.choice((0.2, 0.5, 1.0))
        m = [[rng.randint(-bound, bound) if rng.random() < density else 0
              for _ in range(cols)] for _ in range(rows)]
        if rows > 1 and rng.random() < 0.3:
            a, b = rng.sample(m, 2)
            m[rng.randrange(rows)] = [x - 2 * y for x, y in zip(a, b)]
        yield tuple(map(tuple, m))


def test_normal_forms_equal_the_two_matrix_oracles_exactly():
    shapes = set()
    for m in kernel_corpus(2027, 5000):
        assert _hnf.__wrapped__(m) == oracle_hnf(m)
        assert _snf.__wrapped__(m) == oracle_snf(m)
        shapes.add((len(m), len(m[0]) if m else 0))
    assert {(0, 0), (7, 8), (3, 0)} <= shapes


@given(
    st.lists(
        st.lists(st.integers(min_value=-30, max_value=30), min_size=3, max_size=3),
        min_size=2,
        max_size=4,
    )
)
@settings(max_examples=60, deadline=None)
def test_normal_forms_equal_the_oracles_on_hypothesis_matrices(rows):
    m = tuple(tuple(r) for r in rows)
    assert _hnf.__wrapped__(m) == oracle_hnf(m)
    assert _snf.__wrapped__(m) == oracle_snf(m)
