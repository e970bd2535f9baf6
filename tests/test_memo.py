"""Results memoized by value.

The memos are keyed by argument values, so two separately built but equal
monoids or cones share one cached result.  These tests check that public
entry points still take plain lists, that every memo is bounded by the one
size constant, and that cold and warm calls agree on a seeded corpus.
"""

import random

from conftest import random_monoid
from torolog import cones, lattice, monoids
from torolog.cones import RationalCone
from torolog.fans import affine_atlas
from torolog.lattice import (
    MEMO_SIZE,
    hnf,
    hnf_basis,
    kernel_basis,
    lattice_rank,
    quotient_invariants,
    snf,
    solve_integer,
)
from torolog.monoids import ToricMonoid, faces, ghost, saturate

MEMOS = [
    obj
    for module in (lattice, cones, monoids)
    for obj in vars(module).values()
    if hasattr(obj, "cache_clear")
]


def clear_memos():
    for fn in MEMOS:
        fn.cache_clear()


def as_lists(m):
    return [list(row) for row in m]


def test_every_memo_is_bounded_by_the_one_size_constant():
    names = {fn.__name__ for fn in MEMOS}
    assert names >= {
        "_hnf", "_snf", "_canonical_form", "dual_cone", "exponent_cone",
        "faces", "gp", "_gp_matrix", "_splitting",
    }
    assert all(fn.cache_info().maxsize == MEMO_SIZE for fn in MEMOS)


def test_instances_carry_no_cache_slots():
    assert ToricMonoid.__slots__ == ("ambient_rank", "generators")
    assert RationalCone.__slots__ == ("ambient_rank", "rays", "lineality")


def test_lattice_functions_accept_lists_of_lists():
    m = ((2, 4, 4), (-6, 6, 12), (10, -4, -16))
    clear_memos()
    assert hnf(as_lists(m)) == hnf(m)
    assert snf(as_lists(m)) == snf(m)
    assert solve_integer(as_lists(m), [2, -6, 10]) == solve_integer(m, (2, -6, 10))
    assert kernel_basis(as_lists(m)) == kernel_basis(m)
    assert lattice_rank(as_lists(m)) == lattice_rank(m)
    assert hnf_basis(as_lists(m)) == hnf_basis(m)
    assert quotient_invariants(3, as_lists(m)) == quotient_invariants(3, m)


def test_cone_accepts_lists_of_lists():
    clear_memos()
    c = RationalCone(2, [[1, 0], [1, 2], [-1, 0]])
    assert c == RationalCone(2, ((1, 0), (1, 2), (-1, 0)))
    assert c.lineality == ((1, 0),)


def results(g):
    fs = faces(g)
    return fs, tuple(ghost(g, f) for f in fs), saturate(g), affine_atlas(g)


def test_cold_and_warm_results_agree_on_equal_monoids():
    rng = random.Random(20260)
    corpus = [random_monoid(rng, rng.randint(1, 3)) for _ in range(40)]
    cold = []
    for g in corpus:
        clear_memos()
        cold.append(results(g))
    # Warm: equal monoids built separately, from lists in reverse order, with
    # the memos holding the results of every monoid before them.
    for g in corpus:
        results(g)
    for g, expected in zip(corpus, cold):
        twin = ToricMonoid(g.ambient_rank, [list(v) for v in g.generators[::-1]])
        assert twin == g and twin is not g
        assert results(twin) == expected
