"""Results memoized by value.

The memos are keyed by argument values, so two separately built but equal
monoids or cones share one cached result.  These tests check that public
entry points still take plain lists, that every memo is bounded by the one
size constant, and that cold and warm calls agree on a seeded corpus.
"""

import random

import pytest

from conftest import random_monoid
from torolog import cli, cones, fans, lattice, monoids
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
from torolog.monoids import ToricMonoid, _face_index, faces, ghost, saturate
from torolog.rounding import fiber_structure, rounding_report

MEMOS = [
    obj
    for module in (lattice, cones, monoids, fans, cli)
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
        "faces", "gp", "_gp_matrix", "_splitting", "saturate",
        "_validated", "dim", "_face_index", "ghost",
        "_perp_face", "_cover",
    }
    assert all(fn.cache_info().maxsize == MEMO_SIZE for fn in MEMOS)


def test_instances_carry_no_cache_slots():
    assert ToricMonoid.__slots__ == ("ambient_rank", "generators")
    # ``_dual_span`` is construction data, not a cache: vectors spanning the
    # dual, which only the code that builds a cone knows.
    assert RationalCone.__slots__ == (
        "ambient_rank", "rays", "lineality", "_dual_span",
    )
    clear_memos()
    c = RationalCone(3, ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (1, 1, 2)))
    other = RationalCone(3, ((0, 1, 0), (0, 0, 1), (1, 0, 1)))
    built = (c, cones.dual_cone(c), cones.intersect(c, other))
    for x in built + cones.faces(c) + cones.faces(other):
        span = [v for part in x._dual_span for v in part]
        # The cone the vectors span has x for its dual.
        assert cones.dual_cone(RationalCone(3, span)) == x


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


def test_the_shared_face_index_is_read_only():
    g = ToricMonoid(2, ((1, 0), (0, 1)))
    index = _face_index(g)
    face = index[(0,)]
    with pytest.raises(TypeError):
        index[(0,)] = faces(g)[-1]
    with pytest.raises(TypeError):
        del index[(0,)]
    assert not any(hasattr(index, name) for name in ("pop", "clear", "update"))
    assert _face_index(g)[(0,)] is face


def results(g):
    fs = faces(g)
    atlas = affine_atlas(g)
    return (
        fs,
        tuple(ghost(g, f) for f in fs),
        tuple(fiber_structure(g, f) for f in fs),
        saturate(g),
        atlas,
        rounding_report(atlas),
    )


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
