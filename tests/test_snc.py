"""Dual complexes of normal crossing models: links and Milnor strata."""

import itertools
import math
import random

import pytest

from torolog.monoids import ToricMonoid, edge
from torolog.rounding import fiber_structure, relative_fiber
from torolog.snc import DualComplex, MilnorReport, StratumRow, link_report, milnor_report

SEGMENT = DualComplex(2, 2, ((0,), (1,), (0, 1)))
POINT = DualComplex(2, 1, ((0,),))
EMPTY = DualComplex(2, 0, ())


# ---------------------------------------------------------------------------
# Construction and validation
# ---------------------------------------------------------------------------

def test_simplices_are_sorted_by_size_then_vertices():
    dc = DualComplex(3, 3, ((0, 1), (2,), (1,), (0,), (0, 2), (1, 2)))
    assert dc.simplices == ((0,), (1,), (2,), (0, 1), (0, 2), (1, 2))


def test_missing_singleton_is_rejected():
    with pytest.raises(ValueError):
        DualComplex(2, 2, ((0,), (0, 1)))


def test_missing_subset_is_rejected():
    with pytest.raises(ValueError):
        DualComplex(3, 3, ((0,), (1,), (2,), (0, 1, 2)))


def test_a_strict_complex_names_its_first_missing_face_or_singleton():
    # Faces (1,), (3,), (1, 2), ... and the singleton of vertex 4 are all
    # missing; the faces are checked before the singletons.
    with pytest.raises(
        ValueError,
        match=r"^simplex \(0, 1\) is present but its face \(1,\) is missing$",
    ):
        DualComplex(4, 5, ((0,), (2,), (1, 2, 3), (0, 1)))
    with pytest.raises(ValueError, match=r"^vertex 2 has no singleton simplex$"):
        DualComplex(2, 3, ((0,), (1,)))


def test_oversized_simplex_is_rejected():
    with pytest.raises(ValueError):
        DualComplex(1, 2, ((0,), (1,), (0, 1)))


def test_vertex_bounds_and_repeats_are_rejected():
    with pytest.raises(ValueError):
        DualComplex(2, 1, ((0,), (1,)))
    with pytest.raises(ValueError):
        DualComplex(2, 2, ((0,), (1,), (0, 0)))
    with pytest.raises(ValueError):
        DualComplex(2, 1, ((0,), ()))


def test_a_non_integral_vertex_is_refused():
    # int() would read the vertex 0.5 as vertex 0.
    with pytest.raises(ValueError, match=r"^0\.5 is not an integer$"):
        DualComplex(2, 2, ((0.5,), (1,)))
    assert DualComplex(2.0, 2, ((0.0,), (1,))) == DualComplex(2, 2, ((0,), (1,)))


@pytest.mark.parametrize("args, message", [
    ((-1, 0, ()), "dimensions and vertex counts are nonnegative"),
    ((2, -1, ()), "dimensions and vertex counts are nonnegative"),
    ((2, 1, ((0,),), (1.5,)), r"1\.5 is not an integer"),
])
def test_malformed_complexes_are_refused(args, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        DualComplex(*args)


def test_completion_restores_subsets_and_singletons():
    dc = DualComplex(2, 3, ((0, 1),), complete=True)
    assert dc.simplices == ((0,), (1,), (2,), (0, 1))


def test_completion_is_off_by_default():
    with pytest.raises(ValueError):
        DualComplex(2, 3, ((0, 1),))


def test_duplicate_simplices_model_multiple_components():
    dc = DualComplex(2, 2, ((0,), (1,), (0, 1), (0, 1)))
    assert dc.simplices == ((0,), (1,), (0, 1), (0, 1))
    rows = link_report(dc)
    assert [r.simplex for r in rows] == [(0,), (1,), (0, 1), (0, 1)]


def test_multiplicities_are_validated():
    with pytest.raises(ValueError):
        DualComplex(2, 1, ((0,),), multiplicities=(0,))
    with pytest.raises(ValueError):
        DualComplex(2, 1, ((0,),), multiplicities=(1, 2))
    dc = DualComplex(2, 1, ((0,),), multiplicities=(4,))
    assert dc.multiplicities == (4,)


# ---------------------------------------------------------------------------
# Link reports
# ---------------------------------------------------------------------------

def test_link_of_a_smooth_irreducible_divisor():
    rows = link_report(POINT)
    assert len(rows) == 1
    row = rows[0]
    assert row.simplex == (0,)
    assert row.stratum_dimension == 1
    assert (row.fiber.torus_rank, row.fiber.components) == (1, 1)


def test_link_of_two_divisors_meeting_in_a_point():
    rows = link_report(SEGMENT)
    assert [
        (r.stratum_dimension, r.fiber.torus_rank, r.fiber.components)
        for r in rows
    ] == [(1, 1, 1), (1, 1, 1), (0, 2, 1)]


def test_link_of_the_empty_complex_is_empty():
    assert link_report(EMPTY) == ()


def test_link_rows_match_the_fiber_of_the_free_local_model():
    dc = DualComplex(4, 4, ((0, 1, 2, 3),), complete=True)
    for row in link_report(dc):
        k = len(row.simplex)
        model = ToricMonoid(
            k, tuple(tuple(int(i == j) for j in range(k)) for i in range(k))
        )
        assert row.fiber == fiber_structure(model, edge(model))
    assert {len(r.simplex) for r in link_report(dc)} == {1, 2, 3, 4}


def test_link_rows_depend_only_on_simplex_size():
    rng = random.Random(137)
    for _ in range(10):
        dc = random_complex(rng)
        perm = list(range(dc.vertex_count))
        rng.shuffle(perm)
        relabeled = DualComplex(
            dc.ambient_dim,
            dc.vertex_count,
            tuple(tuple(perm[v] for v in s) for s in dc.simplices),
        )
        original = sorted(
            (len(r.simplex), r.fiber.torus_rank, r.fiber.components)
            for r in link_report(dc)
        )
        shuffled = sorted(
            (len(r.simplex), r.fiber.torus_rank, r.fiber.components)
            for r in link_report(relabeled)
        )
        assert original == shuffled


# ---------------------------------------------------------------------------
# Milnor reports
# ---------------------------------------------------------------------------

def test_milnor_of_a_triple_divisor():
    dc = DualComplex(2, 1, ((0,),), multiplicities=(3,))
    report = milnor_report(dc)
    row = report.rows[0]
    assert (row.fiber.torus_rank, row.fiber.components) == (0, 3)
    assert report.components_by_depth == ((1, 3),)


def test_milnor_of_an_edge_with_multiplicities():
    dc = DualComplex(2, 2, ((0,), (1,), (0, 1)), multiplicities=(2, 4))
    report = milnor_report(dc)
    data = [
        (r.simplex, r.fiber.torus_rank, r.fiber.components)
        for r in report.rows
    ]
    assert data == [((0,), 0, 2), ((1,), 0, 4), ((0, 1), 1, 2)]
    assert report.components_by_depth == ((1, 6), (2, 2))


def test_milnor_with_unit_multiplicities_is_connected():
    rng = random.Random(139)
    for _ in range(8):
        dc = random_complex(rng, multiplicities="ones")
        report = milnor_report(dc)
        assert all(r.fiber.components == 1 for r in report.rows)


def test_milnor_requires_multiplicities():
    with pytest.raises(ValueError):
        milnor_report(SEGMENT)


def test_milnor_rows_match_relative_fibers():
    rng = random.Random(149)
    for _ in range(8):
        dc = random_complex(rng, multiplicities="random")
        for row in milnor_report(dc).rows:
            k = len(row.simplex)
            axes = ToricMonoid(
                k,
                tuple(tuple(int(i == j) for j in range(k)) for i in range(k)),
            )
            column = tuple((dc.multiplicities[v],) for v in row.simplex)
            assert row.fiber == relative_fiber(column, edge(axes))


def test_milnor_components_by_depth_totals_the_rows():
    rng = random.Random(151)
    for _ in range(8):
        dc = random_complex(rng, multiplicities="random")
        report = milnor_report(dc)
        totals = {}
        for r in report.rows:
            k = len(r.simplex)
            totals[k] = totals.get(k, 0) + r.fiber.components
        assert report.components_by_depth == tuple(sorted(totals.items()))


# ---------------------------------------------------------------------------
# Corpus helper
# ---------------------------------------------------------------------------

def random_complex(rng, multiplicities=None):
    n = rng.randint(2, 4)
    k = rng.randint(1, 4)
    tops = []
    for _ in range(rng.randint(1, 3)):
        size = rng.randint(1, min(n, k))
        tops.append(tuple(sorted(rng.sample(range(k), size))))
    mults = None
    if multiplicities == "ones":
        mults = (1,) * k
    elif multiplicities == "random":
        mults = tuple(rng.randint(1, 9) for _ in range(k))
    return DualComplex(
        n, k, tuple(tops), multiplicities=mults, complete=True
    )
