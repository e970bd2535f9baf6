"""The value types are records: immutable named tuples of their fields.

Each record prints as ``Name(field=value, ...)`` (``Fan``, ``FanOfMonoids``
and ``DualComplex`` keep their positional ``Name(value, ...)``), hashes as
the tuple of its fields and equals only records of its own class.  These
tests build one value of each record type and check those rules,
immutability, copying and pickling, and the input checks of the types that
have them.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from torolog.fans import (
    Fan,
    FanOfMonoids,
    ValidationFailure,
    ValidationReport,
    affine_atlas,
    strata,
)
from torolog.lattice import AbelianGroupInvariants, record
from torolog.monoids import (
    FiberReport,
    ToricMonoid,
    faces,
    ghost,
    prime_ideals,
)
from torolog.morphisms import ToricMorphismData
from torolog.rounding import (
    ComplexPoint,
    RoundingPoint,
    points_of,
)
from torolog.snc import DualComplex, link_report, milnor_report

LINE = ToricMonoid(1, ((1,),))
ATLAS = affine_atlas(LINE)
POINT, HALF = faces(LINE)

HALF_REPR = "MonoidFace(monoid=ToricMonoid(1, ((1,),)), generator_indices=(0,))"
POINT_REPR = "MonoidFace(monoid=ToricMonoid(1, ()), generator_indices=())"
POINT_GHOST_REPR = (
    f"GhostReport(face={POINT_REPR}, invariants=AbelianGroupInvariants("
    "rank=1, torsion=()), sharp_generators=(((1,), ()),))"
)
ATLAS_REPR = (
    "FanOfMonoids(1, ((RationalCone(1, rays=[], lineality=[]), "
    "ToricMonoid(1, ((-1,), (1,)))), (RationalCone(1, rays=[(1,)], "
    "lineality=[]), ToricMonoid(1, ((1,),)))))"
)
CIRCLE_REPR = (
    "FiberReport(torus_rank=1, components=1, "
    "invariants=AbelianGroupInvariants(rank=1, torsion=()))"
)


# One value of each record type, with its repr.
VALUES = [
    (AbelianGroupInvariants(1, (2,)),
     "AbelianGroupInvariants(rank=1, torsion=(2,))"),
    (HALF, HALF_REPR),
    (prime_ideals(LINE)[-1],
     f"PrimeIdeal(face={HALF_REPR}, complement_indices=())"),
    (ghost(LINE, POINT), POINT_GHOST_REPR),
    (FiberReport.of(AbelianGroupInvariants(1, (2,))),
     "FiberReport(torus_rank=1, components=2, "
     "invariants=AbelianGroupInvariants(rank=1, torsion=(2,)))"),
    (ValidationFailure("not-sharp", "cone has lineality"),
     "ValidationFailure(code='not-sharp', message='cone has lineality')"),
    (ValidationReport((ValidationFailure("not-sharp", "lineality"),)),
     "ValidationReport(failures=(ValidationFailure(code='not-sharp', "
     "message='lineality'),))"),
    (strata(ATLAS)[0],
     "FanStratum(cone=RationalCone(1, rays=[], lineality=[]), "
     f"orbit_dimension=1, ghost=GhostReport(face={HALF_REPR}, "
     "invariants=AbelianGroupInvariants(rank=0, torsion=()), "
     "sharp_generators=(((), ()),)))"),
    (RoundingPoint(LINE, HALF, [0.5], [Fraction(5, 4)]),
     "RoundingPoint(monoid=ToricMonoid(1, ((1,),)), "
     f"support_face={HALF_REPR}, radial_log=(0.5,), "
     "angle=(Fraction(1, 4),))"),
    (ComplexPoint(LINE, HALF, [0], [Fraction(1, 3)]),
     "ComplexPoint(monoid=ToricMonoid(1, ((1,),)), "
     f"support_face={HALF_REPR}, radial_log=(0.0,), "
     "angle=(Fraction(1, 3),))"),
    (points_of(LINE)[0],
     f"PointStratum(face={POINT_REPR}, torus_rank=0, "
     f"fiber={CIRCLE_REPR})"),
    (link_report(DualComplex(2, 2, [(0, 1)], complete=True))[0],
     f"StratumRow(simplex=(0,), stratum_dimension=1, fiber={CIRCLE_REPR})"),
    (milnor_report(DualComplex(1, 1, [(0,)], multiplicities=[2])),
     "MilnorReport(rows=(StratumRow(simplex=(0,), stratum_dimension=0, "
     "fiber=FiberReport(torus_rank=0, components=2, "
     "invariants=AbelianGroupInvariants(rank=0, torsion=(2,)))),), "
     "components_by_depth=((1, 2),))"),
    (ToricMorphismData([[1]], ATLAS, ATLAS),
     f"ToricMorphismData(nu=((1,),), source={ATLAS_REPR}, "
     f"target={ATLAS_REPR}, nu_dual=((1,),))"),
    (ATLAS.fan(),
     "Fan(1, (RationalCone(1, rays=[], lineality=[]), "
     "RationalCone(1, rays=[(1,)], lineality=[])))"),
    (ATLAS, ATLAS_REPR),
    # Completed, with a repeated edge: a copy or a pickle rebuilds it
    # through the strict check, which has to accept it unchanged.
    (DualComplex(2, 2, [(1, 0), (0, 1)], multiplicities=[2, 4], complete=True),
     "DualComplex(2, 2, ((0,), (1,), (0, 1), (0, 1)), "
     "multiplicities=(2, 4))"),
]
IDS = [type(x).__name__ for x, _ in VALUES]


def test_there_is_one_value_of_each_record_type():
    assert len(set(IDS)) == 17


@pytest.mark.parametrize("x, text", VALUES, ids=IDS)
def test_a_record_prints_its_fields_and_hashes_as_their_tuple(x, text):
    assert repr(x) == text
    assert hash(x) == hash(tuple(x))


@pytest.mark.parametrize("x, _", VALUES, ids=IDS)
def test_a_record_equals_only_records_of_its_own_class(x, _):
    twin_type = record(type("Twin", (), {
        "__annotations__": dict.fromkeys(type(x)._fields, object),
    }))
    for other in (tuple(x), twin_type._make(x)):
        assert tuple(other) == tuple(x)
        assert not x == other and not other == x
        assert x != other and other != x
    same = tuple.__new__(type(x), tuple(x))
    assert same == x and not same != x


@pytest.mark.parametrize("x, _", VALUES, ids=IDS)
def test_a_record_is_immutable(x, _):
    for name in type(x)._fields:
        with pytest.raises(AttributeError):
            setattr(x, name, None)
    with pytest.raises(AttributeError):
        x.extra = None


@pytest.mark.parametrize("x, _", VALUES, ids=IDS)
def test_a_record_survives_copying_and_pickling(x, _):
    for y in (
        copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x)),
    ):
        assert type(y) is type(x)
        assert y == x
        assert repr(y) == repr(x)


def test_morphism_data_checks_its_matrix():
    with pytest.raises(ValueError, match="one row per target coordinate"):
        ToricMorphismData([[1], [0]], ATLAS, ATLAS)
    with pytest.raises(ValueError, match="one column per source coordinate"):
        ToricMorphismData([[1, 0]], ATLAS, ATLAS)
    with pytest.raises(ValueError, match="^1.5 is not an integer$"):
        ToricMorphismData([[1.5]], ATLAS, ATLAS)
    # An integral float is read as the int it equals, as ToricMonoid reads it.
    assert ToricMorphismData([[1.0]], ATLAS, ATLAS).nu == ((1,),)
    d = ToricMorphismData([[2]], ATLAS, ATLAS)
    assert (d.nu, d.nu_dual) == (((2,),), ((2,),))

    # Booleans pass the integer check, and are stored as the ints they are.
    d = ToricMorphismData([[True]], ATLAS, ATLAS)
    assert repr(d) == repr(ToricMorphismData([[1]], ATLAS, ATLAS))
