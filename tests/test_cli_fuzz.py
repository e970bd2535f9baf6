"""The command line fuzzed over payload shapes, verb by verb.

Each verb gets payloads shaped like its input, with any field swapped for
junk: ints, numeric strings, floats, bools, null and nested arrays.  Every
run goes in-process through ``main(argv)`` and must end in exit 0, 1 or 2,
writing no traceback and at most one stderr line; exit 3 (an internal
error) fails.  Ranks stay at most 3, entries at most 3 in size and arrays at
most 5 long: the cost of a payload grows with its rank and entries, and
this test is about shapes, not sizes.  The examples are derandomized, so
every run tries the same payloads.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import run_cli
from torolog.cli import _VERBS, fanmon_to_json
from torolog.fans import affine_atlas
from torolog.monoids import ToricMonoid

SMALL = st.integers(-3, 3)
RANK = st.integers(0, 3)
INDEX = st.integers(-1, 5)

LEAF = st.one_of(
    SMALL,
    SMALL.map(str),
    st.sampled_from(["1/2", "-0.5", "1e3", "", "x"]),
    st.floats(),
    st.booleans(),
    st.none(),
)
JUNK = st.recursive(
    LEAF, lambda inner: st.lists(inner, max_size=5), max_leaves=8
)


def shaped(strategy):
    """A field that is mostly well formed and sometimes junk."""
    return st.one_of(strategy, strategy, strategy, JUNK)


def rank_field(r):
    return shaped(st.sampled_from([r, str(r)]))


def rows(r, entries=SMALL):
    return st.lists(st.lists(entries, min_size=r, max_size=r), max_size=5)


def matrix(r):
    return shaped(rows(r, st.one_of(SMALL, SMALL, SMALL.map(str))))


def indices():
    return shaped(st.lists(INDEX, max_size=5))


@st.composite
def cones(draw, r=None):
    r = draw(RANK) if r is None else r
    return draw(st.fixed_dictionaries(
        {"ambient_rank": rank_field(r), "rays": matrix(r)},
        optional={"lineality": matrix(r)},
    ))


@st.composite
def monoids(draw, r=None):
    r = draw(RANK) if r is None else r
    return draw(st.fixed_dictionaries(
        {"ambient_rank": rank_field(r), "generators": matrix(r)}
    ))


@st.composite
def fans(draw):
    r = draw(RANK)
    return draw(st.fixed_dictionaries({
        "ambient_rank": rank_field(r),
        "cones": shaped(st.lists(cones(r), max_size=5)),
    }))


@st.composite
def atlases(draw):
    """The valid affine atlas of a nonzero monoid, so that the checks pass
    and the verbs go on to their later steps."""
    r = draw(st.integers(1, 3))
    gens = draw(rows(r).filter(lambda g: any(map(any, g))))
    return fanmon_to_json(affine_atlas(ToricMonoid(r, gens)))


@st.composite
def fanmons(draw):
    r = draw(RANK)
    entry = st.fixed_dictionaries({"cone": cones(r), "monoid": monoids(r)})
    return draw(st.one_of(
        atlases(),
        st.fixed_dictionaries({
            "rank": rank_field(r),
            "entries": shaped(st.lists(entry, max_size=5)),
        }),
    ))


ANGLE = st.one_of(SMALL, st.sampled_from(["0", "1/3", "-2/5", "1/0"]), LEAF)
FLOATS = shaped(st.lists(st.one_of(st.floats(-3, 3), LEAF), max_size=5))


POINTS = st.fixed_dictionaries(
    {
        "source_chart": shaped(INDEX),
        "target_chart": shaped(INDEX),
        "face": indices(),
        "radial_log": FLOATS,
        "angle": shaped(st.lists(ANGLE, max_size=5)),
    },
    optional={"kind": shaped(st.sampled_from(["rounding", "complex"]))},
)


@st.composite
def morphisms(draw):
    source = draw(fanmons())
    target = draw(st.one_of(st.just(source), fanmons()))
    k = source.get("rank")
    k = k if type(k) is int and 0 <= k <= 3 else 2
    identity = [[int(i == j) for j in range(k)] for i in range(k)]
    return draw(st.fixed_dictionaries(
        {
            "nu": st.one_of(st.just(identity), matrix(k)),
            "source": st.just(source),
            "target": st.just(target),
        },
        optional={"point": shaped(POINTS)},
    ))


IMAGE = st.one_of(st.tuples(st.floats(0, 4), ANGLE).map(list), JUNK)
MONOID_AND_FACE = st.fixed_dictionaries(
    {"monoid": monoids(), "face": indices()},
    optional={"images": shaped(st.lists(IMAGE, max_size=5))},
)


@st.composite
def complexes(draw):
    n, vertices = draw(RANK), draw(RANK)
    vertex = st.one_of(st.integers(0, max(vertices - 1, 0)), INDEX)
    simplex = st.lists(vertex, min_size=1, max_size=3, unique=True)
    return draw(st.fixed_dictionaries({
        "n": shaped(st.just(n)),
        "vertices": shaped(st.just(vertices)),
        "simplices": shaped(st.lists(simplex, max_size=5)),
        "multiplicities": shaped(st.lists(
            st.integers(1, 12), min_size=vertices, max_size=vertices
        )),
    }))


MULTIPLICITIES = shaped(st.lists(st.integers(-1, 12), max_size=5))

PAYLOADS = {
    ("cone", "dual"): cones(),
    ("cone", "faces"): cones(),
    ("monoid", "saturate"): monoids(),
    ("monoid", "faces"): monoids(),
    ("monoid", "ghost"): MONOID_AND_FACE,
    ("fan", "check"): fans(),
    ("fanmon", "check"): fanmons(),
    ("fanmon", "atlas"): monoids(),
    ("fanmon", "normal"): fans(),
    ("morphism", "check"): morphisms(),
    ("round", "report"): st.one_of(monoids(), fanmons()),
    ("round", "fiber"): MONOID_AND_FACE,
    ("milnor", "strata"): st.one_of(
        MULTIPLICITIES,
        st.fixed_dictionaries({"multiplicities": MULTIPLICITIES}),
    ),
    ("snc", "link"): complexes(),
    ("snc", "milnor"): complexes(),
}


def test_every_verb_is_fuzzed():
    assert set(PAYLOADS) == set(_VERBS)


@pytest.mark.parametrize("verb", sorted(PAYLOADS), ids=" ".join)
@settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(data=st.data())
def test_every_payload_ends_in_a_documented_exit(verb, data):
    payload = data.draw(st.one_of(PAYLOADS[verb], PAYLOADS[verb], JUNK))
    flags = data.draw(st.sampled_from([[], ["--json"]]))
    if verb[0] == "snc":
        flags += data.draw(st.sampled_from([[], ["--strict-complex"]]))
    code, _, err = run_cli(list(verb) + flags, json.dumps(payload))
    assert code in (0, 1, 2), err
    assert "Traceback" not in err
    assert len(err.splitlines()) <= (1 if code else 0), err
