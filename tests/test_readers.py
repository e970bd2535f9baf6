"""The fan readers take listed faces from face lattices.

``fan_from_json`` and ``fanmon_from_json`` build a payload cone that is a
face of a cone built before it from that cone's face lattice, with no
double description pass.  The slow path, one ``RationalCone`` per payload
cone, is the oracle: on seeded payloads every reader cone must equal it and
have the same dual.
"""

import random

from conftest import random_cone
from test_fans import seeded_atlases, seeded_normal_fans_of_monoids
from torolog.cli import (
    _cone_parts,
    _cones,
    cone_to_json,
    fan_from_json,
    fanmon_from_json,
    fanmon_to_json,
)
from torolog.cones import RationalCone, dual_cone, faces
from torolog.fans import Fan, FanOfMonoids
from torolog.monoids import ToricMonoid

# The memo is bypassed, so each dual is read from the vectors spanning it
# that the reader's cone was built with.
DUAL = dual_cone.__wrapped__


def scaled(rng, cone):
    """The payload cone with each ray scaled by a positive factor and its
    lineality given by a basis that is not in Hermite form."""
    rays = [[rng.randint(1, 3) * int(x) for x in r] for r in cone["rays"]]
    lineality = [[int(x) for x in v] for v in cone["lineality"]]
    if lineality:
        # Adding the other basis vectors to the last, then negating it, is
        # unimodular, so the lineality space stays the same.
        last = [sum(col) for col in zip(*lineality)]
        lineality[-1] = [-x for x in last]
        lineality.reverse()
    return {"ambient_rank": cone["ambient_rank"], "rays": rays,
            "lineality": lineality}


def variants(rng, items, rewrite):
    """The payload's items as listed, shuffled, with some rewritten by
    ``rewrite``, and with some listed twice."""
    shuffled = list(items)
    rng.shuffle(shuffled)
    rewritten = [rewrite(x) if rng.random() < 0.5 else x for x in items]
    doubled = list(items) + [rewrite(x) for x in rng.sample(
        items, min(3, len(items)))] + items[: len(items) // 2]
    rng.shuffle(doubled)
    return [list(items), shuffled, rewritten, doubled]


def face_lattice_payloads(rng):
    """Every face of seeded cones, some with lineality: no fans, but the
    readers do not check the fan axioms."""
    out = []
    for _ in range(40):
        c = random_cone(rng, rng.randint(1, 4))
        out.append({"ambient_rank": c.ambient_rank,
                    "cones": [cone_to_json(f) for f in faces(c)]})
    return out


def assert_as_if_built_one_by_one(cones):
    """The reader's cones, checked against one ``RationalCone`` each, and
    how many of them were read from a face lattice (a face's dual span is
    its parent's dual and the facet normals tight on it)."""
    parts = tuple(_cone_parts(c) for c in cones)
    got = _cones.__wrapped__(parts)
    expected = [RationalCone(*p) for p in parts]
    assert list(got) == expected
    for g, e in zip(got, expected):
        assert DUAL(g) == DUAL(e)
    return expected, sum(len(g._dual_span) == 2 for g in got)


def test_fan_reader_cones_match_one_cone_at_a_time():
    rng = random.Random(19)
    payloads = [
        {"ambient_rank": a.exponent_rank,
         "cones": [e["cone"] for e in fanmon_to_json(a)["entries"]]}
        for a in seeded_atlases() + seeded_normal_fans_of_monoids()[:5]
    ] + face_lattice_payloads(rng)
    with_lineality = read = total = 0
    for payload in payloads:
        for cones in variants(
            rng, payload["cones"], lambda c: scaled(rng, c)
        ):
            expected, from_faces = assert_as_if_built_one_by_one(cones)
            with_lineality += any(c.lineality for c in expected)
            read, total = read + from_faces, total + len(cones)
            assert fan_from_json(dict(payload, cones=cones)) == Fan(
                payload["ambient_rank"], expected
            )
    assert with_lineality >= 20
    assert total > read > total // 2


def test_fanmon_reader_entries_match_one_cone_at_a_time():
    rng = random.Random(23)
    for fm in seeded_atlases() + seeded_normal_fans_of_monoids()[:5]:
        payload = fanmon_to_json(fm)
        for entries in variants(
            rng, payload["entries"],
            lambda e: dict(e, cone=scaled(rng, e["cone"])),
        ):
            expected, _ = assert_as_if_built_one_by_one(
                [e["cone"] for e in entries]
            )
            monoids = [
                ToricMonoid(fm.exponent_rank, e["monoid"]["generators"])
                for e in entries
            ]
            assert fanmon_from_json(dict(payload, entries=entries)) == (
                FanOfMonoids(fm.exponent_rank, tuple(zip(expected, monoids)))
            )


def test_cones_of_other_ranks_are_not_taken_for_faces():
    # The zero cones of Z^0 and Z^2 have the same, empty, generator set.
    cones = [
        {"ambient_rank": 2, "rays": [[1, 0], [0, 1]]},
        {"ambient_rank": 0, "rays": []},
        {"ambient_rank": 2, "rays": []},
    ]
    got, from_faces = assert_as_if_built_one_by_one(cones)
    assert [c.ambient_rank for c in got] == [2, 0, 2]
    assert from_faces == 1
