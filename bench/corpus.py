"""Seeded operation lists for the four benchmark workloads.

A run works through rounds.  Round ``i`` of workload ``w`` under seed ``s``
is drawn from ``random.Random(f"{w}/{s}/{i}")`` after rounds ``0..i-1``, so
the same seed always gives the same operations, and every round has the
same make-up: the same operation kinds and sizes in the same order, on
fresh inputs.  A random payload that an earlier draw of the run already
gave is drawn again, so no payload repeats within a run.  Nothing here
imports torolog; expected answers that need computing come from
:mod:`refmath`.
"""

import itertools
import json
import math
import random
from fractions import Fraction

import refmath

# ---------------------------------------------------------------------------
# shared generators
# ---------------------------------------------------------------------------


def _rng(workload, seed, index):
    return random.Random(f"{workload}/{seed}/{index}")


# Draws a fresh payload may take before the run is taken to have used up
# every payload of that shape.
FRESH_ATTEMPTS = 1000
_RUNS = {}


def in_order(workload, make):
    """The round function of ``workload``: round ``i`` under a seed is
    ``make(rng, fresh)``, made after every earlier round of that seed.

    ``fresh(draw, key)`` calls ``draw()`` until ``key`` of its value differs
    from that of every value ``fresh`` returned before in the run.
    """

    def round_of(seed, index):
        rounds, seen = _RUNS.setdefault((workload, seed), ([], set()))

        def fresh(draw, key=lambda value: value):
            for _ in range(FRESH_ATTEMPTS):
                value = draw()
                k = json.dumps(key(value))
                if k not in seen:
                    seen.add(k)
                    return value
            raise RuntimeError(f"{workload}: no fresh payload left")

        while len(rounds) <= index:
            rounds.append(make(_rng(workload, seed, len(rounds)), fresh))
        return rounds[index]

    return round_of


def sharp_monoid(rng, d, n, full_group=False):
    """Sorted generators of a sharp, full-rank monoid in ``Z^d``.

    Every generator has a positive last coordinate, which keeps the monoid
    sharp; with ``full_group`` the generators also span ``Z^d``.
    """
    while True:
        gens = set()
        while len(gens) < n:
            gens.add(
                tuple(rng.randint(-2, 2) for _ in range(d - 1))
                + (rng.randint(1, 3),)
            )
        gens = sorted(gens)
        if refmath.rank(gens) != d:
            continue
        if full_group and not refmath.spans_lattice(gens):
            continue
        return gens


def pointed_rays(rng, d, n, lo=-2, hi=2, top=2):
    """``n`` distinct primitive rays of a full-dimensional pointed cone in
    ``Z^d``, each with last coordinate in ``1..top``."""
    if n < d:
        raise ValueError("a full-dimensional cone needs at least d rays")
    while True:
        rays = set()
        while len(rays) < n:
            v = tuple(rng.randint(lo, hi) for _ in range(d - 1)) + (
                rng.randint(1, top),
            )
            rays.add(refmath.primitive(v))
        rays = sorted(rays)
        if refmath.rank(rays) == d:
            return rays


def atlas_payload(gens):
    """The affine atlas of a sharp, full-rank monoid whose generators span
    ``Z^d``, built from the face lattice alone.

    The chart at a face of the weight cone is the localization of the monoid
    at the generators vanishing on that face; the weight-cone face of an
    exponent face is spanned by the normals of the facets containing it.
    """
    d = len(gens[0])
    fs = refmath.facets(gens)
    entries = []
    for idx in refmath.face_index_sets(gens):
        normals = [n for n, on in fs if set(idx) <= set(on)]
        if len(idx) == len(gens):
            normals = []
        extra = [tuple(-x for x in gens[i]) for i in idx]
        entries.append(
            {
                "cone": {"ambient_rank": d, "rays": sorted(normals)},
                "monoid": {
                    "ambient_rank": d,
                    "generators": sorted(set(map(tuple, gens)) | set(extra)),
                },
            }
        )
    return {"rank": d, "entries": entries}


def random_face(rng, gens):
    faces = refmath.face_index_sets(gens)
    return list(rng.choice(faces[1:]))


def point_on(rng, gens, face):
    """A rounding point on the given face: radial logarithms for the face
    group and exact angles for the whole group, as JSON values."""
    dim_face = refmath.rank([gens[i] for i in face]) if face else 0
    return {
        "face": list(face),
        "radial_log": [float(rng.randint(-2, 2)) for _ in range(dim_face)],
        "angle": [
            str(Fraction(rng.randint(0, 5), 6)) for _ in range(len(gens[0]))
        ],
    }


def images_for(rng, gens, face):
    """Generator images of a rounding point supported on ``face``: radius
    ``2**<r, m>`` on the face and 0 off it, angle ``<theta, m>`` in turns."""
    d = len(gens[0])
    r = [rng.randint(-1, 1) for _ in range(d)]
    theta = [Fraction(rng.randint(0, 3), 4) for _ in range(d)]
    out = []
    for i, m in enumerate(gens):
        radius = 2.0 ** refmath.dot(r, m) if i in face else 0.0
        out.append([radius, str(refmath.dot(theta, m) % 1)])
    return out


# ---------------------------------------------------------------------------
# cli-verbs
# ---------------------------------------------------------------------------

# Malformed payloads whose documented answer is exit code 2 with one line
# on stderr.  They do not depend on the seed and each fails the same way on
# every run until the CLI rejects them cleanly.
KNOWN_FAULTS = (
    (
        ["round", "fiber"],
        {
            "monoid": {"ambient_rank": 2, "generators": [[1, 0], [0, 1]]},
            "face": [0],
            "images": 5,
        },
    ),
    (["fan", "check"], {"ambient_rank": 2, "cones": 5}),
    (["fanmon", "check"], {"rank": 2, "entries": 5}),
    (["cone", "dual"], {"ambient_rank": -1, "rays": []}),
)


def shaped_monoid(rng, d, n, r, full_group=False):
    """``sharp_monoid`` with exactly ``r`` extreme rays, which fixes the size
    of its face lattice and so most of an operation's cost."""
    while True:
        gens = sharp_monoid(rng, d, n, full_group)
        if len(refmath.extreme_rays(gens)) == r:
            return gens


def _complex_payload(rng, with_multiplicities):
    """Six vertices and six random simplices of up to three vertices in an
    ambient dimension of three."""
    simplices = set()
    while len(simplices) < 6:
        size = rng.randint(1, 3)
        simplices.add(tuple(sorted(rng.sample(range(6), size))))
    obj = {"n": 3, "vertices": 6, "simplices": sorted(simplices)}
    if with_multiplicities:
        obj["multiplicities"] = [rng.randint(1, 12) for _ in range(6)]
    return obj


def _cli_payloads(rng, fresh, mutate_fan):
    """One payload per verb, in a fixed verb order and of fixed shapes.

    ``mutate_fan`` picks which of ``fan check`` and ``fanmon check`` gets a
    seeded mutation with a known failure code; the other gets a valid atlas.
    """
    out = []
    rays = fresh(lambda: pointed_rays(rng, 4, 5, hi=3, top=3))
    lineality = [(1, -1, 0, 0)] if rng.random() < 0.5 else [(0, 1, -1, 0)]
    out.append((["cone", "dual"],
                {"ambient_rank": 4, "rays": rays, "lineality": lineality}))
    rays = fresh(lambda: shaped_monoid(rng, 3, 4, 4))
    out.append((["cone", "faces"], {"ambient_rank": 3, "rays": rays}))
    g = fresh(lambda: shaped_monoid(rng, 2, 3, 2))
    out.append((["monoid", "saturate"], {"ambient_rank": 2, "generators": g}))
    g = fresh(lambda: shaped_monoid(rng, 3, 4, 4))
    out.append((["monoid", "faces"], {"ambient_rank": 3, "generators": g}))
    g = fresh(lambda: shaped_monoid(rng, 3, 4, 3))
    out.append((["monoid", "ghost"],
                {"monoid": {"ambient_rank": 3, "generators": g},
                 "face": random_face(rng, g)}))
    g = fresh(lambda: shaped_monoid(rng, 3, 4, 4, full_group=True))
    atlas = atlas_payload(g)
    fan = {"ambient_rank": 3, "cones": [e["cone"] for e in atlas["entries"]]}
    if mutate_fan:
        drop = rng.choice([c for c in fan["cones"] if len(c["rays"]) == 1])
        fan = dict(fan, cones=[c for c in fan["cones"] if c is not drop])
        out.append((["fan", "check"], fan, "missing-face"))
        out.append((["fanmon", "check"], atlas, None))
    else:
        out.append((["fan", "check"], fan, None))
        entries = []
        for e in atlas["entries"]:
            if not e["cone"]["rays"]:
                gens = [[2 * x for x in v] for v in e["monoid"]["generators"]]
                e = dict(e, monoid=dict(e["monoid"], generators=gens))
            entries.append(e)
        out.append((["fanmon", "check"], dict(atlas, entries=entries),
                    "group-not-full"))
    g2 = fresh(lambda: shaped_monoid(rng, 3, 4, 4, full_group=True))
    out.append((["fanmon", "atlas"], {"ambient_rank": 3, "generators": g2}))
    rays = fresh(lambda: pointed_rays(rng, 3, 3, lo=-1, hi=1, top=1))
    cones = [
        {"ambient_rank": 3, "rays": list(sub)}
        for k in range(4)
        for sub in itertools.combinations(rays, k)
    ]
    out.append((["fanmon", "normal"], {"ambient_rank": 3, "cones": cones}))
    last = len(atlas["entries"]) - 1
    point = point_on(rng, g, random_face(rng, g))
    out.append(
        (
            ["morphism", "check"],
            {
                "nu": [[int(i == j) for j in range(3)] for i in range(3)],
                "source": atlas,
                "target": atlas,
                "point": dict(point, source_chart=last, target_chart=last),
            },
        )
    )
    g3 = fresh(lambda: shaped_monoid(rng, 3, 4, 4, full_group=True))
    out.append((["round", "report"], atlas_payload(g3)))
    g = fresh(lambda: shaped_monoid(rng, 2, 3, 2))
    face = random_face(rng, g)
    out.append(
        (
            ["round", "fiber"],
            {
                "monoid": {"ambient_rank": 2, "generators": g},
                "face": face,
                "images": images_for(rng, g, face),
            },
        )
    )
    out.append(
        (["milnor", "strata"],
         {"multiplicities": fresh(lambda: [rng.randint(1, 12) for _ in range(3)])})
    )
    out.append((["snc", "link"], fresh(lambda: _complex_payload(rng, False))))
    out.append((["snc", "milnor"], fresh(lambda: _complex_payload(rng, True))))
    return out


def _cli_round(rng, fresh):
    """Every verb twice, once with ``--json`` and once as text, then the
    known-fault payloads."""
    ops = []
    for as_json in (True, False):
        for item in _cli_payloads(rng, fresh, mutate_fan=as_json):
            verb, payload = item[0], item[1]
            expect = item[2] if len(item) > 2 else None
            ops.append(cli_op(verb, payload, as_json, expect_code=expect))
    for verb, payload in KNOWN_FAULTS:
        ops.append(cli_op(verb, payload, False, fault=True))
    return ops


cli_verbs_round = in_order("cli-verbs", _cli_round)


def cli_op(verb, payload, as_json, expect_code=None, fault=False):
    argv = list(verb) + (["--json"] if as_json else [])
    return {
        "kind": "cli",
        "verb": " ".join(verb),
        "argv": argv,
        "json": as_json,
        "payload": payload,
        "stdin": json.dumps(payload),
        "expect_code": expect_code,
        "fault": fault,
    }


# ---------------------------------------------------------------------------
# atlas-rounding
# ---------------------------------------------------------------------------

# (rank, generators, extreme rays).  Fixing the number of extreme rays fixes
# the size of the face lattice, which sets most of an operation's cost.  The
# shapes are listed cheapest first; with an odd count the median operation
# is always the middle shape, and the 90th percentile lies inside the
# dearest one, not on a gap between two shapes.
ATLAS_SHAPES = (
    (2, 3, 2), (2, 4, 2), (3, 3, 3), (3, 4, 3), (3, 4, 4), (3, 5, 4), (3, 6, 4),
)


def _atlas_round(rng, fresh):
    """One sharp, full-rank monoid per shape."""
    return [
        {"kind": "atlas", "rank": d,
         "generators": fresh(lambda: shaped_monoid(rng, d, n, r))}
        for d, n, r in ATLAS_SHAPES
    ]


atlas_round = in_order("atlas-rounding", _atlas_round)


# ---------------------------------------------------------------------------
# hilbert-series
# ---------------------------------------------------------------------------

K_SERIES = (2, 3, 4, 5, 6)
H_SERIES = (5, 10, 20, 40, 80)
# Saturated as h-series monoids.  Every value lies more than four away from
# every other value of either series, so no h-series cone repeats within
# the 30 rounds of a 60-second run while h steps up by one every six rounds.
SATURATE_SERIES = (15, 30, 45, 65)
# (rank, rays, largest entry, largest last coordinate).  The entries are
# kept small enough that no random cone costs more than a few of the series
# cones: a cone with a larger box can cost a hundred times more, and one such
# draw would move a run's totals and its peak memory on its own.
RANDOM_CONE_SHAPES = (
    (2, 2, 3, 3), (2, 3, 3, 3), (3, 3, 1, 2), (3, 4, 1, 2), (3, 4, 1, 2),
    (4, 4, 1, 1), (4, 4, 1, 1), (4, 4, 1, 1),
)
# (rank, largest entry) of the simplicial cones whose normal fans are taken.
# Entries of at most one in rank three keep the dual cones, whose Hilbert
# bases the normal fan computes, small.
NORMAL_FAN_SHAPES = ((2, 3), (2, 3), (3, 1), (3, 1))
PERMUTATIONS_3 = tuple(itertools.permutations(range(3)))
# A k-series cone is fixed by where its last coordinate goes and by the
# signs of the coordinates.  The sign of the first coordinate is kept: with
# it flipped, torolog's search costs about four times as much, so the
# rounds would not cost the same.  That leaves 4 x 8 = 32 distinct cones.
K_PLACEMENTS = tuple(
    (perm, (1,) + signs)
    for perm in ((0, 1, 2, 3), (1, 2, 3, 0), (2, 3, 0, 1), (3, 0, 1, 2))
    for signs in itertools.product((1, -1), repeat=3)
)


def k_series_rays(k):
    return [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (k, k, k, 1)]


def h_series_rays(h):
    return [(1, 0, 0), (0, 1, 0), (1, 2, h)]


def _permute(vectors, perm, signs=None):
    signs = signs or (1,) * len(perm)
    return [tuple(s * v[i] for s, i in zip(signs, perm)) for v in vectors]


def _random_cones(rng, fresh):
    """The random cones and the cones whose normal fans are taken, of one
    round."""
    cones = [
        fresh(lambda: pointed_rays(rng, d, n, lo=-big, hi=big, top=top))
        for d, n, big, top in RANDOM_CONE_SHAPES
    ]
    fans = [
        fresh(lambda: pointed_rays(rng, d, d, lo=-hi, hi=hi, top=hi))
        for d, hi in NORMAL_FAN_SHAPES
    ]
    return cones, fans


_random_cones_round = in_order("hilbert-series", _random_cones)


def hilbert_round(seed, index):
    """The k- and h-series, saturations of h-series monoids, seeded random
    cones and the normal fans of small simplicial fans.

    The series keep their sizes in every round and under every seed.  The
    k-series cones change by a placement (``K_PLACEMENTS``) and the h-series
    cones by a permutation of the coordinates, each drawn without repetition
    from a seeded order; the h values step up by one every six rounds, once
    the six orders of three coordinates are used.  So no cone repeats within
    the 30 rounds of a 60-second run, while each round costs about the same.
    """
    orders = random.Random(f"hilbert-series/{seed}/orders")
    perm, signs = orders.sample(K_PLACEMENTS, len(K_PLACEMENTS))[index % 32]
    p3 = orders.sample(PERMUTATIONS_3, len(PERMUTATIONS_3))[index % 6]
    shift = index // 6
    ops = []
    for k in K_SERIES:
        ops.append({"kind": "hilbert",
                    "rays": _permute(k_series_rays(k), perm, signs),
                    "unimodular": True})
    for h in H_SERIES:
        ops.append({"kind": "hilbert",
                    "rays": _permute(h_series_rays(h + shift), p3)})
    for h in SATURATE_SERIES:
        # e1, e2 and (1, 1, 1) span Z^3, so the saturation is the Hilbert
        # basis of the h-series cone itself.
        rays = _permute(h_series_rays(h + shift), p3)
        gens = rays + _permute([(1, 1, 1)], p3)
        ops.append({"kind": "saturate", "generators": sorted(gens),
                    "rays": rays})
    cones, fans = _random_cones_round(seed, index)
    for rays in cones:
        ops.append({"kind": "hilbert", "rays": rays})
    for rays in fans:
        ops.append({"kind": "normal-fan", "rays": rays})
    return ops


# ---------------------------------------------------------------------------
# membership-queries
# ---------------------------------------------------------------------------

# Generator count -> query size as a multiple of the generators' geometric
# mean.  The search cost of a query grows like (target / generator)^n / n!,
# so scaling targets with the generators keeps each operation's cost nearly
# the same from seed to seed; all targets stay below about 50,000.
SEMIGROUP_SCALES = {3: 45, 4: 24, 5: 14, 6: 10}
QUERIES_PER_MONOID = 6


def _semigroup_with_queries(rng, n):
    """Generators near 1000 with gcd 1, and half members, half gaps drawn
    from the top tenth of ``[0, target]``; gaps are decided by a table."""
    half = QUERIES_PER_MONOID // 2
    while True:
        gens = sorted(rng.sample(range(900, 1101), n))
        if math.gcd(*gens) != 1:
            continue
        top = int(SEMIGROUP_SCALES[n] * math.prod(gens) ** (1 / n))
        table = refmath.semigroup_table(gens, top)
        window = range(top - top // 10, top + 1)
        members = [x for x in window if table[x]]
        gaps = [x for x in window if not table[x]]
        if len(gaps) >= half:
            chosen = [((x,), True) for x in rng.sample(members, half)]
            chosen += [((x,), False) for x in rng.sample(gaps, half)]
            return gens, chosen


# Rank -> largest entry of the rays of a simplicial monoid.  Rank 2 takes
# entries up to 2, so that 168 distinct monoids can be drawn: a run of
# ``membership-queries`` draws one per round, up to 150.
SIMPLICIAL_ENTRIES = {2: 2, 3: 1}


def _simplicial_monoid(rng, d):
    """A non-saturated monoid on a simplicial cone: two coprime multiples of
    one ray, the other rays, and a redundant generator; its gaps are the
    points whose coordinate on the multiplied ray is a gap of the two
    multiples."""
    big = SIMPLICIAL_ENTRIES[d]
    while True:
        rays = pointed_rays(rng, d, d, lo=-big, hi=big, top=big)
        rng.shuffle(rays)
        a, b = rng.choice(((3, 5), (4, 5), (4, 7), (5, 7)))
        gens = [tuple(a * x for x in rays[0]), tuple(b * x for x in rays[0])]
        gens += rays[1:] + [tuple(a * x + y for x, y in zip(rays[0], rays[1]))]
        gens = sorted(set(gens))
        w = refmath.positive_weight(gens)
        queries = w and _simplicial_queries(rng, gens, rays, w)
        if queries:
            return gens, w, queries


def _simplicial_queries(rng, gens, rays, w):
    bound = 4 * max(refmath.dot(w, g) for g in gens)
    reach = refmath.reachable(gens, w, bound)
    members = sorted(v for v in reach if refmath.dot(w, v) > bound // 2)
    # Nonnegative integer combinations of the cone's rays that no sum of
    # generators reaches: lattice points of the cone that are gaps.
    gaps = {
        p for p in refmath.reachable(rays, w, bound)
        if refmath.dot(w, p) > bound // 2 and p not in reach
    }
    half = QUERIES_PER_MONOID // 2
    if len(gaps) < half:
        return None
    chosen = [(v, True) for v in rng.sample(members, half)]
    chosen += [(v, False) for v in rng.sample(sorted(gaps), half)]
    return chosen


def _membership_round(rng, fresh):
    """Per round: one numerical semigroup for each generator count and one
    simplicial monoid of rank 2 and 3, with ``QUERIES_PER_MONOID`` queries
    each; every query is its own operation on a freshly built monoid."""
    ops = []
    for n in sorted(SEMIGROUP_SCALES):
        gens, queries = fresh(lambda: _semigroup_with_queries(rng, n),
                              key=lambda v: v[0])
        for target, member in queries:
            ops.append({"kind": "member", "rank": 1,
                        "generators": [(a,) for a in gens],
                        "target": target, "member": member,
                        "weight": (1,)})
    for d in (2, 3):
        gens, w, queries = fresh(lambda: _simplicial_monoid(rng, d),
                                 key=lambda v: v[0])
        for target, member in queries:
            ops.append({"kind": "member", "rank": d, "generators": gens,
                        "target": target, "member": member, "weight": w})
    return ops


membership_round = in_order("membership-queries", _membership_round)


ROUNDS = {
    "cli-verbs": cli_verbs_round,
    "atlas-rounding": atlas_round,
    "hilbert-series": hilbert_round,
    "membership-queries": membership_round,
}
