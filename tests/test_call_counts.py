"""Call counts that show validation and face walks skip needless work.

The counts are deterministic: every check clears the memos first and counts
calls through a wrapper, so no timer is involved.
"""

import itertools
import json
import sys
from fractions import Fraction

from test_memo import clear_memos
from torolog import cones, fans, lattice, monoids, morphisms
from torolog.cli import fan_from_json, fanmon_from_json, fanmon_to_json, main
from torolog.cones import RationalCone
from torolog.fans import (
    Fan,
    FanOfMonoids,
    affine_atlas,
    validate_fan,
    validate_fan_of_monoids,
)
from torolog.lattice import mat_identity
from torolog.monoids import ToricMonoid, exponent_cone, faces, ghost
from torolog.morphisms import (
    ToricMorphismData,
    apply_to_point,
    check_morphism,
    normalization_morphism,
)
from torolog.rounding import ComplexPoint, fiber_structure, rounding_report

HEXAGON = ToricMonoid(
    3, ((1, 0, 1), (1, 1, 1), (0, 1, 1), (-1, 0, 1), (-1, -1, 1), (0, -1, 1))
)


def count_calls(monkeypatch, module, name, run):
    """``run()`` on cleared memos: the calls it made to ``module.name``, and
    its result.

    The wrapper replaces the function in ``module``, which may be a class,
    and in every torolog module that imported it by name, so calls from
    those modules are counted too.
    """
    original = getattr(module, name)
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    clear_memos()
    with monkeypatch.context() as m:
        m.setattr(module, name, counted)
        for mod in list(sys.modules.values()):
            if (
                getattr(mod, "__name__", "").startswith("torolog")
                and getattr(mod, name, None) is original
            ):
                m.setattr(mod, name, counted)
        result = run()
    return len(calls), result


def test_validating_the_hexagon_atlas_searches_no_membership(monkeypatch):
    calls, report = count_calls(
        monkeypatch, monoids, "membership",
        lambda: validate_fan_of_monoids(affine_atlas(HEXAGON)),
    )
    assert calls == 0
    assert report.failures == ()


def test_faces_cost_no_double_description_beyond_the_dual(monkeypatch):
    # A built cone carries vectors spanning its dual, and each face gets its
    # dual's spanning vectors from the cone's dual.
    for c in (
        exponent_cone(HEXAGON),
        RationalCone(3, ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (1, 1, 2))),
        RationalCone(4, ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 1, 1))),
    ):
        dual, _ = count_calls(
            monkeypatch, cones, "_dual_description", lambda: cones.dual_cone(c)
        )
        walk, _ = count_calls(
            monkeypatch, cones, "_dual_description", lambda: cones.faces(c)
        )
        assert (dual, walk) == (0, 0)


def test_a_cone_and_its_dual_come_from_one_double_description_pass(
    monkeypatch,
):
    gens = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (1, 1, 2), (0, 2, 1))
    built, a = count_calls(
        monkeypatch, cones, "_dual_description", lambda: RationalCone(3, gens)
    )
    b = RationalCone(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    dual, _ = count_calls(
        monkeypatch, cones, "_dual_description", lambda: cones.dual_cone(a)
    )
    meet, _ = count_calls(
        monkeypatch, cones, "_dual_description", lambda: cones.intersect(a, b)
    )
    # The pass that builds a cone spans its dual, so only the merged facets
    # of the intersection need one more.
    assert (built, dual, meet) == (1, 0, 1)


def test_splitting_a_chart_with_paired_units_makes_no_pass(monkeypatch):
    # The hexagon's localization at a 2-face and the group chart Z^3: every
    # unit's negative is a generator.  Only the exponent cone's own pass is
    # made, none for relieve.
    face_chart = monoids.localize(HEXAGON, faces(HEXAGON)[-2])
    group = ToricMonoid(3, mat_identity(3) + tuple(
        tuple(-x for x in row) for row in mat_identity(3)
    ))
    for g, units in ((face_chart, 4), (group, 6)):
        built, _ = count_calls(
            monkeypatch, cones, "_dual_description", lambda: exponent_cone(g)
        )
        both, split = count_calls(
            monkeypatch, cones, "_dual_description",
            lambda: (exponent_cone(g), monoids._splitting(g))[1],
        )
        assert (built, both) == (1, 1)
        assert split[4] == (1,) * units


def test_an_atlas_makes_one_pass_and_its_validation_none(monkeypatch):
    built, atlas = count_calls(
        monkeypatch, cones, "_dual_description", lambda: affine_atlas(HEXAGON)
    )
    both, report = count_calls(
        monkeypatch, cones, "_dual_description",
        lambda: validate_fan_of_monoids(affine_atlas(HEXAGON)),
    )
    # The atlas builds the exponent cone of the monoid it starts from; the
    # weight cone, its faces and their duals cost no pass.  Validation reads
    # only the one maximal chart, which is that monoid, and finds every face
    # chart structurally equal to its localization.
    assert len(atlas.entries) == 14
    assert (built, both - built) == (1, 0)
    assert report.failures == ()


def test_validating_the_130_chart_parabola_atlas_costs_no_pass_or_search(
    monkeypatch,
):
    # The cone over the lattice 64-gon: twice as many charts as the memos
    # hold entries, so no memo can carry a per-chart check.
    parabola = ToricMonoid(3, tuple((t, t * t, 1) for t in range(64)))
    for module, name in ((cones, "_dual_description"), (monoids, "membership")):
        built, atlas = count_calls(
            monkeypatch, module, name, lambda: affine_atlas(parabola)
        )
        both, report = count_calls(
            monkeypatch, module, name,
            lambda: validate_fan_of_monoids(affine_atlas(parabola)),
        )
        assert len(atlas.entries) == 130
        assert both - built == 0, name
        assert report.failures == ()


def test_reading_the_130_chart_parabola_atlas_makes_one_pass(monkeypatch):
    # Every cone of the atlas is a face of the one maximal cone, read from
    # its face lattice.  Read again, the payload's cones are a memo hit and
    # no face lattice is asked for.
    parabola = ToricMonoid(3, tuple((t, t * t, 1) for t in range(64)))
    payload = json.loads(json.dumps(fanmon_to_json(affine_atlas(parabola))))
    calls, atlas = count_calls(
        monkeypatch, cones, "_dual_description",
        lambda: (fanmon_from_json(payload), fanmon_from_json(payload))[1],
    )
    assert (calls, len(atlas.entries)) == (1, 130)
    walks = cones.faces.cache_info()
    assert (walks.hits, walks.misses) == (0, 1)


def test_reading_only_maximal_cones_walks_no_face_lattice(monkeypatch):
    # The eight octants: each takes its pass, and no cone's generators lie
    # among another's, so no face lattice is walked.  Listed with all their
    # faces, the octants are still built once each, and the faces are read
    # from the face lattices of seven octants: every face of the last one
    # lies on another octant too.
    octants = [
        RationalCone(3, [tuple(s * x for x in row)
                         for s, row in zip(signs, mat_identity(3))])
        for signs in itertools.product((1, -1), repeat=3)
    ]
    for listed, walks in ((octants, 0), (Fan(3, [
        f for c in octants for f in cones.faces(c)
    ]).cones, 7)):
        payload = {"ambient_rank": 3, "cones": [
            {"ambient_rank": 3, "rays": [list(r) for r in c.rays]}
            for c in listed
        ]}
        calls, fan = count_calls(
            monkeypatch, cones, "_dual_description",
            lambda: fan_from_json(payload),
        )
        assert (calls, len(fan.cones)) == (8, len(listed))
        assert cones.faces.cache_info().misses == walks


def test_an_atlas_and_its_rounding_find_each_face_and_ghost_once(
    monkeypatch,
):
    # The atlas, its validation, its rounding report and the ghost and fiber
    # of each face all ask for the same 14 face correspondences, ghosts and
    # cone dimensions, so each is computed once, not once per caller.  Only
    # the two cones with more than three rays, the hexagon's exponent and
    # weight cones, take a rank for their dimension.
    def pipeline():
        atlas = affine_atlas(HEXAGON)
        report = validate_fan_of_monoids(atlas)
        rows = rounding_report(atlas)
        for f in faces(HEXAGON):
            ghost(HEXAGON, f)
            fiber_structure(HEXAGON, f)
        return report, rows

    for module, name, expected in (
        (fans, "_perp_face_indices", 14), (lattice, "snf", 14),
        (lattice, "lattice_rank", 2),
    ):
        calls, (report, rows) = count_calls(monkeypatch, module, name, pipeline)
        assert calls == expected, name
        assert report.failures == () and len(rows) == 14


def test_validating_an_affine_atlas_intersects_no_cones(monkeypatch):
    # Every cone of an atlas is a face of the one maximal cone.
    calls, report = count_calls(
        monkeypatch, cones, "intersect",
        lambda: validate_fan_of_monoids(affine_atlas(HEXAGON)),
    )
    assert calls == 0
    assert report.failures == ()


def test_a_hexagon_fan_with_a_ray_dropped_intersects_no_cones(monkeypatch):
    # Every cone left is a face of the one maximal cone, so each of the 78
    # meets is read from its face lattice.
    cones_left = affine_atlas(HEXAGON).fan().cones
    fan = Fan(3, [c for c in cones_left if c.rays != cones_left[1].rays])
    assert len(fan.cones) == 13
    calls, report = count_calls(
        monkeypatch, cones, "intersect", lambda: validate_fan(fan)
    )
    assert calls == 0
    assert {f.code for f in report.failures} == {
        "missing-face", "missing-intersection",
    }


def test_a_rounding_report_finds_the_maximal_cones_once():
    # Validation, its fan check and the strata all read one memoized cover
    # of the atlas's cones.
    clear_memos()
    rows = rounding_report(affine_atlas(HEXAGON))
    assert len(rows) == 14
    assert fans._cover.cache_info().misses == 1


def test_checking_the_parabola_fan_with_a_ray_dropped_hashes_few_cones(
    monkeypatch, tmp_path, capsys
):
    # 129 cones and 8,256 pairs inside the one maximal cone.  The pairs are
    # looked up by position in the fan's cover, and each meet's presence in
    # the fan is read from the maximal cone's face lattice, so no pair
    # hashes a cone.  The cover orders the cones by ray count, which needs
    # no memoized dimension.
    parabola = ToricMonoid(3, tuple((t, t * t, 1) for t in range(64)))
    entries = fanmon_to_json(affine_atlas(parabola))["entries"]
    ray = next(e["cone"] for e in entries if len(e["cone"]["rays"]) == 1)
    path = tmp_path / "fan.json"
    path.write_text(json.dumps({
        "ambient_rank": 3,
        "cones": [e["cone"] for e in entries if e["cone"] is not ray],
    }))
    calls, code = count_calls(
        monkeypatch, RationalCone, "__hash__",
        lambda: main(["fan", "check", "--input", str(path)]),
    )
    assert code == 1
    assert capsys.readouterr().out.count("\nmissing-face:") == 3
    assert calls == 1171


def test_validating_an_atlas_hashes_each_cone_a_few_times(monkeypatch):
    # Passing validation looks up the fan's cover once and runs the failure
    # enumeration on the one maximal chart alone, which looks up each face
    # chart once and compares it once; it intersects no cones.
    parabola = ToricMonoid(3, tuple((t, t * t, 1) for t in range(64)))
    for g, counts in (
        (HEXAGON, (168, 0, 13)), (parabola, (1444, 0, 129)),
    ):
        for (module, name), expected in zip(
            ((RationalCone, "__hash__"), (cones, "intersect"),
             (monoids, "monoid_equal")),
            counts,
        ):
            built, _ = count_calls(
                monkeypatch, module, name, lambda: affine_atlas(g)
            )
            both, report = count_calls(
                monkeypatch, module, name,
                lambda: validate_fan_of_monoids(affine_atlas(g)),
            )
            assert both - built == expected, name
            assert report.failures == ()


def test_strata_and_the_morphism_check_read_the_index_validation_keeps(
    monkeypatch,
):
    # The rounding report's strata, and the morphism check for both of its
    # fans, read each fan's charts and cover from its memoized validation,
    # and build no second map of the charts and look up no second cover.
    parabola = ToricMonoid(3, tuple((t, t * t, 1) for t in range(64)))
    for build, check, expected in (
        (lambda: affine_atlas(parabola), rounding_report, 1964),
        (lambda: normalization_morphism(HEXAGON), check_morphism, 273),
    ):
        built, _ = count_calls(monkeypatch, RationalCone, "__hash__", build)
        both, _ = count_calls(
            monkeypatch, RationalCone, "__hash__", lambda: check(build())
        )
        assert both - built == expected


def test_a_hexagon_atlas_with_its_minimal_chart_doubled_rechecks_one_chart(
    monkeypatch,
):
    # With the atlas validated, the maximal chart certifies every face chart
    # but the doubled one; only that chart's group, weight cone and
    # comparison with its localization are computed.
    def validated():
        atlas = affine_atlas(HEXAGON)
        validate_fan_of_monoids(atlas)
        cone, monoid = atlas.entries[0]
        doubled = ToricMonoid(3, tuple(
            tuple(2 * x for x in v) for v in monoid.generators
        ))
        return FanOfMonoids(3, ((cone, doubled),) + atlas.entries[1:])

    for module, name, expected in (
        (cones, "_dual_description", 1), (monoids, "membership", 1),
    ):
        built, _ = count_calls(monkeypatch, module, name, validated)
        both, report = count_calls(
            monkeypatch, module, name,
            lambda: validate_fan_of_monoids(validated()),
        )
        assert both - built == expected, name
        assert [f.code for f in report.failures] == (
            ["group-not-full"] + ["face-incompatible"] * 13
        )


def test_the_four_quadrants_intersect_only_their_maximal_pairs(monkeypatch):
    quadrants = [
        RationalCone(2, ((sx, 0), (0, sy))) for sx in (1, -1) for sy in (1, -1)
    ]
    fan = Fan(2, [f for q in quadrants for f in cones.faces(q)])
    assert len(fan.cones) == 9
    calls, report = count_calls(
        monkeypatch, cones, "intersect", lambda: validate_fan(fan)
    )
    assert calls <= 6
    assert report.failures == ()


def test_checking_the_normalization_intersects_no_cones(monkeypatch):
    d = normalization_morphism(HEXAGON)
    calls, report = count_calls(
        monkeypatch, cones, "intersect", lambda: check_morphism(d)
    )
    assert calls == 0
    assert report.failures == ()


def test_checking_hexagon_morphisms_on_validated_fans_searches_nothing(
    monkeypatch,
):
    # With both fans validated, the check reads only the one maximal source
    # chart, and the dual image of every target generator is one of its
    # generators, so no membership search or cone is needed.
    def identity():
        atlas = affine_atlas(HEXAGON)
        return ToricMorphismData(mat_identity(3), atlas, atlas)

    for make in (identity, lambda: normalization_morphism(HEXAGON)):
        def validated():
            d = make()
            validate_fan_of_monoids(d.source)
            validate_fan_of_monoids(d.target)
            return d

        for module, name in (
            (monoids, "membership"), (cones, "_dual_description"),
        ):
            built, _ = count_calls(monkeypatch, module, name, validated)
            both, report = count_calls(
                monkeypatch, module, name,
                lambda: check_morphism(validated()),
            )
            assert both - built == 0, name
            assert report.failures == ()


def test_saturating_builds_and_checks_no_morphism(
    monkeypatch, tmp_path, capsys
):
    # The normalization verdict follows from g lying in sat(g) with the same
    # group and cone, so the verb builds no atlas and checks no morphism.
    path = tmp_path / "hexagon.json"
    path.write_text(json.dumps(
        {"ambient_rank": 3, "generators": [list(v) for v in HEXAGON.generators]}
    ))
    for module, name in (
        (morphisms, "check_morphism"),
        (fans, "affine_atlas"),
        (fans, "validate_fan_of_monoids"),
    ):
        calls, code = count_calls(
            monkeypatch, module, name,
            lambda: main(["monoid", "saturate", "--input", str(path)]),
        )
        assert (calls, code) == (0, 0), name
        assert capsys.readouterr().out.endswith("normalization morphism: PASS\n")


def test_applying_a_map_to_a_point_searches_once_per_source_generator(
    monkeypatch,
):
    # Each image's witness in the hexagon also says whether it lies on the
    # point's support edge: a sum lies on a face exactly when each generator
    # in it does.  So no second search, into the edge, is made.
    edge = faces(HEXAGON)[7]
    p = ComplexPoint(HEXAGON, edge, (0.5, 0.25), (0, Fraction(1, 3)))
    images = [HEXAGON.generators[i] for i in edge.generator_indices + (5,)]
    free = ToricMonoid(3, mat_identity(3))
    calls, q = count_calls(
        monkeypatch, monoids, "membership",
        lambda: apply_to_point(tuple(zip(*images)), free, p),
    )
    assert calls == 3
    # The first two unit vectors map onto the edge, the third off it.
    assert {free.generators[i] for i in q.support_face.generator_indices} == {
        (1, 0, 0), (0, 1, 0),
    }


def _mirrored_containment_tests(monkeypatch, rays):
    """The ``contains`` calls of the Hilbert bases of the cone on ``rays``
    and of its mirror in the first coordinate, and the first basis."""
    counts, bases = [], []
    for s in (1, -1):
        mirrored = tuple((s * r[0],) + r[1:] for r in rays)
        calls, basis = count_calls(
            monkeypatch, cones, "contains",
            lambda: monoids.hilbert_basis(RationalCone(len(rays[0]), mirrored)),
        )
        counts.append(calls)
        bases.append(basis)
    assert bases[1] == tuple(sorted((-x[0],) + x[1:] for x in bases[0]))
    return counts, bases[0]


def test_a_mirrored_hilbert_basis_makes_as_many_containment_tests(monkeypatch):
    # The cone is unimodular, so the candidates are its four rays.  A ray
    # is tested only against kept points of at most half its degree, and
    # none is that light, so no test is made.
    rays = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (7, 7, 7, 1))
    counts, basis = _mirrored_containment_tests(monkeypatch, rays)
    assert set(basis) == set(rays)
    assert counts == [0, 0]
    # Determinant 20: a parallelepiped of 20 points and a basis of 14.
    rays = ((1, 0, 0), (1, 4, 0), (1, 1, 5))
    counts, basis = _mirrored_containment_tests(monkeypatch, rays)
    assert len(basis) == 14
    assert counts == [49, 49]
