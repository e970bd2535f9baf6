"""Acceptance suite: one test per shipping criterion, each with a time budget.

Every test prints a single PASS/FAIL line (visible with ``pytest -s`` and in
failure reports) and enforces its wall-clock budget.  Randomized criteria use
fixed seeds so the corpus is identical on every run.
"""

import hashlib
import io
import json
import math
import random
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from fractions import Fraction

from conftest import edge, random_cone, random_monoid
from test_fans import seeded_normal_fans
from test_memo import clear_memos
from test_monoids import brute_force_membership, witness_is_valid
from test_rounding import brute_force_components, count_rounding_points

from torolog.cli import fanmon_to_json, main
from torolog.cones import RationalCone, dim, dual_cone
from torolog.fans import (
    FanOfMonoids,
    affine_atlas,
    normal_fan_of_monoids,
    validate_fan_of_monoids,
)
from torolog.lattice import mat_identity, solve_integer
from torolog.monoids import (
    ToricMonoid,
    exponent_cone,
    faces,
    gp,
    hilbert_basis,
    localize,
    membership,
    monoid_equal,
    saturate,
    weight_cone,
)
from torolog.morphisms import check_morphism, normalization_morphism
from torolog.rounding import (
    fiber_structure,
    points_of,
    relative_fiber,
    rounding_report,
    strict_restriction_check,
)
from torolog.snc import milnor_stratum_fiber


@contextmanager
def criterion(label, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"FAIL  {label}")
        raise
    elapsed = time.perf_counter() - start
    print(f"PASS  {label}  ({elapsed:.2f}s, budget {budget_seconds:g}s)")
    assert elapsed < budget_seconds, (
        f"{label}: {elapsed:.2f}s exceeds the {budget_seconds:g}s budget"
    )


PLANE = ToricMonoid(2, ((1, 0), (0, 1)))
NUMERICAL = ToricMonoid(1, ((2,), (3,)))
TORSION = ToricMonoid(2, ((2, 0), (0, 1), (1, 1)))


def cone_corpus():
    rng = random.Random(20260819)
    return [random_cone(rng, rng.randint(1, 4)) for _ in range(100)]


def test_criterion_dual_cone_goldens():
    with criterion("dual-cone goldens for the four plane monoids", 1.0):
        origin = RationalCone(2, ())
        x_ray = RationalCone(2, ((1, 0),))
        y_ray = RationalCone(2, ((0, 1),))
        quadrant = RationalCone(2, ((1, 0), (0, 1)))
        plane = RationalCone(2, ((1, 0), (-1, 0), (0, 1), (0, -1)))
        upper = RationalCone(2, ((1, 0), (-1, 0), (0, 1)))
        right = RationalCone(2, ((1, 0), (0, 1), (0, -1)))
        cases = [
            (ToricMonoid(2, ((1, 0), (-1, 0), (0, 1), (0, -1))), origin, plane),
            (ToricMonoid(2, ((1, 0), (-1, 0), (0, 1))), y_ray, upper),
            (ToricMonoid(2, ((1, 0), (0, 1), (0, -1))), x_ray, right),
            (PLANE, quadrant, quadrant),
        ]
        for g, weight, exponent in cases:
            assert weight_cone(g) == weight
            assert exponent_cone(g) == exponent
            assert dual_cone(weight) == exponent
            assert dual_cone(exponent) == weight


def test_criterion_quadrant_faces_and_localizations():
    with criterion("faces and localizations of the quadrant monoid", 1.0):
        fs = faces(PLANE)
        assert len(fs) == 4
        assert {f.generator_indices for f in fs} == {(), (0,), (1,), (0, 1)}
        expected = [
            ToricMonoid(2, ((1, 0), (0, 1))),
            ToricMonoid(2, ((1, 0), (0, 1), (0, -1))),
            ToricMonoid(2, ((1, 0), (-1, 0), (0, 1))),
            ToricMonoid(2, ((1, 0), (-1, 0), (0, 1), (0, -1))),
        ]
        matched = []
        for f in fs:
            loc = localize(PLANE, f)
            hits = [
                i
                for i, e in enumerate(expected)
                if i not in matched and monoid_equal(loc, e)
            ]
            assert len(hits) == 1, f"localization at {f} matched {hits}"
            matched.append(hits[0])
        assert sorted(matched) == [0, 1, 2, 3]


def test_criterion_numerical_semigroup_normalization():
    with criterion("normalization of the 2-3 numerical semigroup", 1.0):
        sat = saturate(NUMERICAL)
        assert sat.generators == ((1,),)
        assert monoid_equal(sat, ToricMonoid(1, ((1,),)))
        report = check_morphism(normalization_morphism(NUMERICAL))
        assert report.ok, report.failures


def test_criterion_duality_is_an_involution():
    with criterion("double dual is the identity on 100 random cones", 30.0):
        for c in cone_corpus():
            assert dual_cone(dual_cone(c)) == c


def test_criterion_dimension_duality():
    with criterion("dim of cone plus dim of dual lineality is the rank", 30.0):
        for c in cone_corpus():
            d = dual_cone(c)
            assert dim(c) + len(d.lineality) == c.ambient_rank


def _plane_atlas_and_line_fan():
    atlas = affine_atlas(PLANE)
    line = FanOfMonoids(
        1,
        (
            (RationalCone(1, ((1,),)), ToricMonoid(1, ((1,),))),
            (RationalCone(1, ((-1,),)), ToricMonoid(1, ((-1,),))),
            (RationalCone(1, ()), ToricMonoid(1, ((1,), (-1,)))),
        ),
    )
    return atlas, line


def test_criterion_fan_of_monoids_mutation_suite():
    with criterion("chart-compatibility validation and its mutations", 5.0):
        atlas, line = _plane_atlas_and_line_fan()
        assert validate_fan_of_monoids(atlas).ok
        assert validate_fan_of_monoids(line).ok
        for fm in (atlas, line):
            entries = fm.entries
            rank = fm.exponent_rank
            maximal = max(dim(c) for c, _ in entries)
            for i, (cone_i, _) in enumerate(entries):
                if dim(cone_i) == maximal:
                    continue  # dropping an open chart leaves a valid fan
                rest = entries[:i] + entries[i + 1 :]
                report = validate_fan_of_monoids(FanOfMonoids(rank, rest))
                assert not report.ok
                assert "missing-face" in {f.code for f in report.failures}
            for i in range(len(entries)):
                j = (i + 1) % len(entries)
                swapped = list(entries)
                swapped[i] = (entries[i][0], entries[j][1])
                report = validate_fan_of_monoids(
                    FanOfMonoids(rank, tuple(swapped))
                )
                assert not report.ok
                assert "weight-cone-mismatch" in {
                    f.code for f in report.failures
                }


def test_criterion_fanmon_check_of_the_130_chart_parabola_atlas(tmp_path):
    # The atlas of the cone over the lattice 64-gon, generated by (t, t^2, 1)
    # for t < 64, checked from its payload on cold memos as one run sees it.
    parabola = ToricMonoid(3, tuple((t, t * t, 1) for t in range(64)))
    path = tmp_path / "atlas.json"
    path.write_text(json.dumps(fanmon_to_json(affine_atlas(parabola))))
    clear_memos()
    out = io.StringIO()
    with criterion("fanmon check of the 130-chart parabola atlas", 1.0):
        with redirect_stdout(out):
            code = main(["fanmon", "check", "--input", str(path)])
        assert (code, out.getvalue()) == (0, "PASS\n")


def _failing_check(tmp_path, label, budget, argv, payload):
    """Run ``torolog GROUP VERB`` on the payload from cold memos within the
    budget, expecting exit 1; the failure codes it printed."""
    path = tmp_path / "payload.json"
    path.write_text(json.dumps(payload))
    clear_memos()
    out = io.StringIO()
    with criterion(label, budget):
        with redirect_stdout(out):
            code = main(argv + ["--json", "--input", str(path)])
        assert code == 1
    return [f["code"] for f in json.loads(out.getvalue())["failures"]]


def test_criterion_fan_check_of_the_parabola_fan_with_a_ray_dropped(tmp_path):
    # 129 cones and 8,256 pairs, every pair inside the one maximal cone.
    # About 0.1 s; 4-5 s when every pair was intersected.
    parabola = ToricMonoid(3, tuple((t, t * t, 1) for t in range(64)))
    entries = fanmon_to_json(affine_atlas(parabola))["entries"]
    ray = next(e["cone"] for e in entries if len(e["cone"]["rays"]) == 1)
    fan = {"ambient_rank": 3,
           "cones": [e["cone"] for e in entries if e["cone"] is not ray]}
    codes = _failing_check(
        tmp_path, "fan check of the parabola fan with a ray dropped", 0.75,
        ["fan", "check"], fan,
    )
    assert codes == ["missing-face"] * 3 + ["missing-intersection"]


def test_criterion_fanmon_check_of_the_parabola_atlas_with_a_doubled_chart(
    tmp_path,
):
    # The minimal chart's generators doubled: its group is a proper
    # subgroup, and it is no localization of the 129 charts above it.
    # About 0.25 s; 0.9-1.4 s when every chart was checked on its own.
    parabola = ToricMonoid(3, tuple((t, t * t, 1) for t in range(64)))
    atlas = fanmon_to_json(affine_atlas(parabola))
    minimal = atlas["entries"][0]["monoid"]
    minimal["generators"] = [
        [str(2 * int(x)) for x in v] for v in minimal["generators"]
    ]
    codes = _failing_check(
        tmp_path, "fanmon check of the parabola atlas with a doubled chart",
        0.75, ["fanmon", "check"], atlas,
    )
    assert codes == ["group-not-full"] + ["face-incompatible"] * 129


def test_criterion_morphism_check_of_the_130_chart_parabola_atlas(tmp_path):
    # The identity on the atlas of the cone over the lattice 64-gon.  Every
    # chart but the maximal one has units; only the maximal one is read.
    parabola = ToricMonoid(3, tuple((t, t * t, 1) for t in range(64)))
    atlas = fanmon_to_json(affine_atlas(parabola))
    path = tmp_path / "identity.json"
    path.write_text(json.dumps({
        "nu": [[int(i == j) for j in range(3)] for i in range(3)],
        "source": atlas,
        "target": atlas,
    }))
    clear_memos()
    out = io.StringIO()
    with criterion("morphism check of the 130-chart parabola atlas", 1.5):
        with redirect_stdout(out):
            code = main(["morphism", "check", "--input", str(path)])
        assert (code, out.getvalue()) == (0, "PASS\n")


def test_criterion_normalization_check_of_the_parabola_cone_over_the_heptagon():
    # Generated by (t, t^2, 1) for t < 7.  Only the maximal chart of the
    # saturation, which has no units, is searched.
    g = ToricMonoid(3, tuple((t, t * t, 1) for t in range(7)))
    clear_memos()
    with criterion("normalization check of the parabola cone n = 7", 0.25):
        report = check_morphism(normalization_morphism(g))
        assert report.ok, report.failures


def _saturate_within_a_second(tmp_path, label, generators):
    path = tmp_path / "monoid.json"
    path.write_text(json.dumps({"ambient_rank": 3, "generators": generators}))
    clear_memos()
    out = io.StringIO()
    with criterion(label, 1.0):
        with redirect_stdout(out):
            code = main(["monoid", "saturate", "--input", str(path)])
        assert code == 0
        assert out.getvalue().endswith("normalization morphism: PASS\n")


def test_criterion_saturate_the_parabola_cone_over_the_heptagon(tmp_path):
    # Generated by (t, t^2, 1) for t < 7.  Checking its normalization
    # morphism takes about 0.02 s; the verb, which does not, about 0.01 s.
    _saturate_within_a_second(
        tmp_path, "monoid saturate of the parabola cone n = 7",
        [[t, t * t, 1] for t in range(7)],
    )


def test_criterion_saturate_a_five_generator_rank_3_monoid(tmp_path):
    # Checking its normalization morphism takes about 0.008 s; the verb,
    # which does not, about 0.003 s.
    _saturate_within_a_second(
        tmp_path, "monoid saturate of a five-generator rank-3 monoid",
        [[-3, 1, -1], [-2, 0, 3], [-2, 1, 0], [-2, 1, 2], [1, 1, 1]],
    )


def test_criterion_saturate_a_thin_cone_with_ten_thousand_basis_points(tmp_path):
    # Generated by (0, 1), (N, 1) and (1, 1) at N = 10^4, whose saturation
    # is generated by the N + 1 points (k, 1).  Each candidate is tested
    # only against kept points of at most half its degree, and all have one
    # degree, so none is tested; this takes about 0.3 s.
    n = 10 ** 4
    path = tmp_path / "monoid.json"
    path.write_text(json.dumps(
        {"ambient_rank": 2, "generators": [[0, 1], [n, 1], [1, 1]]}
    ))
    clear_memos()
    out = io.StringIO()
    with criterion("monoid saturate of (0, 1), (10^4, 1), (1, 1)", 5.0):
        with redirect_stdout(out):
            code = main(["monoid", "saturate", "--input", str(path)])
        assert code == 0
    lines = out.getvalue().splitlines()
    assert lines[1:-2] == [f"({k}, 1)" for k in range(n + 1)]
    assert lines[-2:] == ["already saturated: no", "normalization morphism: PASS"]


def test_criterion_rounding_fiber_suite():
    with criterion("collapse fibers over free charts and a torsion chart", 2.0):
        for n in range(1, 6):
            free = ToricMonoid(n, mat_identity(n))
            rep = fiber_structure(free, edge(free))
            assert (rep.torus_rank, rep.components) == (n, 1)
        f = [fc for fc in faces(TORSION) if fc.generator_indices == (2,)][0]
        rep = fiber_structure(TORSION, f)
        assert (rep.torus_rank, rep.components) == (1, 2)
        assert brute_force_components(TORSION, f) == 2


def test_criterion_torsor_counts_at_finite_level():
    with criterion("fiber counts of finite-denominator characters", 30.0):
        rng = random.Random(715)
        monoids = [random_monoid(rng, rng.randint(1, 2)) for _ in range(16)]
        checked = 0
        for g in monoids:
            basis = gp(g)
            bmat = tuple(
                tuple(b[i] for b in basis) for i in range(g.ambient_rank)
            )
            for f in faces(g):
                rep = fiber_structure(g, f)
                for L in (2, 3, 4, 6):
                    if any(t % L for t in rep.invariants.torsion):
                        continue
                    theta0 = [Fraction(rng.randrange(L), L) for _ in basis]
                    angles = [
                        sum(
                            c * t
                            for c, t in zip(solve_integer(bmat, b), theta0)
                        )
                        % 1
                        for b in gp(f.monoid)
                    ]
                    count = count_rounding_points(g, f, angles, L)
                    assert count == rep.components * L**rep.torus_rank
                    checked += 1
        assert checked >= 100


def test_criterion_milnor_gcd_property():
    with criterion("stratum component counts equal the gcd", 5.0):
        rng = random.Random(929)
        for _ in range(200):
            k = rng.randint(1, 4)
            m = tuple(rng.randint(1, 9) for _ in range(k))
            rep = milnor_stratum_fiber(m)
            assert rep.components == math.gcd(*m)
            assert rep.torus_rank == k - 1
            free = ToricMonoid(k, mat_identity(k))
            alt = relative_fiber(tuple((x,) for x in m), edge(free))
            assert alt == rep


def test_criterion_polar_points_match_atlas_report():
    with criterion("polar point strata agree with the atlas report", 10.0):
        rng = random.Random(31415)
        for _ in range(10):
            g = random_monoid(rng, rng.randint(1, 3))
            pts = points_of(g)
            rows = rounding_report(affine_atlas(g))
            assert len(pts) == len(rows)
            by_points = sorted(
                (
                    p.torus_rank,
                    p.fiber.torus_rank,
                    p.fiber.components,
                    p.fiber.invariants.torsion,
                )
                for p in pts
            )
            by_report = sorted(
                (
                    r.orbit_dimension,
                    r.fiber.torus_rank,
                    r.fiber.components,
                    r.fiber.invariants.torsion,
                )
                for r in rows
            )
            assert by_points == by_report


def test_criterion_membership_matches_enumeration():
    with criterion("membership agrees with brute-force enumeration", 60.0):
        rng = random.Random(5050)
        for _ in range(500):
            rank = rng.randint(1, 3)
            g = random_monoid(rng, rank)
            if rng.random() < 0.5:
                coeffs = [rng.randint(0, 3) for _ in g.generators]
                m = tuple(
                    sum(a * v[i] for a, v in zip(coeffs, g.generators))
                    for i in range(rank)
                )
            else:
                m = tuple(rng.randint(-6, 6) for _ in range(rank))
            got = membership(g, m)
            expected = brute_force_membership(g.generators, m)
            if got is None:
                assert expected is None, (g, m, expected)
            else:
                assert witness_is_valid(g, m, got)
            if expected is not None:
                assert got is not None, (g, m, expected)


def test_criterion_strict_restriction_cartesian():
    with criterion("stalk restriction is compatible on every face", 10.0):
        rng = random.Random(846)
        for _ in range(10):
            g = random_monoid(rng, rng.randint(1, 2))
            for f in faces(g):
                assert strict_restriction_check(g, f)


def test_criterion_hilbert_basis_ignores_coordinate_signs():
    with criterion("the k=7 Hilbert basis and its mirror", 0.5):
        for s in (1, -1):
            rays = ((s, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (7 * s, 7, 7, 1))
            assert set(hilbert_basis(RationalCone(4, rays))) == set(rays)


def test_criterion_a_19_cone_normal_fan_of_monoids_validates_quickly():
    # Its group chart has 36 units, in pairs; a double-description relieve
    # for them takes about 50 s.  The check takes about 0.13 s on a 2-vCPU
    # machine.
    fan = seeded_normal_fans()[7]
    clear_memos()
    fm = normal_fan_of_monoids(fan)
    with criterion("the seed-73 rank-3 normal fan of monoids validates", 1.0):
        assert len(fm.entries) == 19
        assert validate_fan_of_monoids(fm).ok


def test_criterion_cone_dual_of_the_cyclic_cone_5_32(tmp_path):
    # The cone over the cyclic polytope spanned by (1, t, t^2, t^3, t^4) for
    # t = 1..32 has 464 facets.  Without the rank filter on plus/minus pairs
    # its double description took about 0.5 s on a 2-vCPU machine, with it
    # about 0.1 s.  The digest pins the output printed before the filter.
    path = tmp_path / "cyclic.json"
    path.write_text(json.dumps({
        "ambient_rank": 5,
        "rays": [[t ** k for k in range(5)] for t in range(1, 33)],
    }))
    clear_memos()
    out = io.StringIO()
    with criterion("cone dual of the cyclic cone (5, 32)", 0.3):
        with redirect_stdout(out):
            code = main(["cone", "dual", "--json", "--input", str(path)])
    assert code == 0
    assert len(json.loads(out.getvalue())["rays"]) == 464
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == (
        "00d43d137dd4b6e90c9ec6476d1482ac598063e198245a4d5819d8c3acc67ad5"
    )


def test_criterion_a_strict_40_vertex_simplex_is_rejected_at_its_first_face(
    tmp_path,
):
    # Its 2^40 - 2 proper faces are enumerated lazily, so the first one
    # missing, the singleton (0,), ends the check.  Listing them all took
    # 0.53 s and 65 MB at 18 vertices, four times as much for every two more.
    path = tmp_path / "simplex.json"
    path.write_text(json.dumps(
        {"n": 40, "vertices": 40, "simplices": [list(range(40))]}
    ))
    err = io.StringIO()
    with criterion("a strict 40-vertex simplex is rejected", 1.0):
        with redirect_stderr(err):
            code = main(["snc", "link", "--strict-complex", "--input", str(path)])
        assert code == 2
    assert err.getvalue() == (
        f"invalid input: simplex {tuple(range(40))} is present but its face "
        "(0,) is missing\n"
    )
