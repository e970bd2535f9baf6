"""End-to-end tests for the torolog command line.

Every verb is exercised at least once through main(), and the JSON readers
are fed a mix of string-encoded and plain integer entries since both are
accepted on input.  The help also runs in a fresh ``python -OO -m
torolog.cli`` process, which strips docstrings: each verb keeps its help
line.
"""

import copy
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import torolog
from torolog.cli import (
    _VERBS,
    fanmon_to_json,
    main,
    rounding_point_from_json,
    rounding_point_to_json,
)
from torolog.fans import affine_atlas
from torolog.monoids import ToricMonoid, faces
from torolog.rounding import RoundingPoint

SRC = os.path.dirname(os.path.dirname(os.path.abspath(torolog.__file__)))

QUADRANT_JSON = {"ambient_rank": 2, "rays": [["1", "0"], ["0", "1"]]}
NN2_JSON = {"ambient_rank": 2, "generators": [[1, 0], [0, 1]]}
NUMERICAL_JSON = {"ambient_rank": 1, "generators": [["2"], ["3"]]}
TORSION_JSON = {"ambient_rank": 2, "generators": [[0, 1], [1, 1], [2, 0]]}
SEGMENT_JSON = {"n": 2, "vertices": 2, "simplices": [[0], [1], [0, 1]]}

FULL_FAN_JSON = {
    "ambient_rank": 2,
    "cones": [
        {"ambient_rank": 2, "rays": [[1, 0], [0, 1]]},
        {"ambient_rank": 2, "rays": [[1, 0]]},
        {"ambient_rank": 2, "rays": [[0, 1]]},
        {"ambient_rank": 2, "rays": []},
    ],
}

ATLAS_JSON = fanmon_to_json(affine_atlas(ToricMonoid(2, ((1, 0), (0, 1)))))


def write_payload(tmp_path, obj, name="in.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def invoke(capsys, argv, payload=None, tmp_path=None):
    if payload is not None:
        argv = argv + ["--input", write_payload(tmp_path, payload)]
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


# -- surface ---------------------------------------------------------------


def test_verb_table_is_exactly_the_advertised_surface():
    assert set(_VERBS) == {
        ("cone", "dual"),
        ("cone", "faces"),
        ("monoid", "saturate"),
        ("monoid", "faces"),
        ("monoid", "ghost"),
        ("fan", "check"),
        ("fanmon", "check"),
        ("fanmon", "atlas"),
        ("fanmon", "normal"),
        ("morphism", "check"),
        ("round", "report"),
        ("round", "fiber"),
        ("milnor", "strata"),
        ("snc", "link"),
        ("snc", "milnor"),
    }


def test_help_lists_every_verb(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr()[0]
    for group, verb in _VERBS:
        assert f"  {group} {verb} " in out


def test_help_keeps_each_verb_line_when_docstrings_are_stripped():
    # ``python -OO`` drops docstrings; the help lines live in ``_VERBS``.
    done = subprocess.run(
        [sys.executable, "-OO", "-m", "torolog.cli", "--help"],
        env=dict(os.environ, PYTHONPATH=SRC), stdin=subprocess.DEVNULL,
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert not [line for line in lines if "None" in line]
    for (group, verb), (help_line, _) in _VERBS.items():
        assert f"  {group + ' ' + verb:<17}{help_line}" in lines


def test_a_closed_stdout_ends_without_a_traceback(tmp_path, capsys):
    # The reader closes the pipe at once.  The text of the 130-chart
    # parabola atlas is more than a pipe holds, so writing it fails however
    # late the pipe is closed; the verb still exits with its own code.
    parabola = {"ambient_rank": 3,
                "generators": [[t, t * t, 1] for t in range(64)]}
    argv = ["fanmon", "atlas", "--input", write_payload(tmp_path, parabola)]
    proc = subprocess.Popen(
        [sys.executable, "-m", "torolog.cli", *argv],
        env=dict(os.environ, PYTHONPATH=SRC), stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert "Traceback" not in err and "Exception ignored" not in err, err
    assert proc.returncode == main(argv) == 0
    assert len(capsys.readouterr()[0]) > 1 << 16


def test_unknown_verb_is_rejected_with_usage(capsys):
    code = main(["cone", "frobnicate"])
    err = capsys.readouterr()[1]
    assert code == 2
    assert "usage" in err


def test_unknown_group_is_rejected(capsys):
    assert main(["widget", "dual"]) == 2
    assert "usage" in capsys.readouterr()[1]


def test_malformed_json_reports_line_and_column(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{nope", encoding="utf-8")
    code = main(["cone", "dual", "--input", str(path)])
    _, err = capsys.readouterr()
    assert code == 2
    assert "line 1" in err and "column" in err


def test_json_nested_too_deeply_is_malformed_input(capsys, monkeypatch):
    deep = "[" * 100000 + "]" * 100000
    monkeypatch.setattr("sys.stdin", io.StringIO(deep))
    code, out, err = invoke(capsys, ["cone", "dual"])
    assert (code, out) == (2, "")
    assert err == "malformed input: nested too deeply\n"


def test_a_handler_failure_is_an_internal_error(capsys, monkeypatch):
    def broken(payload, args):
        return 1 // 0

    monkeypatch.setitem(_VERBS, ("cone", "dual"), ("the dual cone", broken))
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(QUADRANT_JSON)))
    code, out, err = invoke(capsys, ["cone", "dual"])
    assert (code, out) == (3, "")
    assert err == "internal error: ZeroDivisionError\n"


def test_unreadable_input_path(capsys, tmp_path):
    code = main(["cone", "dual", "--input", str(tmp_path / "absent.json")])
    _, err = capsys.readouterr()
    assert code == 2
    assert "cannot read input" in err


def test_input_that_is_not_utf8_cannot_be_read(capsys, tmp_path, monkeypatch):
    data = json.dumps(QUADRANT_JSON).encode() + b"\xff"
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    expected = (
        f"cannot read input: 'utf-8' codec can't decode byte 0xff in position "
        f"{len(data) - 1}: invalid start byte\n"
    )
    argv = ["cone", "dual", "--input", str(path)]
    assert invoke(capsys, argv) == (2, "", expected)
    # Standard input read strictly, as under PYTHONIOENCODING=utf-8:strict.
    stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="strict")
    monkeypatch.setattr("sys.stdin", stdin)
    assert invoke(capsys, ["cone", "dual"]) == (2, "", expected)


def test_stdin_is_the_default_input(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(NUMERICAL_JSON)))
    code, out, _ = invoke(capsys, ["monoid", "saturate", "--json"])
    assert code == 0
    assert json.loads(out)["generators"] == [["1"]]


# -- cone verbs ------------------------------------------------------------


def test_cone_dual_json_golden(tmp_path, capsys):
    code, out, _ = invoke(
        capsys, ["cone", "dual", "--json"], QUADRANT_JSON, tmp_path
    )
    assert code == 0
    obj = json.loads(out)
    assert obj == {
        "ambient_rank": 2,
        "rays": [["0", "1"], ["1", "0"]],
        "lineality": [],
    }


def test_cone_dual_text_output(tmp_path, capsys):
    halfplane = {
        "ambient_rank": 2,
        "rays": [[1, 0]],
        "lineality": [[0, 1]],
    }
    code, out, _ = invoke(capsys, ["cone", "dual"], halfplane, tmp_path)
    assert code == 0
    assert "rays" in out and "(1, 0)" in out
    assert "lineality" in out


def test_cone_faces_of_quadrant(tmp_path, capsys):
    code, out, _ = invoke(
        capsys, ["cone", "faces", "--json"], QUADRANT_JSON, tmp_path
    )
    assert code == 0
    rows = json.loads(out)["faces"]
    assert len(rows) == 4
    assert sorted(r["dim"] for r in rows) == [0, 1, 1, 2]
    top = [r for r in rows if r["dim"] == 2][0]
    assert len(top["subfaces"]) == 3
    origin = [r for r in rows if r["dim"] == 0][0]
    assert origin["subfaces"] == []


# -- monoid verbs ----------------------------------------------------------


def test_monoid_saturate_numerical_semigroup(tmp_path, capsys):
    code, out, _ = invoke(
        capsys, ["monoid", "saturate"], NUMERICAL_JSON, tmp_path
    )
    assert code == 0
    assert "(1)" in out
    assert "already saturated: no" in out
    assert "normalization morphism: PASS" in out


def test_monoid_saturate_reports_saturated_inputs(tmp_path, capsys):
    code, out, _ = invoke(
        capsys, ["monoid", "saturate", "--json"], NN2_JSON, tmp_path
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["already_saturated"] is True
    assert obj["normalization_check"] == {"ok": True, "failures": []}


def test_monoid_faces_of_plane(tmp_path, capsys):
    code, out, _ = invoke(
        capsys, ["monoid", "faces", "--json"], NN2_JSON, tmp_path
    )
    assert code == 0
    rows = json.loads(out)["faces"]
    indices = {tuple(f["indices"]) for f in rows}
    assert indices == {(), (0,), (1,), (0, 1)}
    by_indices = {tuple(f["indices"]): f["prime_complement"] for f in rows}
    assert by_indices[(0, 1)] == []
    assert by_indices[()] == [0, 1]
    assert by_indices[(0,)] == [1]


def test_monoid_ghost_at_closed_point(tmp_path, capsys):
    payload = {"monoid": NN2_JSON, "face": []}
    code, out, _ = invoke(
        capsys, ["monoid", "ghost", "--json"], payload, tmp_path
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["rank"] == 2 and obj["torsion"] == []
    assert len(obj["generator_images"]) == 2


def test_monoid_ghost_with_torsion(tmp_path, capsys):
    payload = {"monoid": TORSION_JSON, "face": [2]}
    code, out, _ = invoke(
        capsys, ["monoid", "ghost", "--json"], payload, tmp_path
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["rank"] == 1 and obj["torsion"] == [2]


def test_monoid_ghost_rejects_non_face(tmp_path, capsys):
    payload = {"monoid": NN2_JSON, "face": [0, 7]}
    code, _, err = invoke(capsys, ["monoid", "ghost"], payload, tmp_path)
    assert code == 2
    assert "no face" in err


# -- fan / fanmon verbs ----------------------------------------------------


def test_fan_check_passes_on_complete_fan(tmp_path, capsys):
    code, out, _ = invoke(capsys, ["fan", "check"], FULL_FAN_JSON, tmp_path)
    assert code == 0
    assert out.strip() == "PASS"


def test_fan_check_reports_missing_face(tmp_path, capsys):
    broken = {"ambient_rank": 2, "cones": [FULL_FAN_JSON["cones"][0]]}
    code, out, _ = invoke(capsys, ["fan", "check"], broken, tmp_path)
    assert code == 1
    assert out.startswith("FAIL")
    assert "missing-face" in out


def test_fan_check_reports_cones_meeting_off_their_faces(tmp_path, capsys):
    rays = [[1, 0], [0, 1], [1, 1], [-1, 1]]
    overlap = {
        "ambient_rank": 2,
        "cones": [
            {"ambient_rank": 2, "rays": r}
            for r in ([[1, 0], [0, 1]], [[1, 1], [-1, 1]], [[1, 1], [0, 1]],
                      *([v] for v in rays), [])
        ],
    }
    code, out, _ = invoke(capsys, ["fan", "check"], overlap, tmp_path)
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "FAIL"
    assert [line.split(":")[0] for line in lines[1:]] == [
        "improper-intersection"
    ] * 5


def test_fanmon_check_passes_on_plane_atlas(tmp_path, capsys):
    code, out, _ = invoke(capsys, ["fanmon", "check"], ATLAS_JSON, tmp_path)
    assert code == 0
    assert out.strip() == "PASS"


def test_fanmon_check_flags_wrong_chart_monoid(tmp_path, capsys):
    mutated = copy.deepcopy(ATLAS_JSON)
    for entry in mutated["entries"]:
        if len(entry["cone"]["rays"]) == 1:
            entry["monoid"] = NN2_JSON
            break
    code, out, _ = invoke(capsys, ["fanmon", "check"], mutated, tmp_path)
    assert code == 1
    assert "weight-cone-mismatch" in out


def test_fanmon_atlas_lists_a_chart_per_face(tmp_path, capsys):
    code, out, _ = invoke(
        capsys, ["fanmon", "atlas", "--json"], NN2_JSON, tmp_path
    )
    assert code == 0
    assert len(json.loads(out)["entries"]) == 4


def test_fanmon_normal_of_quadrant_fan(tmp_path, capsys):
    code, out, _ = invoke(
        capsys, ["fanmon", "normal", "--json"], FULL_FAN_JSON, tmp_path
    )
    assert code == 0
    obj = json.loads(out)
    assert len(obj["entries"]) == 4
    top = [
        e
        for e in obj["entries"]
        if len(e["cone"]["rays"]) == 2 and not e["cone"]["lineality"]
    ]
    assert top[0]["monoid"]["generators"] == [["0", "1"], ["1", "0"]]


def test_output_is_byte_identical_across_runs(tmp_path, capsys):
    first = invoke(capsys, ["fanmon", "atlas", "--json"], NN2_JSON, tmp_path)
    second = invoke(capsys, ["fanmon", "atlas", "--json"], NN2_JSON, tmp_path)
    assert first == second


# -- morphism verbs --------------------------------------------------------


def test_morphism_check_identity_passes(tmp_path, capsys):
    payload = {
        "nu": [["1", "0"], ["0", "1"]],
        "source": ATLAS_JSON,
        "target": ATLAS_JSON,
    }
    code, out, _ = invoke(capsys, ["morphism", "check"], payload, tmp_path)
    assert code == 0
    assert out.strip() == "PASS"


def test_morphism_check_reports_uncovered_image(tmp_path, capsys):
    line = fanmon_to_json(affine_atlas(ToricMonoid(1, ((1,),))))
    payload = {"nu": [["-1"]], "source": line, "target": line}
    code, out, _ = invoke(capsys, ["morphism", "check"], payload, tmp_path)
    assert code == 1
    assert "no-containing-cone" in out


def test_morphism_check_pushes_a_point_forward(tmp_path, capsys):
    atlas = affine_atlas(ToricMonoid(1, ((1,),)))
    chart = next(
        i
        for i, (_, m) in enumerate(atlas.entries)
        if m.generators == ((1,),)
    )
    payload = {
        "nu": [["1"]],
        "source": fanmon_to_json(atlas),
        "target": fanmon_to_json(atlas),
        "point": {
            "source_chart": chart,
            "target_chart": chart,
            "kind": "rounding",
            "face": [0],
            "radial_log": [0.25],
            "angle": ["1/2"],
        },
    }
    code, out, _ = invoke(
        capsys, ["morphism", "check", "--json"], payload, tmp_path
    )
    assert code == 0
    image = json.loads(out)["point_image"]
    assert image == {
        "kind": "rounding",
        "face": [0],
        "radial_log": [0.25],
        "angle": ["1/2"],
    }


def test_morphism_check_rejects_bad_chart_index(tmp_path, capsys):
    line = fanmon_to_json(affine_atlas(ToricMonoid(1, ((1,),))))
    payload = {
        "nu": [["1"]],
        "source": line,
        "target": line,
        "point": {
            "source_chart": 9,
            "target_chart": 0,
            "face": [],
            "radial_log": [],
            "angle": [],
        },
    }
    code, _, err = invoke(capsys, ["morphism", "check"], payload, tmp_path)
    assert code == 2
    assert "out of range" in err


# -- rounding verbs --------------------------------------------------------


def test_round_report_strata_of_plane(tmp_path, capsys):
    code, out, _ = invoke(
        capsys, ["round", "report", "--json"], ATLAS_JSON, tmp_path
    )
    assert code == 0
    rows = json.loads(out)["strata"]
    shape = sorted(
        (r["orbit_dimension"], r["fiber_rank"], r["components"], r["boundary"])
        for r in rows
    )
    assert shape == [
        (0, 2, 1, True),
        (1, 1, 1, True),
        (1, 1, 1, True),
        (2, 0, 1, False),
    ]


def test_round_report_on_a_single_chart_stratifies_polar_points(
    tmp_path, capsys
):
    code, out, _ = invoke(
        capsys, ["round", "report", "--json"], NN2_JSON, tmp_path
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["kind"] == "polar"
    assert "carrier" in obj and "evaluation" in obj
    shape = sorted(
        (s["torus_rank"], s["fiber_rank"], s["components"])
        for s in obj["strata"]
    )
    assert shape == [(0, 2, 1), (1, 1, 1), (1, 1, 1), (2, 0, 1)]


def test_round_report_rejects_invalid_input_fan(tmp_path, capsys):
    broken = {
        "rank": 2,
        "entries": [e for e in ATLAS_JSON["entries"] if e["cone"]["rays"]],
    }
    code, out, _ = invoke(capsys, ["round", "report"], broken, tmp_path)
    assert code == 1
    assert out.startswith("FAIL")


def test_round_fiber_torsion_golden(tmp_path, capsys):
    payload = {"monoid": TORSION_JSON, "face": [2]}
    code, out, _ = invoke(capsys, ["round", "fiber"], payload, tmp_path)
    assert code == 0
    assert out.splitlines()[0] == "rank 1, components 2"
    assert "strict restriction: ok" in out


def test_round_fiber_encodes_generator_images(tmp_path, capsys):
    payload = {
        "monoid": NUMERICAL_JSON,
        "face": [0, 1],
        "images": [[4.0, "0"], [8.0, "1/2"]],
    }
    code, out, _ = invoke(
        capsys, ["round", "fiber", "--json"], payload, tmp_path
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["point"]["angle"] == ["1/2"]
    assert obj["tau"]["face"] == [0, 1]
    assert [v["angle"] for v in obj["values"]] == ["0", "1/2"]
    assert [round(v["radius"], 9) for v in obj["values"]] == [4.0, 8.0]
    assert obj["strict_restriction"] is True


def test_round_fiber_rejects_images_off_the_face(tmp_path, capsys):
    payload = {
        "monoid": NUMERICAL_JSON,
        "face": [],
        "images": [[4.0, "0"], [8.0, "1/2"]],
    }
    code, _, err = invoke(capsys, ["round", "fiber"], payload, tmp_path)
    assert code == 2
    assert "different face" in err


# -- malformed payloads end in exit 2 with one stderr line ------------------


def assert_rejected(capsys, tmp_path, argv, payload, message):
    code, out, err = invoke(capsys, argv, payload, tmp_path)
    assert (code, out) == (2, "")
    assert err == f"invalid input: {message}\n"


def test_fan_check_rejects_cones_that_are_not_an_array(tmp_path, capsys):
    assert_rejected(
        capsys, tmp_path, ["fan", "check"], {"ambient_rank": 2, "cones": 5},
        "fan cones: expected an array, got 5",
    )


def test_fanmon_check_rejects_entries_that_are_not_an_array(tmp_path, capsys):
    assert_rejected(
        capsys, tmp_path, ["fanmon", "check"], {"rank": 2, "entries": 5},
        "fan of monoids entries: expected an array, got 5",
    )


def test_round_fiber_rejects_images_that_are_not_an_array(tmp_path, capsys):
    payload = {"monoid": NN2_JSON, "face": [0], "images": 5}
    assert_rejected(
        capsys, tmp_path, ["round", "fiber"], payload,
        "images: expected an array, got 5",
    )


def test_round_fiber_rejects_a_radius_that_is_not_a_number(tmp_path, capsys):
    payload = {"monoid": NN2_JSON, "face": [],
               "images": [[None, "0"], [1.0, "0"]]}
    assert_rejected(
        capsys, tmp_path, ["round", "fiber"], payload,
        "radius: None is not a number",
    )


def test_round_fiber_rejects_an_angle_that_is_not_a_scalar(tmp_path, capsys):
    payload = {"monoid": NN2_JSON, "face": [],
               "images": [[1.0, [1]], [1.0, "0"]]}
    assert_rejected(
        capsys, tmp_path, ["round", "fiber"], payload,
        "angle: [1] is not a number",
    )


def test_morphism_check_rejects_a_radial_log_that_is_not_an_array(
    tmp_path, capsys
):
    atlas = affine_atlas(ToricMonoid(1, ((1,),)))
    chart = [m.generators for _, m in atlas.entries].index(((1,),))
    point = {"source_chart": chart, "target_chart": chart, "face": [0],
             "radial_log": 5, "angle": ["1/2"]}
    line = fanmon_to_json(atlas)
    payload = {"nu": [["1"]], "source": line, "target": line, "point": point}
    assert_rejected(
        capsys, tmp_path, ["morphism", "check"], payload,
        "radial_log: expected an array, got 5",
    )
    payload["point"] = dict(point, radial_log=[0.25], angle=5)
    assert_rejected(
        capsys, tmp_path, ["morphism", "check"], payload,
        "angle: expected an array, got 5",
    )


@pytest.mark.parametrize("kind", ["rounding", "complex"])
@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_morphism_check_rejects_a_radial_log_that_is_not_finite(
    tmp_path, capsys, kind, value
):
    # Python's JSON reader takes NaN and Infinity, and reads 1e400 as
    # infinity; none may reach the output, which would not be JSON.
    atlas = affine_atlas(ToricMonoid(1, ((1,),)))
    chart = [m.generators for _, m in atlas.entries].index(((1,),))
    line = json.dumps(fanmon_to_json(atlas))
    path = tmp_path / "payload.json"
    path.write_text(
        f'{{"nu": [["1"]], "source": {line}, "target": {line}, '
        f'"point": {{"source_chart": {chart}, "target_chart": {chart}, '
        f'"kind": "{kind}", "face": [0], "radial_log": [{value}], '
        f'"angle": ["1/2"]}}}}'
    )
    for argv in (["morphism", "check"], ["morphism", "check", "--json"]):
        code = main(argv + ["--input", str(path)])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err == "invalid input: radial data must be finite\n"


LINE_ATLAS_JSON = fanmon_to_json(affine_atlas(ToricMonoid(1, ((1,),))))


def line_morphism(**point):
    """The identity on the atlas of N, with a point request on chart 0."""
    request = {"source_chart": 0, "target_chart": 0, "face": [],
               "radial_log": [], "angle": []}
    return {"nu": [["1"]], "source": LINE_ATLAS_JSON,
            "target": LINE_ATLAS_JSON, "point": dict(request, **point)}


@pytest.mark.parametrize("argv, payload, message", [
    (["round", "fiber"],
     {"monoid": NN2_JSON, "face": [], "images": [[1.0, "x"], [1.0, "0"]]},
     "'x' is not an exact angle"),
    (["round", "fiber"],
     {"monoid": NN2_JSON, "face": [], "images": [[1.0, True], [1.0, "0"]]},
     "True is not an angle"),
    (["round", "fiber"], {"monoid": NN2_JSON, "face": [], "images": [[1.0]]},
     "images must be [radius, angle] pairs"),
    (["morphism", "check"], line_morphism(target_chart=9),
     "target chart 9 is out of range"),
    (["morphism", "check"], line_morphism(kind="polar"),
     "unknown point kind 'polar'"),
    # JSON ``true`` is no number, though Python's float() takes it.
    (["round", "fiber"],
     {"monoid": NN2_JSON, "face": [0], "images": [[True, 0], [0.0, "0"]]},
     "radius: True is not a number"),
    (["morphism", "check"],
     line_morphism(source_chart=1, target_chart=1, face=[0],
                   radial_log=[True], angle=["1/2"]),
     "radial_log: True is not a number"),
])
def test_malformed_point_requests_end_in_exit_2(
    tmp_path, capsys, argv, payload, message
):
    assert_rejected(capsys, tmp_path, argv, payload, message)


def test_a_point_request_reports_its_face_before_its_radial_log(
    tmp_path, capsys
):
    assert_rejected(
        capsys, tmp_path, ["morphism", "check"],
        line_morphism(face=[7], radial_log=5),
        "no face has generator indices [7]",
    )


LINE_POINT = line_morphism(source_chart=1, target_chart=1, face=[0],
                           radial_log=[0.5], angle=["1/2"])
# Each optional key: the verb that reads it, a payload that holds it, the
# path to the object that holds it, and a malformed value with its message.
OPTIONAL_KEYS = {
    "lineality": (["cone", "dual"], QUADRANT_JSON, (), 5,
                  "cone lineality: expected an array of arrays, got 5"),
    "multiplicities": (["snc", "link"], SEGMENT_JSON, (), "x",
                       "complex multiplicities: expected an array, got 'x'"),
    "point": (["morphism", "check"], LINE_POINT, (), 5,
              "point: missing field 'source_chart'"),
    "images": (["round", "fiber"], {"monoid": NN2_JSON, "face": [0]}, (), 5,
               "images: expected an array, got 5"),
    "kind": (["morphism", "check"], LINE_POINT, ("point",), "polar",
             "unknown point kind 'polar'"),
}


@pytest.mark.parametrize("key", sorted(OPTIONAL_KEYS))
def test_an_optional_key_given_as_null_reads_as_absent(tmp_path, capsys, key):
    argv, payload, path, bad, message = OPTIONAL_KEYS[key]
    absent = object()

    def given(value):
        out = copy.deepcopy(payload)
        holder = out
        for step in path:
            holder = holder[step]
        holder.pop(key, None)
        if value is not absent:
            holder[key] = value
        return out

    for form in ([], ["--json"]):
        code, out, err = invoke(capsys, argv + form, given(absent), tmp_path)
        assert (code, err) == (0, "")
        assert invoke(capsys, argv + form, given(None), tmp_path) == (
            code, out, err
        )
    assert_rejected(capsys, tmp_path, argv, given(bad), message)


def test_cone_dual_rejects_a_negative_ambient_rank(tmp_path, capsys):
    assert_rejected(
        capsys, tmp_path, ["cone", "dual"], {"ambient_rank": -1, "rays": []},
        "ambient rank -1 is negative",
    )


def test_fan_checks_reject_a_negative_rank(tmp_path, capsys):
    assert_rejected(
        capsys, tmp_path, ["fan", "check"], {"ambient_rank": -1, "cones": []},
        "ambient rank -1 is negative",
    )
    assert_rejected(
        capsys, tmp_path, ["fanmon", "check"], {"rank": -1, "entries": []},
        "rank -1 is negative",
    )


# -- milnor / snc verbs ----------------------------------------------------


def test_milnor_strata_edge_example(tmp_path, capsys):
    payload = {"multiplicities": [2, 4]}
    code, out, _ = invoke(capsys, ["milnor", "strata"], payload, tmp_path)
    assert code == 0
    assert out.strip() == "rank 1, components 2"


def test_milnor_strata_accepts_bare_list(tmp_path, capsys):
    code, out, _ = invoke(
        capsys, ["milnor", "strata", "--json"], [3, 6, 9], tmp_path
    )
    assert code == 0
    obj = json.loads(out)
    assert obj == {"rank": 2, "components": 3, "torsion": [3]}


def test_snc_link_completes_partial_input_by_default(tmp_path, capsys):
    partial = {"n": 2, "vertices": 2, "simplices": [[0, 1]]}
    code, out, _ = invoke(capsys, ["snc", "link", "--json"], partial, tmp_path)
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [(tuple(r["simplex"]), r["rank"]) for r in rows] == [
        ((0,), 1),
        ((1,), 1),
        ((0, 1), 2),
    ]


def test_snc_link_strict_mode_rejects_partial_input(tmp_path, capsys):
    partial = {"n": 2, "vertices": 2, "simplices": [[0, 1]]}
    code, _, err = invoke(
        capsys, ["snc", "link", "--strict-complex"], partial, tmp_path
    )
    assert code == 2
    assert "invalid input" in err


def test_snc_milnor_summary_by_depth(tmp_path, capsys):
    payload = dict(SEGMENT_JSON, multiplicities=[2, 4])
    code, out, _ = invoke(
        capsys, ["snc", "milnor", "--json"], payload, tmp_path
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["components_by_depth"] == [[1, 6], [2, 2]]
    code, out, _ = invoke(capsys, ["snc", "milnor"], payload, tmp_path)
    assert "depth 2: 2 components" in out


def test_snc_milnor_requires_multiplicities(tmp_path, capsys):
    code, _, err = invoke(capsys, ["snc", "milnor"], SEGMENT_JSON, tmp_path)
    assert code == 2
    assert "invalid input" in err


# -- point serialization helpers -------------------------------------------


def test_rounding_point_json_round_trip():
    g = ToricMonoid(1, ((2,), (3,)))
    full = [f for f in faces(g) if f.monoid.generators == g.generators][0]
    point = RoundingPoint(g, full, (0.75,), (Fraction(1, 3),))
    blob = rounding_point_to_json(point)
    assert blob["angle"] == ["1/3"]
    back = rounding_point_from_json(g, json.loads(json.dumps(blob)))
    assert back == point


def test_rounding_point_json_accepts_plain_numbers():
    g = ToricMonoid(1, ((1,),))
    blob = {"face": [0], "radial_log": [0.5], "angle": [0]}
    p = rounding_point_from_json(g, blob)
    assert p.angle == (Fraction(0),)
