"""The command line's output contract: recorded stdout, stderr and exit code.

Every verb runs in text and ``--json`` mode on the payloads of
``test_cli.py``, a few edge cases (a rank-0 ghost, an empty complex) and the
four malformed payloads that once ended in a traceback.  ``cli_golden.json`` holds what each run printed and returned;
the test requires the same bytes.  When an output is meant to change,
regenerate the file with ``PYTHONPATH=src python tests/test_cli_golden.py``
and name the change in CHANGES.md.
"""

import contextlib
import copy
import io
import json
import pathlib
import sys

from test_cli import (
    ATLAS_JSON,
    FULL_FAN_JSON,
    NN2_JSON,
    NUMERICAL_JSON,
    QUADRANT_JSON,
    SEGMENT_JSON,
    TORSION_JSON,
)
from torolog import cli, rounding
from torolog.cli import _VERBS, cone_to_json, fanmon_to_json, main
from torolog.cones import RationalCone, faces
from torolog.fans import Fan, affine_atlas, normal_fan_of_monoids
from torolog.monoids import ToricMonoid

GOLDEN = pathlib.Path(__file__).with_name("cli_golden.json")

_LINE = affine_atlas(ToricMonoid(1, ((1,),)))
LINE_ATLAS = fanmon_to_json(_LINE)
TORSION_ATLAS = fanmon_to_json(
    affine_atlas(ToricMonoid(2, ((0, 1), (1, 1), (2, 0))))
)
LINE_CHART = next(
    i for i, (_, m) in enumerate(_LINE.entries) if m.generators == ((1,),)
)
# The normal fan of monoids of the complete fan of the four quadrants: four
# maximal cones, and each ray a face of two of them.
QUADRANTS_NORMAL = fanmon_to_json(normal_fan_of_monoids(Fan(2, [
    f
    for sx in (1, -1)
    for sy in (1, -1)
    for f in faces(RationalCone(2, ((sx, 0), (0, sy))))
])))


def _wrong_chart_atlas():
    mutated = copy.deepcopy(ATLAS_JSON)
    for entry in mutated["entries"]:
        if len(entry["cone"]["rays"]) == 1:
            entry["monoid"] = NN2_JSON
            break
    return mutated


def _ray_dropped_fan():
    """The fan of the octant's atlas without the cone on (0, 0, 1): three
    faces and one meet missing, the meet a face of the octant."""
    octant = affine_atlas(ToricMonoid(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1))))
    return {"ambient_rank": 3, "cones": [
        cone_to_json(c) for c in octant.fan().cones if c.rays != ((0, 0, 1),)
    ]}


def _doubled_minimal_chart_atlas():
    mutated = copy.deepcopy(ATLAS_JSON)
    for entry in mutated["entries"]:
        if not entry["cone"]["rays"]:
            gens = entry["monoid"]["generators"]
            entry["monoid"]["generators"] = [
                [str(2 * int(x)) for x in v] for v in gens
            ]
    return mutated


def _point_request(chart):
    return {
        "source_chart": chart,
        "target_chart": chart,
        "kind": "rounding",
        "face": [0],
        "radial_log": [0.25],
        "angle": ["1/2"],
    }


# (group, verb, payload); a str payload goes to stdin as it is.
PAYLOADS = [
    ("cone", "dual", QUADRANT_JSON),
    ("cone", "dual", {"ambient_rank": 2, "rays": [[1, 0]], "lineality": [[0, 1]]}),
    ("cone", "dual", "{nope"),
    ("cone", "faces", QUADRANT_JSON),
    ("monoid", "saturate", NUMERICAL_JSON),
    ("monoid", "saturate", NN2_JSON),
    ("monoid", "saturate", TORSION_JSON),
    ("monoid", "faces", NN2_JSON),
    ("monoid", "faces", TORSION_JSON),
    ("monoid", "ghost", {"monoid": NN2_JSON, "face": []}),
    ("monoid", "ghost", {"monoid": TORSION_JSON, "face": [2]}),
    ("monoid", "ghost", {"monoid": NN2_JSON, "face": [0, 1]}),
    ("monoid", "ghost", {"monoid": NN2_JSON, "face": [0, 7]}),
    ("monoid", "ghost", {"monoid": {"ambient_rank": 0, "generators": []},
                         "face": []}),
    ("fan", "check", FULL_FAN_JSON),
    ("fan", "check", {"ambient_rank": 2, "cones": [FULL_FAN_JSON["cones"][0]]}),
    ("fan", "check", {"ambient_rank": -1, "cones": []}),
    ("fan", "check", _ray_dropped_fan()),
    ("fanmon", "check", ATLAS_JSON),
    ("fanmon", "check", _wrong_chart_atlas()),
    ("fanmon", "check", _doubled_minimal_chart_atlas()),
    ("fanmon", "check", {"rank": -1, "entries": []}),
    ("fanmon", "atlas", NN2_JSON),
    ("fanmon", "atlas", TORSION_JSON),
    ("fanmon", "normal", FULL_FAN_JSON),
    ("morphism", "check", {"nu": [["1", "0"], ["0", "1"]],
                           "source": ATLAS_JSON, "target": ATLAS_JSON}),
    ("morphism", "check", {"nu": [["-1"]],
                           "source": LINE_ATLAS, "target": LINE_ATLAS}),
    ("morphism", "check", {"nu": [["1"]], "source": LINE_ATLAS,
                           "target": LINE_ATLAS,
                           "point": _point_request(LINE_CHART)}),
    ("morphism", "check", {"nu": [["1"]], "source": LINE_ATLAS,
                           "target": LINE_ATLAS,
                           "point": dict(_point_request(0), source_chart=9)}),
    # A complex point pushed through the doubling map of the line.
    ("morphism", "check", {"nu": [["2"]], "source": LINE_ATLAS,
                           "target": LINE_ATLAS,
                           "point": dict(_point_request(LINE_CHART),
                                         kind="complex", angle=["1/3"])}),
    # The image of the line's ray lies on the x-axis, a face of two
    # quadrants and itself no maximal cone.
    ("morphism", "check", {"nu": [["1"], ["0"]], "source": LINE_ATLAS,
                           "target": QUADRANTS_NORMAL}),
    ("round", "report", ATLAS_JSON),
    ("round", "report", TORSION_ATLAS),
    ("round", "report", NN2_JSON),
    ("round", "report", TORSION_JSON),
    ("round", "report", {"rank": 2, "entries": [
        e for e in ATLAS_JSON["entries"] if e["cone"]["rays"]]}),
    ("round", "report", QUADRANTS_NORMAL),
    ("round", "fiber", {"monoid": TORSION_JSON, "face": [2]}),
    ("round", "fiber", {"monoid": NUMERICAL_JSON, "face": [0, 1],
                        "images": [[4.0, "0"], [8.0, "1/2"]]}),
    ("round", "fiber", {"monoid": NUMERICAL_JSON, "face": [],
                        "images": [[4.0, "0"], [8.0, "1/2"]]}),
    ("milnor", "strata", {"multiplicities": [2, 4]}),
    ("milnor", "strata", [3, 6, 9]),
    ("snc", "link", {"n": 2, "vertices": 2, "simplices": [[0, 1]]}),
    ("snc", "link", {"n": 3, "vertices": 3,
                     "simplices": [[0, 1, 2]], "multiplicities": [2, 4, 6]}),
    ("snc", "milnor", dict(SEGMENT_JSON, multiplicities=[2, 4])),
    ("snc", "milnor", {"n": 3, "vertices": 3,
                       "simplices": [[0, 1, 2]], "multiplicities": [2, 4, 6]}),
    ("snc", "milnor", SEGMENT_JSON),
    ("snc", "milnor", {"n": 2, "vertices": 0, "simplices": [],
                       "multiplicities": []}),
    # Malformed payloads that once raised instead of ending in exit 2.
    ("round", "fiber", {"monoid": NN2_JSON, "face": [0], "images": 5}),
    ("fan", "check", {"ambient_rank": 2, "cones": 5}),
    ("fanmon", "check", {"rank": 2, "entries": 5}),
    ("cone", "dual", {"ambient_rank": -1, "rays": []}),
    # Several faults: the first in payload order is the one reported.
    ("fan", "check", {"ambient_rank": 2, "cones": [
        FULL_FAN_JSON["cones"][0],
        {"ambient_rank": 2, "rays": [[1, 0, 0]]},
        {"ambient_rank": "two", "rays": []},
    ]}),
    ("fanmon", "check", {"rank": 2, "entries": [
        {"cone": {"ambient_rank": 2, "rays": [[1]]}, "monoid": NN2_JSON},
        {"cone": FULL_FAN_JSON["cones"][0],
         "monoid": {"ambient_rank": 2, "generators": [["x", 0]]}},
    ]}),
]

# Runs with flags beyond --json, as (argv, payload).
FLAGGED = [
    (["snc", "link", "--strict-complex"],
     {"n": 2, "vertices": 2, "simplices": [[0, 1]]}),
    (["snc", "milnor", "--strict-complex"],
     dict(SEGMENT_JSON, multiplicities=[2, 4])),
]


def cases():
    for group, verb, payload in PAYLOADS:
        for mode in ([], ["--json"]):
            yield [group, verb] + mode, payload
    yield from FLAGGED


def run(argv, payload):
    """Run one command in-process; return (exit code, stdout, stderr)."""
    stdin = payload if isinstance(payload, str) else json.dumps(payload)
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def record():
    return [
        {"argv": argv, "payload": payload, "code": code,
         "stdout": out, "stderr": err}
        for argv, payload in cases()
        for code, out, err in [run(argv, payload)]
    ]


def test_the_payloads_reach_every_verb_in_both_modes():
    reached = {(tuple(a[:2]), "--json" in a) for a, _ in cases()}
    assert reached == {(v, j) for v in _VERBS for j in (False, True)}


def test_every_run_matches_the_recorded_output():
    golden = _golden()
    assert [(g["argv"], g["payload"]) for g in golden] == [
        (argv, payload) for argv, payload in cases()
    ]
    for g in golden:
        assert run(g["argv"], g["payload"]) == (
            g["code"], g["stdout"], g["stderr"]
        ), g["argv"]


def _golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def _count_calls(monkeypatch, module, name, golden):
    """The calls to ``module.name`` while replaying the ``golden`` runs, each
    of which must still print its recorded output.  The function is
    replaced in ``module`` and in every torolog module that imported it by
    name; payloads are serialized before the count starts."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    stdins = [g["payload"] if isinstance(g["payload"], str)
              else json.dumps(g["payload"]) for g in golden]
    with monkeypatch.context() as m:
        for mod in [module] + list(sys.modules.values()):
            if mod is module or (
                getattr(mod, "__name__", "").startswith("torolog")
                and getattr(mod, name, None) is original
            ):
                m.setattr(mod, name, counted)
        for g, stdin in zip(golden, stdins):
            assert run(g["argv"], stdin) == (
                g["code"], g["stdout"], g["stderr"]
            ), g["argv"]
    return len(calls)


def test_only_the_requested_form_is_rendered(monkeypatch):
    golden = _golden()
    as_json = [g for g in golden if "--json" in g["argv"]]
    as_text = [g for g in golden if "--json" not in g["argv"]]
    assert _count_calls(monkeypatch, cli, "_table", as_json) == 0
    assert _count_calls(monkeypatch, json, "dumps", as_text) == 0
    assert _count_calls(monkeypatch, cli, "_table", as_text) > 0


def test_round_fiber_makes_no_strict_restriction_check(monkeypatch):
    fibers = [g for g in _golden() if g["argv"][:2] == ["round", "fiber"]]
    assert len(fibers) == 8
    assert _count_calls(
        monkeypatch, rounding, "strict_restriction_check", fibers
    ) == 0


def test_a_fault_while_rendering_is_an_internal_error(monkeypatch):
    def fail(value):
        raise RuntimeError(value)

    def handler(payload, args):
        return 0, {"x": 1}, ["a line", ((("x", 0, fail),), [(1,)])]

    monkeypatch.setitem(_VERBS, ("cone", "dual"), ("the dual cone", handler))
    assert run(["cone", "dual"], QUADRANT_JSON) == (
        3, "", "internal error: RuntimeError\n"
    )
    assert run(["cone", "dual", "--json"], QUADRANT_JSON) == (
        0, '{\n  "x": 1\n}\n', ""
    )


def test_strict_complex_outside_the_snc_verbs_is_a_usage_error():
    code, out, err = run(["cone", "dual", "--strict-complex"], QUADRANT_JSON)
    assert (code, out) == (2, "")
    assert err.startswith("usage: torolog")


def test_a_missing_verb_is_a_usage_error():
    code, out, err = run(["cone"], QUADRANT_JSON)
    assert (code, out) == (2, "")
    assert err.startswith("usage: torolog")


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps(record(), indent=1, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )
