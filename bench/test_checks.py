"""The benchmark's checkers reject wrong answers.

    python3 -m pytest bench/test_checks.py

Most tests feed a checker one right answer and one deliberately wrong one;
the others check the corpus.  None of them imports torolog.
"""

import json
import os

import checks
import corpus
import harness
import refmath
import spans


def test_hilbert_basis_with_an_element_dropped_is_rejected():
    rays = [(1, 0), (1, 3)]
    basis = [(1, 0), (1, 1), (1, 2), (1, 3)]
    assert checks.check_hilbert_basis(rays, basis) is None
    for i in range(len(basis)):
        dropped = basis[:i] + basis[i + 1:]
        assert checks.check_hilbert_basis(rays, dropped) is not None


def test_hilbert_basis_with_a_reducible_or_outside_element_is_rejected():
    rays = [(1, 0, 0), (0, 1, 0), (1, 2, 5)]
    basis = sorted(
        {(1, 0, 0), (0, 1, 0), (1, 2, 5)}
        | {p for p in refmath.parallelepiped_points(rays) if any(p)}
    )
    assert checks.check_hilbert_basis(rays, basis) is None
    assert checks.check_hilbert_basis(rays, basis + [(2, 0, 0)]) is not None
    assert checks.check_hilbert_basis(rays, basis + [(-1, 0, 0)]) is not None


def test_non_simplicial_cone_missing_an_inner_element_is_rejected():
    # The square cone over (+-1, 0) and (0, +-1) at height 1: its Hilbert
    # basis is the four rays and (0, 0, 1), which no pair of rays gives.
    rays = [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]
    assert checks.check_hilbert_basis(rays, rays + [(0, 0, 1)]) is None
    assert checks.check_hilbert_basis(rays, rays) is not None


def test_unimodular_cone_must_return_its_rays():
    rays = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (3, 3, 3, 1)]
    assert checks.check_hilbert_basis(rays, rays, unimodular=True) is None
    wrong = rays[:3] + [(1, 1, 1, 0)]
    assert checks.check_hilbert_basis(rays, wrong, unimodular=True) is not None


def _fiber_op(as_json):
    gens = [[0, 1], [1, 1], [2, 0]]
    return {
        "kind": "cli",
        "verb": "round fiber",
        "json": as_json,
        "payload": {
            "monoid": {"ambient_rank": 2, "generators": gens},
            "face": [2],
            "images": [[0.0, "1/2"], [0.0, "0"], [4.0, "1/2"]],
        },
        "expect_code": None,
        "fault": False,
    }


def test_fiber_with_an_off_by_one_component_count_is_rejected():
    # gp = Z^2 and the face group is 2Z x 0: one circle, two components.
    assert checks.ghost_invariants([(0, 1), (1, 1), (2, 0)], [2]) == (1, (2,))
    values = [{"angle": a} for a in ("1/2", "0", "1/2")]
    for components, ok in ((2, True), (1, False), (3, False)):
        obj = {"rank": 1, "components": components, "torsion": [2],
               "strict_restriction": True, "values": values}
        got = checks.check(_fiber_op(True), (0, json.dumps(obj), ""))
        assert (got is None) == ok
    for components, ok in ((2, True), (3, False)):
        text = (f"rank 1, components {components}\nstrict restriction: ok\n"
                "monomial  radius  angle\n(0, 1)    0       1/2\n"
                "(1, 1)    0       0\n(2, 0)    4       1/2")
        got = checks.check(_fiber_op(False), (0, text, ""))
        assert (got is None) == ok


def test_milnor_fiber_with_a_wrong_count_is_rejected():
    op = {"kind": "cli", "verb": "milnor strata", "json": False,
          "payload": {"multiplicities": [4, 6, 10]}, "expect_code": None,
          "fault": False}
    assert checks.check(op, (0, "rank 2, components 2\n", "")) is None
    assert checks.check(op, (0, "rank 2, components 3\n", "")) is not None
    assert checks.check(op, (0, "rank 3, components 2\n", "")) is not None


def _saturate_op():
    # gp = Z^2 and the cone is spanned by (-1, 1) and (1, 1); (0, 1) lies in
    # both but is not a sum of the generators.
    gens = [[-1, 1], [0, 3], [1, 1]]
    return {"kind": "cli", "verb": "monoid saturate", "json": True,
            "payload": {"ambient_rank": 2, "generators": gens},
            "expect_code": None, "fault": False}


def test_saturation_that_returns_its_input_is_rejected():
    def answer(gens, already):
        obj = {"generators": gens, "already_saturated": already,
               "normalization_check": {"ok": True}}
        return (0, json.dumps(obj), "")

    op = _saturate_op()
    assert checks.check(op, answer([[-1, 1], [0, 1], [1, 1]], False)) is None
    assert checks.check(op, answer(op["payload"]["generators"], True)) is not None
    assert checks.check(op, answer([[-1, 1], [0, 1], [1, 1]], True)) is not None


def test_known_fault_counts_as_failed_until_it_exits_2():
    verb, payload = corpus.KNOWN_FAULTS[0]
    op = corpus.cli_op(verb, payload, False, fault=True)
    trace = "Traceback (most recent call last):\n  ...\nTypeError: x\n"
    assert checks.verdict(op, (1, "", trace)) is checks.FAILED
    assert checks.verdict(op, (0, "rank -1\n", "")) is checks.FAILED
    assert checks.verdict(op, (2, "", "invalid input: x\n")) is None
    for verb, payload in corpus.KNOWN_FAULTS:
        op = corpus.cli_op(verb, payload, True, fault=True)
        assert checks.verdict(op, (2, "", "invalid input: x\n")) is None


def _member_op(target, member):
    return {"kind": "member", "rank": 1,
            "generators": [(5,), (7,), (11,)], "target": target,
            "member": member, "weight": (1,)}


def test_witness_with_one_coefficient_changed_is_rejected():
    op = _member_op((30,), True)
    assert checks.check(op, (1, 2, 1)) is None
    for i in range(3):
        changed = list((1, 2, 1))
        changed[i] += 1
        assert checks.check(op, tuple(changed)) is not None
    assert checks.check(op, None) is not None


def test_gap_answers_agree_with_the_semigroup_table():
    table = refmath.semigroup_table([5, 7, 11], 40)
    assert [x for x in range(20) if not table[x]] == [1, 2, 3, 4, 6, 8, 9, 13]
    assert checks.check(_member_op((13,), False), None) is None
    assert checks.check(_member_op((13,), False), (0, 0, 0)) is not None


def _payload_key(op):
    if op["kind"] == "cli":
        return (op["verb"], op["stdin"])
    if op["kind"] in ("hilbert", "saturate", "normal-fan"):
        # A cone is the same cone whatever the order of its rays.
        return (op["kind"] == "normal-fan", frozenset(map(tuple, op["rays"])))
    if op["kind"] == "member":
        return (json.dumps(op["generators"]), json.dumps(op["target"]))
    return json.dumps(op["generators"])


def test_no_payload_repeats_within_a_run():
    # The rounds of a 60-second run, the longest one a run may be.
    for workload, make_round in corpus.ROUNDS.items():
        rounds = harness.round_count(workload, 60, len(make_round(1, 0)))
        ops = [op for i in range(rounds) for op in make_round(1, i)
               if not op.get("fault")]
        keys = {_payload_key(op) for op in ops}
        assert len(keys) == len(ops), workload


def test_no_hilbert_series_cone_repeats_within_30_rounds():
    for seed in (2, 3):
        ops = [op for i in range(30) for op in corpus.hilbert_round(seed, i)]
        assert len({_payload_key(op) for op in ops}) == len(ops)


def test_benchmark_json_lists_the_reported_metrics():
    path = os.path.join(harness.ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END_UNITS
    assert [m["name"] for m in spec["per_layer"]] == list(spans.PER_LAYER)
    for m in spec["per_layer"]:
        assert m["unit"] == spans.unit_of(m["name"])
        assert m["better"] == spans.better_of(m["name"])
    assert {w["name"] for w in spec["workloads"]} <= set(corpus.ROUNDS)
