"""What each benchmark operation calls in torolog, and what it keeps.

``execute(op)`` is the timed part: it builds the operation's own objects
from its payload and calls torolog through its public names, looked up on
the package at call time so that a traced run sees every call.  It returns
plain data (tuples, ints, strings) so that nothing torolog built outlives
the operation and the checkers never touch torolog objects.
"""

import contextlib
import io
import itertools
import sys

import torolog
import torolog.cli


def _cone(c):
    return (tuple(c.rays), tuple(c.lineality))


def _inv(inv):
    return (inv.rank, tuple(inv.torsion))


def run_cli(op):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(op["stdin"])
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = torolog.cli.main(op["argv"])
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def run_atlas(op):
    g = torolog.ToricMonoid(op["rank"], op["generators"])
    fm = torolog.affine_atlas(g)
    report = torolog.validate_fan_of_monoids(fm)
    rows = torolog.rounding_report(fm)
    faces = []
    for f in torolog.faces(g):
        gh = torolog.ghost(g, f)
        fib = torolog.fiber_structure(g, f)
        faces.append(
            (f.generator_indices, _inv(gh.invariants),
             (fib.torus_rank, fib.components))
        )
    return {
        "rank": fm.exponent_rank,
        "entries": [(_cone(c), m.generators) for c, m in fm.entries],
        "valid": report.ok,
        "rows": [
            (_cone(r.cone), r.orbit_dimension, r.fiber.torus_rank,
             r.fiber.components, tuple(r.fiber.invariants.torsion), r.boundary)
            for r in rows
        ],
        "faces": faces,
    }


def run_hilbert(op):
    d = len(op["rays"][0])
    return torolog.hilbert_basis(torolog.RationalCone(d, op["rays"]))


def run_saturate(op):
    d = len(op["generators"][0])
    return torolog.saturate(torolog.ToricMonoid(d, op["generators"])).generators


def run_normal_fan(op):
    rays = op["rays"]
    d = len(rays)
    cones = [
        torolog.RationalCone(d, sub)
        for k in range(d + 1)
        for sub in itertools.combinations(rays, k)
    ]
    fm = torolog.normal_fan_of_monoids(torolog.Fan(d, cones))
    return [(_cone(c), m.generators) for c, m in fm.entries]


def run_member(op):
    g = torolog.ToricMonoid(op["rank"], op["generators"])
    return torolog.membership(g, op["target"])


EXECUTORS = {
    "cli": run_cli,
    "atlas": run_atlas,
    "hilbert": run_hilbert,
    "saturate": run_saturate,
    "normal-fan": run_normal_fan,
    "member": run_member,
}


def execute(op):
    return EXECUTORS[op["kind"]](op)

