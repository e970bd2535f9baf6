"""Command-line front end: JSON in, text tables or JSON out.

Integer matrix entries are written as decimal strings so values survive JSON
implementations with 53-bit number limits; readers accept plain integers as
well.  Output ordering is canonical everywhere, so identical inputs produce
byte-identical output.  Exit codes: 0 on success, 1 when a check verb finds
validation failures, 2 on malformed input.
"""

import argparse
import json
import sys
from fractions import Fraction
from numbers import Rational

from .cones import RationalCone, dim, dual_cone, is_face_of
from .cones import faces as cone_faces
from .fans import (
    Fan,
    FanOfMonoids,
    affine_atlas,
    normal_fan_of_monoids,
    validate_fan,
    validate_fan_of_monoids,
)
from .monoids import (
    ToricMonoid,
    _face_with_indices,
    ghost,
    is_saturated,
    prime_ideals,
    saturate,
    saturation_membership,
)
from .monoids import faces as monoid_faces
from .morphisms import (
    ToricMorphismData,
    apply_to_point,
    check_morphism,
    normalization_morphism,
)
from .rounding import (
    ComplexPoint,
    LogPointKind,
    RoundingPoint,
    encode_hom,
    evaluate_monomial,
    fiber_structure,
    log_point,
    milnor_stratum_fiber,
    monomial_angle,
    points_of,
    rounding_report,
    strict_restriction_check,
    tau,
)
from .snc import DualComplex, link_report, milnor_report

__all__ = [
    "main",
    "rounding_point_from_json",
    "rounding_point_to_json",
]


class InputError(ValueError):
    """The payload parsed as JSON but does not describe a valid object."""


# ---------------------------------------------------------------------------
# JSON readers and writers
# ---------------------------------------------------------------------------

def _as_int(x, what):
    if isinstance(x, bool):
        raise InputError(f"{what}: {x!r} is not an integer")
    if isinstance(x, int):
        return x
    if isinstance(x, str):
        try:
            return int(x, 10)
        except ValueError:
            raise InputError(f"{what}: {x!r} is not an integer") from None
    raise InputError(f"{what}: {x!r} is not an integer")


def _as_array(x, what):
    if not isinstance(x, (list, tuple)):
        raise InputError(f"{what}: expected an array, got {x!r}")
    return x


def _as_vector(x, what):
    return tuple(_as_int(v, what) for v in _as_array(x, what))


def _as_matrix(x, what):
    if not isinstance(x, (list, tuple)):
        raise InputError(f"{what}: expected an array of arrays, got {x!r}")
    return tuple(_as_vector(row, what) for row in x)


def _field(obj, key, what):
    if not isinstance(obj, dict) or key not in obj:
        raise InputError(f"{what}: missing field {key!r}")
    return obj[key]


def _matrix_out(rows):
    return [[str(x) for x in row] for row in rows]


def cone_from_json(obj):
    rank = _as_int(_field(obj, "ambient_rank", "cone"), "cone ambient_rank")
    rays = _as_matrix(_field(obj, "rays", "cone"), "cone rays")
    lineality = _as_matrix(obj.get("lineality", ()), "cone lineality")
    flipped = tuple(tuple(-x for x in v) for v in lineality)
    return RationalCone(rank, rays + lineality + flipped)


def cone_to_json(c):
    return {
        "ambient_rank": c.ambient_rank,
        "rays": _matrix_out(c.rays),
        "lineality": _matrix_out(c.lineality),
    }


def monoid_from_json(obj):
    rank = _as_int(
        _field(obj, "ambient_rank", "monoid"), "monoid ambient_rank"
    )
    gens = _as_matrix(_field(obj, "generators", "monoid"), "monoid generators")
    return ToricMonoid(rank, gens)


def monoid_to_json(g):
    return {
        "ambient_rank": g.ambient_rank,
        "generators": _matrix_out(g.generators),
    }


def fan_from_json(obj):
    rank = _as_int(_field(obj, "ambient_rank", "fan"), "fan ambient_rank")
    cones = tuple(
        cone_from_json(c)
        for c in _as_array(_field(obj, "cones", "fan"), "fan cones")
    )
    return Fan(rank, cones)


def fanmon_from_json(obj):
    rank = _as_int(_field(obj, "rank", "fan of monoids"), "fan rank")
    entries = []
    for e in _as_array(
        _field(obj, "entries", "fan of monoids"), "fan of monoids entries"
    ):
        entries.append(
            (
                cone_from_json(_field(e, "cone", "fan entry")),
                monoid_from_json(_field(e, "monoid", "fan entry")),
            )
        )
    return FanOfMonoids(rank, tuple(entries))


def fanmon_to_json(fm):
    return {
        "rank": fm.exponent_rank,
        "entries": [
            {"cone": cone_to_json(c), "monoid": monoid_to_json(m)}
            for c, m in fm.entries
        ],
    }


def morphism_from_json(obj):
    nu = _as_matrix(_field(obj, "nu", "morphism"), "morphism nu")
    return ToricMorphismData(
        nu,
        fanmon_from_json(_field(obj, "source", "morphism")),
        fanmon_from_json(_field(obj, "target", "morphism")),
    )


def complex_from_json(obj, complete):
    mults = obj.get("multiplicities") if isinstance(obj, dict) else None
    return DualComplex(
        _as_int(_field(obj, "n", "complex"), "complex n"),
        _as_int(_field(obj, "vertices", "complex"), "complex vertices"),
        _as_matrix(_field(obj, "simplices", "complex"), "complex simplices"),
        multiplicities=None
        if mults is None
        else _as_vector(mults, "complex multiplicities"),
        complete=complete,
    )


def _monoid_and_face(obj):
    g = monoid_from_json(_field(obj, "monoid", "payload"))
    idx = tuple(
        sorted(_as_vector(_field(obj, "face", "payload"), "face indices"))
    )
    face = _face_with_indices(g, idx)
    if face is None:
        raise InputError(f"no face has generator indices {list(idx)}")
    return g, face


def _angle_out(a):
    return str(Fraction(a)) if isinstance(a, Rational) else repr(float(a))


def _angles_in(values):
    angles = []
    for a in values:
        if isinstance(a, str):
            try:
                angles.append(Fraction(a))
            except (ValueError, ZeroDivisionError):
                raise InputError(f"{a!r} is not an exact angle") from None
        elif isinstance(a, bool):
            raise InputError(f"{a!r} is not an angle")
        elif isinstance(a, int):
            angles.append(Fraction(a))
        else:
            angles.append(float(a))
    return tuple(angles)


def rounding_point_to_json(p):
    """Serialize a rounding or complex point: support-face indices, radius
    logarithms, and angles in turns (exact fractions stay strings)."""
    return {
        "face": list(p.support_face.generator_indices),
        "radial_log": [float(x) for x in p.radial_log],
        "angle": [_angle_out(a) for a in p.angle],
    }


def _point_from_json(g: ToricMonoid, obj, kind):
    idx = tuple(sorted(_as_vector(_field(obj, "face", "point"), "face")))
    face = _face_with_indices(g, idx)
    if face is None:
        raise InputError(f"no face has generator indices {list(idx)}")
    radial = tuple(
        float(x) for x in _field(obj, "radial_log", "point")
    )
    angle = _angles_in(_field(obj, "angle", "point"))
    cls = RoundingPoint if kind == "rounding" else ComplexPoint
    return cls(g, face, radial, angle)


def rounding_point_from_json(g: ToricMonoid, obj):
    return _point_from_json(g, obj, "rounding")


# ---------------------------------------------------------------------------
# Text rendering
# ---------------------------------------------------------------------------

def _vecs(vectors):
    if not vectors:
        return "-"
    return "; ".join("(" + ", ".join(str(x) for x in v) + ")" for v in vectors)


def _table(headers, rows):
    cells = [tuple(str(c) for c in row) for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
        for i, h in enumerate(headers)
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()
    ]
    for r in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return "\n".join(lines)


def _check_output(report):
    obj = {
        "ok": report.ok,
        "failures": [
            {"code": f.code, "message": f.message} for f in report.failures
        ],
    }
    if report.ok:
        return 0, obj, "PASS"
    lines = ["FAIL"] + [f"{f.code}: {f.message}" for f in report.failures]
    return 1, obj, "\n".join(lines)


def _fiber_line(rep):
    return f"rank {rep.torus_rank}, components {rep.components}"


def _fiber_json(rep):
    return {
        "rank": rep.torus_rank,
        "components": rep.components,
        "torsion": list(rep.invariants.torsion),
    }


# ---------------------------------------------------------------------------
# Verb handlers
# ---------------------------------------------------------------------------

def _cmd_cone_dual(payload, args):
    d = dual_cone(cone_from_json(payload))
    text = _table(
        ("field", "value"),
        (
            ("ambient_rank", d.ambient_rank),
            ("dim", dim(d)),
            ("rays", _vecs(d.rays)),
            ("lineality", _vecs(d.lineality)),
        ),
    )
    return 0, cone_to_json(d), text


def _cmd_cone_faces(payload, args):
    c = cone_from_json(payload)
    fs = cone_faces(c)
    subfaces = [
        [i for i, fi in enumerate(fs) if i != j and is_face_of(fi, fj)]
        for j, fj in enumerate(fs)
    ]
    obj = {
        "faces": [
            dict(cone_to_json(f), dim=dim(f), subfaces=subfaces[j])
            for j, f in enumerate(fs)
        ]
    }
    rows = [
        (j, dim(f), _vecs(f.rays), _vecs(f.lineality),
         ",".join(str(i) for i in subfaces[j]) or "-")
        for j, f in enumerate(fs)
    ]
    return 0, obj, _table(
        ("index", "dim", "rays", "lineality", "subfaces"), rows
    )


def _cmd_monoid_saturate(payload, args):
    g = monoid_from_json(payload)
    sat = saturate(g)
    for v in sat.generators:
        if not saturation_membership(g, v):  # pragma: no cover - postcondition
            raise ValueError(
                f"saturation generator {v} fails the saturation test"
            )
    report = check_morphism(normalization_morphism(g))
    obj = dict(
        monoid_to_json(sat),
        already_saturated=is_saturated(g),
        normalization_check={
            "ok": report.ok,
            "failures": [
                {"code": f.code, "message": f.message}
                for f in report.failures
            ],
        },
    )
    rows = [(_vecs((v,)),) for v in sat.generators]
    text = (
        _table(("generator",), rows)
        + "\nalready saturated: "
        + ("yes" if obj["already_saturated"] else "no")
        + "\nnormalization morphism: "
        + ("PASS" if report.ok else "FAIL")
    )
    return (0 if report.ok else 1), obj, text


def _cmd_monoid_faces(payload, args):
    g = monoid_from_json(payload)
    fs = monoid_faces(g)
    complement = {
        p.face.generator_indices: p.complement_indices
        for p in prime_ideals(g)
    }
    obj = {
        "faces": [
            {
                "indices": list(f.generator_indices),
                "generators": _matrix_out(f.monoid.generators),
                "prime_complement": list(complement[f.generator_indices]),
            }
            for f in fs
        ]
    }
    rows = [
        (
            i,
            ",".join(str(j) for j in f.generator_indices) or "-",
            _vecs(f.monoid.generators),
            ",".join(str(j) for j in complement[f.generator_indices]) or "-",
        )
        for i, f in enumerate(fs)
    ]
    return 0, obj, _table(
        ("index", "gen indices", "generators", "prime complement"), rows
    )


def _cmd_monoid_ghost(payload, args):
    g, face = _monoid_and_face(payload)
    rep = ghost(g, face)
    inv = rep.invariants
    obj = {
        "face": list(face.generator_indices),
        "rank": inv.rank,
        "torsion": list(inv.torsion),
        "generator_images": [
            {"free": [str(x) for x in free], "torsion": list(tors)}
            for free, tors in rep.sharp_generators
        ],
    }
    rows = [
        (_vecs((v,)), _vecs((free,)) if free else "-",
         ",".join(str(t) for t in tors) or "-")
        for v, (free, tors) in zip(g.generators, rep.sharp_generators)
    ]
    text = (
        f"rank {inv.rank}, torsion "
        + ("(" + ", ".join(str(t) for t in inv.torsion) + ")"
           if inv.torsion else "none")
        + "\n"
        + _table(("generator", "free image", "torsion image"), rows)
    )
    return 0, obj, text


def _cmd_fan_check(payload, args):
    return _check_output(validate_fan(fan_from_json(payload)))


def _cmd_fanmon_check(payload, args):
    return _check_output(validate_fan_of_monoids(fanmon_from_json(payload)))


def _fanmon_output(fm):
    rows = [
        (i, dim(c), _vecs(c.rays), _vecs(m.generators))
        for i, (c, m) in enumerate(fm.entries)
    ]
    return (
        0,
        fanmon_to_json(fm),
        _table(("index", "cone dim", "cone rays", "monoid generators"), rows),
    )


def _cmd_fanmon_atlas(payload, args):
    return _fanmon_output(affine_atlas(monoid_from_json(payload)))


def _cmd_fanmon_normal(payload, args):
    return _fanmon_output(normal_fan_of_monoids(fan_from_json(payload)))


def _cmd_morphism_check(payload, args):
    d = morphism_from_json(payload)
    code, obj, text = _check_output(check_morphism(d))
    request = payload.get("point")
    if code == 0 and request is not None:
        i = _as_int(_field(request, "source_chart", "point"), "source_chart")
        j = _as_int(_field(request, "target_chart", "point"), "target_chart")
        if not 0 <= i < len(d.source.entries):
            raise InputError(f"source chart {i} is out of range")
        if not 0 <= j < len(d.target.entries):
            raise InputError(f"target chart {j} is out of range")
        kind = request.get("kind", "rounding")
        if kind not in ("rounding", "complex"):
            raise InputError(f"unknown point kind {kind!r}")
        p = _point_from_json(d.source.entries[i][1], request, kind)
        image = apply_to_point(d.nu_dual, d.target.entries[j][1], p)
        obj = dict(
            obj, point_image=dict(rounding_point_to_json(image), kind=kind)
        )
        face = image.support_face.generator_indices
        text += (
            "\npoint image: face {"
            + ",".join(str(v) for v in face)
            + "}, angles "
            + ", ".join(_angle_out(a) for a in image.angle)
        )
    return code, obj, text


def _cmd_round_report(payload, args):
    if isinstance(payload, dict) and "generators" in payload:
        # A single affine chart: stratify its polar-valued points by face.
        g = monoid_from_json(payload)
        desc = log_point(LogPointKind.POLAR)
        pts = points_of(g, LogPointKind.POLAR)
        obj = {
            "kind": desc.kind.value,
            "carrier": desc.carrier,
            "evaluation": desc.evaluation,
            "strata": [
                {
                    "face": list(p.face.generator_indices),
                    "torus_rank": p.torus_rank,
                    "fiber_rank": p.fiber.torus_rank,
                    "components": p.fiber.components,
                    "torsion": list(p.fiber.invariants.torsion),
                }
                for p in pts
            ],
        }
        table = _table(
            ("face", "torus rank", "fiber rank", "components"),
            [
                (
                    "{"
                    + ",".join(str(i) for i in p.face.generator_indices)
                    + "}",
                    p.torus_rank,
                    p.fiber.torus_rank,
                    p.fiber.components,
                )
                for p in pts
            ],
        )
        return 0, obj, table
    fm = fanmon_from_json(payload)
    report = validate_fan_of_monoids(fm)
    if not report.ok:
        return _check_output(report)
    rows = rounding_report(fm)
    obj = {
        "strata": [
            {
                "rays": _matrix_out(r.cone.rays),
                "lineality": _matrix_out(r.cone.lineality),
                "orbit_dimension": r.orbit_dimension,
                "fiber_rank": r.fiber.torus_rank,
                "components": r.fiber.components,
                "torsion": list(r.fiber.invariants.torsion),
                "boundary": r.boundary,
            }
            for r in rows
        ]
    }
    table = _table(
        ("cone rays", "orbit dim", "fiber rank", "components", "boundary"),
        [
            (
                _vecs(r.cone.rays),
                r.orbit_dimension,
                r.fiber.torus_rank,
                r.fiber.components,
                "yes" if r.boundary else "no",
            )
            for r in rows
        ],
    )
    return 0, obj, table


def _cmd_round_fiber(payload, args):
    g, face = _monoid_and_face(payload)
    rep = fiber_structure(g, face)
    obj = _fiber_json(rep)
    obj["strict_restriction"] = bool(strict_restriction_check(g, face))
    text = _fiber_line(rep) + "\nstrict restriction: " + (
        "ok" if obj["strict_restriction"] else "FAILED"
    )
    images = payload.get("images")
    if images is not None:
        parsed = []
        for pair in _as_array(images, "images"):
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise InputError("images must be [radius, angle] pairs")
            radius, angle = pair
            parsed.append((float(radius), _angles_in((angle,))[0]))
        p = encode_hom(g, parsed)
        if p.support_face != face:
            raise InputError(
                "the images are supported on a different face than requested"
            )
        values = [
            {
                "monomial": [str(x) for x in m],
                "radius": evaluate_monomial(p, m)[0],
                "angle": _angle_out(monomial_angle(p, m)),
            }
            for m in g.generators
        ]
        obj["point"] = rounding_point_to_json(p)
        obj["tau"] = rounding_point_to_json(tau(p))
        obj["values"] = values
        text += "\n" + _table(
            ("monomial", "radius", "angle"),
            [
                (_vecs((m,)), f"{v['radius']:.6g}", v["angle"])
                for m, v in zip(g.generators, values)
            ],
        )
    return (0 if obj["strict_restriction"] else 1), obj, text


def _cmd_milnor_strata(payload, args):
    if isinstance(payload, dict):
        mults = _as_vector(
            _field(payload, "multiplicities", "milnor input"),
            "multiplicities",
        )
    else:
        mults = _as_vector(payload, "multiplicities")
    rep = milnor_stratum_fiber(mults)
    return 0, _fiber_json(rep), _fiber_line(rep)


def _complex_rows(rows):
    return _table(
        ("simplex", "stratum dim", "fiber rank", "components"),
        [
            (
                "{" + ",".join(str(v) for v in r.simplex) + "}",
                r.stratum_dimension,
                r.fiber.torus_rank,
                r.fiber.components,
            )
            for r in rows
        ],
    )


def _cmd_snc_link(payload, args):
    dc = complex_from_json(payload, complete=not args.strict_complex)
    rows = link_report(dc)
    obj = {
        "rows": [
            {
                "simplex": list(r.simplex),
                "stratum_dimension": r.stratum_dimension,
                "rank": r.fiber.torus_rank,
                "components": r.fiber.components,
            }
            for r in rows
        ]
    }
    return 0, obj, _complex_rows(rows)


def _cmd_snc_milnor(payload, args):
    dc = complex_from_json(payload, complete=not args.strict_complex)
    report = milnor_report(dc)
    obj = {
        "rows": [
            {
                "simplex": list(r.simplex),
                "stratum_dimension": r.stratum_dimension,
                "rank": r.fiber.torus_rank,
                "components": r.fiber.components,
            }
            for r in report.rows
        ],
        "components_by_depth": [
            [depth, total] for depth, total in report.components_by_depth
        ],
    }
    summary = "\n".join(
        f"depth {depth}: {total} components"
        for depth, total in report.components_by_depth
    )
    return 0, obj, _complex_rows(report.rows) + "\n" + summary


_VERBS = {
    ("cone", "dual"): _cmd_cone_dual,
    ("cone", "faces"): _cmd_cone_faces,
    ("monoid", "saturate"): _cmd_monoid_saturate,
    ("monoid", "faces"): _cmd_monoid_faces,
    ("monoid", "ghost"): _cmd_monoid_ghost,
    ("fan", "check"): _cmd_fan_check,
    ("fanmon", "check"): _cmd_fanmon_check,
    ("fanmon", "atlas"): _cmd_fanmon_atlas,
    ("fanmon", "normal"): _cmd_fanmon_normal,
    ("morphism", "check"): _cmd_morphism_check,
    ("round", "report"): _cmd_round_report,
    ("round", "fiber"): _cmd_round_fiber,
    ("milnor", "strata"): _cmd_milnor_strata,
    ("snc", "link"): _cmd_snc_link,
    ("snc", "milnor"): _cmd_snc_milnor,
}


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json",
        action="store_true",
        help="emit machine-readable JSON instead of a text table",
    )
    common.add_argument(
        "--input",
        metavar="PATH",
        default=None,
        help="read the JSON payload from PATH (default: stdin)",
    )

    parser = argparse.ArgumentParser(
        prog="torolog",
        description=(
            "Exact computations with toric monoids, cones, fans, and the "
            "roundings of their log structures."
        ),
    )
    sub = parser.add_subparsers(dest="group", required=True, metavar="group")
    groups = {}
    for (group, verb), handler in sorted(_VERBS.items()):
        if group not in groups:
            group_parser = sub.add_parser(group)
            groups[group] = group_parser.add_subparsers(
                dest="verb", required=True, metavar="verb"
            )
        leaf = groups[group].add_parser(verb, parents=[common])
        if group == "snc":
            leaf.add_argument(
                "--strict-complex",
                action="store_true",
                help="reject complexes that are not closed under subsets "
                "instead of completing them",
            )
        leaf.set_defaults(func=handler)
    return parser


def _read_payload(path):
    if path is None:
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2

    try:
        raw = _read_payload(args.input)
    except OSError as e:
        print(f"cannot read input: {e}", file=sys.stderr)
        return 2
    try:
        payload = json.loads(raw)
    except json.JSONDecodeError as e:
        print(
            f"malformed input: {e.msg} at line {e.lineno} column {e.colno}",
            file=sys.stderr,
        )
        return 2

    try:
        code, obj, text = args.func(payload, args)
    except ValueError as e:
        print(f"invalid input: {e}", file=sys.stderr)
        return 2

    if args.json:
        print(json.dumps(obj, indent=2, sort_keys=True))
    else:
        print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
