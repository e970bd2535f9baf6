"""Command-line front end: JSON in, text tables or JSON out.

``torolog GROUP VERB [--json] [--input PATH] [--strict-complex]`` is parsed
by one flat parser, built at import, and dispatched through ``_VERBS``, whose
rows hold each verb's help line and handler.  Each handler returns its JSON
object and the parts of its text form: lines, and ``(columns, rows)`` tables
that ``_table`` aligns from the same rows.  ``main`` renders only the form
asked for.  This module only reads payloads, dispatches and renders: it
keeps no memo, and importing it runs no library module.

Integer matrix entries are written as decimal strings so values survive JSON
implementations with 53-bit number limits; readers accept plain integers as
well.  Output ordering is canonical everywhere, so identical inputs produce
byte-identical output.  Exit codes: 0 on success, 1 when a check verb finds
validation failures, 2 on malformed input (JSON nested too deeply included),
3 when a handler fails for any other reason (one ``internal error: <type>``
line on stderr, no traceback).  A reader that closes standard output early
gets no traceback either: the verb keeps its exit code.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import cones, fans, monoids, morphisms, rounding, snc

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
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    if isinstance(x, str):
        try:
            return int(x, 10)
        except ValueError:
            pass
    raise InputError(f"{what}: {x!r} is not an integer")


def _as_float(x, what):
    if not isinstance(x, bool):
        try:
            return float(x)
        except (TypeError, ValueError, OverflowError):
            pass
    raise InputError(f"{what}: {x!r} is not a number")


def _as_array(x, what):
    if not isinstance(x, (list, tuple)):
        raise InputError(f"{what}: expected an array, got {x!r}")
    return x


def _as_vector(x, what):
    return tuple(_as_int(v, what) for v in _as_array(x, what))


def _as_floats(x, what):
    return tuple(_as_float(v, what) for v in _as_array(x, what))


def _as_matrix(x, what):
    if not isinstance(x, (list, tuple)):
        raise InputError(f"{what}: expected an array of arrays, got {x!r}")
    return tuple(_as_vector(row, what) for row in x)


def _read(obj, where, *fields):
    """The values of ``obj``'s ``fields``, read in the order declared.  A
    field ``(key, read, what[, default])`` reads ``read(obj[key], what)``;
    a key with a default is optional, and absent or ``null`` reads as the
    default, unread.  ``what`` names the value in refusals."""
    values = []
    for key, read, what, *default in fields:
        present = isinstance(obj, dict) and key in obj
        if default and (not present or obj[key] is None):
            values.append(default[0])
        elif present:
            values.append(read(obj[key], what))
        else:
            raise InputError(f"{where}: missing field {key!r}")
    return values


def _matrix_out(rows):
    return [[str(x) for x in row] for row in rows]


def _cone_parts(obj, where="cone"):
    """The rank and generators of a payload cone, checked as ``RationalCone``
    checks them, without building the cone."""
    rank, rays, lineality = _read(
        obj, where, ("ambient_rank", _as_int, "cone ambient_rank"),
        ("rays", _as_matrix, "cone rays"),
        ("lineality", _as_matrix, "cone lineality", ()))
    flipped = tuple(tuple(-x for x in v) for v in lineality)
    return rank, cones._checked(rank, rays + lineality + flipped)


def cone_to_json(c):
    return {
        "ambient_rank": c.ambient_rank,
        "rays": _matrix_out(c.rays),
        "lineality": _matrix_out(c.lineality),
    }


def monoid_from_json(obj, where="monoid"):
    return monoids.ToricMonoid(*_read(
        obj, where, ("ambient_rank", _as_int, "monoid ambient_rank"),
        ("generators", _as_matrix, "monoid generators")))


def monoid_to_json(g):
    return {
        "ambient_rank": g.ambient_rank,
        "generators": _matrix_out(g.generators),
    }


def fan_from_json(obj):
    rank, listed = _read(obj, "fan",
                         ("ambient_rank", _as_int, "fan ambient_rank"),
                         ("cones", _as_array, "fan cones"))
    return fans.Fan(rank, cones._cones(tuple(_cone_parts(c) for c in listed)))


def fanmon_from_json(obj, where="fan of monoids"):
    rank, entries = _read(obj, where, ("rank", _as_int, "fan rank"),
                          ("entries", _as_array, "fan of monoids entries"))
    # Each entry's cone is checked before its monoid, as if built in turn.
    charts = [_read(e, "fan entry", ("cone", _cone_parts, "cone"),
                    ("monoid", monoid_from_json, "monoid")) for e in entries]
    cs = cones._cones(tuple(parts for parts, _ in charts))
    return fans.FanOfMonoids(rank, tuple(zip(cs, (m for _, m in charts))))


def fanmon_to_json(fm):
    return {
        "rank": fm.exponent_rank,
        "entries": [
            {"cone": cone_to_json(c), "monoid": monoid_to_json(m)}
            for c, m in fm.entries
        ],
    }


def complex_from_json(obj, complete):
    return snc.DualComplex(*_read(
        obj, "complex", ("n", _as_int, "complex n"),
        ("vertices", _as_int, "complex vertices"),
        ("simplices", _as_matrix, "complex simplices"),
        ("multiplicities", _as_vector, "complex multiplicities", None)),
        complete=complete)


def _face_of(g: monoids.ToricMonoid):
    """The reader of a face of ``g`` given by its generator indices."""
    def read(indices, what):
        idx = tuple(sorted(_as_vector(indices, what)))
        face = monoids._face_with_indices(g, idx)
        if face is None:
            raise InputError(f"no face has generator indices {list(idx)}")
        return face
    return read


def _monoid_and_face(obj):
    g, = _read(obj, "payload", ("monoid", monoid_from_json, "monoid"))
    return g, *_read(obj, "payload", ("face", _face_of(g), "face indices"))


def _angle_out(a):
    # A point's angles are exact fractions or floats.
    return repr(a) if isinstance(a, float) else str(a)


def _angles_in(values, what):
    from fractions import Fraction
    angles = []
    for a in _as_array(values, what):
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
            angles.append(_as_float(a, what))
    return tuple(angles)


def rounding_point_to_json(p):
    """Serialize a rounding or complex point: support-face indices, radius
    logarithms, and angles in turns (exact fractions stay strings)."""
    return {
        "face": list(p.support_face.generator_indices),
        "radial_log": [float(x) for x in p.radial_log],
        "angle": [_angle_out(a) for a in p.angle],
    }


def rounding_point_from_json(g: monoids.ToricMonoid, obj, kind="rounding"):
    """A rounding point of ``g``, or a complex point when ``kind`` is
    ``"complex"``, read from the fields ``rounding_point_to_json`` writes."""
    if kind not in ("rounding", "complex"):
        raise InputError(f"unknown point kind {kind!r}")
    cls = (rounding.RoundingPoint if kind == "rounding"
           else rounding.ComplexPoint)
    return cls(g, *_read(obj, "point", ("face", _face_of(g), "face"),
                         ("radial_log", _as_floats, "radial_log"),
                         ("angle", _angles_in, "angle")))


# ---------------------------------------------------------------------------
# Text rendering
# ---------------------------------------------------------------------------

def _vecs(vectors):
    if not vectors:
        return "-"
    return "; ".join("(" + ", ".join(str(x) for x in v) + ")" for v in vectors)


def _vec(v):
    return _vecs([v]) if v else "-"


def _joined(xs):
    return ",".join(str(x) for x in xs) or "-"


def _braces(xs):
    return "{" + ",".join(str(x) for x in xs) + "}"


def _yes_no(flag):
    return "yes" if flag else "no"


def _table(columns, rows):
    """Align rows under their headers.  Each column is ``(header, key,
    format)`` and shows ``format(row[key])``, or the row's position when
    ``key`` is None."""
    lines = [[header for header, _, _ in columns]] + [
        [fmt(i if key is None else row[key]) for _, key, fmt in columns]
        for i, row in enumerate(rows)
    ]
    widths = [max(len(line[c]) for line in lines) for c in range(len(columns))]
    return "\n".join(
        "  ".join(c.ljust(w) for c, w in zip(line, widths)).rstrip()
        for line in lines
    )


_INDEX = ("index", None, str)


def _check_output(report):
    failures = [{"code": f.code, "message": f.message} for f in report.failures]
    obj = {"ok": report.ok, "failures": failures}
    if report.ok:
        return 0, obj, ["PASS"]
    return 1, obj, ["FAIL"] + [f"{f.code}: {f.message}" for f in report.failures]


def _fiber_line(rep):
    return f"rank {rep.torus_rank}, components {rep.components}"


def _fiber_json(rep):
    return {
        "rank": rep.torus_rank,
        "components": rep.components,
        "torsion": list(rep.invariants.torsion),
    }


def _stratum_row(fiber, **fields):
    """A round report row: ``fields`` and the shape of the stratum's fiber."""
    return dict(fields, fiber_rank=fiber.torus_rank,
                components=fiber.components,
                torsion=list(fiber.invariants.torsion))


_FIBER_COLUMNS = (("fiber rank", "fiber_rank", str),
                  ("components", "components", str))


# ---------------------------------------------------------------------------
# Verb handlers: each returns (exit code, JSON object, text parts), where a
# part is a line or a ``(columns, rows)`` pair for ``_table``
# ---------------------------------------------------------------------------

def _cmd_cone_dual(payload, args):
    d = cones.dual_cone(cones.RationalCone(*_cone_parts(payload)))
    obj = cone_to_json(d)
    fields = (("ambient_rank", d.ambient_rank), ("dim", cones.dim(d)),
              ("rays", obj["rays"]), ("lineality", obj["lineality"]))
    value = ("value", 1, lambda v: _vecs(v) if isinstance(v, list) else str(v))
    return 0, obj, [((("field", 0, str), value), fields)]


def _cmd_cone_faces(payload, args):
    fs = cones.faces(cones.RationalCone(*_cone_parts(payload)))
    # Faces of one cone: one lies in another exactly when its rays do.
    rays = [set(f.rays) for f in fs]
    rows = [
        dict(
            cone_to_json(fj),
            dim=cones.dim(fj),
            subfaces=[
                i for i, ri in enumerate(rays) if i != j and ri <= rays[j]
            ],
        )
        for j, fj in enumerate(fs)
    ]
    columns = (_INDEX, ("dim", "dim", str), ("rays", "rays", _vecs),
               ("lineality", "lineality", _vecs),
               ("subfaces", "subfaces", _joined))
    return 0, {"faces": rows}, [(columns, rows)]


def _cmd_monoid_saturate(payload, args):
    g = monoid_from_json(payload)
    # The verdict is read off, not checked: g lies in sat(g), and both have
    # the same group and the same exponent cone, so the identity carries each
    # chart of g into the chart of sat(g) on the same cone.  That is the
    # normalization map of an affine toric variety (Cox-Little-Schenck, Toric
    # Varieties, 1.3): check_morphism(normalization_morphism(g)) cannot fail.
    obj = dict(
        monoid_to_json(monoids.saturate(g)),
        already_saturated=monoids.is_saturated(g),
        normalization_check={"ok": True, "failures": []},
    )
    saturated = _yes_no(obj["already_saturated"])
    return 0, obj, [((("generator", 0, _vec),), zip(obj["generators"])),
                    f"already saturated: {saturated}",
                    "normalization morphism: PASS"]


def _cmd_monoid_faces(payload, args):
    rows = [
        {
            "indices": list(p.face.generator_indices),
            "generators": _matrix_out(p.face.monoid.generators),
            "prime_complement": list(p.complement_indices),
        }
        for p in monoids.prime_ideals(monoid_from_json(payload))
    ]
    columns = (_INDEX, ("gen indices", "indices", _joined),
               ("generators", "generators", _vecs),
               ("prime complement", "prime_complement", _joined))
    return 0, {"faces": rows}, [(columns, rows)]


def _cmd_monoid_ghost(payload, args):
    g, face = _monoid_and_face(payload)
    rep = monoids.ghost(g, face)
    inv = rep.invariants
    images = [
        {"free": [str(x) for x in free], "torsion": list(tors)}
        for free, tors in rep.sharp_generators
    ]
    obj = {
        "face": list(face.generator_indices),
        "rank": inv.rank,
        "torsion": list(inv.torsion),
        "generator_images": images,
    }
    columns = (("generator", "generator", _vec), ("free image", "free", _vec),
               ("torsion image", "torsion", _joined))
    rows = (dict(im, generator=v) for v, im in zip(g.generators, images))
    torsion = _vec(inv.torsion) if inv.torsion else "none"
    return 0, obj, [f"rank {inv.rank}, torsion {torsion}", (columns, rows)]


def _fanmon_output(fm):
    columns = (_INDEX, ("cone dim", 0, str), ("cone rays", 1, _vecs),
               ("monoid generators", 2, _vecs))
    rows = ((cones.dim(c), c.rays, m.generators) for c, m in fm.entries)
    return 0, fanmon_to_json(fm), [(columns, rows)]


def _cmd_morphism_check(payload, args):
    *maps, request = _read(
        payload, "morphism", ("nu", _as_matrix, "morphism nu"),
        ("source", fanmon_from_json, "fan of monoids"),
        ("target", fanmon_from_json, "fan of monoids"),
        ("point", lambda point, what: point, "point", None))
    d = morphisms.ToricMorphismData(*maps)
    code, obj, parts = _check_output(morphisms.check_morphism(d))
    if code == 0 and request is not None:
        i, j = _read(request, "point",
                     ("source_chart", _as_int, "source_chart"),
                     ("target_chart", _as_int, "target_chart"))
        for side, k, fm in (("source", i, d.source), ("target", j, d.target)):
            if not 0 <= k < len(fm.entries):
                raise InputError(f"{side} chart {k} is out of range")
        kind, = _read(request, "point",
                      ("kind", lambda kind, what: kind, "kind", "rounding"))
        p = rounding_point_from_json(d.source.entries[i][1], request, kind)
        image = morphisms.apply_to_point(d.nu_dual, d.target.entries[j][1], p)
        im = obj["point_image"] = dict(rounding_point_to_json(image), kind=kind)
        parts.append(f"point image: face {_braces(im['face'])}, "
                     f"angles {', '.join(im['angle'])}")
    return code, obj, parts


def _cmd_round_report(payload, args):
    if isinstance(payload, dict) and "generators" in payload:
        # A single affine chart: stratify its polar-valued points by face.
        g = monoid_from_json(payload)
        rows = [
            _stratum_row(p.fiber, face=list(p.face.generator_indices),
                         torus_rank=p.torus_rank)
            for p in rounding.points_of(g)
        ]
        obj = {
            "kind": "polar",
            "carrier": "nonnegative radii paired with circle angles",
            "evaluation": "a pair (radius, angle) evaluates to the radius "
                          "times the unit of the angle",
            "strata": rows,
        }
        columns = (("face", "face", _braces),
                   ("torus rank", "torus_rank", str)) + _FIBER_COLUMNS
        return 0, obj, [(columns, rows)]
    fm = fanmon_from_json(payload)
    report = fans.validate_fan_of_monoids(fm)
    if not report.ok:
        return _check_output(report)
    rows = [
        _stratum_row(r.fiber, rays=_matrix_out(r.cone.rays),
                     lineality=_matrix_out(r.cone.lineality),
                     orbit_dimension=r.orbit_dimension, boundary=r.boundary)
        for r in rounding.rounding_report(fm)
    ]
    columns = (
        (("cone rays", "rays", _vecs), ("orbit dim", "orbit_dimension", str))
        + _FIBER_COLUMNS
        + (("boundary", "boundary", _yes_no),)
    )
    return 0, {"strata": rows}, [(columns, rows)]


def _images_in(values, what):
    parsed = []
    for pair in _as_array(values, what):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise InputError("images must be [radius, angle] pairs")
        radius, angle = _as_float(pair[0], "radius"), pair[1]
        parsed.append((radius, _angles_in((angle,), "angle")[0]))
    return parsed


def _cmd_round_fiber(payload, args):
    g, face = _monoid_and_face(payload)
    rep = rounding.fiber_structure(g, face)
    # The face was looked up by its indices, so it is a face of g and the
    # strict restriction check cannot fail.
    obj = dict(_fiber_json(rep), strict_restriction=True)
    parts = [_fiber_line(rep), "strict restriction: ok"]
    images, = _read(payload, "payload", ("images", _images_in, "images", None))
    if images is not None:
        p = rounding.encode_hom(g, images)
        if p.support_face != face:
            raise InputError("the images are supported on a different face "
                             "than requested")
        obj["point"] = rounding_point_to_json(p)
        obj["tau"] = rounding_point_to_json(rounding.tau(p))
        obj["values"] = [
            {
                "monomial": [str(x) for x in m],
                "radius": rounding.evaluate_monomial(p, m)[0],
                "angle": _angle_out(rounding.monomial_angle(p, m)),
            }
            for m in g.generators
        ]
        columns = (("monomial", "monomial", _vec),
                   ("radius", "radius", "{:.6g}".format),
                   ("angle", "angle", str))
        parts.append((columns, obj["values"]))
    return 0, obj, parts


def _cmd_milnor_strata(payload, args):
    rep = snc.milnor_stratum_fiber(*_read(
        payload if isinstance(payload, dict) else {"multiplicities": payload},
        "milnor input", ("multiplicities", _as_vector, "multiplicities")))
    return 0, _fiber_json(rep), [_fiber_line(rep)]


def _simplex_rows(rows):
    """The exit code, JSON object and text parts of an snc report's rows."""
    out = [
        {
            "simplex": list(r.simplex),
            "stratum_dimension": r.stratum_dimension,
            "rank": r.fiber.torus_rank,
            "components": r.fiber.components,
        }
        for r in rows
    ]
    columns = (("simplex", "simplex", _braces),
               ("stratum dim", "stratum_dimension", str),
               ("fiber rank", "rank", str), ("components", "components", str))
    return 0, {"rows": out}, [(columns, out)]


def _cmd_snc_milnor(payload, args):
    dc = complex_from_json(payload, complete=not args.strict_complex)
    report = snc.milnor_report(dc)
    code, obj, parts = _simplex_rows(report.rows)
    depths = report.components_by_depth
    obj["components_by_depth"] = [list(d) for d in depths]
    # One part even when empty: an empty complex ends in an empty line.
    parts.append("\n".join(f"depth {d}: {n} components" for d, n in depths))
    return code, obj, parts


# (group, verb): (help line, handler).  No row reads a lazily loaded module.
_VERBS = {
    ("cone", "dual"): ("the dual cone", _cmd_cone_dual),
    ("cone", "faces"): ("face lattice with dims and subface relations",
                        _cmd_cone_faces),
    ("monoid", "saturate"): (
        "saturation, saturatedness, normalization-morphism verdict",
        _cmd_monoid_saturate),
    ("monoid", "faces"): ("faces with generators and prime-ideal complements",
                          _cmd_monoid_faces),
    ("monoid", "ghost"): ("ghost rank, torsion, generator images",
                          _cmd_monoid_ghost),
    ("fan", "check"): ("axiom validation (PASS / failure codes)",
        lambda p, a: _check_output(fans.validate_fan(fan_from_json(p)))),
    ("fanmon", "check"): ("chart-compatibility validation", lambda p, a:
        _check_output(fans.validate_fan_of_monoids(fanmon_from_json(p)))),
    ("fanmon", "atlas"): ("the affine atlas of charts, one per face",
        lambda p, a: _fanmon_output(fans.affine_atlas(monoid_from_json(p)))),
    ("fanmon", "normal"): ("the fan of monoids of dual Hilbert bases",
        lambda p, a: _fanmon_output(
            fans.normal_fan_of_monoids(fan_from_json(p)))),
    ("morphism", "check"): ("compatibility report; optional point pushforward",
                            _cmd_morphism_check),
    ("round", "report"): ("per-stratum rounding fibers / polar point strata",
                          _cmd_round_report),
    ("round", "fiber"): (
        "fiber rank and component count; optional point encoding",
        _cmd_round_fiber),
    ("milnor", "strata"): ("stratum fiber of the multiplicity vector",
                           _cmd_milnor_strata),
    ("snc", "link"): ("link fibers per simplex", lambda p, a: _simplex_rows(
        snc.link_report(complex_from_json(p, not a.strict_complex)))),
    ("snc", "milnor"): ("Milnor fibers per simplex, component totals by depth",
                        _cmd_snc_milnor),
}


# The one command-line parser, built at import: reading a command line does
# not change it.
_PARSER = argparse.ArgumentParser(
    prog="torolog",
    description="Exact computations with toric monoids, cones, fans, "
    "and the roundings\nof their log structures.",
    epilog="verbs:\n"
    + "\n".join(
        f"  {group + ' ' + verb:<17}{line}"
        for (group, verb), (line, _) in sorted(_VERBS.items())
    ),
    formatter_class=argparse.RawDescriptionHelpFormatter,
)
_PARSER.add_argument(
    "group", metavar="group", choices=sorted({g for g, _ in _VERBS})
)
_PARSER.add_argument("verb")
_PARSER.add_argument("--json", action="store_true",
                     help="emit machine-readable JSON instead of a text table")
_PARSER.add_argument("--input", metavar="PATH",
                     help="read the JSON payload from PATH (default: stdin)")
_PARSER.add_argument("--strict-complex", action="store_true",
                     help="snc verbs: reject complexes that are not closed "
                     "under subsets instead of completing them")


def _parse(argv):
    """The handler and arguments of one command line; a usage error exits 2
    through ``_PARSER.error``."""
    args = _PARSER.parse_args(argv)
    row = _VERBS.get((args.group, args.verb))
    if row is None:
        verbs = ", ".join(repr(v) for g, v in sorted(_VERBS) if g == args.group)
        _PARSER.error(
            f"argument verb: invalid choice: {args.verb!r} (choose from {verbs})"
        )
    if args.strict_complex and args.group != "snc":
        _PARSER.error("unrecognized arguments: --strict-complex")
    return row[1], args


def main(argv=None) -> int:
    try:
        handler, args = _parse(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2

    try:
        if args.input is None:
            raw = sys.stdin.read()
        else:
            with open(args.input, "r", encoding="utf-8") as fh:
                raw = fh.read()
    except (OSError, UnicodeDecodeError) as e:
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
    except RecursionError:
        print("malformed input: nested too deeply", file=sys.stderr)
        return 2

    try:
        code, obj, parts = handler(payload, args)
        out = (json.dumps(obj, indent=2, sort_keys=True) if args.json
               else "\n".join(p if isinstance(p, str) else _table(*p)
                              for p in parts))
    except ValueError as e:
        print(f"invalid input: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        print(f"internal error: {type(e).__name__}", file=sys.stderr)
        return 3
    try:
        print(out)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe.  Whatever is left unwritten goes to
        # the null device, so the flush at shutdown cannot fail again.
        import os
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
