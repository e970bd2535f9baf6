"""Answer checkers for every benchmark operation.

Each checker takes the operation and the plain data its execution returned
and returns ``None`` when the answer is right, or a one-line reason when it
is wrong.  Answers are compared with computations made apart from torolog
(:mod:`refmath`, and sympy's Hermite and Smith normal forms) or with
properties the mathematics requires; never with saved output.
"""

import itertools
import json
import math
import re
from fractions import Fraction

import refmath
from corpus import atlas_payload

_GHOSTS = {}


def _sympy():
    # Imported on first use, after the timed loop, so that sympy's memory
    # does not count in the benchmark's peak resident set size.
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import hermite_normal_form, invariant_factors

    return Matrix, ZZ, hermite_normal_form, invariant_factors


def cokernel(columns, rows):
    """``(rank, torsion)`` of ``Z^rows`` modulo the span of ``columns``, read
    off sympy's Smith form."""
    if not columns:
        return rows, ()
    Matrix, ZZ, _, invariant_factors = _sympy()
    m = Matrix([[c[i] for c in columns] for i in range(rows)])
    factors = [abs(int(x)) for x in invariant_factors(m, domain=ZZ)]
    nonzero = [x for x in factors if x]
    return rows - len(nonzero), tuple(x for x in nonzero if x > 1)


def group_basis(generators):
    """A basis of the group the integer vectors ``generators`` generate,
    read off sympy's Hermite form."""
    Matrix, _, hermite_normal_form, _ = _sympy()
    d = len(generators[0])
    h = hermite_normal_form(
        Matrix([[g[i] for g in generators] for i in range(d)])
    )
    return [tuple(int(h[i, j]) for i in range(d)) for j in range(h.cols)]


def group_coordinates(basis, x):
    """Integer coordinates of ``x`` in ``basis``, or None when ``x`` lies
    outside the group the basis generates."""
    c = refmath.solve(basis, x)
    if c is None or any(v.denominator != 1 for v in c):
        return None
    return tuple(int(v) for v in c)


def ghost_invariants(generators, face):
    """Invariants of gp(monoid) / gp(face) for a monoid given by generators
    and a face given by generator indices.

    The group gp(monoid) gets a basis from sympy's Hermite form; the face
    generators are written in that basis and the quotient read off the
    Smith form of their coordinates.
    """
    key = (tuple(map(tuple, generators)), tuple(face))
    if key not in _GHOSTS:
        basis = group_basis(generators)
        coords = [group_coordinates(basis, generators[i]) for i in face]
        if None in coords:
            raise ValueError("face generator outside the generated group")
        _GHOSTS[key] = cokernel(coords, len(basis))
    return _GHOSTS[key]


def saturation_points(generators):
    """Points every generating set of the saturation of the full-rank
    monoid spanned by ``generators`` must generate.

    The saturation is the set of points of gp(monoid) in the cone.  Each
    of its points lies in a simplicial piece of the cone and is a point of
    that piece's half-open parallelepiped plus a nonnegative integer
    combination of the piece's rays.  So the rays, taken primitive in
    gp(monoid), and the group's points of every piece's parallelepiped
    generate it.
    """
    basis = group_basis(generators)

    def in_group(x):
        return group_coordinates(basis, x) is not None

    def group_primitive(r):
        return next(
            tuple(m * x for x in r)
            for m in itertools.count(1)
            if in_group(tuple(m * x for x in r))
        )

    points = set()
    for piece in refmath.simplicial_pieces(generators):
        rays = [group_primitive(r) for r in piece]
        points.update(rays)
        points.update(
            p for p in refmath.parallelepiped_points(rays)
            if any(p) and in_group(p)
        )
    return sorted(points)


def _components(torsion):
    return math.prod(torsion)


# ---------------------------------------------------------------------------
# library workloads
# ---------------------------------------------------------------------------


def check_atlas(op, res):
    gens = [tuple(g) for g in op["generators"]]
    if not res["valid"]:
        return "the affine atlas does not validate"
    expected_faces = refmath.face_index_sets(gens)
    if len(res["entries"]) != len(expected_faces):
        return (f"{len(res['entries'])} atlas entries for "
                f"{len(expected_faces)} monoid faces")
    k = res["rank"]
    # The chart of the whole weight cone, the cone with the most rays.
    chart = [tuple(g) for g in max(res["entries"], key=lambda e: len(e[0][0]))[1]]
    for (rays, lin), orbit, frank, comps, torsion, boundary in res["rows"]:
        span = list(rays) + list(lin)
        if orbit != k - (refmath.rank(span) if span else 0):
            return f"orbit dimension {orbit} at the cone {rays}"
        if boundary != bool(span):
            return f"boundary flag {boundary} at the cone {rays}"
        face = [i for i, m in enumerate(chart)
                if all(refmath.dot(r, m) == 0 for r in span)]
        want = ghost_invariants(chart, face)
        if (frank, torsion, comps) != (want[0], want[1], _components(want[1])):
            return f"fiber ({frank}, {comps}) at {rays}, expected {want}"
    got = sorted(f[0] for f in res["faces"])
    if got != sorted(expected_faces):
        return f"faces {got}, expected {sorted(expected_faces)}"
    for idx, inv, (frank, comps) in res["faces"]:
        want = ghost_invariants(gens, idx)
        if inv != want or (frank, comps) != (want[0], _components(want[1])):
            return f"ghost {inv} / fiber ({frank}, {comps}) at {idx}, expected {want}"
    return None


def check_hilbert_basis(rays, basis, unimodular=False):
    """A Hilbert basis of the full-dimensional pointed cone spanned by
    ``rays``: every element lies in the cone and is irreducible, every
    primitive ray is generated, and so is every point of the fundamental
    parallelepiped of each simplicial piece of the cone."""
    rays = [tuple(r) for r in rays]
    basis = [tuple(b) for b in basis]
    if unimodular and sorted(basis) != sorted(rays):
        return f"basis {basis} of a unimodular cone is not its rays {rays}"
    if len(set(basis)) != len(basis):
        return "repeated basis element"
    normals = refmath.facet_normals(rays)

    def inside(x):
        return all(refmath.dot(n, x) >= 0 for n in normals)

    for x in basis:
        if not any(x) or not inside(x):
            return f"{x} does not lie in the cone"
        for b in basis:
            diff = tuple(a - c for a, c in zip(x, b))
            if b != x and inside(diff):
                return f"{x} is reducible: {x} - {b} lies in the cone"
    w = tuple(sum(col) for col in zip(*normals))
    required = [refmath.primitive(r) for r in rays]
    for piece in refmath.simplicial_pieces(rays):
        required += refmath.parallelepiped_points(piece)
    for p in required:
        if any(p) and not refmath.is_combination(p, basis, w):
            return f"{p} is not generated by the basis"
    return None


def check_hilbert(op, basis):
    return check_hilbert_basis(op["rays"], basis, op.get("unimodular", False))


def check_saturate(op, gens):
    return check_hilbert_basis(op["rays"], gens)


def check_normal_fan(op, entries):
    d = len(op["rays"])
    if len(entries) != 2 ** d:
        return f"{len(entries)} entries for {2 ** d} cones"
    for (rays, lin), gens in entries:
        for m in gens:
            if any(refmath.dot(r, m) < 0 for r in rays):
                return f"generator {m} is negative on the cone {rays}"
            if any(refmath.dot(v, m) for v in lin):
                return f"generator {m} is not orthogonal to {lin}"
        if len(rays) == d:
            dual = refmath.facet_normals(rays)
            err = check_hilbert_basis(dual, gens)
            if err:
                return "dual of the full cone: " + err
    return None


def check_member(op, witness):
    if not op["member"]:
        if witness is not None:
            return f"witness {witness} for a gap {op['target']}"
        return None
    if witness is None:
        return f"member {op['target']} reported as a gap"
    if len(witness) != len(op["generators"]) or min(witness) < 0:
        return f"witness {witness} has the wrong shape or a negative entry"
    total = tuple(
        sum(c * g[i] for c, g in zip(witness, op["generators"]))
        for i in range(op["rank"])
    )
    if total != tuple(op["target"]):
        return f"witness {witness} sums to {total}, not {op['target']}"
    return None


# ---------------------------------------------------------------------------
# cli-verbs
# ---------------------------------------------------------------------------

_VEC = re.compile(r"\(([^()]*)\)")


def vectors(cell):
    """Parse the text rendering ``(1, 0); (0, 1)`` or ``-``."""
    return [tuple(int(x) for x in m.split(",")) for m in _VEC.findall(cell)]


def indices(cell):
    cell = cell.strip("{}")
    return tuple(int(x) for x in cell.split(",")) if cell and cell != "-" else ()


def table(text):
    """Rows of an aligned text table as dicts keyed by header; columns are
    separated by two or more spaces."""
    lines = text.splitlines()
    head = re.split(r"\s{2,}", lines[0].strip())
    return [dict(zip(head, re.split(r"\s{2,}", ln.strip()))) for ln in lines[1:]]


def _check_report(op, code, out):
    expect = op["expect_code"]
    if op["json"]:
        obj = json.loads(out)
        ok, codes = obj["ok"], {f["code"] for f in obj["failures"]}
    else:
        lines = out.splitlines()
        ok = lines[0] == "PASS"
        codes = {ln.split(":")[0] for ln in lines[1:]}
    if expect is None:
        return None if (code, ok) == (0, True) else f"FAIL on a valid input: {codes}"
    if code != 1 or ok or expect not in codes:
        return f"expected FAIL with {expect}, got exit {code}, codes {codes}"
    return None


def _cli_cone_dual(op, out):
    p = op["payload"]
    inputs = [tuple(v) for v in p["rays"]]
    for v in p.get("lineality", []):
        inputs += [tuple(v), tuple(-x for x in v)]
    if op["json"]:
        obj = json.loads(out)
        rays = [tuple(map(int, v)) for v in obj["rays"]]
        lin = [tuple(map(int, v)) for v in obj["lineality"]]
    else:
        f = {r["field"]: r["value"] for r in table(out)}
        rays, lin = vectors(f["rays"]), vectors(f["lineality"])
    for r in rays:
        if any(refmath.dot(r, v) < 0 for v in inputs):
            return f"dual ray {r} is negative on an input generator"
    for r in lin:
        if any(refmath.dot(r, v) for v in inputs):
            return f"dual lineality {r} is not orthogonal to the input"
    return None


def _cli_cone_faces(op, out):
    rays = [tuple(v) for v in op["payload"]["rays"]]
    extreme = set(refmath.extreme_rays(rays))
    want = sorted(
        tuple(sorted({refmath.primitive(rays[i]) for i in s} & extreme))
        for s in refmath.face_index_sets(rays)
    )
    if op["json"]:
        faces = [
            (tuple(tuple(map(int, v)) for v in f["rays"]), f["dim"])
            for f in json.loads(out)["faces"]
        ]
    else:
        faces = [(tuple(vectors(r["rays"])), int(r["dim"])) for r in table(out)]
    if sorted(f[0] for f in faces) != want:
        return f"face rays {sorted(f[0] for f in faces)}, expected {want}"
    for fr, dim in faces:
        if dim != (refmath.rank(fr) if fr else 0):
            return f"face {fr} has dimension {dim}"
    return None


def _cli_monoid_saturate(op, out):
    gens = [tuple(v) for v in op["payload"]["generators"]]
    if op["json"]:
        obj = json.loads(out)
        sat = [tuple(map(int, v)) for v in obj["generators"]]
        already, normal_ok = obj["already_saturated"], obj["normalization_check"]["ok"]
    else:
        lines = out.splitlines()
        sat = [vectors(ln)[0] for ln in lines[1:-2]]
        already = lines[-2].endswith("yes")
        normal_ok = lines[-1].endswith("PASS")
    if not normal_ok:
        return "the normalization morphism does not check"
    w = (0,) * (len(gens[0]) - 1) + (1,)
    basis = group_basis(gens)
    for s in sat:
        if not refmath.in_cone(gens, s):
            return f"saturation generator {s} lies outside the cone"
        if group_coordinates(basis, s) is None:
            return f"saturation generator {s} lies outside the group"
    for p in gens + saturation_points(gens):
        if not refmath.is_combination(p, sat, w):
            return f"{p} is not generated by the saturation"
    if already != all(refmath.is_combination(s, gens, w) for s in sat):
        return f"already saturated: {already} is wrong"
    return None


def _cli_monoid_faces(op, out):
    gens = op["payload"]["generators"]
    want = sorted(refmath.face_index_sets(gens))
    if op["json"]:
        faces = [
            (tuple(f["indices"]), tuple(f["prime_complement"]))
            for f in json.loads(out)["faces"]
        ]
    else:
        faces = [
            (indices(r["gen indices"]), indices(r["prime complement"]))
            for r in table(out)
        ]
    if sorted(f[0] for f in faces) != want:
        return f"faces {sorted(f[0] for f in faces)}, expected {want}"
    for idx, comp in faces:
        if set(idx) | set(comp) != set(range(len(gens))) or set(idx) & set(comp):
            return f"prime complement {comp} of the face {idx}"
    return None


def _cli_monoid_ghost(op, out):
    p = op["payload"]
    want = ghost_invariants(p["monoid"]["generators"], p["face"])
    if op["json"]:
        obj = json.loads(out)
        got = (obj["rank"], tuple(obj["torsion"]))
    else:
        first = out.splitlines()[0]
        m = re.fullmatch(r"rank (\d+), torsion (?:none|\(([\d, ]+)\))", first)
        if not m:
            return f"unreadable ghost line {first!r}"
        tors = tuple(int(x) for x in m.group(2).split(",")) if m.group(2) else ()
        got = (int(m.group(1)), tors)
    return None if got == want else f"ghost {got}, expected {want}"


def _atlas_entries_json(obj):
    return sorted(
        (tuple(tuple(map(int, v)) for v in e["cone"]["rays"]),
         tuple(tuple(map(int, v)) for v in e["monoid"]["generators"]))
        for e in obj["entries"]
    )


def _cli_fanmon_atlas(op, out):
    gens = [tuple(v) for v in op["payload"]["generators"]]
    want = _atlas_entries_json(json.loads(json.dumps(atlas_payload(gens))))
    if op["json"]:
        got = _atlas_entries_json(json.loads(out))
    else:
        got = sorted(
            (tuple(vectors(r["cone rays"])), tuple(vectors(r["monoid generators"])))
            for r in table(out)
        )
    return None if got == want else f"atlas {got}, expected {want}"


def _cli_fanmon_normal(op, out):
    p = op["payload"]
    if op["json"]:
        entries = [
            ((tuple(tuple(map(int, v)) for v in e["cone"]["rays"]),
              tuple(tuple(map(int, v)) for v in e["cone"]["lineality"])),
             [tuple(map(int, v)) for v in e["monoid"]["generators"]])
            for e in json.loads(out)["entries"]
        ]
    else:
        entries = [
            ((tuple(vectors(r["cone rays"])), ()), vectors(r["monoid generators"]))
            for r in table(out)
        ]
    full = max(p["cones"], key=lambda c: len(c["rays"]))
    return check_normal_fan({"rays": full["rays"]}, entries)


def _cli_morphism_check(op, out):
    point = op["payload"]["point"]
    angles = [Fraction(a) % 1 for a in point["angle"]]
    if op["json"]:
        obj = json.loads(out)
        if not obj["ok"]:
            return f"identity morphism fails: {obj['failures']}"
        image = obj["point_image"]
        got = (tuple(image["face"]), [Fraction(a) for a in image["angle"]])
        if image["radial_log"] != point["radial_log"]:
            return f"radial part {image['radial_log']} != {point['radial_log']}"
    else:
        lines = out.splitlines()
        m = re.fullmatch(r"point image: face \{([\d,]*)\}, angles (.*)", lines[1])
        if lines[0] != "PASS" or not m:
            return f"unexpected output {out!r}"
        got = (indices(m.group(1)), [Fraction(a) for a in m.group(2).split(", ")])
    if got != (tuple(point["face"]), angles):
        return f"the identity moved the point to {got}"
    return None


def _cli_round_report(op, out):
    p = op["payload"]
    d = p["rank"]
    chart = max(p["entries"], key=lambda e: len(e["cone"]["rays"]))
    gens = [tuple(v) for v in chart["monoid"]["generators"]]
    if op["json"]:
        rows = [
            ([tuple(map(int, v)) for v in s["rays"]], s["orbit_dimension"],
             s["fiber_rank"], s["components"], s["boundary"])
            for s in json.loads(out)["strata"]
        ]
    else:
        rows = [
            (vectors(r["cone rays"]), int(r["orbit dim"]), int(r["fiber rank"]),
             int(r["components"]), r["boundary"] == "yes")
            for r in table(out)
        ]
    if len(rows) != len(p["entries"]):
        return f"{len(rows)} strata for {len(p['entries'])} charts"
    for rays, orbit, frank, comps, boundary in rows:
        if orbit != d - (refmath.rank(rays) if rays else 0):
            return f"orbit dimension {orbit} at {rays}"
        if boundary != bool(rays):
            return f"boundary flag {boundary} at {rays}"
        face = [i for i, m in enumerate(gens)
                if all(refmath.dot(r, m) == 0 for r in rays)]
        r, tors = cokernel([gens[i] for i in face], d)
        if (frank, comps) != (r, _components(tors)):
            return f"fiber ({frank}, {comps}) at {rays}, expected ({r}, {tors})"
    return None


def _cli_round_fiber(op, out):
    p = op["payload"]
    r, tors = ghost_invariants(p["monoid"]["generators"], p["face"])
    want_angles = [Fraction(a) for _, a in p["images"]]
    if op["json"]:
        obj = json.loads(out)
        got = (obj["rank"], obj["components"])
        restriction = obj["strict_restriction"]
        angles = [Fraction(v["angle"]) for v in obj["values"]]
    else:
        lines = out.splitlines()
        m = re.fullmatch(r"rank (\d+), components (\d+)", lines[0])
        got = (int(m.group(1)), int(m.group(2)))
        restriction = lines[1] == "strict restriction: ok"
        angles = [Fraction(row["angle"]) for row in table("\n".join(lines[2:]))]
    if got != (r, _components(tors)):
        return f"fiber {got}, expected ({r}, {tors})"
    if not restriction:
        return "strict restriction check failed"
    if angles != want_angles:
        return f"monomial angles {angles}, expected {want_angles}"
    return None


def _fiber_pair(op, out):
    if op["json"]:
        obj = json.loads(out)
        return obj["rank"], obj["components"]
    m = re.fullmatch(r"rank (\d+), components (\d+)", out.strip())
    return int(m.group(1)), int(m.group(2))


def _cli_milnor_strata(op, out):
    mults = op["payload"]["multiplicities"]
    want = (len(mults) - 1, math.gcd(*mults))
    got = _fiber_pair(op, out)
    return None if got == want else f"fiber {got}, expected {want}"


def closure(n_vertices, simplices):
    out = {(v,) for v in range(n_vertices)}
    for s in simplices:
        for k in range(1, len(s) + 1):
            out.update(itertools.combinations(sorted(s), k))
    return out


def _complex_rows(op, out):
    if op["json"]:
        obj = json.loads(out)
        rows = [
            (tuple(r["simplex"]), r["stratum_dimension"], r["rank"], r["components"])
            for r in obj["rows"]
        ]
        depths = [tuple(x) for x in obj.get("components_by_depth", [])]
        return rows, depths
    lines = out.splitlines()
    body = [ln for ln in lines if not ln.startswith("depth ")]
    rows = [
        (indices(r["simplex"]), int(r["stratum dim"]), int(r["fiber rank"]),
         int(r["components"]))
        for r in table("\n".join(body))
    ]
    depths = [
        tuple(int(x) for x in re.fullmatch(r"depth (\d+): (\d+) components", ln).groups())
        for ln in lines if ln.startswith("depth ")
    ]
    return rows, depths


def _check_complex(op, out, milnor):
    p = op["payload"]
    rows, depths = _complex_rows(op, out)
    want = closure(p["vertices"], p["simplices"])
    if sorted(r[0] for r in rows) != sorted(want):
        return f"simplices {sorted(r[0] for r in rows)}, expected {sorted(want)}"
    totals = {}
    for s, sdim, rank, comps in rows:
        k = len(s)
        if milnor:
            expect = (k - 1, math.gcd(*(p["multiplicities"][v] for v in s)))
        else:
            expect = (k, 1)
        if (sdim, rank, comps) != (p["n"] - k,) + expect:
            return f"row {s}: ({sdim}, {rank}, {comps}), expected {expect}"
        totals[k] = totals.get(k, 0) + comps
    if milnor and depths != sorted(totals.items()):
        return f"components by depth {depths}, expected {sorted(totals.items())}"
    return None


_CLI = {
    "cone dual": _cli_cone_dual,
    "cone faces": _cli_cone_faces,
    "monoid saturate": _cli_monoid_saturate,
    "monoid faces": _cli_monoid_faces,
    "monoid ghost": _cli_monoid_ghost,
    "fanmon atlas": _cli_fanmon_atlas,
    "fanmon normal": _cli_fanmon_normal,
    "morphism check": _cli_morphism_check,
    "round report": _cli_round_report,
    "round fiber": _cli_round_fiber,
    "milnor strata": _cli_milnor_strata,
    "snc link": lambda op, out: _check_complex(op, out, False),
    "snc milnor": lambda op, out: _check_complex(op, out, True),
}


def check_cli(op, result):
    code, out, err = result
    if op["verb"] in ("fan check", "fanmon check"):
        return _check_report(op, code, out)
    if code != 0 or err:
        return f"exit {code}, stderr {err.strip()!r}"
    return _CLI[op["verb"]](op, out)


CHECKERS = {
    "cli": check_cli,
    "atlas": check_atlas,
    "hilbert": check_hilbert,
    "saturate": check_saturate,
    "normal-fan": check_normal_fan,
    "member": check_member,
}


def check(op, result):
    """``None`` if the answer is right, else the reason it is wrong.  A
    checker that cannot read the answer counts it as wrong."""
    try:
        return CHECKERS[op["kind"]](op, result)
    except (ValueError, KeyError, IndexError, TypeError, AttributeError) as e:
        return f"unreadable answer: {type(e).__name__}: {e}"


FAILED = "failed"


def verdict(op, result):
    """``FAILED`` if the operation failed as a user sees it, else what
    :func:`check` says of its answer.

    A known-fault payload has one right answer: exit code 2, nothing on
    stdout and exactly one line on stderr.  Anything else is a failure of
    the operation, not a wrong answer, and the answer is not checked.
    """
    if op.get("fault"):
        code, out, err = result
        ok = code == 2 and not out and err.count("\n") == 1
        return None if ok else FAILED
    return check(op, result)
