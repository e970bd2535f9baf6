"""What importing the package loads.

A ``torolog`` run imports the package once per payload, so the import
should not pull in heavy standard modules it does not use, and it should
leave every module in place for the benchmark tracer, which must find every
name it wraps.  Each module but ``cli`` and ``lattice`` runs on first use,
so a verb runs only the modules it needs.  Each check runs in a fresh
interpreter, so the modules this test process loaded do not count.
No module imports a name it never uses, so a deletion leaves no dead import
behind, and no two refusals share a message, so each check is made in one
place.  Each public name is declared once, in its module's ``__all__``, and
the package namespace republishes those lists.
"""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
import textwrap
import types

import torolog

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(os.path.abspath(torolog.__file__)))


def run_fresh(code):
    """Run ``code`` in a new interpreter that imports torolog from SRC."""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=ROOT,
        stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_importing_the_package_and_cli_loads_no_dataclasses_or_inspect():
    out = run_fresh(
        "import sys, torolog, torolog.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    assert out == "[]\n"


def test_the_bench_tracer_installs_and_uninstalls_after_the_import():
    out = run_fresh(textwrap.dedent("""
        import sys, torolog, torolog.cli
        sys.path.insert(0, "bench")
        from spans import Tracer
        modules = [m for k, m in sys.modules.items() if k.startswith("torolog")]
        before = [dict(vars(m)) for m in modules]
        hnf, init = torolog.lattice.hnf, torolog.RationalCone.__init__
        tracer = Tracer()
        tracer.install()
        assert torolog.lattice.hnf is not hnf
        torolog.hnf(((2, 4), (6, 8)))
        calls = tracer.metrics()["lattice.hnf.calls"]
        # The traced classes are traced through ``__init__``, so each has
        # to stay a class that has one; a record type would not.
        cone = torolog.RationalCone(2, ((1, 0), (0, 1)))
        torolog.ToricMonoid(2, ((1, 0), (0, 1)))
        torolog.Fan(2, [cone])
        tracer.uninstall()
        assert torolog.lattice.hnf is hnf
        assert torolog.RationalCone.__init__ is init
        assert all(
            vars(m)[k] is v for m, b in zip(modules, before) for k, v in b.items()
        )
        metrics = tracer.metrics()
        print(calls, metrics["monoids.ToricMonoid.calls"],
              metrics["cones.RationalCone.calls"])
    """))
    assert out == "1 1 1\n"


def unused_imports(source):
    """The names a module imports but neither reads nor lists in
    ``__all__``, read from its syntax tree."""
    tree = ast.parse(source)
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(
                (a.asname or a.name).split(".")[0]
                for a in node.names if a.name != "*"
            )
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            getattr(t, "id", None) == "__all__" for t in node.targets
        ):
            used.update(e.value for e in node.value.elts)
    return sorted(imported - used)


def test_unused_imports_are_found():
    source = (
        "import os, sys\nfrom math import gcd as g, tau\nfrom cmath import *\n"
        "__all__ = ['tau']\nsys\n"
    )
    assert unused_imports(source) == ["g", "os"]


def test_no_module_imports_a_name_it_never_uses():
    package = os.path.dirname(os.path.abspath(torolog.__file__))
    found = {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                if names := unused_imports(fh.read()):
                    found[name] = names
    assert found == {}


def message_templates(node):
    """The templates a message expression can take: an f-string placeholder,
    or any part that is not a string literal, reads ``{}``, and both
    branches of a conditional message count."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    if isinstance(node, ast.JoinedStr):
        return ["".join(v.value if isinstance(v, ast.Constant) else "{}"
                        for v in node.values)]
    if isinstance(node, ast.IfExp):
        return message_templates(node.body) + message_templates(node.orelse)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        return [a + b for a in message_templates(node.left)
                for b in message_templates(node.right)]
    return ["{}"]


def refusals(source):
    """``(line, template)`` for each message template of each ``raise
    ValueError(...)`` or ``raise InputError(...)`` in a module."""
    out = []
    for node in ast.walk(ast.parse(source)):
        call = getattr(node, "exc", None) if isinstance(node, ast.Raise) else None
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) in (
            "ValueError", "InputError"
        ):
            templates = message_templates(call.args[0]) if call.args else [""]
            out.extend((node.lineno, t) for t in set(templates))
    return sorted(out)


def test_refusal_templates_are_read_from_the_syntax_tree():
    source = (
        "def f(x, y):\n"
        "    if x:\n"
        "        raise ValueError(f'{x} is bad')\n"
        "    raise InputError('a ' + str(y) if y else f'{y} is bad')\n"
        "raise KeyError('not a refusal')\n"
    )
    assert refusals(source) == [(3, "{} is bad"), (4, "a {}"), (4, "{} is bad")]


def test_no_two_refusals_share_a_message():
    package = os.path.dirname(os.path.abspath(torolog.__file__))
    sites = {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                for line, template in refusals(fh.read()):
                    sites.setdefault(template, []).append(f"{name}:{line}")
    assert {t: s for t, s in sites.items() if len(s) > 1} == {}


MODULES = ("lattice", "cones", "monoids", "fans", "rounding", "morphisms", "snc")

# The package's public names: every name in the modules' ``__all__`` lists.
SURFACE = {
    "AbelianGroupInvariants", "ComplexPoint", "DualComplex", "Fan",
    "FanOfMonoids", "FanStratum", "FiberReport", "GhostReport", "IntMat",
    "IntVec", "MilnorReport", "MonoidFace", "PointStratum", "PrimeIdeal",
    "RationalCone", "RoundingPoint", "StratumRow", "ToricMonoid",
    "ToricMorphismData", "ValidationFailure", "ValidationReport",
    "affine_atlas", "apply_to_point", "check_morphism", "contains", "dim",
    "dual_cone", "edge", "encode_hom", "evaluate_monomial", "exponent_cone",
    "faces", "fiber_structure", "ghost", "gp", "hilbert_basis", "hnf",
    "hnf_basis", "intersect", "is_saturated", "is_sharp", "kernel_basis",
    "lattice_rank", "link_report", "localize", "mat_identity", "mat_vec",
    "membership", "milnor_report", "milnor_stratum_fiber", "monoid_equal",
    "monomial_angle", "normal_fan_of_monoids", "normalization_morphism",
    "pairing", "points_of", "prime_ideals", "primitive", "quotient_invariants",
    "relative_fiber", "rounding_report", "saturate", "saturation_membership",
    "snf", "solve_integer", "strata", "strict_restriction_check", "tau",
    "transpose", "validate_fan", "validate_fan_of_monoids", "weight_cone",
}


def test_the_package_republishes_each_public_name_from_its_one_module():
    # The names are resolved on first read, so the namespace is read through
    # ``dir`` and ``getattr``; only ``faces`` is bound in the package itself.
    public = {
        k for k in dir(torolog)
        if not k.startswith("_")
        and not isinstance(getattr(torolog, k), types.ModuleType)
    }
    assert len(SURFACE) == 72 and public == SURFACE
    assert {
        k for k, v in vars(torolog).items()
        if not k.startswith("_") and not isinstance(v, types.ModuleType)
    } <= SURFACE
    owners = {}
    for mod in MODULES:
        for name in getattr(torolog, mod).__all__:
            owners.setdefault(name, []).append(mod)
    assert set(owners) == SURFACE
    assert {k: v for k, v in owners.items() if len(v) > 1} == {
        "faces": ["cones", "monoids"],
    }
    for name, mods in owners.items():
        if name != "faces":
            owner = getattr(torolog, mods[0])
            assert getattr(torolog, name) is getattr(owner, name)
    assert torolog.faces.__module__ == "torolog"


# Prints the torolog modules that have run: a module registered for loading
# on first use keeps a type of its own until then.
RUN = (
    "import sys, types\n"
    f"print([m for m in {MODULES!r}\n"
    "       if type(sys.modules['torolog.' + m]) is types.ModuleType])\n"
)


def test_importing_the_package_and_cli_runs_only_the_lattice():
    out = run_fresh("import torolog, torolog.cli\n" + RUN)
    assert out == "['lattice']\n"


def test_reading_the_cli_from_the_package_runs_only_the_lattice():
    # The import system first asks the package for ``cli`` as an attribute;
    # no module declares it, so the answer runs none of them.
    out = run_fresh(
        "import torolog\n"
        "from torolog import cli\n"
        "assert not hasattr(torolog, '_private') and cli.main\n" + RUN
    )
    assert out == "['lattice']\n"


def run_golden(*argvs, report=RUN):
    """What ``report`` prints (by default, the torolog modules that ran) in
    a fresh interpreter that imported the CLI and ran the first golden case
    of each of ``argvs``, checking its output."""
    return run_fresh(textwrap.dedent(f"""
        import contextlib, io, json, sys
        import torolog.cli
        golden = json.load(open("tests/cli_golden.json"))
        for argv in {list(argvs)!r}:
            case = next(c for c in golden if c["argv"] == argv)
            sys.stdin = io.StringIO(json.dumps(case["payload"]))
            with contextlib.redirect_stdout(io.StringIO()) as out:
                code = torolog.cli.main(case["argv"])
            assert (code, out.getvalue()) == (case["code"], case["stdout"])
    """) + report)


def test_a_cone_verb_runs_only_the_lattice_and_the_cones():
    assert run_golden(["cone", "dual"]) == "['lattice', 'cones']\n"


def test_a_cone_or_monoid_verb_loads_no_exact_fractions():
    # Only the verbs that read or write angles need exact fractions.
    out = run_golden(["cone", "dual"], ["monoid", "faces"],
                     report="print('fractions' in sys.modules)\n")
    assert out == "False\n"


def test_an_snc_verb_runs_no_rounding_or_fans():
    assert run_golden(["snc", "milnor"]) == (
        "['lattice', 'cones', 'monoids', 'snc']\n"
    )


def test_a_star_import_binds_the_public_names():
    out = run_fresh(
        "from torolog import *\n"
        "print(sorted(k for k in globals() if not k.startswith('_')))\n"
    )
    assert out == f"{sorted(SURFACE)}\n"


def test_every_name_the_bench_tracer_wraps_exists():
    # A traced benchmark run looks up each (module, name) of ``TRACED``, so
    # a name the package drops has to leave that list in the same change.
    spec = importlib.util.spec_from_file_location(
        "spans", os.path.join(ROOT, "bench", "spans.py")
    )
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert [
        (module, name) for module, name in spans.TRACED
        if not hasattr(importlib.import_module(f"torolog.{module}"), name)
    ] == []
