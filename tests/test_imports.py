"""What importing the package loads.

A ``torolog`` run imports the package once per payload, so the import
should not pull in heavy standard modules it does not use, and it should
leave every module in place for the benchmark tracer.  Each check runs in a
fresh interpreter, so the modules this test process loaded do not count.
No module imports a name it never uses, so a deletion leaves no dead import
behind.
"""

import ast
import os
import subprocess
import sys
import textwrap

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
                (a.asname or a.name).split(".")[0] for a in node.names
            )
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            getattr(t, "id", None) == "__all__" for t in node.targets
        ):
            used.update(e.value for e in node.value.elts)
    return sorted(imported - used)


def test_unused_imports_are_found():
    source = "import os, sys\nfrom math import gcd as g, tau\n__all__ = ['tau']\nsys\n"
    assert unused_imports(source) == ["g", "os"]


def test_no_module_imports_a_name_it_never_uses():
    # ``__init__`` imports only to export, so it is not checked.
    package = os.path.dirname(os.path.abspath(torolog.__file__))
    found = {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py") and name != "__init__.py":
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                if names := unused_imports(fh.read()):
                    found[name] = names
    assert found == {}
