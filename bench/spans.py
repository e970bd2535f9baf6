"""Spans around torolog's public functions, for the traced benchmark run.

The tracer wraps each function in ``TRACED`` and records one span per call:
its name, start, end, the span that was open when it began (its parent)
and the benchmark operation it belongs to.  torolog's modules bind each
other's functions with ``from .x import y``, so a wrapper has to replace
the function in every torolog namespace that binds it, not only in the
module that defines it.  Classes are traced through ``__init__``, because
replacing the class object would break ``isinstance`` checks.

Spans stay in memory until the run ends; ``metrics`` then reduces them to
per-layer counts, self times and ratios.
"""

import functools
import json
import sys
import time
from array import array

# (module, name) of every traced callable.
TRACED = (
    ("lattice", "hnf"), ("lattice", "snf"), ("lattice", "solve_integer"),
    ("cones", "RationalCone"), ("cones", "dual_cone"), ("cones", "faces"),
    ("cones", "intersect"), ("cones", "contains"),
    ("monoids", "ToricMonoid"), ("monoids", "hilbert_basis"),
    ("monoids", "membership"), ("monoids", "faces"), ("monoids", "ghost"),
    ("monoids", "localize"), ("monoids", "monoid_equal"),
    ("monoids", "saturate"),
    ("fans", "validate_fan"), ("fans", "validate_fan_of_monoids"),
    ("fans", "affine_atlas"), ("fans", "strata"),
    ("fans", "normal_fan_of_monoids"),
    ("morphisms", "check_morphism"), ("morphisms", "normalization_morphism"),
    ("rounding", "strict_restriction_check"), ("rounding", "rounding_report"),
    ("rounding", "fiber_structure"), ("rounding", "encode_hom"),
    ("snc", "link_report"), ("snc", "milnor_report"),
    ("cli", "main"),
)

# Calls whose distinct argument values are counted for ``repeat_ratio``.
KEYED = {"lattice.hnf", "cones.RationalCone", "monoids.ToricMonoid"}

HILBERT, CONTAINS = "monoids.hilbert_basis", "cones.contains"

# The per-layer metrics a traced run reports, in report order.
PER_LAYER = (
    "lattice.hnf.calls", "lattice.hnf.self_ms", "lattice.hnf.repeat_ratio",
    "lattice.snf.calls", "lattice.snf.self_ms",
    "lattice.solve_integer.calls", "lattice.solve_integer.self_ms",
    "cones.RationalCone.calls", "cones.RationalCone.self_ms",
    "cones.RationalCone.repeat_ratio", "cones.dual_cone.self_ms",
    "cones.faces.self_ms", "cones.intersect.calls", "cones.intersect.self_ms",
    "cones.contains.calls", "cones.contains.self_ms",
    "monoids.hilbert_basis.self_ms", "monoids.hilbert_basis.yield_ratio",
    "monoids.membership.calls", "monoids.membership.self_ms",
    "monoids.ToricMonoid.repeat_ratio", "monoids.faces.self_ms",
    "monoids.ghost.calls", "monoids.ghost.self_ms", "monoids.localize.calls",
    "monoids.monoid_equal.calls", "monoids.monoid_equal.self_ms",
    "monoids.saturate.calls", "monoids.saturate.self_ms",
    "fans.validate_fan_of_monoids.calls", "fans.validate_fan_of_monoids.self_ms",
    "fans.validate_fan.self_ms", "fans.affine_atlas.self_ms",
    "fans.strata.self_ms", "fans.normal_fan_of_monoids.self_ms",
    "morphisms.check_morphism.calls", "morphisms.check_morphism.self_ms",
    "morphisms.normalization_morphism.self_ms",
    "rounding.strict_restriction_check.calls",
    "rounding.strict_restriction_check.self_ms",
    "rounding.rounding_report.self_ms", "rounding.fiber_structure.calls",
    "rounding.encode_hom.self_ms",
    "snc.link_report.self_ms", "snc.milnor_report.self_ms",
    "cli.main.calls", "cli.main.self_ms",
)


def unit_of(metric):
    kind = metric.rsplit(".", 1)[1]
    return {"calls": "count", "self_ms": "ms"}.get(kind, "ratio")


def better_of(metric):
    return "higher" if metric.endswith(".yield_ratio") else "lower"


def _freeze(x):
    if isinstance(x, (list, tuple)):
        return tuple(_freeze(v) for v in x)
    return x


class Tracer:
    def __init__(self):
        self.names = [f"{m}.{n}" for m, n in TRACED]
        # One column per field, one entry per span in start order; the span
        # id is the index.  Columns of machine numbers keep a run of a
        # million spans to a few tens of MB.
        self.parent, self.opid = array("q"), array("q")
        self.name, self.size = array("B"), array("q")
        self.start, self.end = array("d"), array("d")
        self.stack = []
        self.op = -1
        self.keys = {name: set() for name in KEYED}
        self._undo = []

    def _wrap(self, index, fn, is_init):
        stack, name = self.stack, self.names[index]
        parent, opid, names, size = self.parent, self.opid, self.name, self.size
        start, end = self.start, self.end
        keys = self.keys.get(name)
        sized = name == HILBERT

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if is_init and len(args) > 2 and not isinstance(args[2], (list, tuple)):
                args = args[:2] + (tuple(args[2]),) + args[3:]
            if keys is not None:
                keys.add(_freeze(args[1:] if is_init else args))
            sid = len(start)
            parent.append(stack[-1] if stack else -1)
            opid.append(self.op)
            names.append(index)
            size.append(0)
            end.append(0.0)
            stack.append(sid)
            start.append(time.perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[sid] = time.perf_counter()
                stack.pop()
            if sized:
                size[sid] = len(out)
            return out

        return traced

    def install(self):
        """Replace every traced callable in every loaded torolog module."""
        modules = [
            m for k, m in sorted(sys.modules.items())
            if k == "torolog" or k.startswith("torolog.")
        ]
        for index, (mod, name) in enumerate(TRACED):
            target = getattr(sys.modules[f"torolog.{mod}"], name)
            if isinstance(target, type):
                original = target.__init__
                target.__init__ = self._wrap(index, original, True)
                self._undo.append((target, "__init__", original))
                continue
            wrapped = self._wrap(index, target, False)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is target:
                        setattr(m, attr, wrapped)
                        self._undo.append((m, attr, target))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def metrics(self):
        """Per traced name: calls, self time in ms, and for the keyed names
        the ratio of calls to distinct argument values; plus the Hilbert
        basis yield (elements returned per ``contains`` call under it)."""
        n = len(self.names)
        calls, self_s = [0] * n, [0.0] * n
        columns = (self.parent, self.name, self.start, self.end, self.size)
        child = array("d", [0.0]) * len(self.start)
        under = bytearray(len(self.start))
        hb = self.names.index(HILBERT)
        cont = self.names.index(CONTAINS)
        yielded = contained = 0
        for sid, (parent, idx, start, end, size) in enumerate(zip(*columns)):
            if parent >= 0:
                child[parent] += end - start
                under[sid] = under[parent] or self.name[parent] == hb
            if idx == hb and not under[sid]:
                yielded += size
            if idx == cont and under[sid]:
                contained += 1
        for sid, (_, idx, start, end, _) in enumerate(zip(*columns)):
            calls[idx] += 1
            self_s[idx] += end - start - child[sid]
        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[i]
            out[f"{name}.self_ms"] = self_s[i] * 1000.0
            if name in self.keys:
                distinct = len(self.keys[name])
                out[f"{name}.repeat_ratio"] = calls[i] / distinct if distinct else 0.0
        out[f"{HILBERT}.yield_ratio"] = yielded / contained if contained else 0.0
        return out

    def write(self, path):
        """Write the spans as JSON lines: id, parent, op, name, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            columns = zip(self.parent, self.opid, self.name, self.start, self.end)
            for sid, (parent, op, idx, start, end) in enumerate(columns):
                fh.write(json.dumps([sid, parent, op, self.names[idx], start, end]))
                fh.write("\n")
