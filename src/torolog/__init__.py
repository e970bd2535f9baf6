"""torolog: exact combinatorics of toric monoids and the roundings of their
log structures.

The package computes with finitely generated submonoids of Z^d and the
rational polyhedral cones they span: normal forms and duality, face lattices,
saturation, fans of monoids with their affine atlases, monoid morphisms, and
the circle-valued rounding data attached to divisorial log structures --
ghost monoids, rounding-fiber torus ranks and component counts, and the
Milnor-fibration bookkeeping for simple-normal-crossings models.

This namespace republishes each module's ``__all__``, which is the one
declaration of that module's public names; only ``faces`` is defined here.
Each module loads on first use: importing the package registers every
module in ``sys.modules`` without running it, and the first attribute read
from a module (through a public name here, from another module, or from the
command line) runs it.  So the first call into a module pays that module's
compile.
"""

import importlib.util
import sys


def _lazy(name):
    """Register ``torolog.<name>`` in ``sys.modules`` without running it:
    the module runs on the first read of one of its attributes."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# In dependency order: each module imports only modules before it.
_MODULES = lattice, cones, monoids, fans, rounding, morphisms, snc = tuple(
    map(_lazy, ("lattice", "cones", "monoids", "fans", "rounding",
                "morphisms", "snc"))
)

# The module that declares each public name read so far.
_owners = {}


def __getattr__(name):
    """A public name, read from the module that declares it on every access;
    ``__all__`` lists every public name, in dependency order."""
    if name == "__all__":
        return list(dict.fromkeys(n for m in _MODULES for n in m.__all__))
    owner = _owners.get(name)
    if owner is None:
        # No module declares a private name, or ``cli``, the one package
        # module not bound here: answer those without running a module.
        if not name.startswith("_") and name != "cli":
            owner = next((m for m in _MODULES if name in m.__all__), None)
        if owner is None:
            raise AttributeError(
                f"module {__name__!r} has no attribute {name!r}"
            )
        _owners[name] = owner
    return getattr(owner, name)


def __dir__():
    return sorted(set(globals()) | set(__getattr__("__all__")))


def faces(x):
    """Faces of a rational cone or of a toric monoid, smallest first.

    Both kinds carry a face lattice; this dispatches on the argument so the
    natural name works for either. The per-kind functions live at
    ``torolog.cones.faces`` and ``torolog.monoids.faces``.
    """
    if isinstance(x, cones.RationalCone):
        return cones.faces(x)
    if isinstance(x, monoids.ToricMonoid):
        return monoids.faces(x)
    raise TypeError(
        f"faces expects a cone or a monoid, got {type(x).__name__}"
    )


__version__ = "0.1.0"
