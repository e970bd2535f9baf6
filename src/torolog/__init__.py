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
"""

from torolog.lattice import *
from torolog.cones import *
from torolog.monoids import *
from torolog.fans import *
from torolog.rounding import *
from torolog.morphisms import *
from torolog.snc import *
from torolog.cones import RationalCone, faces as _cone_faces
from torolog.monoids import ToricMonoid, faces as _monoid_faces


def faces(x):
    """Faces of a rational cone or of a toric monoid, smallest first.

    Both kinds carry a face lattice; this dispatches on the argument so the
    natural name works for either. The per-kind functions live at
    ``torolog.cones.faces`` and ``torolog.monoids.faces``.
    """
    if isinstance(x, RationalCone):
        return _cone_faces(x)
    if isinstance(x, ToricMonoid):
        return _monoid_faces(x)
    raise TypeError(
        f"faces expects a cone or a monoid, got {type(x).__name__}"
    )


__version__ = "0.1.0"
