"""Exact classification toolkit for semifree Hamiltonian circle actions.

The package imports every module eagerly, not on first attribute access
(PEP 562): the benchmark's layer tracer wraps the functions of the modules
that are loaded after a bare `import hamfix`, so a lazy package would leave
every per-layer span empty without an error (`tests/test_stdlib_only.py`
checks this).  The modules themselves defer what few commands use (`json`,
`fractions`, `pathlib`) to the functions that use it.
"""

from .lattice import (
    CohClass,
    SurfaceLattice,
    adjunction_genus,
    component_splittings,
    exceptional_classes,
    make_blowup_lattice,
    pair,
    product_lattice,
)
from .localization import (
    C1,
    C1_CUBED,
    ExtremalFourManifold,
    ExtremalSurface,
    InteriorSurface,
    IsolatedPoint,
    LaurentPoly,
    ONE,
    betti,
    chern_number,
    contribution,
    integrate,
)
from .reduction import SliceState, bmax_from_euler, dh, initial_slice
from .classify6 import TFD, capacities, classify_all, enumerate_tfd, flip
from .classify4 import TFD4, classify4, enumerate_case3_tuples
from .toric import CircleDirection, Polytope, chern_number_from_volume, fixed_faces, is_semifree

__version__ = "1.0.0"
