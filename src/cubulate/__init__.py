"""Dual cube complexes of finite spaces with walls.

Build the complex of admissible sections over a finite wall space,
attach cubes on corners, and machine-check its structural properties:
connectivity with metric correspondence, loop parity, flag vertex
links, loop contraction certificates, and equivariance of induced group
actions.
"""

from . import action, certify, cubing, errors, families, homotopy, sections, wallspace
from .errors import *
from .wallspace import *
from .sections import *
from .cubing import *
from .homotopy import *
from .action import *
from .certify import *
from .families import *

__version__ = "0.1.0"

# each module's __all__ is the one list of its public names
__all__ = [
    "__version__",
    *errors.__all__,
    *wallspace.__all__,
    *sections.__all__,
    *cubing.__all__,
    *homotopy.__all__,
    *action.__all__,
    *certify.__all__,
    *families.__all__,
]
