"""Dual cube complexes of finite spaces with walls.

Build the complex of admissible sections over a finite wall space,
whose cubes its 1-skeleton fixes, and machine-check its structure:
connectivity with metric correspondence, loop parity, flag vertex
links, loop contraction certificates, and equivariance of induced group
actions.
"""

from importlib import import_module

__version__ = "0.1.0"

# each module's __all__ is the one list of its public names; the
# package's __all__ joins them in this order
_EXPORTING = ("errors", "wallspace", "sections", "cubing", "homotopy", "action", "certify", "families")


def __getattr__(name: str):
    """Import on first use (PEP 562): a submodule, a public name from
    the submodule whose __all__ lists it, or __all__ itself.  Importing
    the package imports no submodule."""
    if name in _EXPORTING or name == "cli":
        return import_module(f".{name}", __name__)
    if name == "__all__":
        value = ["__version__", *(n for m in _EXPORTING for n in __getattr__(m).__all__)]
    else:
        owner = next((m for m in map(__getattr__, _EXPORTING) if name in m.__all__), None)
        if owner is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(owner, name)
    globals()[name] = value
    return value
