"""Discrete memoryless channel capacity with certified brackets.

Two solvers (the classical multiplicative iteration and a backward
em-alternation), exhaustive and algebraic cross-checks, and the projection
machinery connecting capacity to divergence geometry.

The public names are each module's own __all__, re-exported here; the
package's __all__ is their sorted union.  numeric's ordered reductions stay
in chancap.numeric.

`import chancap` loads no submodule, so `python -m chancap.cli` loads only
the modules its subcommand runs.  The first lookup of a name the package
has not bound yet (a public name, __all__, a star import or dir()) imports
the re-exported modules and binds their names here, as star imports would
(PEP 562).  The lookup of a submodule's own name, which `from chancap
import arimoto` or `from chancap import numeric` makes, imports that
module alone, and what it imports.
"""

__version__ = "0.1.0"

_REEXPORTED = ("arimoto", "backward_em", "channel", "errors", "infogeo", "probability", "verify")
_SUBMODULES = (*_REEXPORTED, "cli", "numeric")


def _bind_public_names() -> None:
    """Import the re-exported modules; bind each one's __all__ and their
    sorted union as __all__.  Once bound, the names are never bound again, so
    a name patched on the package stays patched."""
    if "__all__" in globals():
        return
    from importlib import import_module

    modules = [import_module(f"{__name__}.{name}") for name in _REEXPORTED]
    namespace = globals()
    for module in modules:
        namespace.update((name, getattr(module, name)) for name in module.__all__)
    namespace["__all__"] = sorted(name for module in modules for name in module.__all__)


def __getattr__(name: str):
    if name in _SUBMODULES:
        from importlib import import_module

        return import_module(f"{__name__}.{name}")
    _bind_public_names()
    try:
        return globals()[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None


def __dir__():
    _bind_public_names()
    return sorted(globals())
