"""Lazy package exports (PEP 562), shared by every re-exporting package.

A package that re-exports names from its submodules eagerly makes
every importer of *any* of its submodules pay for *all* of them: the
package ``__init__`` runs first.  A spawned batch worker that needs
only the CSP pipeline would otherwise load numpy, the HTTP server and
the experiment driver.  :func:`lazy_exports` instead resolves each
public name on first attribute access, imports its defining module
then, and caches the value in the package namespace so later lookups
are plain dict hits::

    _EXPORTS = {"repro.core.config": ("METHODS", "PipelineConfig")}
    __all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

``from package import name`` and ``from package import *`` work
unchanged, because both go through ``__getattr__``.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Mapping, Sequence

__all__ = ["lazy_exports"]


def lazy_exports(
    namespace: dict[str, Any], exports: Mapping[str, Sequence[str]]
) -> tuple[list[str], Callable[[str], Any], Callable[[], list[str]]]:
    """The ``__all__``, ``__getattr__`` and ``__dir__`` of a package.

    Args:
        namespace: the package's ``globals()``; resolved names are
            cached there.
        exports: defining module name -> the public names it supplies.

    Returns:
        ``(__all__, __getattr__, __dir__)`` to bind at the package's
        top level: the sorted export names, the on-first-use lookup,
        and a listing of the package's globals plus every export.
    """
    package = namespace["__name__"]
    module_of = {
        name: module for module, names in exports.items() for name in names
    }

    def __getattr__(name: str) -> Any:
        module = module_of.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(module_of))

    return sorted(module_of), __getattr__, __dir__
