"""Lazy re-exports for the package ``__init__`` modules (PEP 562).

A package names the public symbols it re-exports, grouped by the
submodule that defines them; :func:`lazy_exports` turns that table into
the module-level ``__getattr__``/``__dir__`` pair.  A submodule is
imported the first time one of its names is read from the package, so a
process imports only the layers it uses: ``repro stream`` never loads
SciPy (``repro.stats``) or networkx (``repro.network.metrics``) although
``from repro.stats import fit_zip`` still works.  Type checkers read the
same names as plain imports::

    if TYPE_CHECKING:
        from .eras import ERAS, era_of
    else:
        __getattr__, __dir__ = lazy_exports(globals(), {
            "eras": ("ERAS", "era_of"),
        })

See "Import boundaries" in ``docs/architecture.md``.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(
    namespace: Dict[str, Any], exports: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for a package that re-exports ``exports``.

    ``namespace`` is the package's ``globals()``; ``exports`` maps a
    submodule path relative to the package (``"eras"``,
    ``"analysis.latent"``) to the names it defines.  A name read once is
    stored in ``namespace``, so later reads are plain attribute lookups.
    """
    package = namespace["__name__"]
    origin = {
        name: module for module, names in exports.items() for name in names
    }

    def __getattr__(name: str) -> Any:
        module = origin.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(importlib.import_module(f".{module}", package), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(origin))

    return __getattr__, __dir__
