"""Lazy package namespaces: a package's public names load on first access.

A package ``__init__`` that re-exports from its submodules eagerly makes
every importer of any one submodule pay for all of them: a plain
``python -m repro.service --serve`` would load the fleet router and the
blocking client, and a ``fast`` run the faithful monitor and the message
model.  The rule is therefore that a package ``__init__`` imports nothing
from ``repro`` at run time.  It hands its export table to
:func:`lazy_exports` and binds the two module hooks that returns::

    __getattr__, __dir__ = lazy_exports(globals(), {
        "repro.engine.registry": ("get_engine", "list_engines"),
    })

The first ``package.name`` imports the defining module and stores the value
in the package's globals, so every later access is a plain attribute
lookup that never reaches the hook.  Type checkers read the same names
from an ``if TYPE_CHECKING:`` import block beside the table.

This module imports nothing from ``repro``, so any package may use it.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Iterable, Mapping

__all__ = ["lazy_exports"]


def lazy_exports(
    namespace: dict[str, Any],
    exports: Mapping[str, Iterable[str]],
    submodules: Iterable[str] = (),
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """The module ``__getattr__`` and ``__dir__`` of a lazy package.

    Args
    ----
    namespace:
        The package's ``globals()``; resolved names are cached there.
    exports:
        Defining module → the public names it provides.
    submodules:
        Subpackage names resolved by importing ``<package>.<name>``.

    Returns
    -------
    ``(__getattr__, __dir__)`` for the package to bind at module level.
    """
    package = namespace["__name__"]
    origin = {name: module for module, names in exports.items() for name in names}
    lazy_modules = frozenset(submodules)

    def __getattr__(name: str) -> Any:
        module = origin.get(name)
        if module is not None:
            value = getattr(importlib.import_module(module), name)
            namespace[name] = value  # cache: the next access skips this hook
            return value
        if name in lazy_modules:
            return importlib.import_module(f"{package}.{name}")
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(origin) | lazy_modules)

    return __getattr__, __dir__
