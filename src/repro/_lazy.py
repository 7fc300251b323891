"""Package surfaces whose re-exported names load on first access.

A package ``__init__`` keeps its ``__all__`` and declares, in one table,
the submodule that defines each public name; :func:`lazy_exports` turns
that table into the module's PEP 562 ``__getattr__`` and ``__dir__``::

    __getattr__, __dir__ = lazy_exports(__name__, {
        "apply": ("aggregate", "apply_delta"),
        "config": ("DiffConfig",),
    })

Importing the package then loads none of those submodules.  The first
``package.name`` (or ``from package import name``) imports the defining
submodule and stores the value in the package globals, so every later
lookup is a plain attribute read.  A process therefore pays only for the
layers it actually calls.
"""

from __future__ import annotations

import importlib
import sys
import types


def lazy_exports(package: str, table: dict[str, tuple[str, ...]]):
    """The ``(__getattr__, __dir__)`` pair of a lazily re-exporting package.

    *table* maps a submodule path, relative to *package*, to the names it
    exports.  Where a name is also the name of the submodule defining it
    (``repro.core.diff`` exports ``diff``), the import system would bind
    the submodule over the name once that submodule is imported; the
    package then keeps the exported object, as an eager
    ``from .diff import diff`` would.
    """
    module = sys.modules[package]
    namespace = module.__dict__
    origin = {
        name: f"{package}.{submodule}"
        for submodule, names in table.items()
        for name in names
    }

    def __getattr__(name: str):
        try:
            submodule = origin[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(submodule), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(origin))

    shadowed = {name for name, path in origin.items()
                if path == f"{package}.{name}"}
    if shadowed:
        module.__class__ = _shadowing_package(shadowed)
    return __getattr__, __dir__


def _shadowing_package(shadowed: set[str]) -> type:
    class Package(types.ModuleType):
        def __setattr__(self, name, value):
            if name in shadowed and isinstance(value, types.ModuleType):
                value = getattr(value, name)
            super().__setattr__(name, value)

    return Package
