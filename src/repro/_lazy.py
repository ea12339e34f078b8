"""Lazy package exports (PEP 562), for packages whose submodules are too
costly to import up front."""

from __future__ import annotations

import sys
from importlib import import_module


def lazy_exports(package: str, exports: dict[str, str]):
    """``(__getattr__, __dir__)`` for ``package``: each name in
    ``exports`` (public name -> defining submodule) imports its submodule
    on first access and is then cached in the package namespace."""
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str):
        if name not in exports:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(f"{package}.{exports[name]}"), name)
        namespace[name] = value
        return value

    def __dir__():
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__
