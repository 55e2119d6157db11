"""Lazy package exports: a name's module is imported on first access.

A package lists what it exports and where each name lives; importing the
package imports none of those modules.  ``python -m repro list`` or a warm
``run`` that reads one store entry therefore never loads numpy, the
Fortran front end or the interpreter, while every
``from repro.<package> import X`` keeps working.
"""

from __future__ import annotations

import sys
from importlib import import_module
from importlib.util import resolve_name
from typing import Any, Callable, Iterable, Mapping

__all__ = ["lazy_exports"]


def lazy_exports(module: str, table: Mapping[str, Iterable[str]]) -> tuple[
    dict[str, tuple[str, str]], Callable[[str], Any], Callable[[], list]
]:
    """The lazy exports of ``module`` (a package or a plain module).

    ``table`` maps a module to the names it exports; a leading dot makes it
    relative, as in ``module``'s own ``from .x import``.  Returns
    ``(exports, __getattr__, __dir__)``: ``exports`` maps each name to its
    ``(module, attribute)``, and the two functions are ``module``'s PEP 562
    hooks.  A resolved name is cached in ``module``'s globals, so later
    reads skip the hook, and code that rebinds a module attribute (a
    wrapper around an entry point) is seen by every later ``from module
    import name``.
    """
    anchor = sys.modules[module].__package__
    exports = {
        name: (resolve_name(source, anchor), name)
        for source, names in table.items()
        for name in names
    }

    def __getattr__(name: str) -> Any:
        try:
            module_name, attr = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {module!r} has no attribute {name!r}"
            ) from None
        value = getattr(import_module(module_name), attr)
        setattr(sys.modules[module], name, value)
        return value

    def __dir__() -> list:
        return sorted({*vars(sys.modules[module]), *exports})

    return exports, __getattr__, __dir__
