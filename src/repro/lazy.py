"""Re-exports resolved on first use (PEP 562).

A package that re-exports names from its submodules lists each name
with the submodule that defines it and sets its module ``__getattr__``
to :func:`lazy_getattr`; ``from package import name`` keeps working,
but the submodule is imported only when one of its names is first
read.  So a process loads the modules it uses — ``import repro.units``
loads the units module, ``import repro.core`` loads no numpy — and not
everything its package could hand out.
"""

import importlib
import sys
from typing import Any, Callable, Mapping


def lazy_getattr(package: str, owners: "Mapping[str, str]") -> "Callable[[str], Any]":
    """A module ``__getattr__`` for ``package``.

    ``owners`` maps each lazily exported name to the submodule of
    ``package`` that defines it; a name equal to its owner's resolves
    to the submodule itself.  A resolved value is stored in the
    package's namespace, so each name comes here once.
    """

    def __getattr__(name: str) -> Any:
        owner = owners.get(name)
        if owner is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        module = importlib.import_module(f"{package}.{owner}")
        value = module if name == owner else getattr(module, name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__
