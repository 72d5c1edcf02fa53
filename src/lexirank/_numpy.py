"""Modules imported on their first attribute access: numpy and the package's own.

``lazy_import`` puts a module into ``sys.modules`` at once, and its code
runs when one of its attributes is first read. The package ``__init__``
registers every module this way, so a command runs only the modules it
calls. The closed forms behind ``ties --mode analytic`` and ``orientation``
use only ``math`` and ``fractions``, so commands that run nothing else never
pay for numpy's import. Modules write ``from ._numpy import np`` and must not
touch ``np`` at import time.

Without numpy installed, ``np`` is a stand-in whose every attribute access
raises ``ModuleNotFoundError``: the package imports under any Python, and
only code that uses numpy fails, where it first does.
"""

import importlib.util
import sys
import types


class _MissingNumpy(types.ModuleType):
    def __getattr__(self, name):
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")


def lazy_import(name: str) -> types.ModuleType | None:
    """The module ``name``, run on its first attribute access; ``None`` if it
    cannot be found. A module already in ``sys.modules`` is returned as is."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        return None
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


np = lazy_import("numpy") or _MissingNumpy("numpy")
