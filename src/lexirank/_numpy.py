"""numpy, imported on the first attribute access.

The closed forms behind ``ties --mode analytic`` and ``orientation`` use
only ``math`` and ``fractions``, so commands that run nothing else never pay
for numpy's import. Modules write ``from ._numpy import np`` and must not
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


def _lazy_numpy():
    if "numpy" in sys.modules:
        return sys.modules["numpy"]
    spec = importlib.util.find_spec("numpy")
    if spec is None:
        return _MissingNumpy("numpy")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    spec.loader.exec_module(module)
    return module


np = _lazy_numpy()
