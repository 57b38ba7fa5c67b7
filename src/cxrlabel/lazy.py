"""numpy, loaded on its first attribute read instead of at import.

Report mining (`label`) never touches an array, and importing numpy
costs more than the rest of a CLI start. So when numpy is not loaded
yet, `np` is registered through the standard `importlib.util.LazyLoader`
recipe: it is the numpy module object itself, and the first read of any
attribute runs numpy's own import once.

No other module of this package may state `import numpy` or `from numpy
import ...`: the import statement reads `__spec__`, which loads a lazy
module at once. Before Python 3.13 `LazyLoader` is not thread-safe, so
the first numeric call must not race another thread's.
"""

import importlib.util
import sys


def _lazy_module(name: str):
    """`sys.modules[name]` if loaded, else the module set to load on its
    first attribute read."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


np = _lazy_module("numpy")
