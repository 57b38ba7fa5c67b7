"""Things computed on first use: numpy, the numeric layers, and the
lazy attributes of the package's records.

Report mining (`label`) never touches an array, and importing numpy
costs more than the rest of a CLI start. So when numpy is not loaded
yet, `np` is registered through the standard `importlib.util.LazyLoader`
recipe: it is the numpy module object itself, and the first read of any
attribute runs numpy's own import once.

No other module of this package may state `import numpy` or `from numpy
import ...`: the import statement reads `__spec__`, which loads a lazy
module at once. Before Python 3.13 `LazyLoader` is not thread-safe, so
the first numeric call must not race another thread's.

The numeric layers (`localization`, `metrics`, `pooling`, `stats`) follow
the same rule one level up. `cli` registers each with `_lazy_module`, so
it sits in `sys.modules` and on the package from the start but runs only
when a command first reads one of its attributes; the cost of a layer
moves from every start to the first call that uses it. `metrics` reaches
`localization` the same way, so scoring labels never runs it. So no module that
a CLI start runs (`cli` and the text layers) may import a numeric layer
at its top level, by any import statement, for the same `__spec__`
reason; `cli` reaches them through its handles and function-level
imports, and the defaults every start reads live in `errors`. The
package's own exports load on first read too (`cxrlabel.__getattr__`).

`lazy_property` computes an attribute on its first read and stores it
with the instance. A class with an instance `__dict__` keeps the value
there, where every later read finds it without calling the descriptor. A
class with `__slots__` and no `__dict__` (the pipeline's reports and
graphs) declares the slot `_<name>` for it; every read goes through the
descriptor, which reads that slot and fills it on the first read. It is
`functools.cached_property` without the lock that Python 3.11 takes on
each first read (3.12 dropped it), and it also works without a
`__dict__`: two threads that race may both compute the value, and the
last one stored wins, which is harmless for the pure, deterministic
values it holds here.
"""

import importlib.util
import sys


def _lazy_module(name: str):
    """`sys.modules[name]` if loaded, else the module set to load on its
    first attribute read, registered in `sys.modules` and on its parent
    package."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    parent, _, child = name.rpartition(".")
    if parent:
        # As an import does, so that `import a.b` then `a.b.x` finds it.
        setattr(sys.modules[parent], child, module)
    return module


class lazy_property:
    """A read-only attribute computed once per instance by `func`. It is
    stored in the instance `__dict__`, or in the slot `_<name>` when the
    class declares one; either works on a frozen class, whose
    `__setattr__` neither path calls. Read on the class, it is the
    descriptor."""

    def __init__(self, func):
        self.func = func
        self.name = func.__name__
        self.__doc__ = func.__doc__
        self.slot = None

    def __set_name__(self, owner, name):
        self.name = name
        # The member descriptor of the slot `_<name>`, if the class has one.
        self.slot = vars(owner).get("_" + name)

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        slot = self.slot
        if slot is None:
            value = instance.__dict__[self.name] = self.func(instance)
            return value
        try:
            return slot.__get__(instance, owner)
        except AttributeError:  # not set yet
            value = self.func(instance)
            slot.__set__(instance, value)
            return value


np = _lazy_module("numpy")
