"""Things computed on first use: numpy, the package's layers, and the
lazy attributes of the package's records; and `record`, which makes them.

Report mining (`label`) never touches an array, and importing numpy
costs more than the rest of a CLI start. So when numpy is not loaded
yet, `np` is registered through the standard `importlib.util.LazyLoader`
recipe: it is the numpy module object itself, and the first read of any
attribute runs numpy's own import once.

No other module of this package may state `import numpy` or `from numpy
import ...`: the import statement reads `__spec__`, which loads a lazy
module at once. Before Python 3.13 `LazyLoader` is not thread-safe, so
the first numeric call must not race another thread's.

The layers follow the same rule one level up. No module of the package
imports another at its top level, by any import statement, except
`errors` and `lazy`: each reaches a layer through a handle that
`_lazy_module` registers, which sits in `sys.modules` and on the package
from the start but runs the layer only when its first attribute is read.
The handles are:

- `cli`: every layer (`labeling`, `lexicon` as `lex`, `localization`,
  `metrics`, `negation`, `pooling`, `reports`, `stats`), so that a
  tracer finds each in `sys.modules` after `import cxrlabel.cli`;
- `labeling`: `lexicon` (as `lex`), `negation` and `reports`, which only
  report mining reads, so that reading and scoring label tables runs none;
- `lexicon`: `reports`; `negation`: `lexicon` (as `lex`) and `reports`,
  so that loading the packaged lexicon and rules runs neither;
- `metrics`: `labeling` and `localization`; `stats`: `labeling`, so that
  `eval-loc` and `split` never run `labeling`;
- `errors`, `localization`, `pooling` and `reports`: none but `np`.

A CLI start so runs only `cli`, `errors` and `lazy`, and the cost of a
layer moves from every start to the first call that reads it; as with
numpy, that first read must not race another thread's. The
defaults every start reads (label sets, thresholds, loss names, overlap
grids) live in `errors`. Functions may import a layer where they run
(`cli`'s selftest does). The package's own exports load on first read
too (`cxrlabel.__getattr__`).

`lazy_property` computes an attribute on its first read and stores it
in the slot `_<name>`, which its class declares (the pipeline's reports
and graphs have `__slots__` and no `__dict__`); every read goes through
the descriptor, which reads that slot and fills it on the first read. It
is `functools.cached_property` without the lock that Python 3.11 takes
on each first read (3.12 dropped it), and it works without a `__dict__`:
two threads that race may both compute the value, and the last one
stored wins, which is harmless for the pure, deterministic values it
holds here. A record with a `__dict__` computes such a value in its
`__post_init__` instead (`labeling.LabelConfig.column`).
"""

import importlib.util
import sys
import types
from operator import attrgetter


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
    """A read-only attribute computed once per instance by `func` and
    stored in the slot `_<name>`, which the class must declare; this works
    on a frozen class, whose `__setattr__` it never calls. Read on the
    class, it is the descriptor."""

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.name = name
        # The member descriptor of the slot `_<name>`.
        self.slot = vars(owner).get("_" + name)
        if not isinstance(self.slot, types.MemberDescriptorType):
            raise TypeError(f"{owner.__qualname__} declares no slot '_{name}' "
                            f"for its lazy_property {name!r}")

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        slot = self.slot
        try:
            return slot.__get__(instance, owner)
        except AttributeError:  # not set yet
            value = self.func(instance)
            slot.__set__(instance, value)
            return value


def record(cls=None, /, *, eq=True):
    """Make `cls` a frozen record of its annotated fields: a dataclass's
    repr, refused assignment and, with `eq`, equality with its own type and
    a hash of its fields, as plain functions. Without its own `__new__` or
    `__init__` it gets an `__init__` (fields, then class-attribute defaults,
    then `__post_init__`) and a `_checked` that skips `__post_init__`."""
    if cls is None:
        return lambda cls: record(cls, eq=eq)
    names = tuple(cls.__dict__.get("__annotations__", {}))
    assert len(names) > 1, "an attrgetter of one name returns no tuple"
    values = attrgetter(*names)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(map("{}={!r}".format, names, values(self)))
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(values(self))

    cls.__setattr__, cls.__delattr__, cls.__repr__ = __setattr__, __delattr__, __repr__
    if eq:
        cls.__eq__, cls.__hash__ = __eq__, __hash__
    if "__new__" in cls.__dict__ or "__init__" in cls.__dict__:
        return cls
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    post_init = getattr(cls, "__post_init__", lambda self: None)

    def _checked(cls, *args):
        self = object.__new__(cls)
        vars(self).update(zip(names, args))
        return self

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):
            passed = {**dict(zip(names, args)), **kwargs}
            given = {**defaults, **passed}
            if len(passed) != len(args) + len(kwargs) or given.keys() != set(names):
                raise TypeError(f"{cls.__qualname__}() takes each of {names} once")
            args = [given[name] for name in names]
        vars(self).update(zip(names, args))
        post_init(self)

    cls._checked, cls.__init__ = classmethod(_checked), __init__
    return cls


np = _lazy_module("numpy")
