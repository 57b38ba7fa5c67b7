"""`lazy.lazy_property`: computed once per instance and kept in the slot
`_<name>`, which its class must declare."""

from dataclasses import FrozenInstanceError, dataclass

import pytest

from cxrlabel.lazy import lazy_property
from cxrlabel.reports import DependencyGraph, RadiologyReport


@dataclass(frozen=True)
class SlottedPoint:
    __slots__ = ("x", "_double")
    x: int
    calls = []  # the instances `double` was computed for, shared

    @lazy_property
    def double(self) -> int:
        """Twice x."""
        SlottedPoint.calls.append(self)
        return 2 * self.x


def test_slotted_value_is_computed_once_per_instance_and_stored_in_its_slot():
    SlottedPoint.calls.clear()
    a, b = SlottedPoint(1), SlottedPoint(5)
    assert not hasattr(a, "__dict__")
    with pytest.raises(AttributeError):
        a._double
    assert (a.double, a.double, b.double, b.double, a.double) == (2, 2, 10, 10, 2)
    assert SlottedPoint.calls == [a, b]
    assert a._double == 2


def test_frozen_dataclass_stays_frozen():
    point = SlottedPoint(3)
    assert point.double == 6
    with pytest.raises(FrozenInstanceError):
        point.double = 1
    with pytest.raises(FrozenInstanceError):
        point.x = 1
    assert point == SlottedPoint(3) and hash(point) == hash(SlottedPoint(3))


def test_class_access_returns_the_descriptor():
    descriptor = SlottedPoint.double
    assert isinstance(descriptor, lazy_property)
    assert descriptor.name == "double" and descriptor.__doc__ == "Twice x."


@pytest.mark.parametrize("slots", [None, (), ("x",)])
def test_a_class_without_the_slot_is_refused(slots):
    body = {"double": lazy_property(lambda self: 2)}
    if slots is not None:
        body["__slots__"] = slots
    with pytest.raises((TypeError, RuntimeError)) as err:
        type("Unslotted", (), body)
    # Before Python 3.12 the class statement wraps the error in a RuntimeError.
    error = err.value if isinstance(err.value, TypeError) else err.value.__cause__
    assert isinstance(error, TypeError)
    assert str(error) == "Unslotted declares no slot '_double' for its lazy_property 'double'"


@pytest.mark.parametrize("owner, name", [
    (RadiologyReport, "sentences"),
    (DependencyGraph, "out_adjacency"),
    (DependencyGraph, "in_adjacency"),
])
def test_package_lazy_attributes_take_no_lock(owner, name):
    assert isinstance(vars(owner)[name], lazy_property)
    assert vars(owner)[name].slot is vars(owner)["_" + name]
