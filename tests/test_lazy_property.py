"""`lazy.lazy_property`: computed once per instance, kept in `__dict__`."""

from dataclasses import FrozenInstanceError, dataclass

import pytest

from cxrlabel.labeling import LabelConfig
from cxrlabel.lazy import lazy_property
from cxrlabel.reports import DependencyGraph, RadiologyReport, Sentence


@dataclass(frozen=True)
class Point:
    x: int
    calls = []  # the instances `double` was computed for, shared

    @lazy_property
    def double(self) -> int:
        """Twice x."""
        Point.calls.append(self)
        return 2 * self.x


def test_value_is_computed_once_per_instance_and_stored():
    Point.calls.clear()
    a, b = Point(1), Point(5)
    assert (a.double, a.double, b.double, b.double, a.double) == (2, 2, 10, 10, 2)
    assert Point.calls == [a, b]
    assert vars(a) == {"x": 1, "double": 2}
    # The stored value is what later reads find; the descriptor is not
    # called again.
    vars(a)["double"] = 7
    assert a.double == 7 and Point.calls == [a, b]


def test_frozen_dataclass_stays_frozen():
    point = Point(3)
    assert point.double == 6
    with pytest.raises(FrozenInstanceError):
        point.double = 1
    with pytest.raises(FrozenInstanceError):
        point.x = 1
    assert point == Point(3) and hash(point) == hash(Point(3))


def test_class_access_returns_the_descriptor():
    descriptor = Point.double
    assert isinstance(descriptor, lazy_property)
    assert descriptor.name == "double" and descriptor.__doc__ == "Twice x."


@pytest.mark.parametrize("owner, name", [
    (RadiologyReport, "sentences"),
    (Sentence, "ref"),
    (DependencyGraph, "lowered"),
    (DependencyGraph, "out_adjacency"),
    (DependencyGraph, "in_adjacency"),
    (LabelConfig, "column"),
])
def test_package_lazy_attributes_take_no_lock(owner, name):
    assert isinstance(vars(owner)[name], lazy_property)
