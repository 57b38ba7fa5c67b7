"""The benchmark tracer's targets exist: each (module, attribute) it wraps
names a function of the package, so removing or renaming a traced function
fails here rather than only when the benchmark runs."""

import importlib
import inspect
import runpy
from pathlib import Path

import pytest

# run_path compiles the source without writing bytecode next to it.
_TRACING = runpy.run_path(str(Path(__file__).parent.parent / "bench" / "tracing.py"))
TARGETS = sorted({
    target
    for table in (_TRACING["SPANS"], _TRACING["COUNTED"])
    for targets in table.values()
    for target in targets
})


@pytest.mark.parametrize("module, attr", TARGETS, ids=[f"{m}:{a}" for m, a in TARGETS])
def test_target_resolves_to_a_package_function(module, attr):
    owner = importlib.import_module(module)
    for name in attr.split("."):
        owner = getattr(owner, name)
    assert inspect.isfunction(owner)
    assert owner.__module__ == module
