"""No function in the package exists only for the tests.

Every module-level function and every method that is not a dunder (the
interpreter calls those, as it does a module's PEP 562 `__getattr__`) or
a property must be used by the package itself: named somewhere in its
source, exported in `cxrlabel.__all__`, wrapped by the benchmark
tracer, or run by `cli.main` as the `cmd_<command>` of a subcommand the
parser knows. A helper that only the tests need belongs in tests/conftest.py.
"""

import argparse
import ast
import runpy
from pathlib import Path

import cxrlabel
from cxrlabel import cli

PACKAGE = Path(cxrlabel.__file__).parent
# run_path compiles the source without writing bytecode next to it.
_TRACING = runpy.run_path(str(Path(__file__).parent.parent / "bench" / "tracing.py"))
TRACED = {
    target
    for table in (_TRACING["SPANS"], _TRACING["COUNTED"])
    for targets in table.values()
    for target in targets
}
# `cli.main` looks up the `cmd_<command>` of the subcommand by name.
DISPATCHED = {
    ("cxrlabel.cli", "cmd_" + command.replace("-", "_"))
    for action in cli.build_parser()._actions
    if isinstance(action, argparse._SubParsersAction)
    for command in action.choices
}
PROPERTIES = {"property", "cached_property", "lazy_property"}


def module_trees() -> dict[str, ast.Module]:
    trees = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        trees[module] = ast.parse(path.read_text(encoding="utf-8"))
    return trees


def is_dunder(node) -> bool:
    return node.name.startswith("__") and node.name.endswith("__")


def is_checked_method(node) -> bool:
    if not isinstance(node, ast.FunctionDef) or is_dunder(node):
        return False
    decorators = {
        d.attr if isinstance(d, ast.Attribute) else getattr(d, "id", None)
        for d in node.decorator_list
    }
    return not decorators & PROPERTIES


def definitions(tree: ast.Module):
    """(qualified name, whether a method) of each module-level function
    and each checked method of a module-level class."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not is_dunder(node):
            yield node.name, False
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if is_checked_method(item):
                    yield f"{node.name}.{item.name}", True


def test_every_function_is_used_by_the_package():
    trees = module_trees()
    names: set[str] = set()  # a function is named when it is read
    attributes: set[str] = set()  # a method, or a function of a module
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    checked, unused = 0, []
    for module, tree in trees.items():
        for qualname, is_method in definitions(tree):
            checked += 1
            name = qualname.rpartition(".")[2]
            used = name in attributes or (module, qualname) in TRACED | DISPATCHED or (
                not is_method and (name in names or name in cxrlabel.__all__)
            )
            if not used:
                unused.append(f"{module}.{qualname}")
    assert checked > 100  # the walk reached the package
    assert unused == []
