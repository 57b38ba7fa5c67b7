"""A CLI start runs only the layers it uses.

Every module reaches the package's layers through handles that run a
layer on its first attribute read, and `import cxrlabel` resolves each
exported name on its first read. This test process has run every layer
already, so each check runs a fresh interpreter. A registered layer that has not run is still
of `LazyLoader`'s module type; loading it makes it a plain module.
"""

import ast
import json
import runpy
from pathlib import Path

import pytest

from test_lazy_numpy import (  # noqa: F401  (`inputs` is a fixture)
    CORPUS,
    DEPS,
    GOLD,
    NUMERIC_RUNS,
    PACKAGE,
    ROOT,
    fresh,
    inputs,
    setup_code,
)

NUMERIC = {"cxrlabel.localization", "cxrlabel.metrics", "cxrlabel.pooling",
           "cxrlabel.stats"}
TEXT = {"cxrlabel.labeling", "cxrlabel.lexicon", "cxrlabel.negation",
        "cxrlabel.reports"}
LAYERS = NUMERIC | TEXT

# Prints the package modules that have run.
RAN = (
    "import sys, types; "
    "print(sorted(name for name, module in sys.modules.items() "
    "if name.startswith('cxrlabel') and type(module) is types.ModuleType))"
)


def ran(code: str, cwd=None) -> set[str]:
    """The package modules a fresh interpreter has run after `code`."""
    proc = fresh(["-c", f"{code}\n{RAN}"], cwd=cwd)
    assert proc.returncode == 0, proc.stderr.decode()
    return set(ast.literal_eval(proc.stdout.decode().splitlines()[-1]))


def test_benchmark_setup_runs_no_numeric_layer():
    # The config check reads the label sets from `errors`, and loading the
    # packaged lexicon and rules runs neither `reports` nor `labeling`.
    modules = ran(setup_code())
    assert "cxrlabel.cli" in modules
    assert modules & LAYERS == {"cxrlabel.lexicon", "cxrlabel.negation"}


def test_cli_start_runs_no_layer():
    assert ran("import cxrlabel.cli") == {
        "cxrlabel", "cxrlabel.cli", "cxrlabel.errors", "cxrlabel.lazy"}


# The layers each subcommand runs, by its NUMERIC_RUNS or TEXT_RUNS name.
COMMAND_LAYERS = {
    "label": TEXT,
    "eval-nlp": {"cxrlabel.labeling", "cxrlabel.metrics"},
    "auc": {"cxrlabel.labeling", "cxrlabel.metrics"},
    "stats": {"cxrlabel.labeling", "cxrlabel.stats"},
    "split": {"cxrlabel.reports", "cxrlabel.stats"},
    "localize": {"cxrlabel.localization"},
    "eval-loc-iobb": {"cxrlabel.localization", "cxrlabel.metrics"},
    "selftest": {"cxrlabel.localization", "cxrlabel.metrics", "cxrlabel.pooling",
                 "cxrlabel.stats"},
}
TEXT_RUNS = {
    "label": lambda d: [
        "label", "--corpus", CORPUS, "--deps", DEPS, "--propagate",
        "--out-tsv", "labels.tsv", "--out-csv", "labels.csv"],
    "eval-nlp": lambda d: ["eval-nlp", "--pred", GOLD, "--gold", GOLD, "--out", "prf.csv"],
}


@pytest.mark.parametrize("run", sorted(COMMAND_LAYERS))
def test_each_subcommand_runs_only_the_layers_it_reads(run, inputs, tmp_path):
    argv = {**NUMERIC_RUNS, **TEXT_RUNS}[run](inputs)
    modules = ran(
        "from cxrlabel.cli import main\n"
        f"assert main({argv!r}) == 0", cwd=tmp_path)
    assert modules & LAYERS == COMMAND_LAYERS[run]


def test_no_module_imports_a_layer_at_its_top_level():
    # Only imports in a function body run after the module's own import.
    allowed = {"cxrlabel.errors", "cxrlabel.lazy"}
    statements = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        in_functions = {
            id(inner)
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            for inner in ast.walk(node)
        }
        for node in ast.walk(tree):
            if id(node) in in_functions:
                continue
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if node.level:  # relative to the package
                    module = "cxrlabel" + (f".{module}" if module else "")
                names = ([f"{module}.{alias.name}" for alias in node.names]
                         if module == "cxrlabel" else [module])
            else:
                continue
            if any(name.startswith("cxrlabel.") and name not in allowed
                   for name in names):
                statements.append(f"{path.relative_to(PACKAGE)}:{node.lineno}")
    assert statements == []


def test_bare_import_runs_no_layer():
    assert ran("import cxrlabel") == {"cxrlabel"}


def test_every_export_is_the_defining_modules_object():
    proc = fresh(["-c", (
        "import json, sys, cxrlabel\n"
        "names = [n for n in cxrlabel.__all__ if n != '__version__']\n"
        "values = {n: getattr(cxrlabel, n) for n in names}\n"
        "wrong = [n for n, v in values.items()\n"
        "         if getattr(sys.modules[v.__module__], n) is not v]\n"
        "missing = sorted(set(cxrlabel.__all__) - set(dir(cxrlabel)))\n"
        "star = {}\n"
        "exec('from cxrlabel import *', star)\n"
        "print(json.dumps([wrong, missing, sorted(set(cxrlabel.__all__) - set(star))]))"
    )])
    assert proc.returncode == 0, proc.stderr.decode()
    assert json.loads(proc.stdout) == [[], [], []]


def test_unknown_package_attribute_raises():
    proc = fresh(["-c", (
        "import cxrlabel\n"
        "try:\n"
        "    cxrlabel.no_such_name\n"
        "except AttributeError as err:\n"
        "    print(err)"
    )])
    assert proc.stdout.decode().strip() == (
        "module 'cxrlabel' has no attribute 'no_such_name'"
    )


def test_layers_import_by_any_statement_before_and_after_the_cli():
    for first in ("", "import cxrlabel.cli\n"):
        proc = fresh(["-c", first + (
            "import sys\n"
            "import cxrlabel.localization\n"
            "from cxrlabel import localization, metrics\n"
            "from cxrlabel.localization import DEFAULT_THRESHOLDS, iou\n"
            "from cxrlabel.metrics import T_GRID_IOU\n"
            "from cxrlabel.pooling import LOSSES\n"
            "import cxrlabel.stats as stats\n"
            "assert localization is cxrlabel.localization"
            " is sys.modules['cxrlabel.localization']\n"
            "assert metrics is sys.modules['cxrlabel.metrics']\n"
            "assert iou.__module__ == 'cxrlabel.localization'\n"
            "assert stats.patient_split.__module__ == 'cxrlabel.stats'\n"
            "print(DEFAULT_THRESHOLDS, T_GRID_IOU, list(LOSSES))"
        )])
        assert proc.returncode == 0, proc.stderr.decode()
        assert proc.stdout.decode().strip() == (
            "(60, 180) (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7) ['cel', 'wcel', 'el', 'hl']"
        )


# --- a start loads no code generator ---

# `dataclasses` imports `inspect`, `ast`, `dis` and `tokenize`; numpy's
# own import loads `inspect`, so `inspect` is absent only until numpy runs.
GENERATORS = ("dataclasses", "inspect")

# Runs each CLI argv of the JSON list given, in one interpreter, and
# prints after each run its exit code, which of GENERATORS are loaded,
# and whether numpy has run.
GENERATOR_PROBE = f"""
import json, sys
from cxrlabel.cli import main
seen = []
for argv in json.loads(sys.argv[1]):
    code = main(argv)
    seen.append([argv[0], code, [m for m in {GENERATORS!r} if m in sys.modules],
                 any(m.startswith("numpy.") for m in sys.modules)])
print(json.dumps(seen))
"""


def test_no_module_imports_dataclasses():
    statements = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Import) and any(
            alias.name == "dataclasses" for alias in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
    ]
    assert statements == []


def test_benchmark_setup_loads_no_code_generator():
    proc = fresh(["-c", setup_code() + (
        f"; import sys; print([m for m in {GENERATORS!r} if m in sys.modules])")])
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode().splitlines()[-1] == "[]"


def test_no_subcommand_loads_a_code_generator(inputs, tmp_path):
    runs = [
        ["label", "--corpus", CORPUS, "--deps", DEPS, "--propagate",
         "--out-tsv", "labels.tsv", "--out-csv", "labels.csv"],
        ["eval-nlp", "--pred", "labels.csv", "--gold", GOLD, "--out", "prf.csv"],
        *(run(inputs) for _, run in sorted(NUMERIC_RUNS.items())),
    ]
    proc = fresh(["-c", GENERATOR_PROBE, json.dumps(runs)], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr.decode()
    seen = json.loads(proc.stdout.decode().splitlines()[-1])
    assert [command for command, *_ in seen] == [argv[0] for argv in runs]
    assert {command for command, *_ in seen} >= {
        "label", "eval-nlp", "auc", "localize", "eval-loc", "stats", "split",
        "selftest"}
    for command, code, loaded, numpy_ran in seen:
        assert code == 0, command
        assert loaded == (["inspect"] if numpy_ran else []), command
    assert seen[0][3] is False  # `label` runs no numpy, so nothing loads `inspect`


# --- the benchmark tracer finds every layer it wraps ---

_TRACING = runpy.run_path(str(ROOT / "bench" / "tracing.py"))
TRACED_MODULES = sorted({
    module
    for table in (_TRACING["SPANS"], _TRACING["COUNTED"])
    for targets in table.values()
    for module, _ in targets
})


def test_cli_import_registers_every_traced_module():
    proc = fresh(["-c", (
        "import json, sys\n"
        "import cxrlabel.cli\n"
        "print(json.dumps(sorted(set(json.loads(sys.argv[1])) - set(sys.modules))))"
    ), json.dumps(TRACED_MODULES)])
    assert proc.returncode == 0, proc.stderr.decode()
    assert json.loads(proc.stdout) == []
    assert NUMERIC <= set(TRACED_MODULES)


def test_tracer_installs_after_the_cli_import():
    # -B: the tracer module is compiled without writing bytecode beside it.
    proc = fresh(["-B", "-c", (
        "import sys\n"
        "import cxrlabel.cli\n"
        f"sys.path.insert(0, {str(ROOT / 'bench')!r})\n"
        "from tracing import Tracer\n"
        "tracer = Tracer(hot_counters=True)\n"
        "tracer.install()\n"
        "from cxrlabel import localization\n"
        "assert localization.iou.__wrapped__ is not None\n"
        "tracer.uninstall()\n"
        "assert not hasattr(localization.iou, '__wrapped__')"
    )])
    assert proc.returncode == 0, proc.stderr.decode()

