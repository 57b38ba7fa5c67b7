"""numpy loads on the first numeric call, never at import.

`cxrlabel.lazy` registers numpy to load on its first attribute read, so
a process that only mines reports never runs numpy's import. This test
process has numpy loaded already, so each check runs a fresh interpreter.
numpy's own import always loads its `numpy.*` submodules, so none of
them in `sys.modules` means numpy has not run.
"""

import ast
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cxrlabel
from cxrlabel import lazy
from cxrlabel.cli import main

ROOT = Path(__file__).parent.parent
DATA = Path(__file__).parent / "data"
PACKAGE = Path(cxrlabel.__file__).parent
CORPUS = str(DATA / "labeled_corpus.tsv")
DEPS = str(DATA / "labeled_deps.tsv")
GOLD = str(DATA / "gold_labels.csv")

# Runs the CLI with the arguments after the first, and writes to the file
# named first the numpy submodules loaded before and after the run.
CLI_PROBE = """
import json, sys
from cxrlabel.cli import main

def numpy_modules():
    return sorted(m for m in sys.modules if m.startswith("numpy."))

state, *argv = sys.argv[1:]
before = numpy_modules()
code = main(argv)
with open(state, "w") as handle:
    json.dump({"before": before, "after": numpy_modules()}, handle)
sys.exit(code)
"""


def setup_code() -> str:
    """The set-up launch the benchmark times, read from its source."""
    tree = ast.parse((ROOT / "bench" / "worker.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            getattr(target, "id", None) == "SETUP_CODE" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/worker.py defines no SETUP_CODE")


def fresh(args, cwd=None) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that finds this checkout's package."""
    paths = [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, timeout=120
    )


def fresh_cli(argv, cwd):
    """Exit code, stdout, stderr and numpy state of a fresh CLI run."""
    state = Path(cwd) / "numpy_state.json"
    proc = fresh(["-c", CLI_PROBE, str(state), *argv], cwd=cwd)
    numpy_state = json.loads(state.read_text())
    state.unlink()
    return proc.returncode, proc.stdout, proc.stderr, numpy_state


def test_no_module_imports_numpy_but_the_handle():
    statements = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "lazy.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name == "numpy" or name.startswith("numpy.") for name in names):
                statements.append(f"{path.relative_to(PACKAGE)}:{node.lineno}")
    assert statements == []


def test_handle_is_the_numpy_module():
    import numpy

    assert lazy.np is numpy
    with pytest.raises(ModuleNotFoundError):
        lazy._lazy_module("cxrlabel_no_such_module")


def test_benchmark_setup_leaves_numpy_unloaded():
    proc = fresh([
        "-c",
        setup_code() + "; import sys; "
        "print(sorted(m for m in sys.modules if m.startswith('numpy.')))",
    ])
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode().splitlines()[-1] == "[]"


def test_label_leaves_numpy_unloaded(tmp_path):
    code, _, stderr, state = fresh_cli([
        "label", "--corpus", CORPUS, "--deps", DEPS, "--propagate",
        "--out-tsv", "labels.tsv", "--out-csv", "labels.csv",
    ], tmp_path)
    assert code == 0, stderr.decode()
    assert state == {"before": [], "after": []}
    assert (tmp_path / "labels.csv").stat().st_size > 0


# --- each numeric subcommand as the first numpy user ---

def write_heatmaps(path):
    """Three 16x16 maps, each a Gaussian blob or two, in the heatmap
    text format."""
    lines = []
    for image, label, blobs in [
        ("i1", "Mass", [(4, 5)]),
        ("i1", "Nodule", [(3, 3), (12, 11)]),
        ("i2", "Mass", [(9, 8)]),
    ]:
        lines.append(f"{image}\t{label}\t16\t64")
        for y in range(16):
            row = [
                max(math.exp(-((y - cy) ** 2 + (x - cx) ** 2) / 6) for cy, cx in blobs)
                for x in range(16)
            ]
            lines.append(" ".join(f"{value:.6g}" for value in row))
    path.write_text("\n".join(lines) + "\n")


def write_scores(path):
    """A score per report and class of the gold table, higher on average
    for the positive cells, with ties."""
    rows = Path(GOLD).read_text().splitlines()
    header = rows[0].split(",")[:-1]
    out = [",".join(header)]
    for i, row in enumerate(rows[1:]):
        report_id, *cells, _ = row.split(",")
        out.append(",".join([report_id] + [
            f"{(int(cell) * 3 + (i * 7 + k * 5) % 11) / 14:.4f}"
            for k, cell in enumerate(cells)
        ]))
    path.write_text("\n".join(out) + "\n")


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Numeric inputs beside the fixtures; the detections are the boxes
    `localize` finds on the heatmaps."""
    root = tmp_path_factory.mktemp("inputs")
    write_heatmaps(root / "maps.tsv")
    write_scores(root / "scores.csv")
    assert main([
        "localize", "--heatmaps", str(root / "maps.tsv"),
        "--out", str(root / "dets.tsv"),
    ]) == 0
    (root / "gt.tsv").write_text(
        "i1\tMass\t10\t10\t20\t20\n"
        "i1\tNodule\t8\t8\t12\t12\n"
        "i1\tNodule\t40\t40\t12\t16\n"
        "i2\tMass\t30\t28\t10\t12\n"
        "i3\tMass\t0\t0\t10\t10\n"
    )
    return root


NUMERIC_RUNS = {
    "auc": lambda d: [
        "auc", "--scores", f"{d}/scores.csv", "--labels", GOLD,
        "--out", "auc.csv", "--roc-out", "roc.csv",
    ],
    "localize": lambda d: ["localize", "--heatmaps", f"{d}/maps.tsv", "--out", "boxes.tsv"],
    "eval-loc-iobb": lambda d: [
        "eval-loc", "--dets", f"{d}/dets.tsv", "--gt", f"{d}/gt.tsv",
        "--mode", "iobb", "--out", "loc.csv",
    ],
    "eval-loc-iou": lambda d: [
        "eval-loc", "--dets", f"{d}/dets.tsv", "--gt", f"{d}/gt.tsv",
        "--mode", "iou", "--t", "0.1", "--out", "loc.csv",
    ],
    "stats": lambda d: [
        "stats", "--labels", GOLD, "--out-counts", "counts.csv",
        "--out-matrix", "matrix.csv",
    ],
    "split": lambda d: ["split", "--corpus", CORPUS, "--out", "split.tsv"],
    "selftest": lambda d: ["selftest"],
}


def outputs(directory) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(Path(directory).iterdir())}


@pytest.mark.parametrize("run", sorted(NUMERIC_RUNS))
def test_first_numeric_call_loads_numpy_with_the_same_outputs(
    run, inputs, tmp_path, capsysbinary, monkeypatch
):
    argv = NUMERIC_RUNS[run](inputs)
    (tmp_path / "fresh").mkdir()
    code, stdout, stderr, state = fresh_cli(argv, tmp_path / "fresh")
    assert state["before"] == []
    assert state["after"]

    (tmp_path / "here").mkdir()
    monkeypatch.chdir(tmp_path / "here")
    assert main(argv) == code == 0
    captured = capsysbinary.readouterr()
    assert (stdout, stderr) == (captured.out, captured.err)
    assert outputs(tmp_path / "fresh") == outputs(tmp_path / "here")
