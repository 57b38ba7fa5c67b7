"""Golden digests of the localization commands.

`localize`, `eval-loc --mode iobb` and `eval-loc --mode iou` run in
process on three inputs:
- "generated": the benchmark's `make_localize` inputs at one seed, whose
  "%.4f" grids the byte decoder reads;
- "sci": `data/heatmaps_sci.tsv`, hand-written "%.3e" grids of three
  sizes that the byte decoder declines, so `loadtxt` reads them;
- "bad_cell": that file with one cell made "nan", so every step fails.

The SHA-256 of each input, and of each step's exit code, stdout, stderr
and output files, must equal `data/golden.json`. `run_case` wrote that
file before the localize path was moved onto arrays; it is rewritten
only for an intended change of output.
"""

import contextlib
import hashlib
import io
import json
import runpy
from pathlib import Path

import pytest

from cxrlabel import cli

DATA = Path(__file__).parent / "data"
GENERATE = runpy.run_path(str(Path(__file__).parent.parent / "bench" / "generate.py"))
SEED = 4
CASES = ("generated", "sci", "bad_cell")
# The line of data/heatmaps_sci.tsv (from 0) whose first cell "bad_cell"
# turns into nan: a grid row of the fourth map.
BAD_LINE = 18


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def make_inputs(case: str, directory: Path) -> dict[str, Path]:
    if case == "generated":
        return dict(GENERATE["make_localize"](directory, SEED).files)
    inputs = {"heatmaps": DATA / "heatmaps_sci.tsv", "gt": DATA / "gt_sci.tsv"}
    if case == "bad_cell":
        lines = inputs["heatmaps"].read_text(encoding="utf-8").split("\n")
        lines[BAD_LINE] = "nan" + lines[BAD_LINE][lines[BAD_LINE].index(" "):]
        inputs["heatmaps"] = directory / "heatmaps.tsv"
        inputs["heatmaps"].write_text("\n".join(lines), encoding="utf-8")
    return inputs


def run_case(case: str, directory: Path) -> dict:
    """The digests of the inputs and of every step of `case`."""
    inputs = make_inputs(case, directory)
    dets = directory / "dets.tsv"
    steps = [("localize", ["localize", "--heatmaps", str(inputs["heatmaps"]),
                           "--out", str(dets)], [dets])]
    for mode in ("iobb", "iou"):
        table = directory / f"loc_{mode}.csv"
        steps.append((f"eval-loc-{mode}",
                      ["eval-loc", "--dets", str(dets), "--gt", str(inputs["gt"]),
                       "--mode", mode, "--out", str(table)], [table]))
    record = {"inputs": {name: sha(path.read_bytes())
                         for name, path in sorted(inputs.items())}}
    for step, argv, outputs in steps:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = cli.main(argv)
        record[step] = {
            "rc": rc,
            "stdout": sha(stdout.getvalue().encode()),
            "stderr": sha(stderr.getvalue().encode()),
            **{path.name: sha(path.read_bytes()) if path.exists() else None
               for path in outputs},
        }
    return record


@pytest.mark.parametrize("case", CASES)
def test_outputs_match_golden_digests(case, tmp_path, monkeypatch):
    monkeypatch.delenv(cli.ENV_CONFIG, raising=False)
    golden = json.loads((DATA / "golden.json").read_text(encoding="utf-8"))
    assert run_case(case, tmp_path) == golden[case]


def test_cases_cover_both_grid_readers_and_an_error(tmp_path):
    golden = json.loads((DATA / "golden.json").read_text(encoding="utf-8"))
    assert sorted(golden) == sorted(CASES)
    assert golden["generated"]["localize"]["rc"] == 0
    assert golden["sci"]["localize"]["rc"] == 0
    assert golden["bad_cell"]["localize"]["rc"] == 2
    # The sci grids are ones the byte decoder declines.
    from cxrlabel import localization

    lines = localization._Lines(make_inputs("sci", tmp_path)["heatmaps"].read_bytes())
    headers, error = localization._read_headers(lines)
    assert error is None and {size for _, _, size, _, _ in headers} == {3, 4, 5}
    for size in (3, 4, 5):
        starts = localization.np.array([i for _, _, s, _, i in headers if s == size])
        assert localization._fixed_width_grids(lines, starts, size) is None
