"""Golden digests of the localization, evaluation and labelling commands.

`localize`, `eval-loc --mode iobb` and `eval-loc --mode iou` run in
process on three inputs:
- "generated": the benchmark's `make_localize` inputs at one seed, whose
  "%.4f" grids the byte decoder reads;
- "sci": `data/heatmaps_sci.tsv`, hand-written "%.3e" grids of three
  sizes that the byte decoder declines, so the per-row parser reads them;
- "bad_cell": that file with one cell made "nan", so every step fails;
- "generated_comment": the "generated" heatmaps with one "# x" line
  between two maps and no final line break, which the scan skips and
  adds; its outputs equal those of "generated".

`auc --roc-out`, `eval-nlp`, `stats` and `split` run in process on four
inputs built from the benchmark's `make_evaluate` tables and corpus:
- "evaluate": the files as generated, which the one-pass readers read;
- "evaluate_crlf": every file with `\r\n` line ends and one id of each
  CSV quoted, so the per-row `csv` parsers read them;
- "evaluate_bad_corpus": one corpus line with an unknown section tag, so
  `split` fails naming that line;
- "evaluate_bad_label": one gold row with a `2` cell, so `auc`,
  `eval-nlp` and `stats` fail naming that line.

`label` runs in process on six inputs, and `selftest` on none:
- "label_fixtures": the fixture corpus and parses, labelled plain, with
  `--propagate`, with `--label-set x14` and with `--external-mentions`;
- "label_generated": the benchmark's `make_label` inputs at one seed,
  five copies of the fixtures, with `--propagate`; they hold the
  fixture's token of two heads;
- "label_crlf": that deps file with `\r\n` line ends;
- "label_ws_sep": that deps file with one blank separator line made
  whitespace-only and no final line break;
- "label_bad_head": that deps file with one head out of range, so
  `label` fails naming that row;
- "label_shared_first": the "label_generated" inputs with `--rules
  data/rules_shared_first.tsv`, the shipped rules plus a lowest-ranked
  one whose first trigger word also starts two earlier rules.

The SHA-256 of each input, and of each step's exit code, stdout, stderr
(the inputs' directory written `<inputs>`) and output files, must equal
`data/golden.json`. The steps run in `data/`,
so that a rules file named there prints the same `config:` line anywhere. `run_case` wrote the
localization digests before the localize path was moved onto arrays, and
the evaluation digests before the corpus and label readers were rewritten
to read their files once, and the label digests before sentences and
parses were built as string columns, and rewrote the stderr digests of
the failing steps when a bad-input error came to name its file; the file
is rewritten only for an intended change of output.
"""

import contextlib
import hashlib
import io
import json
import os
import runpy
from pathlib import Path

import pytest

from cxrlabel import cli

DATA = Path(__file__).resolve().parent / "data"
GENERATE = runpy.run_path(str(Path(__file__).parent.parent / "bench" / "generate.py"))
SEED = 4
LOCALIZE_CASES = ("generated", "sci", "bad_cell", "generated_comment")
EVALUATE_CASES = ("evaluate", "evaluate_crlf", "evaluate_bad_corpus",
                  "evaluate_bad_label")
LABEL_CASES = ("label_fixtures", "label_generated", "label_crlf", "label_ws_sep",
               "label_bad_head", "label_shared_first", "selftest")
CASES = LOCALIZE_CASES + EVALUATE_CASES + LABEL_CASES
# The line of data/heatmaps_sci.tsv (from 0) whose first cell "bad_cell"
# turns into nan: a grid row of the fourth map.
BAD_LINE = 18
# The map of the generated heatmaps that "generated_comment" puts a
# comment line before.
COMMENT_MAP = 100
EVALUATE_ROWS = 600
# At this seed some ROC rates fall exactly halfway between two millionths,
# so the digests also pin how `--roc-out` rounds such a tie.
EVALUATE_SEED = 29
# The line (from 0) that each evaluate case edits: a corpus line past the
# first 8 KB, a gold row, and the row of each CSV whose id is quoted.
BAD_CORPUS_LINE = 401
BAD_LABEL_LINE = 300
QUOTED_LINE = 7
LABEL_SEED = 3
LABEL_COPIES = 5
# The deps line (from 0) that "label_bad_head" gives head 99: a token row
# of a block past the first hundred lines.
BAD_HEAD_LINE = 150
# External mentions of the fixture corpus: a new one, one equal to an
# internal hit, and one inside an internal hit of the same category.
EXTERNAL_MENTIONS = (
    "r02\tfindings\t0\t1\t1\tC0032285\tPneumonia\n"
    "r03\tfindings\t0\t1\t1\tC0018800\tCardiomegaly\n"
    "r01\tfindings\t0\t6\t6\tC0013687\tEffusion\n"
)


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def edit_lines(path: Path, edit, end: str = "\n") -> None:
    """Rewrite `path` with `edit` applied to its list of lines, joined by `end`."""
    lines = path.read_text(encoding="utf-8").split("\n")
    edit(lines)
    path.write_bytes(end.join(lines).encode("utf-8"))


def make_evaluate_inputs(case: str, directory: Path) -> dict[str, Path]:
    inputs = dict(GENERATE["make_evaluate"](DATA, directory, EVALUATE_SEED,
                                            rows=EVALUATE_ROWS).files)

    def quote_id(lines):
        report_id, _, rest = lines[QUOTED_LINE].partition(",")
        lines[QUOTED_LINE] = f'"{report_id}",{rest}'

    def unknown_tag(lines):
        report_id, patient_id, first, *rest = lines[BAD_CORPUS_LINE].split("\t")
        first = "summary=" + first.partition("=")[2]
        lines[BAD_CORPUS_LINE] = "\t".join([report_id, patient_id, first, *rest])

    def two_cell(lines):
        report_id, _, rest = lines[BAD_LABEL_LINE].partition(",")
        lines[BAD_LABEL_LINE] = f"{report_id},2,{rest.partition(',')[2]}"

    if case == "evaluate_crlf":
        for name in ("gold", "pred", "scores"):
            edit_lines(inputs[name], quote_id, "\r\n")
        edit_lines(inputs["corpus"], lambda lines: None, "\r\n")
    elif case == "evaluate_bad_corpus":
        edit_lines(inputs["corpus"], unknown_tag)
    elif case == "evaluate_bad_label":
        edit_lines(inputs["gold"], two_cell)
    return inputs


def make_label_inputs(case: str, directory: Path) -> dict[str, Path]:
    if case == "selftest":
        return {}
    if case == "label_fixtures":
        mentions = directory / "mentions.tsv"
        mentions.write_text(EXTERNAL_MENTIONS, encoding="utf-8")
        return {"corpus": DATA / "labeled_corpus.tsv",
                "deps": DATA / "labeled_deps.tsv", "mentions": mentions}
    files = GENERATE["make_label"](DATA, directory, LABEL_SEED,
                                   copies=LABEL_COPIES).files
    inputs = {"corpus": files["corpus"], "deps": files["deps"]}

    def whitespace_separator(lines):
        lines[lines.index("")] = " \t"
        lines.pop()  # the empty string after the final line break

    def bad_head(lines):
        position, surface, _, deprel = lines[BAD_HEAD_LINE].split("\t")
        lines[BAD_HEAD_LINE] = "\t".join([position, surface, "99", deprel])

    if case == "label_crlf":
        edit_lines(inputs["deps"], lambda lines: None, "\r\n")
    elif case == "label_ws_sep":
        edit_lines(inputs["deps"], whitespace_separator)
    elif case == "label_bad_head":
        edit_lines(inputs["deps"], bad_head)
    elif case == "label_shared_first":
        inputs["rules"] = DATA / "rules_shared_first.tsv"
    return inputs


def make_inputs(case: str, directory: Path) -> dict[str, Path]:
    if case in EVALUATE_CASES:
        return make_evaluate_inputs(case, directory)
    if case in LABEL_CASES:
        return make_label_inputs(case, directory)
    if case in ("generated", "generated_comment"):
        inputs = dict(GENERATE["make_localize"](directory, SEED).files)
        if case == "generated_comment":
            def comment(lines):
                lines.insert(COMMENT_MAP * (GENERATE["GRID"] + 1), "# x")
                lines.pop()  # the empty string after the final line break

            edit_lines(inputs["heatmaps"], comment)
        return inputs
    inputs = {"heatmaps": DATA / "heatmaps_sci.tsv", "gt": DATA / "gt_sci.tsv"}
    if case == "bad_cell":
        lines = inputs["heatmaps"].read_text(encoding="utf-8").split("\n")
        lines[BAD_LINE] = "nan" + lines[BAD_LINE][lines[BAD_LINE].index(" "):]
        inputs["heatmaps"] = directory / "heatmaps.tsv"
        inputs["heatmaps"].write_text("\n".join(lines), encoding="utf-8")
    return inputs


def localize_steps(inputs: dict[str, Path], directory: Path) -> list:
    dets = directory / "dets.tsv"
    steps = [("localize", ["localize", "--heatmaps", str(inputs["heatmaps"]),
                           "--out", str(dets)], [dets])]
    for mode in ("iobb", "iou"):
        table = directory / f"loc_{mode}.csv"
        steps.append((f"eval-loc-{mode}",
                      ["eval-loc", "--dets", str(dets), "--gt", str(inputs["gt"]),
                       "--mode", mode, "--out", str(table)], [table]))
    return steps


def evaluate_steps(inputs: dict[str, Path], directory: Path) -> list:
    i = {name: str(path) for name, path in inputs.items()}
    o = {name: directory / name for name in (
        "auc.csv", "roc.csv", "prf1.csv", "counts.csv", "matrix.csv", "split.tsv")}
    return [
        ("auc", ["auc", "--scores", i["scores"], "--labels", i["gold"],
                 "--out", str(o["auc.csv"]), "--roc-out", str(o["roc.csv"])],
         [o["auc.csv"], o["roc.csv"]]),
        ("eval-nlp", ["eval-nlp", "--pred", i["pred"], "--gold", i["gold"],
                      "--out", str(o["prf1.csv"])], [o["prf1.csv"]]),
        ("stats", ["stats", "--labels", i["gold"], "--out-counts",
                   str(o["counts.csv"]), "--out-matrix", str(o["matrix.csv"])],
         [o["counts.csv"], o["matrix.csv"]]),
        ("split", ["split", "--corpus", i["corpus"], "--out", str(o["split.tsv"])],
         [o["split.tsv"]]),
    ]


def label_steps(inputs: dict[str, Path], directory: Path) -> list:
    if not inputs:
        return [("selftest", ["selftest"], [])]
    if "mentions" in inputs:
        variants = [("label", []), ("label-propagate", ["--propagate"]),
                    ("label-x14", ["--label-set", "x14"]),
                    ("label-external", ["--external-mentions",
                                        str(inputs["mentions"])])]
    elif "rules" in inputs:
        variants = [("label-propagate", ["--propagate", "--rules",
                                         inputs["rules"].name])]
    else:
        variants = [("label-propagate", ["--propagate"])]
    steps = []
    for step, extra in variants:
        tsv, csv = directory / f"{step}.tsv", directory / f"{step}.csv"
        steps.append((step, ["label", "--corpus", str(inputs["corpus"]),
                             "--deps", str(inputs["deps"]), "--out-tsv", str(tsv),
                             "--out-csv", str(csv), *extra], [tsv, csv]))
    return steps


@contextlib.contextmanager
def in_directory(path: Path):
    """The block run with `path` as the working directory, as
    `contextlib.chdir` (Python 3.11 on) does."""
    previous = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(previous)


def run_case(case: str, directory: Path) -> dict:
    """The digests of the inputs and of every step of `case`."""
    inputs = make_inputs(case, directory)
    if case in LABEL_CASES:
        make_steps = label_steps
    elif case in EVALUATE_CASES:
        make_steps = evaluate_steps
    else:
        make_steps = localize_steps
    steps = make_steps(inputs, directory)
    record = {"inputs": {name: sha(path.read_bytes())
                         for name, path in sorted(inputs.items())}}
    for step, argv, outputs in steps:
        stdout, stderr = io.StringIO(), io.StringIO()
        with in_directory(DATA), contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            rc = cli.main(argv)
        # An error names its input file, which lies in this run's directory.
        errors = stderr.getvalue().replace(str(directory), "<inputs>")
        record[step] = {
            "rc": rc,
            "stdout": sha(stdout.getvalue().encode()),
            "stderr": sha(errors.encode()),
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
    generated = {step: golden["generated"][step] for step in golden["generated"]
                 if step != "inputs"}
    assert {step: golden["generated_comment"][step] for step in generated} == generated
    heatmaps = make_inputs("generated_comment", tmp_path)["heatmaps"].read_bytes()
    assert b"\n# x\nimg" in heatmaps and not heatmaps.endswith(b"\n")
    # The sci grids are ones the byte decoder declines.
    from cxrlabel import localization

    data = make_inputs("sci", tmp_path)["heatmaps"].read_bytes()
    maps, error = localization._scan(data, False)
    assert error is None and {size for _, _, size, *_ in maps} == {3, 4, 5}
    for size in (3, 4, 5):
        firsts = [first for _, _, s, _, first, _, _ in maps if s == size]
        length = data.index(b"\n", firsts[0]) + 1 - firsts[0]
        assert localization._fixed_width_grids(data, firsts, length, size) is None


def test_evaluate_cases_cover_both_readers_and_each_error(tmp_path):
    golden = json.loads((DATA / "golden.json").read_text(encoding="utf-8"))
    steps = ("auc", "eval-nlp", "stats", "split")
    for case in ("evaluate", "evaluate_crlf"):
        assert [golden[case][step]["rc"] for step in steps] == [0, 0, 0, 0]
    assert [golden["evaluate_bad_corpus"][step]["rc"] for step in steps] == [0, 0, 0, 2]
    assert [golden["evaluate_bad_label"][step]["rc"] for step in steps] == [2, 2, 2, 0]
    # Each crlf CSV holds a carriage return and a quote, either of which
    # sends it to the per-row parser.
    inputs = make_inputs("evaluate_crlf", tmp_path)
    for name in ("gold", "pred", "scores"):
        data = inputs[name].read_bytes()  # a header, then the rows
        assert data.count(b"\r\n") == EVALUATE_ROWS + 1 and data.count(b'"') == 2
    assert inputs["corpus"].read_bytes().count(b"\r\n") == EVALUATE_ROWS


def test_label_cases_cover_each_deps_layout_and_an_error(tmp_path):
    golden = json.loads((DATA / "golden.json").read_text(encoding="utf-8"))
    step = "label-propagate"
    generated = golden["label_generated"][step]
    assert generated["rc"] == 0
    assert golden["label_crlf"][step] == golden["label_ws_sep"][step] == generated
    assert golden["label_bad_head"][step]["rc"] == 2
    # The added rule covers no mention head of these inputs, so the labels
    # are those of the shipped rules; only the config line differs.
    shared = golden["label_shared_first"][step]
    outputs = ("label-propagate.tsv", "label-propagate.csv")
    assert [shared[name] for name in outputs] == [generated[name] for name in outputs]
    assert shared["stderr"] != generated["stderr"]
    assert golden["selftest"]["selftest"]["rc"] == 0
    deps = make_inputs("label_ws_sep", tmp_path)["deps"].read_bytes()
    assert b"\n \t\n" in deps and not deps.endswith(b"\n")
    # The generated parses hold the fixture's token of two heads.
    blocks = make_inputs("label_generated", tmp_path)["deps"].read_text().split("\n\n")
    positions = [[row.split("\t")[0] for row in block.split("\n")[1:] if row]
                 for block in blocks]
    assert any(len(set(p)) < len(p) for p in positions)
