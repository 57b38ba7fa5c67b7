"""End-to-end tests for the command line interface."""

import argparse
import contextlib
import csv
import errno
import io
import math
import os
import re
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cxrlabel import cli, labeling, localization, negation, reports
from cxrlabel.cli import _box_order, _roc_block, main
from cxrlabel.errors import CxrLabelError
from cxrlabel.labeling import (
    _read_scores_by_row,
    get_config,
    read_labels_wide_csv,
    read_scores_csv,
)
from cxrlabel.lexicon import Lexicon
from cxrlabel.metrics import T_GRID_IOBB, T_GRID_IOU, roc_counts

from conftest import label_records, mutated_csv, roc_lines_by_points

DATA = Path(__file__).parent / "data"
CORPUS = str(DATA / "labeled_corpus.tsv")
DEPS = str(DATA / "labeled_deps.tsv")
GOLD = str(DATA / "gold_labels.csv")


def run_label(tmp_path, *extra):
    out_tsv = tmp_path / "labels.tsv"
    out_csv = tmp_path / "labels.csv"
    code = main([
        "label", "--corpus", CORPUS, "--deps", DEPS,
        "--out-tsv", str(out_tsv), "--out-csv", str(out_csv), *extra,
    ])
    return code, out_tsv, out_csv


SCORE_TOKENS = [
    "1_0", "nan", "inf", "-inf", "1e3", "0x1", "", " 0.5", "1.", "+2", "-0",
    "\u0661", "abc", "1e400", "0.1", "r0",
]


@st.composite
def scores_csv_texts(draw):
    classes = draw(st.sampled_from([("A",), ("A", "B", "C")]))
    rows = [["report_id", *classes]]
    for i in range(draw(st.integers(0, 6))):
        values = draw(st.lists(
            st.floats(-1e6, 1e6, allow_nan=False), min_size=len(classes),
            max_size=len(classes),
        ))
        rows.append([f"r{i}", *map(repr, values)])
    return draw(mutated_csv(rows, SCORE_TOKENS))


# Edits of a fixed-width scores file, each of which the byte tier declines.
FIXED_WIDTH_EDITS = [
    "wider", "narrower", "-", "+", " ", "exponent", "extra column",
    "missing column", "extra class", "missing class", "blank line",
    "repeated id",
]


@st.composite
def fixed_width_scores(draw):
    """(d, rows): a scores CSV of "%.{d}f" cells, d from 1 to 8, of values
    in [0, 10) (header first); ids with and without non-ASCII bytes."""
    classes = draw(st.sampled_from([("A",), ("A", "B", "C")]))
    d = draw(st.integers(1, 8))
    rows = [["report_id", *classes]]
    for i in range(draw(st.integers(1, 6))):
        values = draw(st.lists(st.integers(0, 10 ** (d + 1) - 1),
                               min_size=len(classes), max_size=len(classes)))
        rid = draw(st.sampled_from(["r", "\u00efd", ""])) + str(i)
        rows.append([rid, *(f"{v // 10 ** d}.{v % 10 ** d:0{d}d}" for v in values)])
    return d, rows


def csv_text(rows: list[list[str]], final_newline: bool = True) -> str:
    text = "\n".join(",".join(row) for row in rows)
    return text + "\n" if final_newline else text


@st.composite
def fixed_width_scores_texts(draw):
    """A fixed-width scores CSV, then either the `mutated_csv` edits or one
    edit of FIXED_WIDTH_EDITS, with or without a final newline."""
    d, rows = draw(fixed_width_scores())
    if draw(st.booleans()):
        return draw(mutated_csv(rows, SCORE_TOKENS + ["0." + "0" * d]))
    edit = draw(st.sampled_from(FIXED_WIDTH_EDITS))
    k = draw(st.integers(1, len(rows) - 1))
    j = draw(st.integers(1, len(rows[k]) - 1))
    row = rows[k]
    if edit == "wider":
        row[j] += "5"
    elif edit == "narrower":
        row[j] = row[j][:-1]
    elif edit in ("-", "+", " "):
        row[j] = edit + row[j]
    elif edit == "exponent":
        row[j] = row[j] + "e0" if d < 3 else row[j][:-2] + "e0"
    elif edit == "extra column":
        row.append(row[-1])
    elif edit == "missing column":
        del row[-1]
    elif edit == "extra class":
        rows[0].append("Z")
    elif edit == "missing class":
        del rows[0][-1]
    elif edit == "blank line":
        rows.insert(k, [])
    elif edit == "repeated id":
        row[0] = rows[draw(st.integers(1, len(rows) - 1))][0]
    return csv_text(rows, draw(st.booleans()))


def scores_or_error(read, source):
    try:
        classes, ids, values = read(source)
    except CxrLabelError as err:
        return str(err)
    return classes, ids, values.dtype, values.shape, values.tobytes()


def last_error_line(capsys, argv):
    assert main(argv) == 2
    return capsys.readouterr().err.splitlines()[-1]


# Each input reader: the subcommand that runs it, the flag naming its
# file, and two lines of valid text to put before a line that is not UTF-8.
UTF8_READERS = {
    "config": ("split", "--config", "seed=1\nloss=wcel\n"),
    "scores": ("auc", "--scores", "report_id,A\nr1,0.9\n"),
    "labels": ("stats", "--labels", "report_id,A,status\nr1,1,TARGET_FINDINGS\n"),
    "lexicon": ("label", "--lexicon", "C0004144\tAtelectasis\tT047\tatelectasis\n"
                "# comment\n"),
    "external-mentions": ("label", "--external-mentions", "# comment\n\n"),
    "heatmaps": ("localize", "--heatmaps", "i1\tMass\t1\t64\n0.5\n"),
    "boxes": ("eval-loc", "--dets", "i1\tc\t0\t0\t10\t10\t60\n# comment\n"),
    "rules": ("label", "--rules", "# comment\n\n"),
    "corpus": ("split", "--corpus", "r1\tp1\tfindings=No effusion.\n# comment\n"),
    "deps": ("label", "--deps", "#sent\tr1\tfindings\t0\t1\n1\tNo\t0\t-\n"),
}

# Two valid lines of a lexicon (the text above only has to be UTF-8).
GOOD_LEXICON = "C0032285\tPneumonia\tdsyn\tpneumonia\n# comment\n"

# For each reader of UTF8_READERS, a third line it rejects and the reason.
PARSE_ERRORS = {
    "config": ("bogus\n", "bad entry 'bogus'"),
    "scores": ("r2,high\n", "could not convert string to float: 'high'"),
    "labels": ("r2,x,NORMAL\n", "invalid literal for int() with base 10: 'x'"),
    "lexicon": ("C0032326\tPneumothorax\n", "lexicon row needs 4 fields"),
    "external-mentions": ("r1\tfindings\t0\n", "mention row needs 7 fields"),
    "heatmaps": ("i2\tMass\t0\t64\n", "heatmap size must be >= 1, got 0"),
    "boxes": ("i1\tc\tnan\t0\t10\t10\t60\n", "non-finite box geometry"),
    "rules": ("n1\tnegatio\tno\tup:*\tDISEASE\tendpoint\n",
              "unknown polarity 'negatio'"),
    "corpus": ("r2\t\tfindings=No effusion.\n", "missing patient_id"),
    "deps": ("#sent\tr1\tfindings\t0\t1\n", "duplicate sentence r1/findings/0"),
}


def command_argv(command, tmp_path):
    """Arguments that run `command` on valid fixture inputs; an input
    flag given after them takes precedence."""
    out = str(tmp_path / "out")
    labels = tmp_path / "labels.csv"
    labels.write_text("report_id,A,status\nr1,1,TARGET_FINDINGS\nr2,0,NORMAL\n")
    scores = tmp_path / "scores.csv"
    scores.write_text("report_id,A\nr1,0.9\nr2,0.1\n")
    heatmaps = tmp_path / "maps.tsv"
    heatmaps.write_text("i1\tc\t1\t64\n0.5\n")
    dets = tmp_path / "dets.tsv"
    dets.write_text("i1\tc\t0\t0\t10\t10\t60\n")
    gt = tmp_path / "gt.tsv"
    gt.write_text("i1\tc\t0\t0\t10\t10\n")
    return {
        "split": ["split", "--corpus", CORPUS, "--out", out],
        "auc": ["auc", "--scores", str(scores), "--labels", str(labels),
                "--out", out],
        "stats": ["stats", "--labels", str(labels), "--out-counts", out,
                  "--out-matrix", out],
        "label": ["label", "--corpus", CORPUS, "--deps", DEPS,
                  "--out-tsv", out, "--out-csv", out],
        "localize": ["localize", "--heatmaps", str(heatmaps), "--out", out],
        "eval-loc": ["eval-loc", "--dets", str(dets), "--gt", str(gt),
                     "--mode", "iou", "--out", out],
    }[command]


# Class names whose CSV cell is plain, quoted, non-ASCII, or holds a quote.
ROC_NAMES = ["A", "A,B", "\u00d6dem", 'say "x"']

# Totals n at which some rates k / n lie exactly halfway between two
# six-decimal values, that is 2 * (k * 10**6 % n) == n.
TIE_TOTALS = [128, 384, *(2**7 * 5**j for j in range(1, 7))]


@st.composite
def tie_heavy_counts(draw, size):
    """Cumulative counts for `roc_points`: `size` sorted values in [0, n],
    most of them at rational ties, then the total n."""
    n = draw(st.sampled_from(TIE_TOTALS))
    period = n // math.gcd(n, 10**6)
    residues = [r for r in range(period) if 2 * (r * 10**6 % n) == n]
    ties = st.builds(
        lambda q, r: q * period + r,
        st.integers(0, n // period - 1), st.sampled_from(residues),
    )
    ks = draw(st.lists(ties | ties | st.integers(0, n),
                       min_size=size, max_size=size))
    return np.array(sorted(ks) + [n], dtype=np.int64)


class TestExitCodes:
    def test_label_happy_path_exits_zero(self, tmp_path):
        code, out_tsv, out_csv = run_label(tmp_path)
        assert code == 0
        assert out_tsv.exists() and out_csv.exists()

    def test_missing_corpus_exits_two(self, tmp_path, capsys):
        code = main([
            "label", "--corpus", str(tmp_path / "nope.tsv"), "--deps", DEPS,
            "--out-tsv", str(tmp_path / "a"), "--out-csv", str(tmp_path / "b"),
        ])
        assert code == 2
        assert "error: corpus: not found" in capsys.readouterr().err

    def test_missing_rules_file_exits_two(self, tmp_path, capsys):
        code, _, _ = run_label(tmp_path, "--rules", str(tmp_path / "no.rules"))
        assert code == 2
        assert "error: rules: not found" in capsys.readouterr().err

    def test_malformed_input_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("r1\n")
        code = main([
            "label", "--corpus", str(bad), "--deps", DEPS,
            "--out-tsv", str(tmp_path / "a"), "--out-csv", str(tmp_path / "b"),
        ])
        assert code == 2
        assert capsys.readouterr().err.splitlines()[-1].startswith("error: ")

    def test_eval_nlp_id_mismatch_exits_two(self, tmp_path, capsys):
        pred = tmp_path / "pred.csv"
        lines = Path(GOLD).read_text().splitlines()
        pred.write_text("\n".join(lines[:-1]) + "\n")  # drop r20
        code = main([
            "eval-nlp", "--pred", str(pred), "--gold", GOLD,
            "--out", str(tmp_path / "out.csv"),
        ])
        assert code == 2
        assert "error: " in capsys.readouterr().err

    @pytest.mark.parametrize("cell, status", [
        ("x", "NORMAL"),  # non-integer label cell
        ("0", "HEALTHY"),  # unknown status
    ])
    def test_bad_label_csv_cell_exits_two(self, tmp_path, capsys, cell, status):
        pred = tmp_path / "pred.csv"
        lines = Path(GOLD).read_text().splitlines()
        lines[2] = f"r02,{cell},0,0,0,0,0,0,0,{status}"
        pred.write_text("\n".join(lines) + "\n")
        code = main([
            "eval-nlp", "--pred", str(pred), "--gold", GOLD,
            "--out", str(tmp_path / "out.csv"),
        ])
        assert code == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith(f"error: {pred}: line 3: ")

    @pytest.mark.parametrize("score", [
        "high", "nan", "inf",
        "0.5,0.7",  # three cells under a two-column header
    ])
    def test_bad_score_cell_exits_two(self, tmp_path, capsys, score):
        labels = tmp_path / "labels.csv"
        labels.write_text("report_id,A,status\ni1,1,TARGET_FINDINGS\ni2,0,NORMAL\n")
        scores = tmp_path / "scores.csv"
        scores.write_text(f"report_id,A\ni1,0.9\ni2,{score}\n")
        code = main([
            "auc", "--scores", str(scores), "--labels", str(labels),
            "--out", str(tmp_path / "auc.csv"),
        ])
        assert code == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith(f"error: {scores}: line 3: ")
        assert not (tmp_path / "auc.csv").exists()

    @pytest.mark.parametrize(
        "geometry", ["nan\t0\t10\t10", "0\t0\t10\t-inf"], ids=["x-nan", "h-inf"]
    )
    def test_non_finite_box_geometry_exits_two(self, tmp_path, capsys, geometry):
        gt = tmp_path / "gt.tsv"
        gt.write_text(f"i1\tc\t0\t0\t10\t10\ni1\tc\t{geometry}\n")
        dets = tmp_path / "dets.tsv"
        dets.write_text("i1\tc\t0\t0\t10\t10\t60\n")
        out = tmp_path / "loc.csv"
        code = main([
            "eval-loc", "--dets", str(dets), "--gt", str(gt), "--mode", "iou",
            "--t", "0.3", "--out", str(out),
        ])
        assert code == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert last == f"error: {gt}: line 2: non-finite box geometry"
        assert not out.exists()

    @pytest.mark.parametrize(
        "extent", ["0\t10", "10\t0"], ids=["zero-width", "zero-height"]
    )
    def test_zero_area_detection_exits_two(self, tmp_path, capsys, extent):
        gt = tmp_path / "gt.tsv"
        gt.write_text("i1\tc\t0\t0\t10\t10\n")
        dets = tmp_path / "dets.tsv"
        dets.write_text(f"i1\tc\t0\t0\t10\t10\t60\ni1\tc\t0\t0\t{extent}\t60\n")
        out = tmp_path / "loc.csv"
        code = main([
            "eval-loc", "--dets", str(dets), "--gt", str(gt), "--mode", "iobb",
            "--t", "0.3", "--out", str(out),
        ])
        assert code == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert last == f"error: {dets}: line 2: detection box needs positive w and h"
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["iobb", "iou"])
    def test_detection_whose_area_underflows_exits_two_at_its_line(
        self, tmp_path, capsys, mode
    ):
        gt = tmp_path / "gt.tsv"
        gt.write_text("i1\tc\t0\t0\t10\t10\n")
        dets = tmp_path / "dets.tsv"
        dets.write_text("i1\tc\t0\t0\t10\t10\t60\ni1\tc\t0\t0\t1e-200\t1e-200\t60\n")
        out = tmp_path / "loc.csv"
        last = last_error_line(capsys, [
            "eval-loc", "--dets", str(dets), "--gt", str(gt), "--mode", mode,
            "--out", str(out),
        ])
        assert last == (
            f"error: {dets}: line 2: detection box area 1e-200 * 1e-200 underflows to 0"
        )
        assert not out.exists()

    @pytest.mark.parametrize("row, reason", [
        ("r1,0,0,2,0,0,0,0,0,TARGET_FINDINGS", "non-binary label vector for r1"),
        ("r1,0,0,0,0,0,0,0,0,TARGET_FINDINGS",
         "status TARGET_FINDINGS inconsistent with vector for r1"),
    ], ids=["non-binary", "all-zero-target"])
    def test_label_row_contradiction_exits_two_with_its_line(
        self, tmp_path, capsys, row, reason
    ):
        labels = tmp_path / "labels.csv"
        labels.write_text(Path(GOLD).read_text().splitlines()[0] + f"\n{row}\n")
        last = last_error_line(capsys, [
            "stats", "--labels", str(labels),
            "--out-counts", str(tmp_path / "c.csv"),
            "--out-matrix", str(tmp_path / "m.csv"),
        ])
        assert last == f"error: {labels}: line 2: {reason}"

    @pytest.mark.parametrize("command", ["stats", "eval-nlp", "auc"])
    def test_duplicate_report_id_exits_two(self, tmp_path, capsys, command):
        lines = Path(GOLD).read_text().splitlines()
        repeated = tmp_path / "repeated.csv"
        repeated.write_text("\n".join(lines[:3] + lines[2:3]) + "\n")
        out = tmp_path / "out.csv"
        if command == "stats":
            argv = ["stats", "--labels", str(repeated), "--out-counts", str(out),
                    "--out-matrix", str(tmp_path / "m.csv")]
        elif command == "eval-nlp":
            argv = ["eval-nlp", "--pred", str(repeated), "--gold", GOLD,
                    "--out", str(out)]
        else:
            scores = tmp_path / "scores.csv"
            scores.write_text("report_id,A\nr1,0.1\nr2,0.9\nr1,0.4\n")
            labels = tmp_path / "labels.csv"
            labels.write_text(
                "report_id,A,status\nr1,0,NORMAL\nr2,1,TARGET_FINDINGS\n"
            )
            argv = ["auc", "--scores", str(scores), "--labels", str(labels),
                    "--out", str(out)]
        last = last_error_line(capsys, argv)
        rid = "r1" if command == "auc" else lines[2].split(",")[0]
        path = scores if command == "auc" else repeated
        assert last == f"error: {path}: line 4: duplicate report id '{rid}'"
        assert not out.exists()

    @pytest.mark.parametrize("command, where", [
        ("stats", "labels"), ("eval-nlp", "pred"), ("eval-nlp", "gold"),
        ("auc", "labels"), ("auc", "scores"),
    ])
    def test_repeated_class_name_exits_two_with_line_1(
        self, tmp_path, capsys, command, where
    ):
        labels = "report_id,A,B,status\nr1,1,0,TARGET_FINDINGS\nr2,0,0,NORMAL\n"
        texts = {"labels": labels, "pred": labels, "gold": labels,
                 "scores": "report_id,A,B\nr1,0.9,0.2\nr2,0.1,0.8\n"}
        texts[where] = texts[where].replace(",B", ",A", 1)
        paths = {}
        for name, text in texts.items():
            paths[name] = str(tmp_path / f"{name}.csv")
            Path(paths[name]).write_text(text)
        out = str(tmp_path / "out.csv")
        argv = {
            "stats": ["stats", "--labels", paths["labels"], "--out-counts", out,
                      "--out-matrix", str(tmp_path / "m.csv")],
            "eval-nlp": ["eval-nlp", "--pred", paths["pred"], "--gold", paths["gold"],
                         "--out", out],
            "auc": ["auc", "--scores", paths["scores"], "--labels", paths["labels"],
                    "--out", out],
        }[command]
        last = last_error_line(capsys, argv)
        assert last == f"error: {paths[where]}: line 1: repeated class name 'A'"
        assert not Path(out).exists()

    def test_duplicate_corpus_report_id_names_its_line(self, tmp_path, capsys):
        lines = Path(CORPUS).read_text().splitlines()
        corpus = tmp_path / "corpus.tsv"
        corpus.write_text("\n".join(lines + lines[1:2]) + "\n")
        last = last_error_line(capsys, [
            "split", "--corpus", str(corpus), "--out", str(tmp_path / "s.tsv"),
        ])
        assert last == (
            f"error: {corpus}: line {len(lines) + 1}: duplicate report id 'r01'"
        )

    def test_duplicate_sentence_header_names_its_line(self, tmp_path, capsys):
        lines = Path(DEPS).read_text().splitlines()
        first_block = lines[:lines.index("")]
        deps = tmp_path / "deps.tsv"
        deps.write_text("\n".join(lines + [""] + first_block) + "\n")
        last = last_error_line(capsys, [
            "label", "--corpus", CORPUS, "--deps", str(deps),
            "--out-tsv", str(tmp_path / "a"), "--out-csv", str(tmp_path / "b"),
        ])
        assert last == (
            f"error: {deps}: line {len(lines) + 2}: duplicate sentence r01/findings/0"
        )

    def test_huge_deps_token_count_exits_two_at_its_header(self, tmp_path, capsys):
        deps = tmp_path / "deps.tsv"
        deps.write_text("#sent\tR\tfindings\t0\t2000000000\n1\tNo\t0\t-\n")
        last = last_error_line(capsys, [
            "label", "--corpus", CORPUS, "--deps", str(deps),
            "--out-tsv", str(tmp_path / "a"), "--out-csv", str(tmp_path / "b"),
        ])
        assert last == (
            f"error: {deps}: line 1: sentence R/findings/0: rows cover positions [1], "
            "expected 1..2000000000"
        )

    def test_unwritable_output_exits_two(self, tmp_path, capsys):
        out = tmp_path / "missing" / "s.tsv"
        code = main(["split", "--corpus", CORPUS, "--out", str(out)])
        assert code == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert last == f"error: {out}: No such file or directory"

    def test_output_that_is_a_directory_exits_two(self, tmp_path, capsys):
        last = last_error_line(capsys, ["split", "--corpus", CORPUS, "--out",
                                        str(tmp_path)])
        assert last == f"error: {tmp_path}: Is a directory"

    @pytest.mark.parametrize("error, message", [
        (CxrLabelError("bad row"), "bad row"),
        (OSError(errno.ENOSPC, "No space left on device"),
         "{out}: No space left on device"),
    ])
    def test_failed_write_leaves_the_earlier_output_unchanged(
        self, tmp_path, capsys, error, message
    ):
        # `label` writes labels.tsv, then fails halfway through labels.csv.
        tsv, out = tmp_path / "labels.tsv", tmp_path / "labels.csv"
        argv = ["label", "--corpus", CORPUS, "--deps", DEPS,
                "--out-tsv", str(tsv), "--out-csv", str(out)]
        assert main(argv) == 0
        earlier = out.read_bytes()
        tsv.write_text("stale\n")

        def write_half(labels, config, handle):
            handle.write("report_id,")
            raise error

        with mock.patch.object(labeling, "write_labels_wide_csv", write_half):
            assert last_error_line(capsys, argv) == "error: " + message.format(out=out)
        assert out.read_bytes() == earlier
        assert tsv.read_text() != "stale\n"  # written in full before the failure
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "labels.csv", "labels.tsv"]

    def test_output_through_a_symlink_replaces_its_target(self, tmp_path):
        target, link = tmp_path / "split.tsv", tmp_path / "link.tsv"
        target.write_text("old\n")
        link.symlink_to(target)
        assert main(["split", "--corpus", CORPUS, "--out", str(link)]) == 0
        assert link.is_symlink() and target.read_text() != "old\n"
        assert main(["split", "--corpus", CORPUS, "--out", str(tmp_path / "b")]) == 0
        assert target.read_bytes() == (tmp_path / "b").read_bytes()

    def test_output_to_a_pipe_or_dev_null_is_written_in_place(self, tmp_path):
        # /dev/fd/N of a pipe resolves to no path ("pipe:[N]"), as does
        # /dev/stdout when the caller's stdout is a pipe.
        assert main(["split", "--corpus", CORPUS, "--out", str(tmp_path / "f")]) == 0
        expected = (tmp_path / "f").read_bytes()
        assert main(["split", "--corpus", CORPUS, "--out", os.devnull]) == 0
        read_end, write_end = os.pipe()
        try:
            assert main(["split", "--corpus", CORPUS,
                         "--out", f"/dev/fd/{write_end}"]) == 0
            os.close(write_end)
            with open(read_end, "rb", closefd=False) as pipe:
                assert pipe.read() == expected
        finally:
            os.close(read_end)
            with contextlib.suppress(OSError):
                os.close(write_end)
        assert sorted(path.name for path in tmp_path.iterdir()) == ["f"]

    def test_replaced_output_keeps_its_mode(self, tmp_path):
        out = tmp_path / "split.tsv"
        out.write_text("old\n")
        out.chmod(0o640)
        assert main(["split", "--corpus", CORPUS, "--out", str(out)]) == 0
        assert out.read_text() != "old\n"
        assert out.stat().st_mode & 0o7777 == 0o640

    @pytest.mark.parametrize("reader", sorted(UTF8_READERS))
    def test_input_not_utf8_exits_two_with_path_and_line(
        self, tmp_path, capsys, reader
    ):
        command, flag, good = UTF8_READERS[reader]
        bad = tmp_path / f"{reader}.bad"
        bad.write_bytes(good.encode() + b"caf\xe9\n")  # Latin-1, line 3
        last = last_error_line(
            capsys, [*command_argv(command, tmp_path), flag, str(bad)]
        )
        assert last == f"error: {bad}: line 3: not valid UTF-8"

    @pytest.mark.parametrize("reader", sorted(PARSE_ERRORS))
    def test_input_parse_error_exits_two_with_path_and_line(
        self, tmp_path, capsys, reader
    ):
        command, flag, good = UTF8_READERS[reader]
        good = GOOD_LEXICON if reader == "lexicon" else good
        bad_line, reason = PARSE_ERRORS[reader]
        bad = tmp_path / f"{reader}.bad"
        bad.write_text(good + bad_line)  # the bad line is line 3
        last = last_error_line(
            capsys, [*command_argv(command, tmp_path), flag, str(bad)]
        )
        assert last == f"error: {bad}: line 3: {reason}"

    def test_bad_byte_past_the_first_read_names_its_line(self, tmp_path, capsys):
        lexicon = tmp_path / "lexicon.tsv"
        lexicon.write_bytes(b"# comment\n" * 5000 + b"\xff\n")
        last = last_error_line(
            capsys, [*command_argv("label", tmp_path), "--lexicon", str(lexicon)]
        )
        assert last == f"error: {lexicon}: line 5001: not valid UTF-8"

    @pytest.mark.parametrize("end", ["\r", "\r\n"])
    @pytest.mark.parametrize("reader", sorted(UTF8_READERS))
    def test_bad_byte_line_counts_carriage_returns_as_line_ends(
        self, tmp_path, capsys, reader, end
    ):
        command, flag, good = UTF8_READERS[reader]
        bad = tmp_path / f"{reader}.bad"
        # Latin-1 on line 3, every line ended by `end`.
        bad.write_bytes(f"{good}caf\xe9\n".replace("\n", end).encode("latin-1"))
        last = last_error_line(
            capsys, [*command_argv(command, tmp_path), flag, str(bad)]
        )
        assert last == f"error: {bad}: line 3: not valid UTF-8"

    @pytest.mark.parametrize("cell, error", [
        (b"\xff", "{path}: line 3: not valid UTF-8"),
        (b"2", "line 3: non-binary label vector for r2"),
    ])
    def test_lone_cr_label_csv_errors_count_lines_alike(
        self, tmp_path, capsys, cell, error
    ):
        labels = tmp_path / "labels.csv"
        labels.write_bytes(b"report_id,A,status\rr1,1,TARGET_FINDINGS\rr2,"
                           + cell + b",NORMAL\r")
        last = last_error_line(capsys, [
            "stats", "--labels", str(labels), "--out-counts",
            str(tmp_path / "c.csv"), "--out-matrix", str(tmp_path / "m.csv"),
        ])
        # Each error names the file before its line.
        reason = error.format(path=labels).removeprefix(f"{labels}: ")
        assert last == f"error: {labels}: {reason}"

    @pytest.mark.parametrize("command, pred, reason", [
        ("stats", "id,A,status\nr1,1,TARGET_FINDINGS\n",
         "wide label CSV needs report_id ... status header"),
        ("auc", "report_id,A,status\nr1,1,TARGET_FINDINGS\nr2,0,NORMAL\n",
         "scores CSV needs a report_id header column"),
        ("eval-nlp", "report_id,A,C,status\nr1,1,0,TARGET_FINDINGS\n",
         "CSV classes ('A', 'C') do not match config ('A', 'B')"),
    ], ids=["label-header", "scores-header", "class-mismatch"])
    def test_wide_csv_header_errors_name_line_1(
        self, tmp_path, capsys, command, pred, reason
    ):
        labels = tmp_path / "labels.csv"
        labels.write_text(pred)
        gold = tmp_path / "gold.csv"
        gold.write_text("report_id,A,B,status\nr1,1,0,TARGET_FINDINGS\n")
        scores = tmp_path / "scores.csv"
        scores.write_text("id,A\nr1,0.9\nr2,0.1\n")
        out = str(tmp_path / "out.csv")
        argv = {
            "stats": ["stats", "--labels", str(labels), "--out-counts", out,
                      "--out-matrix", str(tmp_path / "m.csv")],
            "auc": ["auc", "--scores", str(scores), "--labels", str(labels),
                    "--out", out],
            "eval-nlp": ["eval-nlp", "--pred", str(labels), "--gold", str(gold),
                         "--out", out],
        }[command]
        path = scores if command == "auc" else labels
        assert last_error_line(capsys, argv) == f"error: {path}: line 1: {reason}"


class TestConfigResolution:
    def test_defaults_echoed_to_stderr(self, tmp_path, capsys):
        code, _, _ = run_label(tmp_path)
        assert code == 0
        err = capsys.readouterr().err
        for line in (
            "config: label_set=x8",
            "config: lexicon=<builtin>",
            "config: rules=<builtin>",
            "config: thresholds=60,180",
            "config: r=10",
            "config: loss=wcel",
            "config: seed=0",
        ):
            assert line in err

    def test_env_config_file_is_picked_up(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("label_set=x14\nseed=5\n")
        monkeypatch.setenv("CXRLABEL_CONFIG", str(cfg))
        code, _, _ = run_label(tmp_path)
        assert code == 0
        err = capsys.readouterr().err
        assert "config: label_set=x14" in err
        assert "config: seed=5" in err

    def test_flag_beats_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=5\nr=2\n")
        code, _, _ = run_label(tmp_path, "--config", str(cfg), "--seed", "9")
        assert code == 0
        err = capsys.readouterr().err
        assert "config: seed=9" in err  # flag wins
        assert "config: r=2" in err  # file beats default

    def test_config_flag_beats_env(self, tmp_path, capsys, monkeypatch):
        env_cfg = tmp_path / "env.cfg"
        env_cfg.write_text("seed=3\n")
        flag_cfg = tmp_path / "flag.cfg"
        flag_cfg.write_text("seed=4\n")
        monkeypatch.setenv("CXRLABEL_CONFIG", str(env_cfg))
        code, _, _ = run_label(tmp_path, "--config", str(flag_cfg))
        assert code == 0
        assert "config: seed=4" in capsys.readouterr().err

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sharpness=3\n")
        code, _, _ = run_label(tmp_path, "--config", str(cfg))
        assert code == 2
        assert "error: " in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [
        ("--r", "0"),
        ("--r", "-1"),
        ("--thresholds", "60,300"),
        ("--seed", "1.5"),
    ])
    def test_invalid_values_rejected(self, tmp_path, capsys, flag, value):
        code, _, _ = run_label(tmp_path, flag, value)
        assert code == 2
        assert "error: " in capsys.readouterr().err

    @pytest.mark.parametrize("entry,reason", [
        ("thresholds=x", "bad thresholds 'x'"),
        ("thresholds=300", "thresholds outside 0..255: (300,)"),
        ("r=-1", "r must be > 0, got -1.0"),
        ("loss=foo", "unknown loss 'foo'"),
        ("seed=1.5", "bad seed '1.5'"),
        ("label_set=x99", "unknown label set 'x99'"),
    ])
    def test_bad_config_value_names_its_file_and_line(self, tmp_path, capsys,
                                                      entry, reason):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# run\nseed=1\n{entry}\n", encoding="utf-8")
        argv = ["split", "--corpus", CORPUS, "--out", str(tmp_path / "split.tsv"),
                "--config", str(cfg)]
        assert last_error_line(capsys, argv) == f"error: {cfg}: line 3: {reason}"


SHIPPED_RULES = Path(negation.__file__).parent / "data" / "rules.tsv"
# Fields a rule line may be edited to: each other field's words, steps a
# parser may trip on, and bytes str.split() or a line reader treat apart.
RULE_TOKENS = [
    "", " ", "*", "-", "#", "|", "a||b", "No|NO", "may be", "n1", "up:", ":",
    "up:*|", "up:*@", "up:@x", "down:|", "up:a||b", "sideways:x", "up:* down:*",
    "DISEASE", "ANY", "ENDPOINT", "endpoint", "subtree", "sentence", "negation",
    "uncertainty", "\x00", "\x85", "\xa0", "\ufeff",
]


@st.composite
def mutated_tsv(draw, text: str, tokens: list[str]) -> bytes:
    """The TSV file `text` after one to five line edits (a field set to
    one of `tokens` or to any short text, dropped, added or swapped; a
    line repeated, lowercased or uppercased; a blank, tab or comment line
    put in), then up to two byte edits (a slice deleted or repeated, bytes
    put in) and a stray `\\r`, `\\r\\n` or non-UTF-8 byte."""
    rows = [line.split("\t") for line in text.splitlines()]
    for _ in range(draw(st.integers(1, 5))):
        k = draw(st.integers(0, len(rows) - 1))
        row = rows[k]
        edit = draw(st.sampled_from(["token", "token", "text", "drop", "add", "swap",
                                     "repeat", "lower", "upper", "insert"]))
        j = draw(st.integers(0, len(row) - 1)) if row else None
        if edit == "token" and row:
            row[j] = draw(st.sampled_from(tokens))
        elif edit == "text" and row:
            row[j] = draw(st.text(max_size=4))
        elif edit == "drop" and row:
            del row[j]
        elif edit == "add":
            row.append(draw(st.sampled_from(tokens)))
        elif edit == "swap" and row:
            i = draw(st.integers(0, len(row) - 1))
            row[i], row[j] = row[j], row[i]
        elif edit == "repeat":
            rows.insert(draw(st.integers(0, len(rows))), list(row))
        elif edit in ("lower", "upper"):
            rows[k] = [getattr(field, edit)() for field in row]
        elif edit == "insert":
            rows.insert(draw(st.integers(0, len(rows))),
                        [draw(st.sampled_from(["", " ", "\t", "# note"]))])
    data = "\n".join("\t".join(row) for row in rows).encode("utf-8", "replace")
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        a = draw(st.integers(0, len(data)))
        b = draw(st.integers(a, min(len(data), a + 40)))
        edit = draw(st.sampled_from(["delete", "repeat", "insert"]))
        middle = {"delete": b"", "repeat": data[a:b] * 2,
                  "insert": data[a:b] + draw(st.binary(max_size=6))}[edit]
        data = data[:a] + middle + data[b:]
    at = draw(st.integers(0, len(data)))
    stray = draw(st.sampled_from([b""] * 5 + [b"\r", b"\r\n", b"\xff"]))
    return data[:at] + stray + data[at:]


def assert_reads_or_names_its_line(path: Path, out: Path, *flags: str):
    """`label` on the fixtures with `flags` either succeeds or exits 2
    naming a line of `path`, the mutated input, without a traceback."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, _, _ = run_label(out, *flags)
    if code != 0:
        assert code == 2
        assert re.match(rf"error: {re.escape(str(path))}: line \d+: ",
                        err.getvalue().splitlines()[-1])


class TestRulesFuzz:
    @settings(max_examples=300, deadline=None)
    @given(data=mutated_tsv(SHIPPED_RULES.read_text(), RULE_TOKENS))
    def test_mutated_rules_parse_or_name_their_line(self, tmp_path_factory, data):
        out = tmp_path_factory.getbasetemp()
        rules = out / "mutant.rules"
        rules.write_bytes(data)
        assert_reads_or_names_its_line(rules, out, "--rules", str(rules))


SHIPPED_LEXICON = Path(negation.__file__).parent / "data" / "lexicon.tsv"
# Fields a lexicon row may be edited to: CUIs good and bad, the semantic
# types, categories, phrases, and bytes str.split() treats apart.
LEXICON_TOKENS = [
    "", " ", "#", "C0032285", "C003228", "c0032285", "C00322850", "dsyn", "fndg",
    "DSYN", "Pneumonia", "NORMAL_CONCEPT", "pleural effusion", "  effusion ",
    "\x00", "\x85", "\xa0", "\ufeff",
]
# Two mention rows; findings sentence 0 of "r02" has 5 tokens, of "r17" 7.
MENTIONS = ("r02\tfindings\t0\t1\t1\tC0032285\tPneumonia\n"
            "r17\tfindings\t0\t2\t3\tC0013687\tEffusion\n")
MENTION_TOKENS = [
    "", " ", "#", "r02", "r17", "r99", "findings", "impression", "history",
    "0", "1", "2", "3", "5", "7", "8", "99", "-1", "01", "1.0", "C0032285", "C003228",
    "Pneumonia", "\x00", "\xa0", "\ufeff",
]


class TestLexiconAndMentionsFuzz:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=mutated_tsv(SHIPPED_LEXICON.read_text(), LEXICON_TOKENS))
    def test_mutated_lexicon_loads_or_names_its_line(self, tmp_path_factory, data):
        out = tmp_path_factory.getbasetemp()
        lexicon = out / "mutant_lexicon.tsv"
        lexicon.write_bytes(data)
        assert_reads_or_names_its_line(lexicon, out, "--lexicon", str(lexicon))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=mutated_tsv(MENTIONS, MENTION_TOKENS))
    def test_mutated_mentions_load_or_name_their_line(self, tmp_path_factory, data):
        out = tmp_path_factory.getbasetemp()
        mentions = out / "mutant_mentions.tsv"
        mentions.write_bytes(data)
        assert_reads_or_names_its_line(
            mentions, out, "--external-mentions", str(mentions)
        )


class TestLabelCommand:
    def test_wide_csv_round_trips_expected_labels(self, tmp_path):
        code, _, out_csv = run_label(tmp_path)
        assert code == 0
        labels, config = read_labels_wide_csv(out_csv, get_config("x8"))
        by_id = {record.report_id: record for record in label_records(labels)}
        assert tuple(by_id["r17"].positive_classes(config)) == (
            "Atelectasis", "Effusion",
        )
        assert by_id["r05"].status.name == "NORMAL"
        assert by_id["r14"].status.name == "OTHER_FINDINGS_ONLY"

    def test_rows_sorted_and_deterministic(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        code, tsv_a, csv_a = run_label(tmp_path / "a")
        assert code == 0
        code, tsv_b, csv_b = run_label(tmp_path / "b")
        assert code == 0
        assert tsv_a.read_bytes() == tsv_b.read_bytes()
        assert csv_a.read_bytes() == csv_b.read_bytes()
        ids = [line.split("\t")[0] for line in tsv_a.read_text().splitlines()]
        assert ids == sorted(ids)

    def test_propagate_flag_changes_coordinated_negation(self, tmp_path):
        corpus = tmp_path / "mini.tsv"
        corpus.write_text(
            "m1\tp1\tfindings=No evidence of pneumothorax or pleural effusion.\n"
        )
        deps = tmp_path / "mini_deps.tsv"
        deps.write_text(
            "#sent\tm1\tfindings\t0\t8\n"
            "1\tNo\t2\tneg\n"
            "2\tevidence\t0\t-\n"
            "3\tof\t0\t-\n"
            "4\tpneumothorax\t2\tprep_of\n"
            "5\tor\t0\t-\n"
            "6\tpleural\t7\tamod\n"
            "7\teffusion\t4\tconj_or\n"  # propagation must add 2 -> 7
            "8\t.\t0\t-\n"
        )

        def label_with(*extra):
            out_csv = tmp_path / ("out-%d.csv" % len(extra))
            code = main([
                "label", "--corpus", str(corpus), "--deps", str(deps),
                "--out-tsv", str(tmp_path / "out.tsv"),
                "--out-csv", str(out_csv), *extra,
            ])
            assert code == 0
            labels, config = read_labels_wide_csv(out_csv, get_config("x8"))
            record = label_records(labels)[0]
            return tuple(record.positive_classes(config)), record.status

        classes, _ = label_with()
        assert classes == ("Effusion",)  # conjunct not reached without closure
        classes, status = label_with("--propagate")
        assert classes == ()
        assert status.name == "NORMAL"

    def test_coverage_warning_for_missing_classes(self, tmp_path, capsys):
        lexicon = tmp_path / "tiny_lexicon.tsv"
        lexicon.write_text(
            "C0032285\tPneumonia\tdsyn\tpneumonia\n"
            "C0012634\tOTHER_DISEASE\tdsyn\tdisease\n"
        )
        code, _, _ = run_label(tmp_path, "--lexicon", str(lexicon))
        assert code == 0
        err = capsys.readouterr().err
        assert "warning: no lexicon coverage for classes: " in err
        warning = next(l for l in err.splitlines() if l.startswith("warning"))
        assert "Atelectasis" in warning
        assert "Pneumonia" not in warning

    def test_external_mention_changes_its_report_row(self, tmp_path):
        plain = tmp_path / "plain"
        plain.mkdir()
        code, plain_tsv, _ = run_label(plain)
        assert code == 0
        mentions = tmp_path / "mentions.tsv"
        # r02 findings sentence 0 is "Heart size is normal ."
        mentions.write_text("r02\tfindings\t0\t1\t1\tC0032285\tPneumonia\n")
        code, out_tsv, _ = run_label(tmp_path, "--external-mentions", str(mentions))
        assert code == 0
        before = plain_tsv.read_text().splitlines()
        after = out_tsv.read_text().splitlines()
        assert before[1] == "r02\tNORMAL\t"
        assert after[1] == "r02\tTARGET_FINDINGS\tPneumonia"
        assert before[:1] + before[2:] == after[:1] + after[2:]

    def test_external_mention_past_sentence_end_exits_two(self, tmp_path, capsys):
        mentions = tmp_path / "mentions.tsv"
        mentions.write_text("r02\tfindings\t0\t4\t6\tC0032285\tPneumonia\n")
        code, _, _ = run_label(tmp_path, "--external-mentions", str(mentions))
        assert code == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert last == (f"error: {mentions}: line 1: "
                        "mention r02/findings/0 [4,6]: span ends past 5 tokens")

    @pytest.mark.parametrize("bad, reason", [
        ("r02\tfindings\t0\t4\t6", "mention r02/findings/0 [4,6]: span ends past 5 tokens"),
        ("r1\tfindings\t0\t1\t2", "mention r1/findings/0 [1,2]: unknown sentence"),
    ], ids=["past-end", "unknown-sentence"])
    def test_external_mention_span_error_names_the_row_of_the_mention(
            self, tmp_path, capsys, bad, reason):
        # The same good row before and after it: the first bad row is named.
        good = "r02\tfindings\t0\t1\t1\tC0032285\tPneumonia\n"
        mentions = tmp_path / "mentions.tsv"
        mentions.write_text(f"# spans\n{good}\n{bad}\tC0032285\tPneumonia\n{good}"
                            f"{bad}\tC0032285\tPneumonia\n")
        code, _, _ = run_label(tmp_path, "--external-mentions", str(mentions))
        assert code == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert last == f"error: {mentions}: line 4: {reason}"

    @pytest.mark.parametrize("row, error", [
        ("C0032326\tPneumothorax\tbogus\tpneumothorax",
         "line 3: unknown semantic type 'bogus'"),
        ("C0032285\tPneumonia\tdsyn\tpneumonia",
         "line 3: duplicate lexicon entry (C0032285, 'pneumonia')"),
    ], ids=["semantic-type", "duplicate"])
    def test_lexicon_row_errors_name_their_row(self, tmp_path, capsys, row, error):
        lexicon = tmp_path / "lexicon.tsv"
        lexicon.write_text(
            f"C0032285\tPneumonia\tdsyn\tpneumonia\n# comment\n{row}\n"
        )
        last = last_error_line(
            capsys, [*command_argv("label", tmp_path), "--lexicon", str(lexicon)]
        )
        assert last == f"error: {lexicon}: {error}"

    def test_each_report_is_split_once(self, tmp_path, monkeypatch):
        calls = []
        split = reports.split_sentences

        def counting(report):
            calls.append(report.report_id)
            return split(report)

        monkeypatch.setattr(reports, "split_sentences", counting)
        code, _, _ = run_label(tmp_path, "--propagate")
        assert code == 0
        assert sorted(calls) == [f"r{i:02d}" for i in range(1, 21)]
        calls.clear()
        assert main(["split", "--corpus", CORPUS, "--out", str(tmp_path / "s")]) == 0
        assert calls == []  # a corpus without graphs is never split

    def test_lexicon_categories_gathered_once(self, tmp_path):
        with mock.patch.object(
            Lexicon, "categories", autospec=True, side_effect=Lexicon.categories
        ) as categories:
            code, _, _ = run_label(tmp_path, "--label-set", "x14")
        assert code == 0
        assert categories.call_count == 1

    def test_rule_engine_lemmatizes_each_token_once(self, tmp_path, monkeypatch):
        tokens = sum(g.n_tokens for g in reports.load_dependency_file(DEPS).values())
        words = sum(len(p) for r in negation.default_rules().rules for p in r.triggers)
        calls = []
        lemma = negation.lemma

        def counting(word):
            calls.append(word)
            return lemma(word)

        monkeypatch.setattr(negation, "lemma", counting)
        code, _, _ = run_label(tmp_path, "--propagate")
        assert code == 0
        assert 0 < len(calls) <= tokens + words


class TestEvalNlpCommand:
    def test_scores_against_gold(self, tmp_path):
        code, _, out_csv = run_label(tmp_path)
        assert code == 0
        report = tmp_path / "prf1.csv"
        code = main([
            "eval-nlp", "--pred", str(out_csv), "--gold", GOLD,
            "--out", str(report),
        ])
        assert code == 0
        lines = report.read_text().splitlines()
        header = lines[0].split(",")
        assert header[0] == "metric"
        assert header[-2:] == ["Normal", "Total"]
        rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
        total = header.index("Total")
        assert rows["tp"][total] == "16"
        assert rows["fp"][total] == "5"
        assert rows["fn"][total] == "2"
        assert rows["precision"][total] == "0.761905"
        assert rows["recall"][total] == "0.888889"
        assert rows["f1"][total] == "0.820513"
        effusion = header.index("Effusion")
        assert rows["precision"][effusion] == "0.666667"
        normal = header.index("Normal")
        assert rows["tp"][normal] == "5"
        assert rows["fp"][normal] == "3"


class TestAucCommand:
    def write_inputs(self, tmp_path):
        labels = tmp_path / "labels.csv"
        labels.write_text(
            "report_id,A,B,status\n"
            "i1,1,1,TARGET_FINDINGS\n"
            "i2,0,1,TARGET_FINDINGS\n"
            "i3,1,1,TARGET_FINDINGS\n"
            "i4,0,1,TARGET_FINDINGS\n"
        )
        scores = tmp_path / "scores.csv"
        scores.write_text(
            "report_id,A,B\n"
            "i1,0.9,0.4\n"
            "i2,0.1,0.3\n"
            "i3,0.8,0.2\n"
            "i4,0.2,0.1\n"
        )
        return scores, labels

    def test_auc_with_degenerate_class(self, tmp_path):
        scores, labels = self.write_inputs(tmp_path)
        out = tmp_path / "auc.csv"
        roc = tmp_path / "roc.csv"
        code = main([
            "auc", "--scores", str(scores), "--labels", str(labels),
            "--out", str(out), "--roc-out", str(roc),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "metric,A,B"
        assert lines[1] == "AUC,1.000000,NA"  # B has no negatives
        roc_lines = roc.read_text().splitlines()
        assert roc_lines[0] == "class,fpr,tpr"
        assert roc_lines[1] == "A,0.000000,0.000000"
        assert roc_lines[-1] == "A,1.000000,1.000000"
        assert not any(line.startswith("B,") for line in roc_lines)

    def test_missing_class_column_exits_two(self, tmp_path, capsys):
        _, labels = self.write_inputs(tmp_path)
        scores = tmp_path / "partial.csv"
        scores.write_text(
            "report_id,A\ni1,0.9\ni2,0.1\ni3,0.8\ni4,0.2\n"
        )
        code = main([
            "auc", "--scores", str(scores), "--labels", str(labels),
            "--out", str(tmp_path / "auc.csv"),
        ])
        assert code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"error: {scores}: line 1: scores CSV lacks class 'B'"
        )

    def test_id_mismatch_exits_two(self, tmp_path, capsys):
        scores, labels = self.write_inputs(tmp_path)
        scores.write_text("report_id,A,B\ni1,0.9,0.4\n")
        code = main([
            "auc", "--scores", str(scores), "--labels", str(labels),
            "--out", str(tmp_path / "auc.csv"),
        ])
        assert code == 2
        assert "different report ids" in capsys.readouterr().err

    def test_roc_class_cell_written_as_csv_writes_it(self, tmp_path):
        labels = tmp_path / "labels.csv"
        labels.write_text(
            'report_id,"A,B",status\ni1,1,TARGET_FINDINGS\ni2,0,NORMAL\n'
        )
        scores = tmp_path / "scores.csv"
        scores.write_text('report_id,"A,B"\ni1,0.9\ni2,0.1\n')
        roc = tmp_path / "roc.csv"
        code = main([
            "auc", "--scores", str(scores), "--labels", str(labels),
            "--out", str(tmp_path / "auc.csv"), "--roc-out", str(roc),
        ])
        assert code == 0
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(["class", "fpr", "tpr"])
        for point in ("0.000000", "0.000000"), ("0.000000", "1.000000"), (
            "1.000000", "1.000000"
        ):
            writer.writerow(["A,B", *point])
        assert roc.read_text() == expected.getvalue()

    @settings(max_examples=300, deadline=None)
    @given(
        name=st.sampled_from(ROC_NAMES),
        pairs=st.lists(
            st.tuples(
                st.integers(0, 3).map(float) | st.floats(-1e3, 1e3),
                st.integers(0, 1),
            ),
            min_size=2, max_size=80,
        ).filter(lambda pairs: len({label for _, label in pairs}) == 2),
    )
    def test_roc_block_equals_per_point_writer(self, name, pairs):
        scores = np.array([score for score, _ in pairs])
        labels = np.array([label for _, label in pairs])
        block = _roc_block(name, *roc_counts(scores, labels))
        assert block.decode("utf-8") == roc_lines_by_points(name, scores, labels)

    @settings(max_examples=300, deadline=None)
    @given(name=st.sampled_from(ROC_NAMES), size=st.integers(0, 40),
           data=st.data())
    def test_roc_block_equals_per_point_writer_at_rational_ties(
        self, name, size, data
    ):
        tp = data.draw(tie_heavy_counts(size))
        fp = data.draw(tie_heavy_counts(size))
        block = _roc_block(name, tp, fp)
        assert block.decode("utf-8") == roc_lines_by_points(name, None, None, (tp, fp))

    @pytest.mark.parametrize("k, n, cell", [
        (1, 128, "0.007812"), (3, 128, "0.023438"),
        (5, 2_000_000, "0.000003"), (7, 2_000_000, "0.000003"),
    ])
    def test_rational_tie_rounds_as_the_double_does(self, k, n, cell):
        tp = np.array([n], dtype=np.int64)
        fp = np.array([k, n], dtype=np.int64)
        lines = _roc_block("A", np.append(tp, tp), fp).decode().splitlines()
        assert lines[1] == f"A,{cell},1.000000"

    def test_roc_out_streams_each_class_in_config_order(self, tmp_path):
        names = ["A,B", "flat", "\u00d6dem", 'say "x"']
        rng = np.random.default_rng(8)
        y = rng.integers(0, 2, size=(40, 4))
        y[:, 1] = 1  # no negatives: no curve
        scores = rng.integers(0, 6, size=(40, 4)) / 4
        ids = [f"r{i:02d}" for i in range(40)]
        labels_path = tmp_path / "labels.csv"
        scores_path = tmp_path / "scores.csv"
        with open(labels_path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["report_id", *names, "status"])
            for rid, row in zip(ids, y):
                writer.writerow([rid, *row, "TARGET_FINDINGS"])
        with open(scores_path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["report_id", *reversed(names)])
            for rid, row in zip(ids, scores):
                writer.writerow([rid, *map(repr, row[::-1].tolist())])
        roc = tmp_path / "roc.csv"
        code = main([
            "auc", "--scores", str(scores_path), "--labels", str(labels_path),
            "--out", str(tmp_path / "auc.csv"), "--roc-out", str(roc),
        ])
        assert code == 0
        expected = "class,fpr,tpr\n" + "".join(
            roc_lines_by_points(name, scores[:, c], y[:, c])
            for c, name in enumerate(names) if name != "flat"
        )
        assert roc.read_bytes() == expected.encode("utf-8")

    def test_plain_scores_skip_the_row_parser(self, tmp_path):
        scores, _ = self.write_inputs(tmp_path)
        with mock.patch("cxrlabel.labeling._read_scores_by_row",
                        side_effect=AssertionError):
            classes, ids, values = read_scores_csv(scores)
        assert (classes, ids) == (["A", "B"], ["i1", "i2", "i3", "i4"])
        assert values.tolist() == [[0.9, 0.4], [0.1, 0.3], [0.8, 0.2], [0.2, 0.1]]

    def test_bad_score_row_after_a_quoted_line_break_names_its_line(self, tmp_path):
        scores = tmp_path / "scores.csv"
        # The quoted id spans lines 2 and 3, so the bad row is on line 4.
        scores.write_text('report_id,A\n"i\n1",0.9\ni2,high\n')
        with pytest.raises(CxrLabelError) as err:
            read_scores_csv(scores)
        assert str(err.value) == "line 4: could not convert string to float: 'high'"

    @settings(max_examples=600, deadline=None)
    @given(text=scores_csv_texts())
    def test_scores_reader_equals_per_row_parser(self, tmp_path_factory, text):
        path = tmp_path_factory.getbasetemp() / "mutated_scores.csv"
        path.write_bytes(text.encode("utf-8"))
        assert scores_or_error(read_scores_csv, path) == scores_or_error(
            _read_scores_by_row, text
        )


    @settings(max_examples=600, deadline=None)
    @given(text=fixed_width_scores_texts())
    def test_fixed_width_scores_reader_equals_per_row_parser(
        self, tmp_path_factory, text
    ):
        path = tmp_path_factory.getbasetemp() / "fixed_width_scores.csv"
        path.write_bytes(text.encode("utf-8"))
        assert scores_or_error(read_scores_csv, path) == scores_or_error(
            _read_scores_by_row, text
        )

    @settings(max_examples=100, deadline=None)
    @given(scores=fixed_width_scores(), final_newline=st.booleans())
    def test_fixed_width_scores_skip_loadtxt_and_the_row_parser(
        self, tmp_path_factory, scores, final_newline
    ):
        _, rows = scores
        text = csv_text(rows, final_newline)
        path = tmp_path_factory.getbasetemp() / "fixed_width_scores.csv"
        path.write_bytes(text.encode("utf-8"))
        with mock.patch("numpy.loadtxt", side_effect=AssertionError), \
                mock.patch("cxrlabel.labeling._read_scores_by_row",
                           side_effect=AssertionError):
            fast = scores_or_error(read_scores_csv, path)
        assert fast == scores_or_error(_read_scores_by_row, text)


class TestLocalizeCommand:
    def write_heatmap(self, tmp_path):
        path = tmp_path / "maps.tsv"
        path.write_text(
            "img1\tMass\t4\t64\n"
            "0 0 0 0\n"
            "0 1 1 0\n"
            "0 1 1 0\n"
            "0 0 0 0\n"
        )
        return path

    def test_boxes_at_default_thresholds(self, tmp_path):
        out = tmp_path / "boxes.tsv"
        code = main([
            "localize", "--heatmaps", str(self.write_heatmap(tmp_path)),
            "--out", str(out),
        ])
        assert code == 0
        # one 2x2 hot block, cell size 64 / 4 = 16, same box both thresholds
        assert out.read_text().splitlines() == [
            "img1\tMass\t16\t16\t32\t32\t60",
            "img1\tMass\t16\t16\t32\t32\t180",
        ]

    def test_extreme_score_ranges_give_boxes_without_warnings(self, tmp_path):
        maps = tmp_path / "maps.tsv"
        maps.write_text(
            "wide\tMass\t2\t64\n-1e308 1e308\n0 0\n"
            "narrow\tMass\t2\t64\n0 5e-324\n0 0\n"
        )
        out = tmp_path / "boxes.tsv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["localize", "--heatmaps", str(maps), "--out", str(out)])
        assert code == 0
        assert out.read_text().splitlines() == [
            "narrow\tMass\t32\t0\t32\t32\t60",
            "narrow\tMass\t32\t0\t32\t32\t180",
            "wide\tMass\t0\t0\t64\t64\t60",
            "wide\tMass\t32\t0\t32\t32\t180",
        ]

    def test_threshold_flag_overrides_grid(self, tmp_path):
        out = tmp_path / "boxes.tsv"
        code = main([
            "localize", "--heatmaps", str(self.write_heatmap(tmp_path)),
            "--out", str(out), "--thresholds", "128",
        ])
        assert code == 0
        assert out.read_text().splitlines() == [
            "img1\tMass\t16\t16\t32\t32\t128",
        ]

    @pytest.mark.parametrize("cell, reason", [
        ("x", "non-numeric score"),
        ("nan", "non-finite score"),
        ("inf", "non-finite score"),
    ], ids=["x", "nan", "inf"])
    def test_non_numeric_cell_exits_two_with_its_line(
        self, tmp_path, capsys, cell, reason
    ):
        maps = tmp_path / "maps.tsv"
        maps.write_text(f"img1\tMass\t2\t64\n1 2\n{cell} 3\n")
        code = main([
            "localize", "--heatmaps", str(maps), "--out", str(tmp_path / "b.tsv"),
        ])
        assert code == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert last == f"error: {maps}: line 3: {reason}"

    def last_error_line(self, tmp_path, capsys, text):
        """The last stderr line of `localize` on a maps file of `text`,
        less its leading "error: <path>: "."""
        maps = tmp_path / "maps.tsv"
        maps.write_text(text)
        code = main([
            "localize", "--heatmaps", str(maps), "--out", str(tmp_path / "b.tsv"),
        ])
        assert code == 2
        return capsys.readouterr().err.splitlines()[-1].removeprefix(f"error: {maps}: ")

    def test_empty_grid_exits_two(self, tmp_path, capsys):
        last = self.last_error_line(tmp_path, capsys, "img1\tMass\t0\t64\n")
        assert last == "line 1: heatmap size must be >= 1, got 0"

    def test_negative_grid_size_exits_two(self, tmp_path, capsys):
        text = "img1\tMass\t2\t64\n1 2\n3 4\nimg2\tMass\t-1\t64\n"
        last = self.last_error_line(tmp_path, capsys, text)
        assert last == "line 4: heatmap size must be >= 1, got -1"

    @pytest.mark.parametrize("dim", ["inf", "0", "-8", "nan"])
    def test_bad_image_dim_exits_two_with_its_row(self, tmp_path, capsys, dim):
        text = f"img1\tMass\t1\t64\n5\nimg2\tMass\t2\t{dim}\n1 2\n3 4\n"
        last = self.last_error_line(tmp_path, capsys, text)
        assert last == f"line 3: image_dim must be finite and > 0, got {dim}"
        assert not (tmp_path / "b.tsv").exists()

    def test_duplicate_heatmap_exits_two_at_its_second_header(self, tmp_path, capsys):
        text = ("img1\tMass\t2\t64\n0 1\n1 0\nimg1\tNodule\t1\t64\n5\n"
                "img1\tMass\t2\t64\n0 1\n1 0\n")
        last = self.last_error_line(tmp_path, capsys, text)
        assert last == "line 6: duplicate heatmap for image 'img1', class 'Mass'"
        assert not (tmp_path / "b.tsv").exists()


    def test_rows_build_no_bbox(self, tmp_path):
        out = tmp_path / "boxes.tsv"
        with mock.patch.object(localization.BBox, "__post_init__") as built:
            assert main(["localize", "--heatmaps", str(self.write_heatmap(tmp_path)),
                         "--out", str(out)]) == 0
        built.assert_not_called()
        assert len(out.read_text().splitlines()) == 2

    def test_ids_with_trailing_nuls_sort_as_python_strings(self, tmp_path):
        grid = "0 0 0 0\n0 1 1 0\n0 1 1 0\n0 0 0 0\n"
        maps = tmp_path / "maps.tsv"
        maps.write_text("".join(f"{image_id}\tMass\t4\t64\n{grid}"
                                for image_id in ("a\0\0", "a\0", "a", "")))
        out = tmp_path / "boxes.tsv"
        assert main(["localize", "--heatmaps", str(maps), "--out", str(out)]) == 0
        ids = [line.split("\t")[0] for line in out.read_text().splitlines()]
        assert ids == ["", "", "a", "a", "a\0", "a\0", "a\0\0", "a\0\0"]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(
        st.sampled_from(["a", "a\0", "", "b", "\0"]),
        st.sampled_from(["A", "A\0", "B"]),
        *[st.sampled_from([0.0, -0.0, 1.5, 16.0, 1e300])] * 4,
        st.sampled_from([0, 60, 180, 255]),
    ), max_size=30))
    def test_row_order_equals_python_sort_ties_included(self, rows):
        table = localization.BoxTable.from_boxes(
            localization.BBox(*row) for row in rows)
        expected = sorted(range(len(rows)), key=lambda k: (
            rows[k][0], rows[k][1], rows[k][6], rows[k][3], rows[k][2],
            rows[k][4], rows[k][5]))
        assert _box_order(table).tolist() == expected


class TestEvalLocCommand:
    def write_inputs(self, tmp_path):
        gt = tmp_path / "gt.tsv"
        gt.write_text(
            "i1\tc\t0\t0\t10\t10\n"
            "i2\tc\t20\t20\t10\t10\n"
        )
        dets = tmp_path / "dets.tsv"
        dets.write_text("i1\tc\t5\t0\t10\t10\t60\n")  # IoBB 0.5 vs i1 gt
        return dets, gt

    def test_single_threshold_report(self, tmp_path):
        dets, gt = self.write_inputs(tmp_path)
        out = tmp_path / "loc.csv"
        code = main([
            "eval-loc", "--dets", str(dets), "--gt", str(gt),
            "--mode", "iobb", "--t", "0.25", "--out", str(out),
        ])
        assert code == 0
        assert out.read_text().splitlines() == [
            "mode,T,metric,c",
            "iobb,0.25,Acc,0.500000",
            "iobb,0.25,AFP,0.000000",
        ]

    def test_sweep_covers_grid(self, tmp_path):
        dets, gt = self.write_inputs(tmp_path)
        out = tmp_path / "loc.csv"
        code = main([
            "eval-loc", "--dets", str(dets), "--gt", str(gt),
            "--mode", "iobb", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 2 * len(T_GRID_IOBB)
        seen = [line.split(",")[1] for line in lines[1:]]
        assert seen == [f"{t:g}" for t in T_GRID_IOBB for _ in range(2)]
        # IoBB 0.5 is not strictly above 0.5, so the match is lost there
        rows = {tuple(l.split(",")[:3]): l.split(",")[3] for l in lines[1:]}
        assert rows[("iobb", "0.25", "Acc")] == "0.500000"
        assert rows[("iobb", "0.5", "Acc")] == "0.000000"
        assert rows[("iobb", "0.5", "AFP")] == "0.500000"

    def test_iou_mode_uses_its_own_grid(self, tmp_path):
        dets, gt = self.write_inputs(tmp_path)
        out = tmp_path / "loc.csv"
        code = main([
            "eval-loc", "--dets", str(dets), "--gt", str(gt),
            "--mode", "iou", "--out", str(out),
        ])
        assert code == 0
        assert len(out.read_text().splitlines()) == 1 + 2 * len(T_GRID_IOU)

    @pytest.mark.parametrize("extent", ["-10\t10", "10\t-10"],
                             ids=["negative-width", "negative-height"])
    def test_negative_gt_extent_exits_two_with_its_row(
        self, tmp_path, capsys, extent
    ):
        gt = tmp_path / "gt.tsv"
        gt.write_text(f"i1\tc\t0\t0\t10\t10\ni1\tc\t0\t0\t{extent}\n")
        dets = tmp_path / "dets.tsv"
        dets.write_text("i1\tc\t0\t0\t10\t10\t60\n")
        out = tmp_path / "loc.csv"
        last = last_error_line(capsys, [
            "eval-loc", "--dets", str(dets), "--gt", str(gt), "--mode", "iou",
            "--t", "0.3", "--out", str(out),
        ])
        assert last == f"error: {gt}: line 2: box needs non-negative w and h"
        assert not out.exists()

    def test_zero_image_count_exits_two(self, tmp_path, capsys):
        dets, gt = self.write_inputs(tmp_path)
        code = main([
            "eval-loc", "--dets", str(dets), "--gt", str(gt), "--mode", "iobb",
            "--n-images", "0", "--out", str(tmp_path / "loc.csv"),
        ])
        assert code == 2
        assert "image count 0" in capsys.readouterr().err

    def test_class_without_gt_reports_na_acc(self, tmp_path):
        dets, gt = self.write_inputs(tmp_path)
        dets.write_text(
            dets.read_text() + "i1\td\t0\t0\t4\t4\t60\n"
        )
        out = tmp_path / "loc.csv"
        code = main([
            "eval-loc", "--dets", str(dets), "--gt", str(gt),
            "--mode", "iobb", "--t", "0.25", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "mode,T,metric,c,d"
        acc = lines[1].split(",")
        assert acc[3:] == ["0.500000", "NA"]
        afp = lines[2].split(",")
        assert afp[3:] == ["0.000000", "0.500000"]


    def test_valid_files_build_no_bbox(self, tmp_path):
        dets, gt = self.write_inputs(tmp_path)
        dets.write_text(dets.read_text() + "i2\tc\t20\t20\t5\t5\t180\n")
        with mock.patch.object(localization.BBox, "__post_init__") as built:
            for mode in ("iobb", "iou"):
                assert main([
                    "eval-loc", "--dets", str(dets), "--gt", str(gt),
                    "--mode", mode, "--out", str(tmp_path / f"{mode}.csv"),
                ]) == 0
        built.assert_not_called()
        assert (tmp_path / "iou.csv").read_text().splitlines()[1] == (
            "iou,0.1,Acc,1.000000"
        )

    def test_non_integer_threshold_exits_two(self, tmp_path, capsys):
        dets, gt = self.write_inputs(tmp_path)
        dets.write_text("i1\tMass\t0\t0\t10\t10\t6.5\n")
        out = tmp_path / "loc.csv"
        last = last_error_line(capsys, [
            "eval-loc", "--dets", str(dets), "--gt", str(gt), "--mode", "iobb",
            "--out", str(out),
        ])
        assert last == f"error: {dets}: line 1: non-integer detection threshold"
        assert not out.exists()


class TestStatsCommand:
    def test_counts_and_matrix(self, tmp_path):
        counts = tmp_path / "counts.csv"
        matrix = tmp_path / "matrix.csv"
        code = main([
            "stats", "--labels", GOLD,
            "--out-counts", str(counts), "--out-matrix", str(matrix),
        ])
        assert code == 0
        lines = counts.read_text().splitlines()
        assert lines[0] == (
            "metric,Atelectasis,Cardiomegaly,Effusion,Infiltration,"
            "Mass,Nodule,Pneumonia,Pneumothorax,Normal"
        )
        assert lines[1] == "total,3,2,3,1,1,1,1,1,5"
        # r17 is the only multi-label report (Atelectasis + Effusion)
        assert lines[2] == "overlap,1,0,1,0,0,0,0,0,0"
        matrix_lines = matrix.read_text().splitlines()
        assert matrix_lines[1] == "Atelectasis,3,0,1,0,0,0,0,0"
        assert matrix_lines[3] == "Effusion,1,0,3,0,0,0,0,0"


class TestSplitCommand:
    def test_split_is_deterministic_and_balanced(self, tmp_path):
        out_a = tmp_path / "a.tsv"
        out_b = tmp_path / "b.tsv"
        for out in (out_a, out_b):
            assert main(["split", "--corpus", CORPUS, "--out", str(out)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        rows = [line.split("\t") for line in out_a.read_text().splitlines()]
        assert [pid for pid, _ in rows] == [f"p{i:02d}" for i in range(1, 9)]
        parts = [part for _, part in rows]
        assert parts.count("train") == 5
        assert parts.count("val") == 1
        assert parts.count("test") == 2

    def test_seed_flag_feeds_split(self, tmp_path):
        outputs = set()
        for seed in range(6):
            out = tmp_path / f"s{seed}.tsv"
            code = main([
                "split", "--corpus", CORPUS, "--out", str(out),
                "--seed", str(seed),
            ])
            assert code == 0
            outputs.add(out.read_text())
        assert len(outputs) > 1  # some seed shuffles patients differently


class TestSelftestCommand:
    def test_all_checks_pass(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[-1] == "11 passed, 0 failed"
        assert all(line.startswith("PASS ") for line in out[:-1])


class TestSharedParser:
    def run(self, argv, capsys):
        """The exit code (SystemExit's included), stdout and stderr of one call."""
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        return code, out.out, out.err

    def test_built_once_and_holding_no_function(self):
        parser = cli.build_parser()
        assert cli.build_parser() is parser
        subparsers = [action for action in parser._actions
                      if isinstance(action, argparse._SubParsersAction)]
        for name, subparser in subparsers[0].choices.items():
            assert callable(getattr(cli, "cmd_" + name.replace("-", "_")))
            assert subparser._defaults == {}
            assert not any(callable(action.default) for action in subparser._actions)

    def test_usage_error_then_a_good_call_equal_fresh_calls(self, tmp_path, capsys):
        argv = command_argv("auc", tmp_path)
        out = Path(argv[-1])
        seen = []
        for fresh in (False, True):
            if fresh:
                cli.build_parser.cache_clear()
            usage = self.run(["auc"], capsys)
            good = self.run(argv, capsys)
            seen.append((usage, good, out.read_bytes()))
            out.unlink()
        assert seen[0] == seen[1]
        assert seen[0][0][0] == 2 and "required" in seen[0][0][2]
        assert seen[0][1][0] == 0

    def test_flags_do_not_leak_between_calls(self, tmp_path):
        dets, gt = TestEvalLocCommand().write_inputs(tmp_path)
        out = tmp_path / "loc.csv"
        argv = ["eval-loc", "--dets", str(dets), "--gt", str(gt), "--mode", "iobb",
                "--out", str(out)]
        assert main([*argv, "--t", "0.3", "--n-images", "9"]) == 0
        assert len(out.read_text().splitlines()) == 3
        assert main(argv) == 0
        lines = out.read_text().splitlines()
        assert [line.split(",")[1] for line in lines[1::2]] == [
            f"{t:g}" for t in T_GRID_IOBB]
        # AFP over the 2 images of the inputs, not over 9.
        assert lines[-1].split(",")[3] == "0.500000"

    def test_a_command_patched_after_the_build_is_the_one_run(self, tmp_path):
        argv = command_argv("stats", tmp_path)
        cli.build_parser()
        original = cli.cmd_stats
        with mock.patch.object(cli, "cmd_stats", return_value=0) as patched:
            assert main(argv) == 0
        patched.assert_called_once()
        assert patched.call_args.args[0].labels == argv[2]
        assert cli.cmd_stats is original
        with mock.patch.object(cli, "cmd_stats", wraps=original) as again:
            assert main(argv) == 0
        again.assert_called_once()
        assert main(argv) == 0
