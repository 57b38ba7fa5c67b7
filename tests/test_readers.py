"""The shared input line format, and the rule that every input file is
read through `cxrlabel.errors`.

The four TSV loaders take their rows from `errors.read_rows`: blank,
whitespace-only and `#` lines are skipped but still counted, `\\r\\n` and a
lone `\\r` end a line as `\\n` does, a wrong field count raises the
loader's own error class at its line, and a byte that is not UTF-8
raises NotUtf8 naming the path and the line.
"""

import ast
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cxrlabel
from cxrlabel.cli import _load_config_file
from cxrlabel.errors import (
    CxrLabelError,
    MalformedRow,
    NotUtf8,
    RuleParseError,
    read_rows,
)
from cxrlabel.lexicon import load_external_mentions, load_lexicon
from cxrlabel.localization import load_boxes
from cxrlabel.negation import load_rules
from cxrlabel.reports import load_corpus, load_dependency_file

from conftest import read_rows_by_lines

# Each TSV loader: a reader returning comparable contents, one valid row,
# the error class of a wrong field count and the reason it gives.
TSV_LOADERS = {
    "lexicon": (
        lambda path: load_lexicon(path).entries,
        "C0032285\tPneumonia\tdsyn\tpneumonia",
        MalformedRow, "lexicon row needs 4 fields",
    ),
    "mentions": (
        load_external_mentions,
        "r1\tfindings\t0\t1\t2\tC0032285\tPneumonia",
        MalformedRow, "mention row needs 7 fields",
    ),
    "rules": (
        lambda path: load_rules(path).rules,
        "n1\tnegation\tno\tup:*\tDISEASE\tendpoint",
        RuleParseError, "rule needs 6 fields",
    ),
    "boxes": (
        lambda path: list(load_boxes(path)),
        "i1\tMass\t0\t0\t10\t10",
        MalformedRow, "box row needs 6 fields",
    ),
    "detections": (
        lambda path: list(load_boxes(path, with_threshold=True)),
        "i1\tMass\t0\t0\t10\t10\t60",
        MalformedRow, "box row needs 7 fields",
    ),
}

# Skipped lines before the valid row: a comment, an empty line, and a
# whitespace-only line that holds a tab.
SKIPPED = ["# comment", "", " \t "]
ENDS = ["\n", "\r\n", "\r"]


def write_lines(path, lines, end):
    path.write_bytes("".join(line + end for line in lines).encode("latin-1"))
    return path


@pytest.mark.parametrize("end", ENDS, ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("loader", sorted(TSV_LOADERS))
class TestSharedTsvFormat:
    def test_skipped_lines_change_nothing(self, tmp_path, loader, end):
        read, row, _, _ = TSV_LOADERS[loader]
        plain = read(write_lines(tmp_path / "plain.tsv", [row], "\n"))
        assert len(plain) == 1
        padded = write_lines(tmp_path / "padded.tsv", SKIPPED + [row, *SKIPPED], end)
        assert read(padded) == plain

    @pytest.mark.parametrize("change", ["extra", "missing"])
    def test_wrong_field_count_names_its_line(self, tmp_path, loader, end, change):
        read, row, error, reason = TSV_LOADERS[loader]
        bad = row + "\tx" if change == "extra" else row.rpartition("\t")[0]
        path = write_lines(tmp_path / "bad.tsv", [row, *SKIPPED, bad, row], end)
        with pytest.raises(error) as err:
            read(path)
        assert type(err.value) is error
        label = "line" if error is RuleParseError else "row"
        assert str(err.value) == f"{label} 5: {reason}"

    def test_bad_byte_names_path_and_line(self, tmp_path, loader, end):
        read, row, _, _ = TSV_LOADERS[loader]
        path = write_lines(tmp_path / "bad.tsv", [row, "", "caf\xe9"], end)
        with pytest.raises(NotUtf8) as err:
            read(path)
        assert str(err.value) == f"{path}: line 3: not valid UTF-8"


# Pieces of TSV bytes: every line break, tabs, comment and blank
# characters, line separators that universal newlines do not break at,
# valid multi-byte UTF-8 and bytes that are not UTF-8.
TSV_PIECES = [
    b"\n", b"\r\n", b"\r", b"\t", b"#", b" ", b"a", b"1", b"\x0b", b"\x0c",
    b"\x1c", "\x85".encode(), " ".encode(), "é".encode(), b"\xe9",
    b"\xc3", b"\x00",
]


def rows_or_error(read, path, width):
    try:
        return list(read(path, width, "row"))
    except CxrLabelError as err:
        return err


@settings(max_examples=300, deadline=None)
@given(
    pieces=st.lists(st.sampled_from(TSV_PIECES), max_size=40),
    width=st.integers(1, 3),
)
def test_read_rows_equals_line_reader(tmp_path_factory, pieces, width):
    path = tmp_path_factory.getbasetemp() / "read_rows.tsv"
    path.write_bytes(b"".join(pieces))
    new = rows_or_error(read_rows, path, width)
    old = rows_or_error(read_rows_by_lines, path, width)
    if isinstance(old, list):
        assert new == old
    elif isinstance(new, NotUtf8) and isinstance(old, MalformedRow):
        # The line reader decodes as it goes, so a bad byte it reaches
        # late (a truncated sequence at the end) lets an earlier row's
        # error come first; the whole-file check puts the bad byte first.
        assert old.row_no < new.line_no
    else:
        assert (type(new), str(new)) == (type(old), str(old))


def test_bad_byte_wins_over_an_earlier_row_error(tmp_path):
    # The whole file is checked before the first row, so a bad byte comes
    # first even past the line reader's first decoded block.
    path = tmp_path / "rows.tsv"
    path.write_bytes(b"a\tb\n" + b"a\n" * 10_000 + b"caf\xe9\n")
    with pytest.raises(NotUtf8) as err:
        list(read_rows(path, 1, "row"))
    assert str(err.value) == f"{path}: line 10002: not valid UTF-8"


# The readers with their own line rules, each with two valid lines.
LINE_READERS = {
    "corpus": (load_corpus, ["r1\tp1\tfindings=No effusion.", "# comment"]),
    "deps": (load_dependency_file, ["#sent\tr1\tfindings\t0\t1", "1\tNo\t0\t-"]),
    "config": (_load_config_file, ["seed=1", "loss=wcel"]),
}


@pytest.mark.parametrize("end", ENDS, ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("reader", sorted(LINE_READERS))
def test_line_reader_bad_byte_names_path_and_line(tmp_path, reader, end):
    read, good = LINE_READERS[reader]
    read(write_lines(tmp_path / "good.txt", good, end))
    path = write_lines(tmp_path / "bad.txt", [*good, "caf\xe9"], end)
    with pytest.raises(NotUtf8) as err:
        read(path)
    assert str(err.value) == f"{path}: line 3: not valid UTF-8"


# --- every input goes through cxrlabel.errors ---

PACKAGE = Path(cxrlabel.__file__).parent
WRITE_MODES = {"w", "wb"}


def open_calls(tree: ast.Module):
    """The mode of each call of the builtin `open` (None when it is not a
    string literal), "r" when no mode is given."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "open"):
            mode = node.args[1] if len(node.args) > 1 else next(
                (k.value for k in node.keywords if k.arg == "mode"), None
            )
            if mode is None:
                yield "r"
            else:
                yield mode.value if isinstance(mode, ast.Constant) else None


def test_only_errors_module_opens_files_for_reading():
    writes, reads = 0, []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "errors.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for mode in open_calls(tree):
            if mode in WRITE_MODES:
                writes += 1
            else:
                reads.append(f"{path.relative_to(PACKAGE)}: open(mode={mode!r})")
    assert writes > 5  # the walk reached the output opens of cli.py
    assert reads == []


def test_open_calls_sees_every_mode():
    tree = ast.parse(
        "open(p)\nopen(p, 'rb')\nopen(p, mode='w')\nopen(p, m)\nx.open(p)\n"
    )
    assert list(open_calls(tree)) == ["r", "rb", "w", None]
