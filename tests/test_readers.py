"""The shared input line format, the shared fixed-width decimal decoder,
and the rule that every input file is read through `cxrlabel.errors`.

The four TSV loaders take their rows from `errors.read_rows`: blank,
whitespace-only and `#` lines are skipped but still counted, `\\r\\n` and a
lone `\\r` end a line as `\\n` does, a wrong field count raises the
loader's own error class at its line, and a byte that is not UTF-8
raises NotUtf8 naming the path and the line.
"""

import ast
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cxrlabel
from cxrlabel import errors
from cxrlabel.cli import _load_config_file
from cxrlabel.errors import (
    BadCui,
    CxrLabelError,
    MalformedRow,
    NotUtf8,
    RuleParseError,
    decode_fixed_width,
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

# Each TSV loader: a row of the right field count that fails the
# loader's own check, with its error class and reason.
OWN_CHECKS = {
    "lexicon": ("bad\tPneumonia\tdsyn\tpneumonia", BadCui, "bad CUI 'bad'"),
    "mentions": ("r1\tfindings\t0\tx\t2\tC0032285\tPneumonia", MalformedRow,
                 "non-integer index/span"),
    "rules": ("n1\tnegation\tno\tup:*\tDISEASE\tendpoint", RuleParseError,
              "duplicate rule id 'n1'"),
    "boxes": ("i1\tMass\tx\t0\t10\t10", MalformedRow, "non-numeric box geometry"),
    "detections": ("i1\tMass\t0\t0\t10\t10\tx", MalformedRow,
                   "non-integer detection threshold"),
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

    def test_own_check_of_an_earlier_row_wins(self, tmp_path, loader, end):
        read, row, _, _ = TSV_LOADERS[loader]
        bad, error, reason = OWN_CHECKS[loader]
        path = write_lines(tmp_path / "bad.tsv", [row, bad, "short"], end)
        with pytest.raises(error) as err:
            read(path)
        label = "line" if error is RuleParseError else "row"
        assert (type(err.value), str(err.value)) == (error, f"{label} 2: {reason}")

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


def test_corpus_bad_byte_wins_over_an_earlier_record_error(tmp_path):
    # The corpus is read whole too: its bad byte comes before the unknown
    # tag of line 1, which a line reader would reach first.
    path = tmp_path / "corpus.tsv"
    path.write_bytes(b"r1\tp1\thistory=x\n" + b"# pad\n" * 10_000 + b"caf\xe9\n")
    with pytest.raises(NotUtf8) as err:
        load_corpus(path)
    assert str(err.value) == f"{path}: line 10002: not valid UTF-8"


def test_deps_bad_byte_wins_over_an_earlier_graph_error(tmp_path):
    # The dependency file is read whole too: its bad byte comes before the
    # header of line 1, which a line reader would reject first.
    path = tmp_path / "deps.tsv"
    path.write_bytes(b"#sent\tr1\n" + b"\n" * 10_000 + b"caf\xe9\n")
    with pytest.raises(NotUtf8) as err:
        load_dependency_file(path)
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
    writers, reads = set(), []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "errors.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for mode in open_calls(tree):
            if mode in WRITE_MODES:
                writers.add(path.name)
            else:
                reads.append(f"{path.relative_to(PACKAGE)}: open(mode={mode!r})")
    # The walk reached the output opens of cli.py, and no other module has any.
    assert writers == {"cli.py"}
    assert reads == []


def test_open_calls_sees_every_mode():
    tree = ast.parse(
        "open(p)\nopen(p, 'rb')\nopen(p, mode='w')\nopen(p, m)\nx.open(p)\n"
    )
    assert list(open_calls(tree)) == ["r", "rb", "w", None]


# --- the fixed-width decimal decoder ---

def decoded(text: str, sep: bytes, rows: int):
    """`decode_fixed_width` of the one block of `rows` rows at the start of
    `text`, each as long as its first line, as the readers size them."""
    return decode_fixed_width(text.encode("utf-8"), np.array([0]),
                              text.index("\n") + 1, rows, sep)


def floats_of(lines: list[str], sep: str) -> np.ndarray:
    return np.array([[float(token) for token in line.split(sep)] for line in lines])


@st.composite
def fixed_width_blocks(draw):
    """(sep, lines): rows of tokens of one width from 3 to 16 (2 to 15
    digits), the "." at any inner column, joined by a space or a comma."""
    sep = draw(st.sampled_from([" ", ","]))
    width = draw(st.integers(3, 16))
    dot = draw(st.integers(1, width - 2))
    tokens = draw(st.integers(1, 4))
    mantissas = st.integers(0, 10 ** (width - 1) - 1) | st.just(10 ** (width - 1) - 1)

    def token():
        digits = str(draw(mantissas)).zfill(width - 1)
        return digits[:dot] + "." + digits[dot:]

    lines = [sep.join(token() for _ in range(tokens))
             for _ in range(draw(st.integers(1, 3)))]
    return sep, lines


@settings(max_examples=400, deadline=None)
@given(block=fixed_width_blocks())
@example(block=(" ", ["99999.9999"]))  # 9 digits: the int32 branch
@example(block=(",", ["9999999.99999999,0000000.00000001"]))  # 15: int64
@example(block=(" ", ["0.1 0.2 0.3", "2.6 1.0 0.7"]))
def test_fixed_width_values_equal_float_of_each_token(block):
    sep, lines = block
    values = decoded("\n".join(lines) + "\n", sep.encode(), len(lines))
    expected = floats_of(lines, sep)
    assert values.shape == (1, *expected.shape)
    assert values[0].tobytes() == expected.tobytes()


@pytest.mark.parametrize("sep", [" ", ","])
@pytest.mark.parametrize("digits", [2, 9, 10, 15])
def test_values_not_exact_in_binary_equal_float(sep, digits):
    # Fractions that no double holds exactly, in both digit branches.
    tokens = [f"{k / 7:.{digits - 1}f}" for k in range(7)]
    line = sep.join(tokens)
    values = decoded(line + "\n", sep.encode(), 1)
    assert values[0].tobytes() == floats_of([line], sep).tobytes()


def test_blocks_of_many_rows_decode_across_passes():
    rows = [f"{k % 10}.{k:04d} {k % 7}.{k * 3 % 10000:04d}" for k in range(60)]
    text = "".join(f"h{b}\n" + "\n".join(rows[b::3]) + "\n" for b in range(3))
    data = text.encode()
    firsts = np.array([i + 3 for i in range(len(data)) if data[i:i + 1] == b"h"])
    with mock.patch.object(errors, "_DECODE_BYTES", 50):
        values = decode_fixed_width(data, firsts, len(rows[0]) + 1, 20, b" ")
    for b in range(3):
        assert values[b].tobytes() == floats_of(rows[b::3], " ").tobytes()


def test_each_separator_is_its_own():
    assert decoded("0.5000 1.2500\n9.0000 0.0625\n", b" ", 2).tolist() == [
        [[0.5, 1.25], [9.0, 0.0625]]
    ]
    assert decoded("0.500000,1.250000\n", b",", 1).tolist() == [[[0.5, 1.25]]]
    assert decoded("0.500000,1.250000\n", b" ", 1) is None
    assert decoded("0.5000 1.2500\n", b",", 1) is None


# Each break of the pattern in the second of two rows of "0.5000 1.2500".
DECLINED_ROWS = {
    "wider cell": "9.00000 0.062",
    "narrower cell": "9.000 0.06250",
    "leading minus": "-9.000 0.0625",
    "leading plus": "+9.000 0.0625",
    "leading space": " 9.000 0.0625",
    "exponent": "9.0e+0 0.0625",
    "other byte": "9.00x0 0.0625",
    "non-ASCII digit": "9.00\u0661 0.0625",  # 13 bytes, as the others
    "dot moved": "90.000 0.0625",
    "no dot": "900000 0.0625",
    "tab": "9.0000\t0.0625",
    "extra column": "9.0000 0.0625 1.0000",
    "missing column": "9.0000",
    "blank": "",
    "carriage return": "9.0000 0.062\r",
}


@pytest.mark.parametrize("edit", sorted(DECLINED_ROWS))
def test_each_break_of_the_pattern_declines(edit):
    text = "0.5000 1.2500\n" + DECLINED_ROWS[edit] + "\n0.1000 0.2000\n"
    assert decoded(text, b" ", 2) is None


@pytest.mark.parametrize("text, rows", [
    ("0.5000 1.2500\n9.0000 0.0625", 2),  # no final newline: past the end
    (".50000 1.2500\n", 1),  # dot in the first column
    ("05000. 1.2500\n", 1),  # dot in the last column
    ("0.500000000000000 1.250000000000000\n", 1),  # 16 digits
    ("05 12\n", 1),  # no dot
    ("0.5000 1.2500\r\n", 1),
])
def test_a_first_row_out_of_pattern_declines(text, rows):
    assert decoded(text, b" ", rows) is None
