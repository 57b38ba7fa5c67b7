"""Exception hierarchy shared across the pipeline.

Every error raised by this package derives from CxrLabelError so callers
(and the CLI) can tell pipeline failures apart from programming errors.
Location arguments (line_no, row_no) are optional: loaders supply them,
in-memory constructors do not. Loaders read their files only through
`read_input` (the bytes), `read_lines` (numbered lines, as a stream),
`read_all_text` (the text, line breaks made `\n`), `read_all_lines`
(every line, as a list) or `read_rows` (the tab-separated rows of a TSV
file); each turns a file that is not UTF-8 into a located error. Readers
of numbers decode fixed-width decimal cells from the bytes with
`decode_fixed_width`, and parse what it declines row by row.

The module also holds the few defaults that every CLI start reads: the
label sets (checked in the config), the box thresholds (echoed as
config), the loss names (checked in the config and offered by --loss)
and the overlap grids (named in the --t help). Every layer imports this
module, so a start reads them without running any other layer;
`labeling`, `localization`, `pooling` and `metrics` re-export them.
"""

from typing import Optional

from cxrlabel.lazy import np

# The class names of each label set: ChestX-ray8's eight diseases, and the
# fourteen of its later ChestX-ray14 release.
X8_CLASSES = (
    "Atelectasis",
    "Cardiomegaly",
    "Effusion",
    "Infiltration",
    "Mass",
    "Nodule",
    "Pneumonia",
    "Pneumothorax",
)
X14_CLASSES = X8_CLASSES + (
    "Consolidation",
    "Edema",
    "Emphysema",
    "Fibrosis",
    "Pleural_Thickening",
    "Hernia",
)
LABEL_SETS = {"x8": X8_CLASSES, "x14": X14_CLASSES}
# The paper's two heatmap thresholds on the [0, 255] scale.
DEFAULT_THRESHOLDS = (60, 180)
# The names of `pooling.LOSSES`, in its order.
LOSS_NAMES = ("cel", "wcel", "el", "hl")
# Threshold grids swept by the localization evaluation.
T_GRID_IOBB = (0.1, 0.25, 0.5, 0.75, 0.9)
T_GRID_IOU = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7)


def _located(reason: str, label: str, location) -> str:
    if location is None:
        return reason
    return f"{label} {location}: {reason}"


class CxrLabelError(Exception):
    """Base class for all cxrlabel errors."""


class NotUtf8(CxrLabelError):
    def __init__(self, path, line_no: int):
        super().__init__(f"{path}: line {line_no}: not valid UTF-8")
        self.path = path
        self.line_no = line_no


def line_of(data: bytes, offset: int) -> int:
    r"""The line of byte `offset` of `data`, counting `\r\n`, a lone `\r`
    and `\n` each as one line break, as universal newlines do."""
    breaks = data.count(b"\n", 0, offset) + data.count(b"\r", 0, offset)
    return breaks - data.count(b"\r\n", 0, offset) + 1


def read_input(path) -> bytes:
    """The bytes of `path`, raising NotUtf8 with the line of the first bad
    byte when they do not decode as UTF-8. A pure-ASCII file is not
    decoded."""
    with open(path, "rb") as handle:
        data = handle.read()
    if not data.isascii():
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as err:
            raise NotUtf8(path, line_of(data, err.start)) from None
    return data


# At most this many bytes of rows are decoded in one numpy pass; the pass
# holds them and their integers, about 1.6 times as many bytes. On 600
# heatmaps of 32 x 32 "%.4f" scores, a pass twice this size decodes no
# faster and takes the reader's peak memory past twice the grids' bytes.
_DECODE_BYTES = 1 << 17


def decode_fixed_width(data: bytes, firsts, length: int, rows: int,
                       sep: bytes) -> Optional["np.ndarray"]:
    """The (n, rows, k) values of the n blocks of `rows` rows of `length`
    bytes each that follow one another from the ascending byte offsets
    `firsts` of `data`, decoded from the bytes; or None when some row is not
    k tokens of one width w, each of digits (at most 15) around a "." at one
    inner column, joined by single `sep` bytes and ended by a newline; this
    is what "%.4f" writes for values in [0, 10). As each row ends in the one
    newline it holds, every row it decodes is a whole line.

    It is the first of two tiers of the heatmap and scores readers: what
    it declines is parsed token by token with float(), which names the
    first bad line.

    A token's digits form an integer below 2**53, built exactly in int32
    (at most 9 digits) or int64, column by column; one division by the
    exact power of ten then rounds correctly (Clinger's fast path, PLDI
    1990), so each value equals float(token) bit for bit. The blocks are
    gathered `_DECODE_BYTES` bytes at a time, which bounds the working
    memory.
    """
    first = int(firsts[0])
    stop = data.find(sep, first, first + length)
    width = (stop if stop >= 0 else first + length - 1) - first
    dot = data.find(b".", first, first + width) - first
    if not 3 <= width <= 16 or length % (width + 1) or not 0 < dot < width - 1:
        return None
    if int(firsts[-1]) + rows * length > len(data):
        return None
    tokens = length // (width + 1)
    # Every row is `length` bytes: k tokens of `width` bytes, each followed
    # by the separator, or by the newline after the last. Less its
    # expected byte, a digit column's byte is its digit (a byte below "0"
    # wraps past 9) and any other byte is 0.
    expected = np.tile(np.append(np.full(width, ord("0"), dtype=np.uint8),
                                 np.uint8(ord(sep))), tokens)
    expected[dot::width + 1] = ord(".")
    expected[-1] = ord("\n")
    most = np.where(expected == ord("0"), 9, 0).astype(np.uint8)
    columns = [c for c in range(width) if c != dot]
    digits_type = np.int32 if len(columns) <= 9 else np.int64
    scale = float(10 ** (width - 1 - dot))
    codes = np.frombuffer(data, dtype=np.uint8)
    blocks = np.lib.stride_tricks.sliding_window_view(codes, rows * length)
    values = np.empty((len(firsts), rows, tokens))
    step = max(1, _DECODE_BYTES // (rows * length))
    for at in range(0, len(firsts), step):
        block = blocks[firsts[at:at + step]].reshape(-1, length)
        np.subtract(block, expected, out=block)
        if not np.all(block.max(axis=0) <= most):
            return None
        digits = block.reshape(-1, width + 1)
        number = digits[:, columns[0]].astype(digits_type)
        for column in columns[1:]:
            number *= 10
            number += digits[:, column]
        np.divide(number, scale, out=values[at:at + step].reshape(-1))
    return values


def read_lines(path):
    r"""Yield (line_no, line) for each line of `path`, numbered from 1,
    without its line break; `\r\n` and a lone `\r` end a line as `\n`
    does. A byte that is not UTF-8 raises NotUtf8 with its line, which is
    found only on that error path."""
    try:
        with open(path, encoding="utf-8") as handle:
            for line_no, line in enumerate(handle, start=1):
                yield line_no, line.rstrip("\n")
    except UnicodeDecodeError:
        read_input(path)
        raise


def read_all_text(path) -> str:
    r"""The text of `path` with each `\r\n` and lone `\r` made `\n`, so
    that its lines break as in `read_lines`. The file is read and checked
    as UTF-8 whole, so a bad byte raises NotUtf8 before any line is looked
    at."""
    text = read_input(path).decode("utf-8")
    return text.replace("\r\n", "\n").replace("\r", "\n")


def read_all_lines(path) -> list[str]:
    r"""Every line of `read_all_text(path)`, line k at index k - 1, without
    its line break; a final line break leaves an empty last line."""
    return read_all_text(path).split("\n")


# --- report corpus ingestion ---

class EmptyReport(CxrLabelError):
    """Raw report text is blank."""


class MalformedRecord(CxrLabelError):
    def __init__(self, reason: str, line_no=None):
        super().__init__(_located(reason, "line", line_no))
        self.line_no = line_no


class DuplicateReportId(CxrLabelError):
    def __init__(self, report_id: str, line_no=None):
        reason = f"duplicate report id {report_id!r}"
        super().__init__(_located(reason, "line", line_no))
        self.report_id = report_id
        self.line_no = line_no


class BadHeadIndex(CxrLabelError):
    def __init__(self, reason: str, row_no=None):
        super().__init__(_located(reason, "row", row_no))
        self.row_no = row_no


class TokenCountMismatch(CxrLabelError):
    def __init__(self, reason: str, sentence_ref=None, line_no=None):
        reason = _located(reason, "sentence", sentence_ref)
        super().__init__(_located(reason, "line", line_no))
        self.sentence_ref = sentence_ref
        self.line_no = line_no


# --- lexicon / mentions ---

class BadCui(CxrLabelError):
    def __init__(self, cui: str, row_no=None):
        super().__init__(_located(f"bad CUI {cui!r}", "row", row_no))
        self.cui = cui
        self.row_no = row_no


class DuplicateEntry(CxrLabelError):
    def __init__(self, cui: str, phrase: str, row_no=None):
        reason = f"duplicate lexicon entry ({cui}, {phrase!r})"
        super().__init__(_located(reason, "row", row_no))
        self.cui = cui
        self.phrase = phrase
        self.row_no = row_no


class MalformedRow(CxrLabelError):
    def __init__(self, reason: str, row_no=None):
        super().__init__(_located(reason, "row", row_no))
        self.row_no = row_no


class SpanOutOfRange(CxrLabelError):
    def __init__(self, reason: str, mention=None):
        where = mention and f"{mention.sentence_ref} [{mention.start},{mention.end}]"
        super().__init__(_located(reason, "mention", where))
        self.mention = mention


# --- negation rules ---

class RuleParseError(CxrLabelError):
    def __init__(self, reason: str, line_no=None):
        super().__init__(_located(reason, "line", line_no))
        self.line_no = line_no


class UnknownDirection(RuleParseError):
    def __init__(self, direction: str, line_no=None):
        super().__init__(f"unknown direction {direction!r}", line_no)
        self.direction = direction


# --- labeling ---

class MissingGraph(CxrLabelError):
    def __init__(self, sentence_ref):
        super().__init__(f"no dependency graph for sentence {sentence_ref}")
        self.sentence_ref = sentence_ref


# --- numeric kernels ---

class NonPositiveR(CxrLabelError):
    """Pooling sharpness must be > 0."""


class EmptyRegion(CxrLabelError):
    """Pooling region has no cells."""


class DegenerateBatch(CxrLabelError):
    """Loss batch is empty or one-sided where balancing is required."""


class DimMismatch(CxrLabelError):
    """Inner dimensions of activation tensor and prediction weights disagree."""


class ZeroAreaDetection(CxrLabelError):
    """Detected box has zero area; overlap ratio undefined."""


# --- evaluation ---

class IdSetMismatch(CxrLabelError):
    """Predicted and gold label tables cover different report ids."""


class DegenerateLabels(CxrLabelError):
    """AUC needs at least one positive and one negative label."""


# --- corpus statistics ---

class EmptyCorpus(CxrLabelError):
    """Operation needs at least one patient/report."""


def label_set(name: str) -> str:
    """The key of `LABEL_SETS` that names `name` in any case."""
    key = name.lower()
    if key not in LABEL_SETS:
        raise MalformedRecord(f"unknown label set {name!r}")
    return key


# --- TSV rows; after the error classes, as MalformedRow is the default ---

def read_rows(path, width: int, what: str, error=MalformedRow):
    """The (line_no, fields) of each row of a TSV file: each line that
    holds more than whitespace and does not start with "#", split at tabs.
    The lines are those of `read_all_lines`, split in one pass. A row of
    other than `width` fields raises `error("<what> needs <width> fields",
    line_no)` only once the rows before it have been taken, so a caller's
    own check of an earlier row comes first."""
    lines = read_all_lines(path)
    rows = [(line_no, line.split("\t")) for line_no, line in enumerate(lines, start=1)
            if line and not line.isspace() and line[0] != "#"]
    if {len(fields) for _, fields in rows} <= {width}:
        return rows
    return _rows_up_to_error(rows, width, what, error)


def _rows_up_to_error(rows, width: int, what: str, error):
    """Yield `rows` up to the first of other than `width` fields, and
    raise its error there."""
    for line_no, fields in rows:
        if len(fields) != width:
            raise error(f"{what} needs {width} fields", line_no)
        yield line_no, fields
