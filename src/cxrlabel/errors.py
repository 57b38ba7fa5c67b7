"""Exception hierarchy shared across the pipeline.

Every error raised by this package derives from CxrLabelError so callers
(and the CLI) can tell pipeline failures apart from programming errors.
Location arguments (line_no, row_no) are optional: loaders supply them,
in-memory constructors do not. Loaders read their files only through
`read_input` (the bytes), `read_lines` (numbered lines) or `read_rows`
(the tab-separated rows of a TSV file); each turns a file that is not
UTF-8 into a located error.
"""


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


# --- TSV rows; after the error classes, as MalformedRow is the default ---

def read_rows(path, width: int, what: str, error=MalformedRow):
    """Yield (line_no, fields) for each row of a TSV file: each line that
    holds more than whitespace and does not start with "#", split at tabs.
    A row of other than `width` fields raises `error("<what> needs <width>
    fields", line_no)`. Lines break as in `read_lines`; the file is read
    and checked as UTF-8 whole, before the first row."""
    text = read_input(path).decode("utf-8")
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for line_no, line in enumerate(lines, start=1):
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != width:
            raise error(f"{what} needs {width} fields", line_no)
        yield line_no, fields
