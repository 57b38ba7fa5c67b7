"""Exception hierarchy shared across the pipeline.

Every error raised by this package derives from CxrLabelError so callers
(and the CLI) can tell pipeline failures apart from programming errors.
Location arguments (line_no, row_no) are optional: loaders supply them,
in-memory constructors do not. Loaders open their files with
`open_input`, which turns a file that is not UTF-8 into a located error.
"""

from contextlib import contextmanager


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


@contextmanager
def open_input(path, newline=None):
    """`open(path, encoding="utf-8", newline=newline)`, raising NotUtf8
    with the line of the first bad byte when the text does not decode.
    The line is found only on that error path."""
    try:
        with open(path, encoding="utf-8", newline=newline) as handle:
            yield handle
    except UnicodeDecodeError:
        with open(path, "rb") as handle:
            data = handle.read()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as err:
            raise NotUtf8(path, data.count(b"\n", 0, err.start) + 1) from None
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
    def __init__(self, cui: str, phrase: str):
        super().__init__(f"duplicate lexicon entry ({cui}, {phrase!r})")
        self.cui = cui
        self.phrase = phrase


class MalformedRow(CxrLabelError):
    def __init__(self, reason: str, row_no=None):
        super().__init__(_located(reason, "row", row_no))
        self.row_no = row_no


class SpanOutOfRange(CxrLabelError):
    def __init__(self, reason: str, mention=None):
        super().__init__(_located(reason, "mention", mention))
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
