"""Exception hierarchy shared across the pipeline.

Every error raised by this package derives from CxrLabelError so callers
(and the CLI) can tell pipeline failures apart from programming errors.
Location arguments (line_no, row_no) are optional: loaders supply them,
in-memory constructors do not.
"""


def _located(reason: str, label: str, location) -> str:
    if location is None:
        return reason
    return f"{label} {location}: {reason}"


class CxrLabelError(Exception):
    """Base class for all cxrlabel errors."""


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
    def __init__(self, reason: str, sentence_ref=None):
        super().__init__(_located(reason, "sentence", sentence_ref))
        self.sentence_ref = sentence_ref


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
