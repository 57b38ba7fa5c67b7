"""Aggregate polarized mentions into per-report multi-label vectors.

Disease classes are scored over the findings and impression sections
when present (full report otherwise). A report with an all-zero vector
is split into NORMAL (no positively asserted disease anywhere) versus
OTHER_FINDINGS_ONLY (some disease asserted, just none of the targets
in scope).
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, NamedTuple, Optional, Sequence

from cxrlabel.errors import (
    MalformedRecord,
    MissingGraph,
    decode_fixed_width,
    loadtxt,
    read_input,
)
from cxrlabel.lazy import lazy_property, np
from cxrlabel.lexicon import (
    NORMAL_CONCEPT,
    ConceptMention,
    attach_mentions,
    match_concepts,
    merge_mention_sets,
)
from cxrlabel.negation import Polarity, PolarizedMention, RuleSet, apply_rules
from cxrlabel.reports import Corpus, DependencyGraph, RadiologyReport, SentenceRef

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


class Status(Enum):
    TARGET_FINDINGS = "TARGET_FINDINGS"
    OTHER_FINDINGS_ONLY = "OTHER_FINDINGS_ONLY"
    NORMAL = "NORMAL"


# A label table stores each status as its index here.
STATUSES = tuple(Status)
_STATUS_CODE = {status.value: code for code, status in enumerate(STATUSES)}


@dataclass(frozen=True)
class LabelConfig:
    name: str
    classes: tuple[str, ...]

    def __post_init__(self):
        check_class_names(self.classes)

    @property
    def C(self) -> int:
        return len(self.classes)

    @lazy_property
    def column(self) -> dict[str, int]:
        """The column of each class."""
        return {name: k for k, name in enumerate(self.classes)}


def check_class_names(classes: Sequence[str], line_no=None):
    """Reject a class named twice: its columns could not be told apart."""
    if len(set(classes)) != len(classes):
        repeated = next(c for k, c in enumerate(classes) if c in classes[:k])
        raise MalformedRecord(f"repeated class name {repeated!r}", line_no)


CONFIG_X8 = LabelConfig("x8", X8_CLASSES)
CONFIG_X14 = LabelConfig("x14", X14_CLASSES)

_CONFIGS = {"x8": CONFIG_X8, "x14": CONFIG_X14}


def get_config(name: str) -> LabelConfig:
    try:
        return _CONFIGS[name.lower()]
    except KeyError:
        raise MalformedRecord(f"unknown label set {name!r}") from None


class _LabelsFields(NamedTuple):
    report_id: str
    y: tuple[int, ...]
    status: Status


class ReportLabels(_LabelsFields):
    """A report's 0/1 vector and status: a named tuple of its fields.
    `label_report`, whose vector and status hold by construction, builds
    it with `tuple.__new__`."""

    __slots__ = ()

    def __new__(cls, report_id: str, y: tuple[int, ...], status: Status):
        if any(v not in (0, 1) for v in y):
            raise MalformedRecord(f"non-binary label vector for {report_id}")
        if any(y) != (status is Status.TARGET_FINDINGS):
            raise MalformedRecord(
                f"status {status.value} inconsistent with vector for {report_id}"
            )
        return tuple.__new__(cls, (report_id, y, status))

    def positive_classes(self, config: LabelConfig) -> tuple[str, ...]:
        return tuple(c for c, v in zip(config.classes, self.y) if v)


@dataclass(frozen=True, eq=False)
class LabelTable:
    """Label rows as arrays: the report ids (unique), an (N, C) int8 matrix
    of 0/1 labels and an (N,) int8 array of indexes into STATUSES."""

    ids: list[str]
    y: np.ndarray
    status: np.ndarray

    @classmethod
    def from_records(
        cls, records: Iterable[ReportLabels], config: LabelConfig
    ) -> "LabelTable":
        records = list(records)
        ids = [record.report_id for record in records]
        seen: set[str] = set()
        for record in records:
            if record.report_id in seen:
                raise MalformedRecord(f"duplicate report id {record.report_id!r}")
            seen.add(record.report_id)
        y = np.array([record.y for record in records], dtype=np.int8)
        status = [_STATUS_CODE[record.status.value] for record in records]
        return cls(ids, y.reshape(len(ids), config.C), np.array(status, dtype=np.int8))

    def has_status(self, status: Status) -> np.ndarray:
        return self.status == STATUSES.index(status)

    def rows_of(self, ids: list[str]) -> Optional[np.ndarray]:
        """The row of each of `ids` (no id twice) in this table, or None
        when the two id sets differ. Ids in this table's order, as a
        table's own files list them, need no join."""
        if len(ids) != len(self.ids):
            return None
        if ids == self.ids:
            return np.arange(len(ids), dtype=np.intp)
        row = dict(zip(self.ids, range(len(self.ids))))
        try:
            return np.array([row[rid] for rid in ids], dtype=np.intp)
        except KeyError:
            return None


def label_table(labels, config: LabelConfig) -> LabelTable:
    """`labels` if it is a LabelTable, else the table of its records."""
    if isinstance(labels, LabelTable):
        return labels
    return LabelTable.from_records(labels, config)


def _scoped_sections(report: RadiologyReport) -> set[str]:
    if "findings" in report.sections or "impression" in report.sections:
        return {"findings", "impression"}
    return set(report.sections)


def label_report(
    report: RadiologyReport,
    graphs: dict[SentenceRef, DependencyGraph],
    polarized_mentions: Iterable[PolarizedMention],
    config: LabelConfig,
) -> ReportLabels:
    """Label one report from its own polarized mentions: target classes
    are scored over the scoped sections, normal status is decided from
    positive disease mentions anywhere."""
    scoped = _scoped_sections(report)
    column = config.column
    y = [0] * config.C
    disease_asserted = False
    for pm in polarized_mentions:
        mention = pm.mention
        if mention.sentence_ref not in graphs:
            raise MissingGraph(mention.sentence_ref)
        if pm.polarity is not Polarity.POSITIVE or mention.category == NORMAL_CONCEPT:
            continue
        disease_asserted = True
        k = column.get(mention.category)
        if k is not None and mention.sentence_ref.section in scoped:
            y[k] = 1

    if any(y):
        status = Status.TARGET_FINDINGS
    elif disease_asserted:
        status = Status.OTHER_FINDINGS_ONLY
    else:
        status = Status.NORMAL
    return tuple.__new__(ReportLabels, (report.report_id, tuple(y), status))


def polarize_corpus(
    corpus: Corpus,
    mentions: Iterable[ConceptMention],
    ruleset: RuleSet,
) -> list[PolarizedMention]:
    """Run the rule engine over every mention, grouped by sentence."""
    by_sentence: dict[SentenceRef, list[ConceptMention]] = {}
    for mention in mentions:
        by_sentence.setdefault(mention.sentence_ref, []).append(mention)
    polarized: list[PolarizedMention] = []
    for ref in sorted(by_sentence):
        graph = corpus.graphs.get(ref)
        if graph is None:
            raise MissingGraph(ref)
        polarized.extend(apply_rules(graph, by_sentence[ref], ruleset))
    return polarized


def _label_reports(
    work: Iterable[tuple[RadiologyReport, Iterable[tuple[SentenceRef, list]]]],
    graphs: dict[SentenceRef, DependencyGraph],
    ruleset: RuleSet,
    config: LabelConfig,
    missing: list[SentenceRef],
) -> list[ReportLabels]:
    """Label each report of `work` from the mentions of each of its
    sentences, one report at a time.

    A sentence with mentions but no graph joins `missing`; when any is
    missing, MissingGraph names the first of them in sorted order, as a
    pass over all sentences in that order would.
    """
    labels: list[ReportLabels] = []
    for report, sentences in work:
        polarized: list[PolarizedMention] = []
        for ref, mentions in sentences:
            graph = graphs.get(ref)
            if graph is None:
                missing.append(ref)
            elif not missing:
                polarized += apply_rules(graph, mentions, ruleset)
        if not missing:
            labels.append(label_report(report, graphs, polarized, config))
    if missing:
        raise MissingGraph(min(missing))
    return labels


def label_corpus(
    corpus: Corpus,
    mentions: Iterable[ConceptMention],
    ruleset: RuleSet,
    config: LabelConfig,
) -> list[ReportLabels]:
    """One ReportLabels per report, in corpus order."""
    by_report: dict[str, dict[SentenceRef, list[ConceptMention]]] = {
        report.report_id: {} for report in corpus.reports
    }
    strays: list[SentenceRef] = []  # sentences of no report, so of no graph
    for mention in mentions:
        ref = mention.sentence_ref
        sentences = by_report.get(ref.report_id)
        if sentences is None:
            strays.append(ref)
        else:
            sentences.setdefault(ref, []).append(mention)
    work = ((r, by_report[r.report_id].items()) for r in corpus.reports)
    return _label_reports(work, corpus.graphs, ruleset, config, strays)


def _sentence_mentions(report: RadiologyReport, lexicon, external):
    """(ref, mentions) of each sentence of `report` that has mentions: the
    lexicon matches, merged with the sentence's external mentions if any."""
    for sentence in report.sentences:
        mentions = match_concepts(sentence, lexicon)
        extra = external.get(sentence.ref)
        if extra:
            mentions = merge_mention_sets(mentions, extra)
        if mentions:
            yield sentence.ref, mentions


def label_all(
    corpus: Corpus,
    lexicon,
    ruleset: RuleSet,
    config: LabelConfig,
    extra_mentions: Iterable[ConceptMention] = (),
) -> list[ReportLabels]:
    """Full pipeline, one report at a time: match concepts, merge external
    mentions into the sentences they name, polarize, label."""
    external: dict[SentenceRef, list[ConceptMention]] = {}
    for mention in attach_mentions(corpus, extra_mentions):
        external.setdefault(mention.sentence_ref, []).append(mention)
    work = ((r, _sentence_mentions(r, lexicon, external)) for r in corpus.reports)
    return _label_reports(work, corpus.graphs, ruleset, config, [])


# --- label table I/O ---

def write_labels_tsv(labels: Iterable[ReportLabels], config: LabelConfig, handle):
    for record in labels:
        names = "|".join(record.positive_classes(config))
        handle.write(f"{record.report_id}\t{record.status.value}\t{names}\n")


def write_labels_wide_csv(labels: Iterable[ReportLabels], config: LabelConfig, handle):
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(["report_id", *config.classes, "status"])
    for record in labels:
        writer.writerow([record.report_id, *record.y, record.status.value])


def read_labels_wide_csv(
    path, config: Optional[LabelConfig] = None
) -> tuple[LabelTable, LabelConfig]:
    """Read the wide CSV back; infers the label config when not given.

    A file of plain cells is decoded from its bytes in one pass; any other
    goes through the per-row csv parser, which names the bad line.
    """
    data = read_input(path)
    return (_read_labels_plain(data, config)
            or _read_labels_by_row(data.decode("utf-8"), config))


def read_scores_csv(path) -> tuple[list[str], list[str], np.ndarray]:
    """Classes, report ids and the (N, K) score matrix of a scores CSV.

    The file is read by the first of three tiers that takes it, each to
    the same values: a file of fixed-width cells ("%.6f" of scores in
    [0, 10)) is decoded from its bytes (`_read_scores_fixed`); any other
    file of plain cells is read with one `np.loadtxt`; any other goes
    through the per-row csv parser, which names the bad line.
    """
    data = read_input(path)
    scores = _read_scores_fixed(data)
    if scores is None:
        text = data.decode("utf-8")
        scores = _read_scores_plain(text) or _read_scores_by_row(text)
    return scores


_SCORES_HEADER = "scores CSV needs a report_id header column"


def _header_classes(header, need: str = _SCORES_HEADER, last: str = "") -> list[str]:
    """The cells after `report_id` (and before `last`, when given). A bad
    header raises `need`, a repeated class its own error, both at line 1."""
    if not header or header[0] != "report_id" or (last and header[-1] != last):
        raise MalformedRecord(need, 1)
    classes = header[1:-1] if last else header[1:]
    check_class_names(classes, 1)
    return classes


def _labels_config(header: Optional[list[str]], config: Optional[LabelConfig]):
    """The config of a label CSV header: `config` if given, which it must match."""
    classes = tuple(_header_classes(
        header, "wide label CSV needs report_id ... status header", "status"
    ))
    if config is None:
        return LabelConfig("custom", classes)
    if config.classes != classes:
        raise MalformedRecord(
            f"CSV classes {classes} do not match config {config.classes}", 1
        )
    return config


def _plain_rows(text: str, check_header):
    """`check_header(header)`, the ids and the rests (each row after its id)
    of `text` when it is not empty, has no id twice and no quote or carriage
    return (so that each line's cells are its comma-separated parts); else None."""
    if not text or '"' in text or "\r" in text:
        return None
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    checked = check_header(lines[0].split(","))
    ids, rests = [], []
    for line in lines[1:]:
        report_id, _, rest = line.partition(",")
        ids.append(report_id)
        rests.append(rest)
    if len(set(ids)) != len(ids):
        return None
    return checked, ids, rests


def _read_labels_plain(data: bytes, config: Optional[LabelConfig]):
    """The table and config of the label CSV `data`, decoded from its bytes,
    when it is not empty, has no quote or carriage return, no id twice, and
    each row after the header is an id without a comma, a comma, C cells of
    0 or 1 each followed by a comma, then a status that agrees with those
    cells; None otherwise."""
    if not data or b'"' in data or b"\r" in data:
        return None
    if not data.endswith(b"\n"):
        data += b"\n"  # the last row reads the same without it
    codes = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero(codes == ord("\n"))
    header = data[:ends[0]].decode("utf-8").split(",")
    config = _labels_config(header, config)
    starts, ends = ends[:-1] + 1, ends[1:]  # of the rows after the header
    width = 2 * config.C  # each row's "d,d,...,d," block
    # Each status ends in a byte of its own: tell each row's status by its
    # last byte, and so where its block starts; then check the status's bytes.
    last = codes[ends - 1]
    status = np.full(len(starts), -1, dtype=np.int8)
    block = ends - width
    values = [(code, name.value.encode()) for code, name in enumerate(STATUSES)]
    for code, value in values:
        rows = last == value[-1]
        status[rows] = code
        block[rows] -= len(value)
    if (status < 0).any() or (block <= starts).any():
        return None
    for code, value in values:
        rows = np.flatnonzero(status == code)
        if len(rows) and (_windows(codes, len(value))[block[rows] + width]
                          != np.frombuffer(value, dtype=np.uint8)).any():
            return None
    pairs = _windows(codes, width)[block].reshape(len(starts), config.C, 2)
    y = pairs[..., 0] - ord("0")  # any byte other than 0 or 1 wraps above 1
    if (pairs[..., 1] != ord(",")).any() or (y > 1).any():
        return None
    y = y.astype(np.int8)
    # numpy reduces along contiguous rows far faster than along a short axis.
    found = np.ascontiguousarray(y.T).any(axis=0)
    if (found != (status == STATUSES.index(Status.TARGET_FINDINGS))).any():
        return None
    ids = _row_ids(codes, starts, block)
    if ids is None:
        return None
    return LabelTable(ids, y, status), config


def _row_ids(codes: np.ndarray, starts: np.ndarray, stops: np.ndarray):
    """The id of each row of a plain CSV's bytes `codes`: the bytes from
    the row's start up to the comma just before its stop; or None when a
    stop does not follow a comma of its row, an id holds a comma or an id
    repeats.

    Each id and the comma after it are gathered by one mask into
    "id,id,...,id,", so a row whose id holds a comma splits into more
    than one id."""
    if (stops <= starts).any() or (codes[stops - 1] != ord(",")).any():
        return None
    edges = np.empty(2 * len(starts) + 2, dtype=np.intp)
    edges[0], edges[1:-1:2], edges[2:-1:2], edges[-1] = 0, starts, stops, len(codes)
    keep = np.zeros(len(edges) - 1, dtype=bool)
    keep[1::2] = True
    ids = codes[np.repeat(keep, np.diff(edges))].tobytes().decode("utf-8")
    ids = ids.split(",")[:-1]
    if len(ids) != len(starts) or len(set(ids)) != len(ids):
        return None
    return ids


def _windows(codes: np.ndarray, width: int) -> np.ndarray:
    """The view of `codes` whose row i is `codes[i:i + width]`."""
    return np.lib.stride_tricks.sliding_window_view(codes, width)


def _read_scores_fixed(data: bytes):
    """The scores of the CSV `data`, decoded from its bytes, when it has
    rows after its header, no quote or carriage return, no id twice, and
    each row is an id without a comma, a comma, then one cell per class,
    all of the same width, that `decode_fixed_width` decodes; None
    otherwise.

    All newlines are found in one pass over the bytes. The first row's
    first comma gives the byte length of the cells, and so where each
    row's cells start: just after its id's comma, which `_row_ids` checks.
    """
    if not data or b'"' in data or b"\r" in data:
        return None
    if not data.endswith(b"\n"):
        data += b"\n"  # the last row reads the same without it
    codes = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero(codes == ord("\n"))
    classes = _header_classes(data[:ends[0]].decode("utf-8").split(","))
    if len(ends) < 2:
        return None
    starts, ends = ends[:-1] + 1, ends[1:]  # of the rows after the header
    length = int(ends[0]) - data.find(b",", int(starts[0]), int(ends[0]))
    if length > int(ends[0]) - int(starts[0]):
        return None  # the first row has no comma
    cells = ends + 1 - length
    values = decode_fixed_width(data, cells, length, 1, b",")
    if values is None or values.shape[2] != len(classes):
        return None
    ids = _row_ids(codes, starts, cells)
    if ids is None:
        return None
    return classes, ids, values.reshape(len(ids), len(classes))


def _read_scores_plain(text: str):
    """The scores of `text` when it has plain lines, unique ids and as
    many finite numbers in each row as there are classes; None otherwise."""
    plain = _plain_rows(text, _header_classes)
    if plain is None:
        return None
    classes, ids, rests = plain
    values = loadtxt(rests, delimiter=",")
    if (values is None or values.shape != (len(ids), len(classes))
            or not np.isfinite(values).all()):
        return None
    return classes, ids, values


def _parse_rows(text: str, check_header, parse_row):
    """`check_header(header)`, the ids and `parse_row(row)` of each row of
    `text` as `csv.reader` reads it. A row error (column count, then cells,
    then a repeated id) names the line the row starts on."""
    reader = csv.reader(io.StringIO(text, newline=""))
    header = next(reader, None)
    checked = check_header(header)
    ids: dict[str, None] = {}  # in row order
    parsed: list = []
    line_no = reader.line_num + 1
    for row in reader:
        if len(row) != len(header):
            raise MalformedRecord("wrong column count", line_no)
        try:
            parsed.append(parse_row(row))
        except (ValueError, MalformedRecord) as err:
            raise MalformedRecord(str(err), line_no) from None
        if row[0] in ids:
            raise MalformedRecord(f"duplicate report id {row[0]!r}", line_no)
        ids[row[0]] = None
        line_no = reader.line_num + 1
    return checked, list(ids), parsed


def _label_row(row: list[str]) -> ReportLabels:
    return ReportLabels(row[0], tuple(int(v) for v in row[1:-1]), Status(row[-1]))


def _score_row(row: list[str]) -> list[float]:
    values = [float(v) for v in row[1:]]
    if not all(map(math.isfinite, values)):
        raise ValueError(f"non-finite score in row {row!r}")
    return values


def _read_labels_by_row(text: str, config: Optional[LabelConfig]):
    config, _, records = _parse_rows(
        text, lambda header: _labels_config(header, config), _label_row
    )
    return LabelTable.from_records(records, config), config


def _read_scores_by_row(text: str):
    classes, ids, rows = _parse_rows(text, _header_classes, _score_row)
    values = np.array(rows, dtype=float).reshape(len(rows), len(classes))
    return classes, ids, values
