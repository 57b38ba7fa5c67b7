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
import warnings
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, Optional, Sequence

from cxrlabel.errors import MalformedRecord, MissingGraph, read_input
from cxrlabel.lazy import np
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

    @cached_property
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


@dataclass(frozen=True)
class ReportLabels:
    report_id: str
    y: tuple[int, ...]
    status: Status

    def __post_init__(self):
        if any(v not in (0, 1) for v in self.y):
            raise MalformedRecord(f"non-binary label vector for {self.report_id}")
        has_positive = any(self.y)
        if has_positive != (self.status is Status.TARGET_FINDINGS):
            raise MalformedRecord(
                f"status {self.status.value} inconsistent with vector"
                f" for {self.report_id}"
            )

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
        when the two id sets differ."""
        if len(ids) != len(self.ids):
            return None
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
    return ReportLabels(report.report_id, tuple(y), status)


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

    A file of plain cells is read in one pass over its lines; any other
    goes through the per-row csv parser, which names the bad line.
    """
    text = read_input(path).decode("utf-8")
    return _read_labels_plain(text, config) or _read_labels_by_row(text, config)


def read_scores_csv(path) -> tuple[list[str], list[str], np.ndarray]:
    """Classes, report ids and the (N, K) score matrix of a scores CSV.

    A file of plain cells is read with one `np.loadtxt`; any other goes
    through the per-row csv parser, which names the bad line.
    """
    text = read_input(path).decode("utf-8")
    return _read_scores_plain(text) or _read_scores_by_row(text)


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


def _read_labels_plain(text: str, config: Optional[LabelConfig]):
    """The table and config of `text` when it has plain lines and each row
    has 0/1 cells that agree with its known status; None otherwise."""
    plain = _plain_rows(text, lambda header: _labels_config(header, config))
    if plain is None:
        return None
    config, ids, rests = plain
    width = 2 * config.C  # each rest is "d,d,...,d," and then its status
    codes = [_STATUS_CODE.get(rest[width:]) for rest in rests]
    joined = "".join(rest[:width] for rest in rests)
    if None in codes or not joined.isascii():
        return None
    pairs = np.frombuffer(joined.encode(), dtype=np.uint8)
    pairs = pairs.reshape(len(ids), config.C, 2)
    y = pairs[..., 0] - ord("0")  # any byte other than 0 or 1 wraps above 1
    if (pairs[..., 1] != ord(",")).any() or (y > 1).any():
        return None
    table = LabelTable(ids, y.astype(np.int8), np.array(codes, dtype=np.int8))
    if (table.y.any(axis=1) != table.has_status(Status.TARGET_FINDINGS)).any():
        return None
    return table, config


def _read_scores_plain(text: str):
    """The scores of `text` when it has plain lines, unique ids and as
    many finite numbers in each row as there are classes; None otherwise."""
    plain = _plain_rows(text, _header_classes)
    if plain is None:
        return None
    classes, ids, rests = plain
    try:
        # loadtxt reads a subset of the tokens float() reads, to the same
        # values; it skips blank rests, and warns when all are blank.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            values = np.loadtxt(rests, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    if values.shape != (len(ids), len(classes)) or not np.isfinite(values).all():
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
