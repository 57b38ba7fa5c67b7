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
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Sequence

import numpy as np

from cxrlabel.errors import MalformedRecord, MissingGraph, open_input
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

    def records(self) -> list[ReportLabels]:
        return [
            ReportLabels(rid, tuple(row), STATUSES[code])
            for rid, row, code in zip(self.ids, self.y.tolist(), self.status.tolist())
        ]

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
    """Two passes: score target classes over the scoped sections, then
    decide normal status from positive disease mentions anywhere."""
    mine = [
        pm for pm in polarized_mentions
        if pm.mention.sentence_ref.report_id == report.report_id
    ]
    for pm in mine:
        if pm.mention.sentence_ref not in graphs:
            raise MissingGraph(pm.mention.sentence_ref)

    scoped = _scoped_sections(report)
    y = [0] * config.C
    disease_asserted = False
    for pm in mine:
        if pm.polarity is not Polarity.POSITIVE:
            continue
        category = pm.mention.category
        if category == NORMAL_CONCEPT:
            continue
        disease_asserted = True
        if pm.mention.sentence_ref.section in scoped and category in config.classes:
            y[config.classes.index(category)] = 1

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


def label_corpus(
    corpus: Corpus,
    mentions: Iterable[ConceptMention],
    ruleset: RuleSet,
    config: LabelConfig,
) -> list[ReportLabels]:
    """One ReportLabels per report, in corpus order."""
    mine: dict[str, list[PolarizedMention]] = {r.report_id: [] for r in corpus.reports}
    for pm in polarize_corpus(corpus, mentions, ruleset):
        mine[pm.mention.sentence_ref.report_id].append(pm)
    return [
        label_report(report, corpus.graphs, mine[report.report_id], config)
        for report in corpus.reports
    ]


def label_all(
    corpus: Corpus,
    lexicon,
    ruleset: RuleSet,
    config: LabelConfig,
    extra_mentions: Iterable[ConceptMention] = (),
) -> list[ReportLabels]:
    """Full pipeline: match concepts, merge external mentions, label."""
    internal = [m for s in corpus.sentences() for m in match_concepts(s, lexicon)]
    merged = merge_mention_sets(internal, attach_mentions(corpus, extra_mentions))
    return label_corpus(corpus, merged, ruleset, config)


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
    with open_input(path, newline="") as handle:
        text = handle.read()
    return _read_labels_plain(text, config) or _read_labels_by_row(text, config)


def plain_csv_lines(text: str) -> Optional[list[str]]:
    """The lines of `text` when it is not empty and has no quote and no
    carriage return, so that `csv.reader` reads each line as its
    comma-separated cells; None otherwise."""
    if not text or '"' in text or "\r" in text:
        return None
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def _read_labels_plain(text: str, config: Optional[LabelConfig]):
    """The table and config of `text` when it has plain lines, a valid
    header, unique ids, known statuses and rows of 0/1 cells that agree
    with their status; None otherwise."""
    lines = plain_csv_lines(text)
    if lines is None:
        return None
    header = lines[0].split(",")
    if len(header) < 3 or header[0] != "report_id" or header[-1] != "status":
        return None
    classes = tuple(header[1:-1])
    if len(set(classes)) != len(classes):
        return None
    if config is not None and config.classes != classes:
        return None
    ids, cells, statuses = [], [], []
    for line in lines[1:]:
        report_id, _, rest = line.partition(",")
        middle, _, status = rest.rpartition(",")
        ids.append(report_id)
        cells.append(middle)
        statuses.append(status)
    codes = [_STATUS_CODE.get(status) for status in statuses]
    # Each row's label cells read "d,d,...,d": 2C - 1 characters.
    joined = ",".join(cells + [""])
    if (
        None in codes
        or set(map(len, cells)) - {2 * len(classes) - 1}
        or not joined.isascii()
        or len(set(ids)) != len(ids)
    ):
        return None
    pairs = np.frombuffer(joined.encode(), dtype=np.uint8)
    pairs = pairs.reshape(len(ids), len(classes), 2)
    y = pairs[..., 0] - ord("0")  # any byte other than 0 or 1 wraps above 1
    if (pairs[..., 1] != ord(",")).any() or (y > 1).any():
        return None
    table = LabelTable(ids, y.astype(np.int8), np.array(codes, dtype=np.int8))
    if (table.y.any(axis=1) != table.has_status(Status.TARGET_FINDINGS)).any():
        return None
    return table, config or LabelConfig("custom", classes)


def _read_labels_by_row(text: str, config: Optional[LabelConfig]):
    reader = csv.reader(io.StringIO(text, newline=""))
    header = next(reader, None)
    if not header or header[0] != "report_id" or header[-1] != "status":
        raise MalformedRecord("wide label CSV needs report_id ... status header", 1)
    classes = tuple(header[1:-1])
    check_class_names(classes, 1)
    if config is None:
        config = LabelConfig("custom", classes)
    elif config.classes != classes:
        raise MalformedRecord(
            f"CSV classes {classes} do not match config {config.classes}", 1
        )
    labels: list[ReportLabels] = []
    seen: set[str] = set()
    for row_no, row in enumerate(reader, start=2):
        if len(row) != len(header):
            raise MalformedRecord("wrong column count", row_no)
        try:
            y = tuple(int(v) for v in row[1:-1])
            labels.append(ReportLabels(row[0], y, Status(row[-1])))
        except (ValueError, MalformedRecord) as err:
            raise MalformedRecord(str(err), row_no) from None
        if row[0] in seen:
            raise MalformedRecord(f"duplicate report id {row[0]!r}", row_no)
        seen.add(row[0])
    return LabelTable.from_records(labels, config), config
