"""Aggregate polarized mentions into per-report multi-label vectors.

Disease classes are scored over the findings and impression sections
when present (full report otherwise). A report with an all-zero vector
is split into NORMAL (no positively asserted disease anywhere) versus
OTHER_FINDINGS_ONLY (some disease asserted, just none of the targets
in scope).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional

from cxrlabel.errors import MalformedRecord, MissingGraph
from cxrlabel.lexicon import NORMAL_CONCEPT, ConceptMention
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


@dataclass(frozen=True)
class LabelConfig:
    name: str
    classes: tuple[str, ...]

    @property
    def C(self) -> int:
        return len(self.classes)


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
    from cxrlabel.lexicon import attach_mentions, match_concepts, merge_mention_sets

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


def read_labels_wide_csv(path, config: Optional[LabelConfig] = None):
    """Read the wide CSV back; infers the label config when not given."""
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if not header or header[0] != "report_id" or header[-1] != "status":
            raise MalformedRecord("wide label CSV needs report_id ... status header")
        classes = tuple(header[1:-1])
        if config is None:
            config = LabelConfig("custom", classes)
        elif config.classes != classes:
            raise MalformedRecord(
                f"CSV classes {classes} do not match config {config.classes}"
            )
        labels: list[ReportLabels] = []
        for row_no, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise MalformedRecord("wrong column count", row_no)
            try:
                y = tuple(int(v) for v in row[1:-1])
                status = Status(row[-1])
            except ValueError as err:
                raise MalformedRecord(str(err), row_no) from None
            labels.append(ReportLabels(row[0], y, status))
    return labels, config
