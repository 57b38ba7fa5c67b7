"""Report-level label vectors, statuses, and label table I/O."""

import io
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cxrlabel.errors import MalformedRecord, MissingGraph
from cxrlabel.labeling import (
    CONFIG_X8,
    CONFIG_X14,
    LabelConfig,
    LabelTable,
    ReportLabels,
    Status,
    X8_CLASSES,
    X14_CLASSES,
    _read_labels_by_row,
    get_config,
    label_all,
    label_corpus,
    read_labels_wide_csv,
    write_labels_tsv,
    write_labels_wide_csv,
)
from cxrlabel.lexicon import ConceptMention, default_lexicon
from cxrlabel.negation import default_rules
from cxrlabel.reports import Corpus, RadiologyReport, SentenceRef

from conftest import make_graph, make_sentence, mutated_csv

GOLD = Path(__file__).parent / "data" / "gold_labels.csv"

LEXICON = default_lexicon()
RULES = default_rules()

LABEL_TOKENS = [
    "0", "1", "2", "01", " 1", "1 ", "+1", "-0", "", "x", "1_0", "\u0661",
    "NORMAL", "TARGET_FINDINGS", "OTHER_FINDINGS_ONLY", "normal", "HEALTHY",
    "r0", "r1",
]


@st.composite
def label_csv_cases(draw):
    """A mutated wide label CSV and the config (or None) to read it with."""
    classes = draw(st.sampled_from([X8_CLASSES, X14_CLASSES, ("A", "B", "C"), ("A",)]))
    rows = [["report_id", *classes, "status"]]
    for i in range(draw(st.integers(0, 6))):
        y = draw(st.lists(st.sampled_from("01"), min_size=len(classes),
                          max_size=len(classes)))
        status = "TARGET_FINDINGS" if "1" in y else draw(
            st.sampled_from(["NORMAL", "OTHER_FINDINGS_ONLY"]))
        rows.append([f"r{i}", *y, status])
    text = draw(mutated_csv(rows, LABEL_TOKENS))
    config = draw(st.sampled_from([None, LabelConfig("given", classes), CONFIG_X8]))
    return text, config


def table_or_error(read, *args):
    try:
        table, config = read(*args)
    except MalformedRecord as err:
        return str(err)
    return (config, table.records(), table.y.dtype, table.y.shape,
            table.status.dtype, table.status.shape)


def corpus_of(*reports: RadiologyReport) -> Corpus:
    graphs = {}
    for report in reports:
        for section, text in report.sections.items():
            sentence = make_sentence(text, report.report_id, section)
            graphs[sentence.ref] = make_graph(sentence, [])
    return Corpus(tuple(reports), graphs)


class TestConfigs:
    def test_class_sets(self):
        assert CONFIG_X8.C == 8
        assert CONFIG_X14.C == 14
        assert X14_CLASSES[:8] == X8_CLASSES
        assert get_config("X14") is CONFIG_X14
        with pytest.raises(MalformedRecord):
            get_config("x99")

    def test_report_labels_validation(self):
        with pytest.raises(MalformedRecord):
            ReportLabels("r", (0, 2), Status.TARGET_FINDINGS)
        with pytest.raises(MalformedRecord):
            ReportLabels("r", (0, 0), Status.TARGET_FINDINGS)
        with pytest.raises(MalformedRecord):
            ReportLabels("r", (1, 0), Status.NORMAL)
        good = ReportLabels("r", (1, 0, 1, 0, 0, 0, 0, 0), Status.TARGET_FINDINGS)
        assert good.positive_classes(CONFIG_X8) == ("Atelectasis", "Effusion")


class TestLabeling:
    def test_positive_target_mentions_set_bits(self):
        corpus = corpus_of(
            RadiologyReport(
                "r1", "p1",
                {"findings": "pleural effusion and cardiomegaly", "impression": "stable"},
            )
        )
        labels = label_all(corpus, LEXICON, RULES, CONFIG_X8)
        assert labels[0].positive_classes(CONFIG_X8) == ("Cardiomegaly", "Effusion")
        assert labels[0].status is Status.TARGET_FINDINGS

    def test_negated_mentions_do_not_count(self):
        report = RadiologyReport("r1", "p1", {"findings": "no pneumothorax"})
        sentence = make_sentence("no pneumothorax", "r1", "findings")
        graphs = {sentence.ref: make_graph(sentence, [(2, 1, "neg")])}
        corpus = Corpus((report,), graphs)
        labels = label_all(corpus, LEXICON, RULES, CONFIG_X8)
        assert labels[0].y == (0,) * 8
        assert labels[0].status is Status.NORMAL

    def test_uncertain_mentions_do_not_count(self):
        report = RadiologyReport("r1", "p1", {"findings": "could be pneumonia"})
        corpus = corpus_of(report)
        labels = label_all(corpus, LEXICON, RULES, CONFIG_X8)
        assert labels[0].y == (0,) * 8
        assert labels[0].status is Status.NORMAL

    def test_other_disease_outside_targets_gives_other_findings(self):
        corpus = corpus_of(
            RadiologyReport("r1", "p1", {"findings": "mild scoliosis"})
        )
        labels = label_all(corpus, LEXICON, RULES, CONFIG_X8)
        assert labels[0].y == (0,) * 8
        assert labels[0].status is Status.OTHER_FINDINGS_ONLY

    def test_x8_ignores_x14_only_classes_in_vector_but_not_status(self):
        corpus = corpus_of(
            RadiologyReport("r1", "p1", {"findings": "hiatal hernia present"})
        )
        x8 = label_all(corpus, LEXICON, RULES, CONFIG_X8)[0]
        assert x8.y == (0,) * 8
        assert x8.status is Status.OTHER_FINDINGS_ONLY
        x14 = label_all(corpus, LEXICON, RULES, CONFIG_X14)[0]
        assert x14.positive_classes(CONFIG_X14) == ("Hernia",)

    def test_scope_excludes_indication_when_findings_present(self):
        corpus = corpus_of(
            RadiologyReport(
                "r1", "p1",
                {"indication": "known pneumonia", "findings": "lungs are normal"},
            )
        )
        labels = label_all(corpus, LEXICON, RULES, CONFIG_X8)
        # The indication mention asserts disease but cannot set a target bit.
        assert labels[0].y == (0,) * 8
        assert labels[0].status is Status.OTHER_FINDINGS_ONLY

    def test_full_report_scope_when_no_findings_or_impression(self):
        corpus = corpus_of(
            RadiologyReport("r1", "p1", {"other": "large pleural effusion"})
        )
        labels = label_all(corpus, LEXICON, RULES, CONFIG_X8)
        assert labels[0].positive_classes(CONFIG_X8) == ("Effusion",)

    def test_normal_requires_no_positive_disease_anywhere(self):
        corpus = corpus_of(
            RadiologyReport("r1", "p1", {"findings": "heart size normal"}),
            RadiologyReport("r2", "p1", {"findings": "clear lungs"}),
        )
        labels = label_all(corpus, LEXICON, RULES, CONFIG_X8)
        assert [r.status for r in labels] == [Status.NORMAL, Status.NORMAL]

    def test_labels_follow_corpus_order(self):
        corpus = corpus_of(
            RadiologyReport("r2", "p1", {"findings": "pneumonia"}),
            RadiologyReport("r1", "p2", {"findings": "clear"}),
        )
        labels = label_all(corpus, LEXICON, RULES, CONFIG_X8)
        assert [r.report_id for r in labels] == ["r2", "r1"]

    def test_missing_graph_for_mention_sentence_raises(self):
        report = RadiologyReport("r1", "p1", {"findings": "pneumonia"})
        corpus = Corpus((report,))  # no graphs at all
        mention = ConceptMention(
            SentenceRef("r1", "findings", 0), 1, 1, "C0032285", "Pneumonia"
        )
        with pytest.raises(MissingGraph):
            label_corpus(corpus, [mention], RULES, CONFIG_X8)


class TestLabelTables:
    LABELS = [
        ReportLabels("r1", (1, 0, 1, 0, 0, 0, 0, 0), Status.TARGET_FINDINGS),
        ReportLabels("r2", (0,) * 8, Status.NORMAL),
        ReportLabels("r3", (0,) * 8, Status.OTHER_FINDINGS_ONLY),
    ]

    def test_tsv_rows(self):
        buf = io.StringIO()
        write_labels_tsv(self.LABELS, CONFIG_X8, buf)
        assert buf.getvalue().splitlines() == [
            "r1\tTARGET_FINDINGS\tAtelectasis|Effusion",
            "r2\tNORMAL\t",
            "r3\tOTHER_FINDINGS_ONLY\t",
        ]

    def test_wide_csv_round_trip(self, tmp_path):
        path = tmp_path / "labels.csv"
        with open(path, "w", encoding="utf-8") as handle:
            write_labels_wide_csv(self.LABELS, CONFIG_X8, handle)
        loaded, config = read_labels_wide_csv(path)
        assert loaded.records() == self.LABELS
        assert config.classes == CONFIG_X8.classes

    def test_wide_csv_header(self, tmp_path):
        path = tmp_path / "labels.csv"
        with open(path, "w", encoding="utf-8") as handle:
            write_labels_wide_csv(self.LABELS, CONFIG_X8, handle)
        header = path.read_text(encoding="utf-8").splitlines()[0]
        assert header == "report_id," + ",".join(X8_CLASSES) + ",status"

    def test_wide_csv_config_mismatch_rejected(self, tmp_path):
        path = tmp_path / "labels.csv"
        with open(path, "w", encoding="utf-8") as handle:
            write_labels_wide_csv(self.LABELS, CONFIG_X8, handle)
        with pytest.raises(MalformedRecord):
            read_labels_wide_csv(path, CONFIG_X14)

    def test_wide_csv_bad_header_rejected(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("id,Atelectasis\nr1,0\n", encoding="utf-8")
        with pytest.raises(MalformedRecord):
            read_labels_wide_csv(path)

    def test_plain_csv_skips_the_row_parser(self):
        with mock.patch("cxrlabel.labeling._read_labels_by_row",
                        side_effect=AssertionError):
            table, config = read_labels_wide_csv(GOLD)
        assert (table.y.dtype, table.y.shape) == (np.int8, (20, 8))
        assert table.records() == read_labels_wide_csv(GOLD, config)[0].records()

    @settings(max_examples=600, deadline=None)
    @given(case=label_csv_cases())
    def test_reader_equals_per_row_parser(self, tmp_path_factory, case):
        text, config = case
        path = tmp_path_factory.getbasetemp() / "mutated_labels.csv"
        path.write_bytes(text.encode("utf-8"))
        assert table_or_error(read_labels_wide_csv, path, config) == table_or_error(
            _read_labels_by_row, text, config
        )

    @pytest.mark.parametrize("row, reason", [
        ("r1,0,2,NORMAL", "non-binary label vector for r1"),
        ("r1,0,0,TARGET_FINDINGS",
         "status TARGET_FINDINGS inconsistent with vector for r1"),
        ("r1,1,0,NORMAL", "status NORMAL inconsistent with vector for r1"),
        ("r0,1,1,TARGET_FINDINGS", "duplicate report id 'r0'"),
    ])
    def test_bad_row_named_by_its_line(self, tmp_path, row, reason):
        path = tmp_path / "labels.csv"
        path.write_text(f"report_id,A,B,status\nr0,1,0,TARGET_FINDINGS\n{row}\n")
        with pytest.raises(MalformedRecord, match=f"^line 3: {reason}$"):
            read_labels_wide_csv(path)


class TestLabelTable:
    RECORDS = TestLabelTables.LABELS

    def test_from_records_round_trips(self):
        table = LabelTable.from_records(self.RECORDS, CONFIG_X8)
        assert table.ids == ["r1", "r2", "r3"]
        assert table.y.dtype == np.int8 and table.y.shape == (3, 8)
        assert table.records() == self.RECORDS
        assert table.has_status(Status.NORMAL).tolist() == [False, True, False]

    def test_empty_table_keeps_its_width(self):
        table = LabelTable.from_records([], CONFIG_X14)
        assert table.y.shape == (0, 14)
        assert table.records() == []

    def test_duplicate_id_rejected(self):
        with pytest.raises(MalformedRecord, match="^duplicate report id 'r1'$"):
            LabelTable.from_records(self.RECORDS + self.RECORDS[:1], CONFIG_X8)

    def test_rows_of_aligns_or_reports_a_different_id_set(self):
        table = LabelTable.from_records(self.RECORDS, CONFIG_X8)
        assert table.rows_of(["r3", "r1", "r2"]).tolist() == [2, 0, 1]
        assert table.rows_of(["r3", "r1"]) is None
        assert table.rows_of(["r3", "r1", "r9"]) is None
