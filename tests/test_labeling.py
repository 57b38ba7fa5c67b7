"""Report-level label vectors, statuses, and label table I/O."""

import io
import runpy
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cxrlabel.errors import CxrLabelError, MalformedRecord, MissingGraph
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
from cxrlabel.lexicon import (
    NORMAL_CONCEPT,
    OTHER_DISEASE,
    ConceptMention,
    Source,
    default_lexicon,
    match_concepts,
)
from cxrlabel.negation import RuleSet, default_rules, propagate_conjuncts
from cxrlabel.reports import (
    Corpus,
    RadiologyReport,
    SentenceRef,
    load_corpus,
    load_dependency_file,
)

from conftest import (
    label_all_corpus_wide,
    label_corpus_corpus_wide,
    label_records,
    make_graph,
    make_sentence,
    mutated_csv,
)

DATA = Path(__file__).parent / "data"
GOLD = DATA / "gold_labels.csv"

LEXICON = default_lexicon()
RULES = default_rules()

LABEL_TOKENS = [
    "0", "1", "2", "01", " 1", "1 ", "+1", "-0", "", "x", "1_0", "\u0661",
    "NORMAL", "TARGET_FINDINGS", "OTHER_FINDINGS_ONLY", "normal", "HEALTHY",
    "NORMAl", "TARGET_FINDINGs", "OTHER_FINDINGS_0NLY",
    "r0", "r1", "\u00e9", "\u753b", "r 0", "L", "S", "Y", ",NORMAL",
]


@st.composite
def label_csv_cases(draw):
    """A mutated wide label CSV and the config (or None) to read it with.
    A quarter of the tables are header-only and some have no classes, so
    that a file can be shorter than a status; ids may be non-ASCII, hold a
    space or be empty, so that bytes and characters differ in the id column."""
    classes = draw(st.sampled_from([X8_CLASSES, X14_CLASSES, ("A", "B", "C"), ("A",), ()]))
    rows = [["report_id", *classes, "status"]]
    for i in range(draw(st.sampled_from([0, 0, 1, 2, 3, 4, 5, 6]))):
        y = draw(st.lists(st.sampled_from("01"), min_size=len(classes),
                          max_size=len(classes)))
        status = "TARGET_FINDINGS" if "1" in y else draw(
            st.sampled_from(["NORMAL", "OTHER_FINDINGS_ONLY"]))
        report_id = draw(st.sampled_from(
            [f"r{i}", f"r{i}", f"\u00e9{i}", f"\u753b{i}", f"r {i}", ""]))
        rows.append([report_id, *y, status])
    text = draw(mutated_csv(rows, LABEL_TOKENS))
    config = draw(st.sampled_from([None, LabelConfig("given", classes), CONFIG_X8]))
    return text, config


def table_or_error(read, *args):
    try:
        table, config = read(*args)
    except MalformedRecord as err:
        return str(err)
    return (config, label_records(table), table.y.dtype, table.y.shape,
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

    def test_column_map_is_built_with_the_config(self):
        config = LabelConfig("three", ("B", "A", "C"))
        assert config.column == {"B": 0, "A": 1, "C": 2}
        # It is no field: equality, hash and repr read the fields only.
        assert config == LabelConfig("three", ("B", "A", "C"))
        assert repr(config) == "LabelConfig(name='three', classes=('B', 'A', 'C'))"
        assert CONFIG_X8.column["Pneumothorax"] == 7

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


def labels_or_error(label, *args):
    try:
        return label(*args)
    except CxrLabelError as err:
        return type(err), str(err)


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    """The fixture corpus and a generated one (two seeded copies of it
    under fresh ids, as the benchmark builds its label input), each with
    its graphs as loaded and after conjunct propagation."""
    generate = runpy.run_path(str(DATA.parent.parent / "bench" / "generate.py"))
    out = tmp_path_factory.mktemp("generated")
    files = generate["make_label"](DATA, out, seed=5, copies=2).files
    built = {}
    for name, corpus_path, deps_path in (
        ("fixture", DATA / "labeled_corpus.tsv", DATA / "labeled_deps.tsv"),
        ("generated", files["corpus"], files["deps"]),
    ):
        corpus = load_corpus(corpus_path)
        graphs = load_dependency_file(deps_path)
        propagated = {ref: propagate_conjuncts(g) for ref, g in graphs.items()}
        built[name] = (corpus.with_graphs(graphs), corpus.with_graphs(propagated))
    return built


@st.composite
def external_mentions(draw, corpus):
    """Up to six external mentions: copies of lexicon matches under
    another category, or random spans in random sentences, with now and
    then a sentence the corpus lacks or a span past the sentence end."""
    sentences = corpus.sentences()
    matched = [m for s in sentences for m in match_concepts(s, LEXICON)]
    codes = sorted({(e.cui, e.category) for e in LEXICON.entries})
    categories = [*X14_CLASSES, NORMAL_CONCEPT, OTHER_DISEASE, "Unlisted"]
    mentions = []
    for _ in range(draw(st.integers(0, 6))):
        category = draw(st.sampled_from(categories))
        if matched and draw(st.booleans()):
            m = draw(st.sampled_from(matched))
            mentions.append(ConceptMention(
                m.sentence_ref, m.start, m.end,
                draw(st.sampled_from([m.cui, "C0000001"])), category, Source.EXTERNAL,
            ))
            continue
        sentence = draw(st.sampled_from(sentences))
        ref, n = sentence.ref, len(sentence)
        if draw(st.integers(0, 9)) == 0:
            ref = draw(st.sampled_from([
                ref._replace(index=ref.index + 50),
                ref._replace(report_id="unknown"),
            ]))
        start = draw(st.integers(1, n))
        end = start + draw(st.integers(0, 3))
        if draw(st.integers(0, 9)):
            end = min(end, n)
        cui, own_category = draw(st.sampled_from(codes))
        mentions.append(ConceptMention(
            ref, start, end, cui, draw(st.sampled_from([own_category, category])),
            Source.EXTERNAL,
        ))
    return mentions


@st.composite
def label_cases(draw, corpora):
    corpus = draw(st.sampled_from(corpora[draw(st.sampled_from(sorted(corpora)))]))
    dropped = []
    if draw(st.integers(0, 3)) == 0:
        dropped = draw(st.lists(st.sampled_from(sorted(corpus.graphs)), max_size=3))
    if dropped:
        corpus = Corpus(corpus.reports, {
            ref: g for ref, g in corpus.graphs.items() if ref not in dropped
        })
    kept = draw(st.sets(st.sampled_from([r.rule_id for r in RULES.rules])))
    ruleset = RuleSet(r for r in RULES.rules if r.rule_id in kept)
    config = draw(st.sampled_from([CONFIG_X8, CONFIG_X14]))
    return corpus, ruleset, config, draw(external_mentions(corpus))


class TestPipelineReference:
    """`label_all` and `label_corpus` label report by report; the pipeline
    they replaced works on mention lists of the whole corpus."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_label_all_equals_corpus_wide_pipeline(self, corpora, data):
        corpus, ruleset, config, external = data.draw(label_cases(corpora))
        assert labels_or_error(
            label_all, corpus, LEXICON, ruleset, config, external
        ) == labels_or_error(
            label_all_corpus_wide, corpus, LEXICON, ruleset, config, external
        )

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_label_corpus_equals_corpus_wide_pipeline(self, corpora, data):
        corpus, ruleset, config, external = data.draw(label_cases(corpora))
        mentions = [m for s in corpus.sentences() for m in match_concepts(s, LEXICON)]
        mentions += data.draw(st.permutations(external))
        assert labels_or_error(
            label_corpus, corpus, mentions, ruleset, config
        ) == labels_or_error(
            label_corpus_corpus_wide, corpus, mentions, ruleset, config
        )

    def test_missing_graph_named_in_sorted_order(self):
        reports = (
            RadiologyReport("r2", "p1", {"findings": "pneumonia"}),
            RadiologyReport("r1", "p1", {"findings": "effusion"}),
        )
        with pytest.raises(MissingGraph, match="sentence r1/findings/0$"):
            label_all(Corpus(reports), LEXICON, RULES, CONFIG_X8)


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
        assert label_records(loaded) == self.LABELS
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
        again, _ = read_labels_wide_csv(GOLD, config)
        assert label_records(table) == label_records(again)

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
        # A status of the right length with one byte off.
        ("r1,0,0,NORMAl", "'NORMAl' is not a valid Status"),
        ("r1,1,0,TARGET_FINDINGs", "'TARGET_FINDINGs' is not a valid Status"),
        ("r1,0,0,OTHER_FINDINGS_0NLY", "'OTHER_FINDINGS_0NLY' is not a valid Status"),
    ])
    def test_bad_row_named_by_its_line(self, tmp_path, row, reason):
        path = tmp_path / "labels.csv"
        path.write_text(f"report_id,A,B,status\nr0,1,0,TARGET_FINDINGS\n{row}\n")
        with pytest.raises(MalformedRecord, match=f"^line 3: {reason}$"):
            read_labels_wide_csv(path)

    def test_bad_row_after_a_quoted_line_break_named_by_its_line(self, tmp_path):
        path = tmp_path / "labels.csv"
        # The quoted id spans lines 2 and 3, so the bad row is on line 4.
        path.write_text('report_id,A,status\n"r\n0",1,TARGET_FINDINGS\nr1,2,NORMAL\n')
        with pytest.raises(
            MalformedRecord, match="^line 4: non-binary label vector for r1$"
        ):
            read_labels_wide_csv(path)


class TestLabelTable:
    RECORDS = TestLabelTables.LABELS

    def test_from_records_round_trips(self):
        table = LabelTable.from_records(self.RECORDS, CONFIG_X8)
        assert table.ids == ["r1", "r2", "r3"]
        assert table.y.dtype == np.int8 and table.y.shape == (3, 8)
        assert label_records(table) == self.RECORDS
        assert table.has_status(Status.NORMAL).tolist() == [False, True, False]

    def test_empty_table_keeps_its_width(self):
        table = LabelTable.from_records([], CONFIG_X14)
        assert table.y.shape == (0, 14)
        assert label_records(table) == []

    def test_duplicate_id_rejected(self):
        with pytest.raises(MalformedRecord, match="^duplicate report id 'r1'$"):
            LabelTable.from_records(self.RECORDS + self.RECORDS[:1], CONFIG_X8)

    @settings(max_examples=300, deadline=None)
    @given(ids=st.lists(st.text("abc", max_size=3), unique=True, max_size=8),
           edit=st.sampled_from(["same", "permute", "replace", "drop", "add"]),
           data=st.data())
    def test_rows_of_equals_a_dict_join(self, ids, edit, data):
        table = LabelTable(ids, np.zeros((len(ids), 8), dtype=np.int8),
                           np.zeros(len(ids), dtype=np.int8))
        # Equal strings that are other objects, as a second file's ids are.
        query = [("#" + rid)[1:] for rid in ids]
        if edit == "permute":
            query = data.draw(st.permutations(query))
        elif edit == "replace" and query:
            query[data.draw(st.integers(0, len(query) - 1))] = "x"
        elif edit == "drop" and query:
            del query[data.draw(st.integers(0, len(query) - 1))]
        elif edit == "add":
            query.insert(data.draw(st.integers(0, len(query))), "x")
        row = {rid: k for k, rid in enumerate(ids)}
        expected = None
        if len(query) == len(ids) and all(rid in row for rid in query):
            expected = [row[rid] for rid in query]
        rows = table.rows_of(query)
        if expected is None:
            assert rows is None
        else:
            assert rows.dtype == np.intp and rows.tolist() == expected

    def test_rows_of_aligns_or_reports_a_different_id_set(self):
        table = LabelTable.from_records(self.RECORDS, CONFIG_X8)
        assert table.rows_of(["r3", "r1", "r2"]).tolist() == [2, 0, 1]
        assert table.rows_of(["r3", "r1"]) is None
        assert table.rows_of(["r3", "r1", "r9"]) is None
