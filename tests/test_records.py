"""The pipeline's own records: fixed fields, no instance `__dict__`.

`ConceptMention`, `PolarizedMention` and `ReportLabels` are named tuples
whose public constructor checks the fields; the pipeline, whose records
are valid by construction, builds them with `tuple.__new__` and runs none
of the checks. A record built that way must be the one the checked
constructor builds from the same valid fields: equal, of the same type,
with the same hash (mentions go into sets), repr and field tuple. The
checked constructors still reject bad fields. Every record the loaders
and `label_all` build, `RadiologyReport`, `Sentence` and
`DependencyGraph` included, has no instance `__dict__`, and no record
equals a record of another type.
"""

import contextlib
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cxrlabel.errors import (
    BadHeadIndex,
    MalformedRecord,
    MalformedRow,
    RuleParseError,
    TokenCountMismatch,
)
from cxrlabel.labeling import CONFIG_X8, ReportLabels, Status, label_all
from cxrlabel.lexicon import ConceptMention, Source, default_lexicon, match_concepts
from cxrlabel.negation import (
    Polarity,
    PolarizedMention,
    apply_rules,
    default_rules,
    propagate_conjuncts,
)
from cxrlabel.reports import (
    DependencyGraph,
    Edge,
    RadiologyReport,
    Sentence,
    SentenceRef,
    load_corpus,
    load_dependency_file,
)

DATA = Path(__file__).parent / "data"

refs = st.builds(
    SentenceRef,
    st.text(min_size=1, max_size=4),
    st.sampled_from(["findings", "impression"]),
    st.integers(0, 5),
)


@st.composite
def mention_fields(draw):
    start = draw(st.integers(1, 20))
    end = draw(st.integers(start, 25))
    return (draw(refs), start, end, draw(st.from_regex(r"C\d{7}", fullmatch=True)),
            draw(st.sampled_from(["Pneumonia", "Effusion", "NORMAL_CONCEPT"])),
            draw(st.sampled_from(Source)))


@st.composite
def polarized_fields(draw):
    mention = ConceptMention(*draw(mention_fields()))
    polarity = draw(st.sampled_from(Polarity))
    rule = draw(st.sampled_from(["n1", "u3"]))
    if polarity is Polarity.POSITIVE:
        rule = draw(st.sampled_from([None, rule]))
    return mention, polarity, rule


@st.composite
def label_fields(draw):
    y = tuple(draw(st.lists(st.integers(0, 1), max_size=14)))
    if any(y):
        status = Status.TARGET_FINDINGS
    else:
        status = draw(st.sampled_from([Status.NORMAL, Status.OTHER_FINDINGS_ONLY]))
    return draw(st.text(min_size=1, max_size=6)), y, status


def assert_same(fast, checked):
    assert fast == checked and checked == fast
    assert type(fast) is type(checked)
    assert hash(fast) == hash(checked)
    assert repr(fast) == repr(checked)
    assert tuple(fast) == tuple(checked)


# Each test builds the record as the pipeline does, with `tuple.__new__`,
# and compares it with the checked constructor's.

@given(fields=mention_fields())
def test_checked_mention_equals_the_checked_constructor(fields):
    fast = tuple.__new__(ConceptMention, fields)
    assert_same(fast, ConceptMention(*fields))
    assert {fast} == {ConceptMention(*fields)}


@given(fields=polarized_fields())
def test_checked_polarized_mention_equals_the_checked_constructor(fields):
    assert_same(tuple.__new__(PolarizedMention, fields), PolarizedMention(*fields))


@given(fields=label_fields())
def test_checked_labels_equal_the_checked_constructor(fields):
    assert_same(tuple.__new__(ReportLabels, fields), ReportLabels(*fields))


REF = SentenceRef("r1", "findings", 0)


@pytest.mark.parametrize("start, end", [(0, 1), (-1, 2), (3, 2), (2, 1)])
def test_mention_constructor_rejects_a_bad_span(start, end):
    with pytest.raises(MalformedRow, match=rf"bad span \[{start},{end}\]"):
        ConceptMention(REF, start, end, "C0032285", "Pneumonia")


@pytest.mark.parametrize("polarity", [Polarity.NEGATED, Polarity.UNCERTAIN])
def test_polarized_constructor_rejects_a_flipped_mention_without_a_rule(polarity):
    mention = ConceptMention(REF, 1, 1, "C0032285", "Pneumonia")
    with pytest.raises(RuleParseError, match=f"{polarity.value} mention must name"):
        PolarizedMention(mention, polarity)


@pytest.mark.parametrize("y, status, message", [
    ((0, 2), Status.TARGET_FINDINGS, "non-binary label vector for r1"),
    ((1, -1), Status.TARGET_FINDINGS, "non-binary label vector for r1"),
    ((0, 1), Status.NORMAL, "status NORMAL inconsistent with vector for r1"),
    ((0, 0), Status.TARGET_FINDINGS,
     "status TARGET_FINDINGS inconsistent with vector for r1"),
    ((1, 0), Status.OTHER_FINDINGS_ONLY,
     "status OTHER_FINDINGS_ONLY inconsistent with vector for r1"),
])
def test_labels_constructor_rejects_a_bad_or_inconsistent_vector(y, status, message):
    with pytest.raises(MalformedRecord, match=message):
        ReportLabels("r1", y, status)


def pipeline_records():
    """The records the loaders, conjunct propagation and the labelling
    steps build on the fixtures, by type, with every lazy attribute read."""
    corpus = load_corpus(DATA / "labeled_corpus.tsv")
    loaded = load_dependency_file(DATA / "labeled_deps.tsv")
    graphs = {ref: propagate_conjuncts(g) for ref, g in loaded.items()}
    corpus = corpus.with_graphs(graphs)
    lexicon, rules = default_lexicon(), default_rules()
    mentions = [match_concepts(s, lexicon) for s in corpus.sentences()]
    polarized = [apply_rules(corpus.graphs[found[0].sentence_ref], found, rules)
                 for found in mentions if found]
    labels = label_all(corpus, lexicon, rules, CONFIG_X8)
    for graph in [*loaded.values(), *graphs.values()]:
        graph.out_adjacency, graph.in_adjacency
    return {
        RadiologyReport: list(corpus.reports),
        Sentence: corpus.sentences(),
        DependencyGraph: [*loaded.values(), *graphs.values()],
        ConceptMention: sum(mentions, []),
        PolarizedMention: sum(polarized, []),
        ReportLabels: labels,
    }


CHECKED = (RadiologyReport, DependencyGraph, ConceptMention, PolarizedMention,
           ReportLabels)


def test_pipeline_builds_its_records_unchecked():
    # No public constructor runs, so none of their checks does. (No fixture
    # graph gains an edge by propagation, so `with_edges`, which builds a
    # graph through its checked constructor, does not run either.)
    with contextlib.ExitStack() as stack:
        constructors = [
            stack.enter_context(mock.patch.object(cls, "__new__", wraps=cls.__new__))
            for cls in CHECKED
        ]
        records = pipeline_records()
    for constructor in constructors:
        constructor.assert_not_called()
    # Each record is one the checked constructor accepts and rebuilds equal.
    for cls in (ConceptMention, PolarizedMention, ReportLabels):
        assert records[cls]
        assert records[cls] == [cls(*record) for record in records[cls]]
    assert {p.polarity for p in records[PolarizedMention]} == set(Polarity)


def test_pipeline_records_have_no_instance_dict():
    records = pipeline_records()
    assert set(records) == {Sentence, *CHECKED}
    for cls, built in records.items():
        assert built and all(type(record) is cls for record in built)
        assert not any(hasattr(record, "__dict__") for record in built), cls
    # The lazy attributes were read, and are kept in slots.
    report = records[RadiologyReport][0]
    assert report.sentences is report.sentences


def test_no_record_equals_a_record_of_another_type():
    records = pipeline_records()
    refs = [s.ref for s in records[Sentence]]
    edges = [e for g in records[DependencyGraph] for e in g.edges]
    first_type: dict = {}
    for record in [*refs, *edges, *(r for built in records.values() for r in built
                                     if type(r) is not RadiologyReport)]:
        assert first_type.setdefault(record, type(record)) is type(record)
    assert set(first_type.values()) == {SentenceRef, Edge, Sentence, *CHECKED} - {
        RadiologyReport}  # a report holds a dict, so it has no hash


REF0 = SentenceRef("r1", "findings", 0)


@pytest.mark.parametrize("build, error, reason", [
    (lambda: RadiologyReport("", "p1", {"findings": "x"}), MalformedRecord,
     "empty report_id"),
    (lambda: RadiologyReport("r1", "p1", {}), MalformedRecord,
     "report 'r1' has no sections"),
    (lambda: RadiologyReport("r1", "p1", {"history": "x"}), MalformedRecord,
     "unknown section tag 'history'"),
    (lambda: DependencyGraph(REF0, 0, (), ()), TokenCountMismatch,
     "sentence r1/findings/0: graph declares no tokens"),
    (lambda: DependencyGraph(REF0, 3, ("a", "b"), ()), TokenCountMismatch,
     "sentence r1/findings/0: 2 surfaces for 3 tokens"),
    (lambda: DependencyGraph(REF0, 2, ("a", "b"), (Edge(3, 1, "x"),)), BadHeadIndex,
     "head 3 outside 0..2"),
    (lambda: DependencyGraph(REF0, 2, ("a", "b"), (Edge(1, 0, "x"),)), BadHeadIndex,
     "dependent 0 outside 1..2"),
    (lambda: DependencyGraph(REF0, 2, ("a", "b"), (Edge(1, 1, "x"),)), BadHeadIndex,
     "self-loop at token 1"),
    (lambda: ConceptMention(REF0, 0, 1, "C0032285", "Pneumonia"), MalformedRow,
     "bad span [0,1]"),
    (lambda: ConceptMention(REF0, 3, 2, "C0032285", "Pneumonia"), MalformedRow,
     "bad span [3,2]"),
    (lambda: PolarizedMention(ConceptMention(REF0, 1, 1, "C0032285", "Pneumonia"),
                              Polarity.NEGATED), RuleParseError,
     "negated mention must name the matched rule"),
    (lambda: ReportLabels("r1", (0, 2), Status.TARGET_FINDINGS), MalformedRecord,
     "non-binary label vector for r1"),
    (lambda: ReportLabels("r1", (0, 1), Status.NORMAL), MalformedRecord,
     "status NORMAL inconsistent with vector for r1"),
])
def test_public_constructors_keep_every_check(build, error, reason):
    with pytest.raises(error) as raised:
        build()
    assert type(raised.value) is error and str(raised.value) == reason
