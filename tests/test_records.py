"""The unchecked constructors of the pipeline's own records.

`ConceptMention._checked`, `PolarizedMention._checked` and
`ReportLabels._checked` set the fields without running `__post_init__`.
Each must build the object that the checked constructor builds from valid
fields: equal, with the same hash (mentions go into sets) and repr. The
checked constructors still reject bad fields, and the pipeline, whose
records are valid by construction, runs none of the checks.
"""

from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cxrlabel.errors import MalformedRecord, MalformedRow, RuleParseError
from cxrlabel.labeling import CONFIG_X8, ReportLabels, Status, label_all
from cxrlabel.lexicon import ConceptMention, Source, default_lexicon, match_concepts
from cxrlabel.negation import (
    Polarity,
    PolarizedMention,
    apply_rules,
    default_rules,
    propagate_conjuncts,
)
from cxrlabel.reports import SentenceRef, load_corpus, load_dependency_file

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
    assert vars(fast) == vars(checked)


@given(fields=mention_fields())
def test_checked_mention_equals_the_checked_constructor(fields):
    fast = ConceptMention._checked(*fields)
    assert_same(fast, ConceptMention(*fields))
    assert {fast} == {ConceptMention(*fields)}


@given(fields=polarized_fields())
def test_checked_polarized_mention_equals_the_checked_constructor(fields):
    assert_same(PolarizedMention._checked(*fields), PolarizedMention(*fields))


@given(fields=label_fields())
def test_checked_labels_equal_the_checked_constructor(fields):
    assert_same(ReportLabels._checked(*fields), ReportLabels(*fields))


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


def test_pipeline_builds_its_records_unchecked():
    corpus = load_corpus(DATA / "labeled_corpus.tsv")
    graphs = load_dependency_file(DATA / "labeled_deps.tsv")
    corpus = corpus.with_graphs({r: propagate_conjuncts(g) for r, g in graphs.items()})
    lexicon, rules = default_lexicon(), default_rules()
    with mock.patch.object(ConceptMention, "__post_init__") as mention_check, \
            mock.patch.object(PolarizedMention, "__post_init__") as polar_check, \
            mock.patch.object(ReportLabels, "__post_init__") as labels_check:
        mentions = [match_concepts(s, lexicon) for s in corpus.sentences()]
        polarized = [apply_rules(corpus.graphs[found[0].sentence_ref], found, rules)
                     for found in mentions if found]
        labels = label_all(corpus, lexicon, rules, CONFIG_X8)
    mention_check.assert_not_called()
    polar_check.assert_not_called()
    labels_check.assert_not_called()
    # Each record is one the checked constructor accepts and rebuilds equal.
    for records, cls in ((sum(mentions, []), ConceptMention),
                         (sum(polarized, []), PolarizedMention),
                         (labels, ReportLabels)):
        assert records
        assert records == [cls(*vars(record).values()) for record in records]
    assert {p.polarity for p in sum(polarized, [])} == set(Polarity)
