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

The classes that `lazy.record` makes frozen records are judged against a
`dataclasses.dataclass(frozen=True)` built here from the same fields,
defaults and methods: the same repr, equality, hash, refused assignment
and constructor errors.
"""

import ast
import contextlib
import dataclasses
import functools
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import cxrlabel
from cxrlabel.cli import RunConfig

from cxrlabel.errors import (
    BadHeadIndex,
    MalformedRecord,
    MalformedRow,
    RuleParseError,
    TokenCountMismatch,
)
from cxrlabel.labeling import (
    CONFIG_X8,
    LabelConfig,
    LabelTable,
    ReportLabels,
    Status,
    label_all,
)
from cxrlabel.lexicon import (
    ConceptMention,
    LexiconEntry,
    Source,
    default_lexicon,
    match_concepts,
)
from cxrlabel.localization import BBox, BoxTable, Heatmap
from cxrlabel.metrics import ClassScore, LocEvalResult, PRF1Result
from cxrlabel.negation import (
    Direction,
    EdgeStep,
    Polarity,
    PolarizedMention,
    Rule,
    RulePolarity,
    Scope,
    apply_rules,
    default_rules,
    propagate_conjuncts,
)
from cxrlabel.reports import (
    SECTION_TAGS,
    Corpus,
    DependencyGraph,
    Edge,
    RadiologyReport,
    Sentence,
    SentenceRef,
    load_corpus,
    load_dependency_file,
)
from cxrlabel.stats import LabelCounts, SplitAssignment

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


# --- the frozen records against a dataclass reference ---

texts = st.text(max_size=3)
numbers = st.integers(-3, 3) | st.floats()
counts = st.integers(0, 9)


def grids(dtype, shape):
    return hnp.arrays(dtype, shape, elements=st.integers(0, 1))


def lists_of(values, size=2):
    return st.lists(values, max_size=size)


step_fields = st.tuples(st.sampled_from(Direction),
                        st.none() | st.frozensets(texts, max_size=2),
                        st.none() | st.frozensets(texts, max_size=2))
reports = st.builds(RadiologyReport, st.sampled_from(["r1", "r2"]), texts,
                    st.dictionaries(st.sampled_from(SECTION_TAGS), texts,
                                    min_size=1, max_size=2))
class_scores = st.builds(ClassScore, counts, counts, counts)


@st.composite
def graph_fields(draw):
    n = draw(st.integers(1, 3))
    edge = st.builds(Edge, st.integers(0, n), st.integers(1, n), texts).filter(
        lambda edge: edge.head != edge.dependent)
    return (draw(refs), n, tuple(draw(st.lists(texts, min_size=n, max_size=n))),
            tuple(draw(lists_of(edge))))


# The field values of each record class, valid and not: each class with
# an instance `__dict__` runs its checks in both builds.
FIELDS = {
    RunConfig: st.tuples(
        st.sampled_from(["x8", "X14", "x9"]), st.none() | texts, st.none() | texts,
        lists_of(st.integers(-1, 256), 3).map(tuple), numbers,
        st.sampled_from(["wcel", "cel", "hinge"]), st.integers()),
    LabelConfig: st.tuples(texts, lists_of(st.sampled_from("ABC"), 4).map(tuple)),
    LabelTable: st.tuples(lists_of(texts), grids(np.int8, (2, 2)), grids(np.int8, 2)),
    LexiconEntry: st.tuples(
        st.from_regex(r"C\d{7}", fullmatch=True) | texts, texts,
        st.sampled_from(["dsyn", "fndg", "other"]), lists_of(texts).map(tuple)),
    EdgeStep: step_fields,
    Rule: st.tuples(
        texts, st.sampled_from(RulePolarity),
        lists_of(lists_of(texts).map(tuple)).map(tuple),
        lists_of(step_fields.map(lambda fields: EdgeStep(*fields))).map(tuple),
        st.sampled_from(["DISEASE", "ANY"]), st.sampled_from(Scope)),
    RadiologyReport: st.tuples(st.text(min_size=1, max_size=3), texts,
                               st.dictionaries(st.sampled_from(SECTION_TAGS), texts,
                                               min_size=1, max_size=2)),
    DependencyGraph: graph_fields(),
    Corpus: st.tuples(lists_of(reports, 3).map(tuple), st.just({})),
    Heatmap: st.tuples(texts, texts, st.integers(0, 2).flatmap(
        lambda n: lists_of(lists_of(numbers, n), n)), numbers),
    BBox: st.tuples(texts, texts, numbers, numbers, numbers, numbers,
                    st.none() | st.integers(0, 255)),
    BoxTable: st.tuples(lists_of(texts), lists_of(texts),
                        hnp.arrays(float, (1, 4), elements=st.floats(0, 9)),
                        st.none() | grids(np.int64, 1),
                        st.none() | lists_of(st.builds(
                            BBox, texts, texts, counts, counts, counts, counts))),
    ClassScore: st.tuples(counts, counts, counts),
    PRF1Result: st.tuples(st.dictionaries(texts, class_scores, max_size=2),
                          class_scores),
    LocEvalResult: st.tuples(
        st.sampled_from(["iou", "iobb"]), numbers,
        *[st.dictionaries(texts, numbers, max_size=2)] * 2,
        *[st.dictionaries(texts, counts, max_size=2)] * 3, counts),
    LabelCounts: st.tuples(*[st.dictionaries(texts, counts, max_size=2)] * 2, counts),
    SplitAssignment: st.tuples(*[st.dictionaries(texts, texts, max_size=2)] * 2,
                               st.integers(), st.tuples(numbers, numbers, numbers)),
}


def test_every_record_class_has_a_case():
    decorated = {
        node.name
        for path in Path(cxrlabel.__file__).parent.glob("*.py")
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, ast.ClassDef)
        and any(ast.unparse(d).partition("(")[0] == "record"
                for d in node.decorator_list)
    }
    assert decorated == {cls.__name__ for cls in FIELDS}
    assert len(decorated) == 17


@functools.cache
def reference(cls):
    """The frozen dataclass of `cls`'s fields: with its defaults and
    methods, `__post_init__` included, when `cls` has an instance
    `__dict__`, and built from the fields unchecked when `cls` has slots."""
    namespace = {} if "__slots__" in vars(cls) else {
        name: value for name, value in vars(cls).items()
        if not name.startswith("__") or name == "__post_init__"}
    return dataclasses.make_dataclass(
        cls.__name__, list(cls.__annotations__.items()), namespace=namespace,
        frozen=True, eq=cls.__eq__ is not object.__eq__)


@st.composite
def calls(draw, cls):
    """Field values of `cls` as a call's arguments: the first few by
    position, the others by name in any order, and a field that has a
    default sometimes left out."""
    fields = dataclasses.fields(reference(cls))
    values = draw(FIELDS[cls])
    k = draw(st.integers(0, len(fields)))
    named = [(field.name, value) for field, value in zip(fields, values)]
    kwargs = dict(draw(st.permutations(named[k:])))
    for field in fields[k:]:
        if field.default is not dataclasses.MISSING and draw(st.booleans()):
            del kwargs[field.name]
    return values[:k], kwargs


def raised(action):
    """The kind and text of what `action()` raises, None if it returns; a
    dataclass's `FrozenInstanceError` counts as an `AttributeError`."""
    try:
        action()
    except Exception as err:
        kind = AttributeError if isinstance(err, AttributeError) else type(err)
        return kind, str(err)
    return None


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_record_behaves_as_its_dataclass_reference(cls, data):
    ref = reference(cls)
    pairs = []
    for _ in range(2):
        args, kwargs = data.draw(calls(cls))
        built = []
        error = raised(lambda: built.append(cls(*args, **kwargs)))
        assert raised(lambda: built.append(ref(*args, **kwargs))) == error
        if error is not None:
            return
        pairs.append(built)
    (a, ra), (b, rb) = pairs
    assert repr(a) == repr(ra)
    assert (a == b, a != b, a == a) == (ra == rb, ra != rb, ra == ra)
    assert a != ra and ra != a
    if cls.__eq__ is object.__eq__:
        assert cls.__hash__ is ref.__hash__ is object.__hash__
    else:
        assert raised(lambda: hash(a)) == raised(lambda: hash(ra))
        if raised(lambda: hash(a)) is None:
            assert hash(a) == hash(ra)
    before = repr(a)
    for name in [*cls.__annotations__, "other"]:
        assert raised(lambda: setattr(a, name, 0)) == raised(
            lambda: setattr(ra, name, 0))
        assert raised(lambda: delattr(a, name)) == raised(lambda: delattr(ra, name))
    assert repr(a) == before


@pytest.mark.parametrize("args, kwargs", [
    ((), {}),
    (("i", "c", 0, 0, 1, 1, None, 5), {}),
    (("i", "c", 0, 0, 1, 1), {"x": 0}),
    (("i", "c", 0, 0, 1, 1), {"z": 0}),
])
def test_record_init_refuses_a_bad_call_as_its_reference_does(args, kwargs):
    for factory in (BBox, reference(BBox)):
        with pytest.raises(TypeError):
            factory(*args, **kwargs)
