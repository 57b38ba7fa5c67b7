"""Report parsing, sentence splitting, and the two text file formats."""

import re
import sys
import tracemalloc
from operator import attrgetter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cxrlabel.errors import (
    BadHeadIndex,
    CxrLabelError,
    DuplicateReportId,
    EmptyReport,
    MalformedRecord,
    TokenCountMismatch,
)
from cxrlabel.reports import (
    SECTION_TAGS,
    Corpus,
    DependencyGraph,
    Edge,
    RadiologyReport,
    SentenceRef,
    load_corpus,
    load_dependency_file,
    parse_report_text,
    split_sentences,
)

from conftest import (
    load_corpus_by_lines,
    load_dependency_file_by_lines,
    make_graph,
    make_sentence,
    sentence_chunks,
    serialize_dependency_graphs,
    tokenize,
)

DEPS_LINES = (
    Path(__file__).parent / "data" / "labeled_deps.tsv"
).read_text(encoding="utf-8").splitlines()

# One sentence whose header claims two billion tokens.
HUGE_COUNT = "#sent\tr1\tfindings\t0\t2000000000\n1\tNo\t0\t-\n"

DEPS_TOKENS = ["", "-1", "0", "00", "x", "+1", "01", " 1", "\u0661", "1_0", str(10**12)]

CORPUS_LINES = [
    "# comment",
    "r1\tp1\tfindings=Lungs are clear.\timpression=Normal.",
    "r2\tp1\tindication=Cough, a=b.\tfindings=Small effusion.",
    "r3\tp2\tother=Chest two views.",
    " r4 \tp3 \tcomparison=\tfindings=No change.",
]

# Corpus cells: empty and whitespace ids, known and unknown tags, pairs
# with and without "=", and non-ASCII text.
CORPUS_TOKENS = [
    "", " ", "\x0b", "r1", "p1", "findings", "findings=", "impression=Clear.",
    "other=a=b", "history=Cough.", "Findings=x", " findings=x", "=x",
    "other=\u00e9\u753b", "#r5",
]


@st.composite
def mutated_corpus(draw) -> str:
    """The corpus lines above after up to four edits: a tab field dropped,
    added or replaced by one of CORPUS_TOKENS, an id or pair copied from
    another line, a blank, whitespace or "#" line added; then "\n", "\r\n"
    or lone "\r" line ends, with or without a final one."""
    lines = [line.split("\t") for line in CORPUS_LINES]
    for _ in range(draw(st.integers(0, 4))):
        fields = lines[draw(st.integers(0, len(lines) - 1))]
        at = draw(st.integers(0, len(fields)))
        edit = draw(st.sampled_from(
            ["drop", "add", "token", "token", "copy_id", "copy_pair", "line"]
        ))
        other = lines[draw(st.integers(0, len(lines) - 1))]
        if edit == "drop" and fields:
            del fields[min(at, len(fields) - 1)]
        elif edit == "add":
            fields.insert(at, draw(st.sampled_from(CORPUS_TOKENS)))
        elif edit == "token" and fields:
            fields[min(at, len(fields) - 1)] = draw(st.sampled_from(CORPUS_TOKENS))
        elif edit == "copy_id" and fields and other:
            fields[0] = other[0]
        elif edit == "copy_pair" and len(other) > 2:
            fields.insert(at, other[draw(st.integers(2, len(other) - 1))])
        elif edit == "line":
            lines.insert(draw(st.integers(0, len(lines))),
                         [draw(st.sampled_from(["", " ", "\t", "#", "# x\ty"]))])
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = end.join("\t".join(fields) for fields in lines)
    return text + end if draw(st.booleans()) else text


@st.composite
def mutated_deps(draw) -> str:
    """The fixture dependency file after one to three line edits: a line
    deleted, duplicated or swapped with another or the next, a row
    repeated under another head, a row given head 0, 9 or its own position
    and deprel "-" or "amod", a copy of a block put before a header, a
    field set to one of DEPS_TOKENS, a tab added or dropped, a blank line made whitespace-only, doubled or
    deleted (so that a header follows a row); then "\n", "\r\n" or lone
    "\r" line ends, with or without a final one."""
    lines = list(DEPS_LINES)
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(
            ["delete", "duplicate", "swap", "swap_next", "repeat_head", "head",
             "copy_block", "field", "field", "add_tab", "drop_tab", "blank"]
        ))
        blanks = [i for i, line in enumerate(lines) if not line]
        headers = [i for i, line in enumerate(lines) if line.startswith("#sent")]
        if edit == "delete":
            del lines[k]
        elif edit == "duplicate":
            lines.insert(k, lines[k])
        elif edit == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[k], lines[j] = lines[j], lines[k]
        elif edit == "swap_next" and k + 1 < len(lines):
            lines[k], lines[k + 1] = lines[k + 1], lines[k]
        elif edit == "repeat_head" and lines[k].count("\t") == 3:
            position, surface, _, _ = lines[k].split("\t")
            head = draw(st.integers(0, 9))
            deprel = draw(st.sampled_from(["-", "amod", "conj_or"]))
            lines.insert(k + 1, f"{position}\t{surface}\t{head}\t{deprel}")
        elif edit == "head" and lines[k].count("\t") == 3:
            position, surface, _, _ = lines[k].split("\t")
            head = draw(st.sampled_from(["0", "9", position]))
            deprel = draw(st.sampled_from(["-", "amod"]))
            lines[k] = f"{position}\t{surface}\t{head}\t{deprel}"
        elif edit == "copy_block" and headers:
            start = draw(st.sampled_from(headers))
            end = start + 1
            while end < len(lines) and lines[end]:
                end += 1
            at = draw(st.sampled_from(headers))
            lines[at:at] = lines[start:end] + [""]
        elif edit == "blank" and blanks:
            b = draw(st.sampled_from(blanks))
            blank = draw(st.sampled_from([" ", "\t", " \t", "", None]))
            if blank is None:
                del lines[b]
            else:
                lines.insert(b, blank)
        elif edit == "field":
            fields = lines[k].split("\t")
            fields[draw(st.integers(0, len(fields) - 1))] = draw(
                st.sampled_from(DEPS_TOKENS)
            )
            lines[k] = "\t".join(fields)
        elif edit == "add_tab":
            at = draw(st.integers(0, len(lines[k])))
            lines[k] = lines[k][:at] + "\t" + lines[k][at:]
        else:
            tabs = [m.start() for m in re.finditer("\t", lines[k])]
            if tabs:
                at = draw(st.sampled_from(tabs))
                lines[k] = lines[k][:at] + lines[k][at + 1:]
        if not lines:
            break
    end = draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
    text = end.join(lines)
    return text + end if draw(st.booleans()) else text


class TestTokenize:
    def test_words_and_punctuation_split(self):
        tokens = make_sentence("clear of disease, or effusion.").tokens
        surfaces = [t.surface for t in tokens]
        assert surfaces == ["clear", "of", "disease", ",", "or", "effusion", "."]

    def test_decimal_number_stays_one_token(self):
        surfaces = [t.surface for t in make_sentence("measures 2.2 cm.").tokens]
        assert surfaces == ["measures", "2.2", "cm", "."]

    def test_slash_separates_tokens(self):
        surfaces = [t.surface for t in make_sentence("nodule/lymph node").tokens]
        assert surfaces == ["nodule", "/", "lymph", "node"]

    def test_positions_one_based_and_contiguous(self):
        tokens = make_sentence("no acute disease").tokens
        assert [t.position for t in tokens] == [1, 2, 3]

    def test_lowered_field(self):
        tokens = make_sentence("No Acute Disease").tokens
        assert [t.lowered for t in tokens] == ["no", "acute", "disease"]


def sentence_chunks_by_char(text: str) -> list[str]:
    """The splitter the compiled pattern replaced: one character at a
    time, ending a chunk at a terminator followed by whitespace or by
    the end of the text."""
    chunks: list[str] = []
    buf: list[str] = []
    for i, ch in enumerate(text):
        buf.append(ch)
        if ch in ".!?":
            nxt = text[i + 1] if i + 1 < len(text) else ""
            if nxt == "" or nxt.isspace():
                chunks.append("".join(buf))
                buf = []
    if buf:
        chunks.append("".join(buf))
    return [c.strip() for c in chunks if c.strip()]


WHITESPACE = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]


def split_surfaces(text: str) -> list[tuple[str, ...]]:
    """The surfaces of each sentence `split_sentences` makes of `text`."""
    report = RadiologyReport("r", "p", {"findings": text})
    return [sentence.surfaces for sentence in split_sentences(report)]


def chunk_surfaces(chunks: list[str]) -> list[tuple[str, ...]]:
    """The surfaces of each chunk that has a token."""
    surfaces = [tuple(token.surface for token in tokenize(chunk)) for chunk in chunks]
    return [chunk for chunk in surfaces if chunk]


class TestSentenceSplitting:
    @pytest.mark.parametrize("space", WHITESPACE, ids=lambda c: f"U+{ord(c):04X}")
    def test_every_whitespace_character_ends_a_sentence(self, space):
        text = f"a.{space}b!{space}{space}c?{space}2.2{space}d.e"
        chunks = ["a.", "b!", "c?", f"2.2{space}d.e"]
        assert sentence_chunks(text) == sentence_chunks_by_char(text) == chunks
        assert split_surfaces(text) == chunk_surfaces(chunks)

    @given(st.text(alphabet=st.sampled_from(WHITESPACE + list(".!?a2\u00a0\u200b"))))
    def test_splitter_equals_per_character_reference(self, text):
        chunks = sentence_chunks_by_char(text)
        assert sentence_chunks(text) == chunks
        assert split_surfaces(text) == chunk_surfaces(chunks)

    def test_terminators_split(self):
        report = RadiologyReport("r", "p", {"findings": "One here. Two there! Three?"})
        sentences = split_sentences(report)
        assert [s.tokens[0].surface for s in sentences] == ["One", "Two", "Three"]
        assert [s.index for s in sentences] == [0, 1, 2]

    def test_decimal_does_not_split(self):
        report = RadiologyReport("r", "p", {"findings": "Nodule measures 2.2 cm."})
        sentences = split_sentences(report)
        assert len(sentences) == 1
        assert "2.2" in [t.surface for t in sentences[0].tokens]

    def test_index_restarts_per_section(self):
        report = RadiologyReport(
            "r", "p", {"findings": "A one. A two.", "impression": "B one."}
        )
        refs = [s.ref for s in split_sentences(report)]
        assert refs == [
            SentenceRef("r", "findings", 0),
            SentenceRef("r", "findings", 1),
            SentenceRef("r", "impression", 0),
        ]

    def test_trailing_text_without_terminator_is_a_sentence(self):
        report = RadiologyReport("r", "p", {"findings": "no acute disease"})
        assert len(split_sentences(report)) == 1

    def test_split_builds_no_token(self):
        report = RadiologyReport("r", "p", {"findings": "One here. Two 2.2 there!"})
        with mock.patch("cxrlabel.reports.Token", side_effect=AssertionError):
            sentences = split_sentences(report)
        assert [s.surfaces for s in sentences] == [
            ("One", "here", "."), ("Two", "2.2", "there", "!")]
        assert [s.lowered for s in sentences] == [
            ("one", "here", "."), ("two", "2.2", "there", "!")]

    @given(st.dictionaries(
        st.sampled_from(SECTION_TAGS),
        st.text(alphabet=st.sampled_from(list("aB2 .!?,/\t\u00a0\u0130\u1e9e")),
                max_size=30),
        min_size=1,
    ))
    def test_tokens_equal_tokenize_of_each_chunk(self, sections):
        # U+0130 and U+1E9E lowercase to other lengths and letters.
        report = RadiologyReport("r", "p", sections)
        sentences = split_sentences(report)
        expected = [(tag, tokenize(chunk)) for tag, text in sections.items()
                    for chunk in sentence_chunks(text) if tokenize(chunk)]
        assert [(s.section, s.tokens) for s in sentences] == expected
        assert all(len(s) == len(s.tokens) for s in sentences)


class TestReportTextParsing:
    def test_headers_open_sections(self):
        raw = "INDICATION: cough.\nFINDINGS: Lungs are clear.\nIMPRESSION: Normal."
        report = parse_report_text(raw)
        assert set(report.sections) == {"indication", "findings", "impression"}
        assert report.sections["findings"] == "Lungs are clear."

    def test_findings_include_synonym(self):
        report = parse_report_text("Findings include: effusion.")
        assert report.sections == {"findings": "effusion."}

    def test_preamble_goes_to_other(self):
        report = parse_report_text("Chest two views.\nFINDINGS: Clear.")
        assert report.sections["other"] == "Chest two views."

    def test_continuation_lines_join(self):
        report = parse_report_text("FINDINGS: Line one.\nLine two.")
        assert report.sections["findings"] == "Line one. Line two."

    def test_blank_report_rejected(self):
        with pytest.raises(EmptyReport):
            parse_report_text("   \n  ")

    def test_serialize_round_trip(self):
        report = parse_report_text("FINDINGS: Clear.\nIMPRESSION: Normal.")
        text = "\n".join(f"{tag}: {body}" for tag, body in report.sections.items())
        again = parse_report_text(text)
        assert again.sections == report.sections

    def test_unknown_section_tag_rejected(self):
        with pytest.raises(MalformedRecord):
            RadiologyReport("r", "p", {"history": "text"})


class TestCorpusFile:
    def test_load_corpus(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_text(
            "# comment\n"
            "r1\tp1\tfindings=Lungs are clear.\timpression=Normal.\n"
            "r2\tp1\tfindings=Effusion seen.\n",
            encoding="utf-8",
        )
        corpus = load_corpus(path)
        r1, r2 = corpus.reports
        assert [r1.report_id, r2.report_id] == ["r1", "r2"]
        assert r1.sections["impression"] == "Normal."
        assert r2.patient_id == "p1"

    def test_duplicate_report_id_rejected(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_text("r1\tp1\tfindings=A.\nr1\tp2\tfindings=B.\n", encoding="utf-8")
        with pytest.raises(DuplicateReportId):
            load_corpus(path)

    def test_missing_section_field_rejected(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_text("r1\tp1\n", encoding="utf-8")
        with pytest.raises(MalformedRecord):
            load_corpus(path)

    def test_pair_without_equals_rejected(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_text("r1\tp1\tfindings\n", encoding="utf-8")
        with pytest.raises(MalformedRecord):
            load_corpus(path)

    @settings(max_examples=400, deadline=None)
    @given(text=mutated_corpus())
    def test_loader_equals_per_line_reference(self, tmp_path_factory, text):
        path = tmp_path_factory.getbasetemp() / "mutated_corpus.tsv"
        path.write_bytes(text.encode("utf-8"))
        try:
            expected = load_corpus_by_lines(path)
        except CxrLabelError as err:
            with pytest.raises(type(err)) as raised:
                load_corpus(path)
            assert type(raised.value) is type(err) and str(raised.value) == str(err)
            return
        corpus = load_corpus(path)
        assert corpus.reports == expected.reports and corpus.graphs == {}
        fields = attrgetter("report_id", "patient_id", "sections")
        assert list(map(fields, corpus.reports)) == list(map(fields, expected.reports))

    def test_loaded_reports_are_not_checked_again(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_text("\n".join(CORPUS_LINES) + "\n", encoding="utf-8")
        with mock.patch.object(RadiologyReport, "__new__",
                               wraps=RadiologyReport.__new__) as report_check, \
                mock.patch.object(Corpus, "__post_init__") as corpus_check:
            corpus = load_corpus(path)
        report_check.assert_not_called()
        corpus_check.assert_not_called()
        assert [r.report_id for r in corpus.reports] == ["r1", "r2", "r3", "r4"]
        assert corpus.reports[3].sections == {"comparison": "", "findings": "No change."}
        # Every section dict is keyed by the shared tag strings.
        shared = {id(tag) for tag in SECTION_TAGS}
        assert all(id(tag) in shared for r in corpus.reports for tag in r.sections)
        assert corpus.reports == load_corpus_by_lines(path).reports
        # A loaded report splits into sentences like a constructed one.
        r1 = corpus.reports[0]
        rebuilt = RadiologyReport(r1.report_id, r1.patient_id, r1.sections)
        assert r1.sentences == rebuilt.sentences

    @pytest.mark.parametrize("build, reason", [
        (lambda: RadiologyReport("", "p1", {"findings": "x"}), "empty report_id"),
        (lambda: RadiologyReport("r1", "p1", {}), "report 'r1' has no sections"),
        (lambda: RadiologyReport("r1", "p1", {"history": "x"}),
         "unknown section tag 'history'"),
        (lambda: Corpus((RadiologyReport("r1", "p1", {"findings": "x"}),) * 2),
         "duplicate report id 'r1'"),
    ])
    def test_direct_construction_keeps_every_check(self, build, reason):
        with pytest.raises(CxrLabelError, match=f"^{re.escape(reason)}$"):
            build()


class TestDependencyGraph:
    def test_descendants_follow_out_edges(self):
        sentence = make_sentence("no evidence of active disease")
        graph = make_graph(
            sentence, [(2, 1, "neg"), (2, 5, "prep_of"), (5, 4, "amod")]
        )
        assert graph.descendants(2) == {1, 5, 4}
        assert graph.descendants(5) == {4}
        assert graph.descendants(3) == set()

    def test_descendants_tolerate_cycles(self):
        sentence = make_sentence("a b c")
        graph = make_graph(sentence, [(1, 2, "x"), (2, 3, "y"), (3, 1, "z")])
        assert graph.descendants(1) == {1, 2, 3}

    def test_head_out_of_range_rejected(self):
        sentence = make_sentence("a b")
        with pytest.raises(BadHeadIndex):
            make_graph(sentence, [(3, 1, "x")])

    def test_self_loop_rejected(self):
        sentence = make_sentence("a b")
        with pytest.raises(BadHeadIndex):
            make_graph(sentence, [(1, 1, "x")])

    def test_surface_count_must_match(self):
        with pytest.raises(TokenCountMismatch):
            DependencyGraph(SentenceRef("r", "findings", 0), 3, ("a", "b"), ())


# Graphs reach a corpus through its constructor or through with_graphs.
GRAPH_ROUTES = [
    pytest.param(lambda reports, graphs: Corpus(reports, graphs), id="constructor"),
    pytest.param(
        lambda reports, graphs: Corpus(reports).with_graphs(graphs), id="with_graphs"
    ),
]


class TestCorpusValidation:
    @pytest.mark.parametrize("build", GRAPH_ROUTES)
    def test_graph_token_count_checked_against_sentence(self, build):
        report = RadiologyReport("r1", "p1", {"findings": "no acute disease"})
        ref = SentenceRef("r1", "findings", 0)
        bad = DependencyGraph(ref, 2, ("no", "acute"), ())
        with pytest.raises(TokenCountMismatch):
            build((report,), {ref: bad})

    @pytest.mark.parametrize("build", GRAPH_ROUTES)
    def test_graph_stored_under_another_sentence_ref_rejected(self, build):
        # Both sentences have three tokens, so the token counts agree.
        report = RadiologyReport("r1", "p1", {"findings": "no effusion. small mass."})
        ref_a = SentenceRef("r1", "findings", 0)
        ref_b = SentenceRef("r1", "findings", 1)
        graph_b = DependencyGraph(ref_b, 3, ("small", "mass", "."), ())
        with pytest.raises(
            TokenCountMismatch,
            match="^sentence r1/findings/0: graph is for sentence r1/findings/1$",
        ):
            build((report,), {ref_a: graph_b})

    @pytest.mark.parametrize("build", GRAPH_ROUTES)
    def test_graph_for_unknown_sentence_rejected(self, build):
        report = RadiologyReport("r1", "p1", {"findings": "no acute disease"})
        ref = SentenceRef("r1", "findings", 7)
        graph = DependencyGraph(ref, 1, ("x",), ())
        with pytest.raises(TokenCountMismatch):
            build((report,), {ref: graph})

    def test_with_graphs_checks_only_the_graphs(self):
        report = RadiologyReport("r1", "p1", {"findings": "no acute disease"})
        corpus = Corpus((report,))
        ref = SentenceRef("r1", "findings", 0)
        graph = DependencyGraph(ref, 3, ("no", "acute", "disease"), ())
        with mock.patch.object(Corpus, "__post_init__") as corpus_check:
            merged = corpus.with_graphs({ref: graph})
        corpus_check.assert_not_called()
        assert merged.reports is corpus.reports and merged.graphs == {ref: graph}
        assert merged == Corpus((report,), {ref: graph})


class TestDependencyFile:
    def test_load_basic_graph(self, tmp_path):
        path = tmp_path / "deps.tsv"
        path.write_text(
            "#sent\tr1\tfindings\t0\t3\n"
            "1\tno\t3\tneg\n"
            "2\tacute\t3\tamod\n"
            "3\tdisease\t0\troot\n",
            encoding="utf-8",
        )
        graphs = load_dependency_file(path)
        ref = SentenceRef("r1", "findings", 0)
        assert graphs[ref].surfaces == ("no", "acute", "disease")
        assert Edge(3, 1, "neg") in graphs[ref].edges
        assert Edge(0, 3, "root") in graphs[ref].edges

    def test_repeated_position_gives_multiple_heads(self, tmp_path):
        path = tmp_path / "deps.tsv"
        path.write_text(
            "#sent\tr1\tfindings\t0\t2\n"
            "1\ta\t2\tdobj\n"
            "1\ta\t2\tnsubj\n"
            "2\tb\t0\t-\n",
            encoding="utf-8",
        )
        graphs = load_dependency_file(path)
        graph = graphs[SentenceRef("r1", "findings", 0)]
        assert frozenset(graph.edges) == {Edge(2, 1, "dobj"), Edge(2, 1, "nsubj")}

    def test_dash_row_declares_edgeless_token(self, tmp_path):
        path = tmp_path / "deps.tsv"
        path.write_text(
            "#sent\tr1\tfindings\t0\t2\n1\ta\t2\tamod\n2\tb\t0\t-\n",
            encoding="utf-8",
        )
        graph = load_dependency_file(path)[SentenceRef("r1", "findings", 0)]
        assert graph.in_edges(2) == []

    def test_loaded_graphs_are_not_checked_again(self, tmp_path):
        path = tmp_path / "deps.tsv"
        path.write_text("\n".join(DEPS_LINES) + "\n", encoding="utf-8")
        with mock.patch.object(DependencyGraph, "__new__",
                               wraps=DependencyGraph.__new__) as graph_check:
            graphs = load_dependency_file(path)
        graph_check.assert_not_called()
        assert graphs == load_dependency_file_by_lines(path)

    def test_missing_position_rejected(self, tmp_path):
        path = tmp_path / "deps.tsv"
        path.write_text(
            "#sent\tr1\tfindings\t0\t3\n1\ta\t3\tamod\n3\tc\t0\t-\n",
            encoding="utf-8",
        )
        with pytest.raises(TokenCountMismatch):
            load_dependency_file(path)

    @pytest.mark.parametrize("text, message", [
        ("#sent\tr0\tfindings\t0\t1\n1\ta\t0\t-\n\n#sent\tr1\tfindings\t0\t0\n",
         "line 4: sentence r1/findings/0: graph declares no tokens"),
        ("\n#sent\tr1\tfindings\t0\t3\n1\ta\t0\t-\n2\tb\t1\tamod\n",
         "line 2: sentence r1/findings/0: rows cover positions [1, 2], expected 1..3"),
        ("#sent\tr1\tfindings\t0\t2\n1\ta\t0\t-\n2\tb\t1\tamod\n1\tA\t2\tnsubj\n",
         "line 4: sentence r1/findings/0: conflicting surfaces for position 1"),
    ])
    def test_graph_errors_name_their_line(self, tmp_path, text, message):
        path = tmp_path / "deps.tsv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(TokenCountMismatch) as caught:
            load_dependency_file(path)
        assert str(caught.value) == message

    def test_huge_token_count_is_rejected_in_bounded_memory(self, tmp_path):
        # The coverage check counts the rows' positions instead of building
        # the set 1..n_tokens.
        path = tmp_path / "deps.tsv"
        path.write_text(HUGE_COUNT, encoding="utf-8")
        tracemalloc.start()
        try:
            with pytest.raises(TokenCountMismatch) as caught:
                load_dependency_file(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(caught.value) == (
            "line 1: sentence r1/findings/0: rows cover positions [1], "
            "expected 1..2000000000"
        )
        assert peak < 1 << 20

    def test_head_outside_range_rejected(self, tmp_path):
        path = tmp_path / "deps.tsv"
        path.write_text(
            "#sent\tr1\tfindings\t0\t1\n1\ta\t5\tamod\n", encoding="utf-8"
        )
        with pytest.raises(BadHeadIndex):
            load_dependency_file(path)

    def test_row_before_header_rejected(self, tmp_path):
        path = tmp_path / "deps.tsv"
        path.write_text("1\ta\t0\t-\n", encoding="utf-8")
        with pytest.raises(MalformedRecord):
            load_dependency_file(path)

    def test_serialize_round_trip_fixed(self, tmp_path):
        sentence = make_sentence("clear of disease , or effusion")
        graph = make_graph(
            sentence,
            [(1, 3, "prep_of"), (3, 6, "conj_or"), (1, 6, "prep_of")],
        )
        text = serialize_dependency_graphs({graph.sentence_ref: graph})
        path = tmp_path / "deps.tsv"
        path.write_text(text, encoding="utf-8")
        again = load_dependency_file(path)
        assert frozenset(again[graph.sentence_ref].edges) == frozenset(graph.edges)
        assert again[graph.sentence_ref].surfaces == graph.surfaces

    @given(
        n=st.integers(min_value=1, max_value=6),
        raw_edges=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=6),
                st.integers(min_value=1, max_value=6),
                st.sampled_from(["amod", "nn", "prep_of", "conj_and", "dobj"]),
            ),
            max_size=10,
        ),
    )
    def test_serialize_round_trip_random(self, tmp_path_factory, n, raw_edges):
        edges = {
            Edge(h, d, lbl)
            for h, d, lbl in raw_edges
            if h <= n and d <= n and h != d
        }
        ref = SentenceRef("r1", "findings", 0)
        graph = DependencyGraph(
            ref, n, tuple(f"w{i}" for i in range(n)), tuple(sorted(edges))
        )
        path = tmp_path_factory.mktemp("dep") / "deps.tsv"
        path.write_text(
            serialize_dependency_graphs({ref: graph}), encoding="utf-8"
        )
        again = load_dependency_file(path)
        assert frozenset(again[ref].edges) == frozenset(graph.edges)
        assert again[ref].surfaces == graph.surfaces

    @settings(max_examples=300, deadline=None)
    @given(text=mutated_deps())
    @example(text=HUGE_COUNT)
    @example(text="\n".join(DEPS_LINES).replace("\t0\t7", "\t0\t" + str(10**12), 1))
    @example(text="\r\n".join(DEPS_LINES) + "\r\n")
    @example(text="\n".join(DEPS_LINES).replace("\n\n", "\n \n", 1))
    @example(text="\n".join(DEPS_LINES).replace("1\tNo\t3\tneg", "1\tNo\t1\tneg", 1))
    def test_mutated_file_loads_or_names_its_line(self, tmp_path_factory, text):
        # The block-by-block loader gives the graphs, or the error type and
        # text, of the line-by-line reference, and every error its line.
        path = tmp_path_factory.getbasetemp() / "mutated_deps.tsv"
        path.write_bytes(text.encode("utf-8"))
        try:
            expected = load_dependency_file_by_lines(path)
        except CxrLabelError as err:
            with pytest.raises(type(err)) as raised:
                load_dependency_file(path)
            assert type(raised.value) is type(err) and str(raised.value) == str(err)
            assert re.match(r"(line|row) \d+: ", str(err)), str(err)
            return
        graphs = load_dependency_file(path)
        assert list(graphs) == list(expected)
        for ref, graph in graphs.items():
            want = expected[ref]
            assert (graph.n_tokens, graph.surfaces, graph.edges) == (
                want.n_tokens, want.surfaces, want.edges)
