"""Report corpus: domain types and ingestion.

Radiology reports are sectioned free text. This module parses raw report
text into sections, splits sections into tokenized sentences with a
deterministic rule-based splitter, and loads the corpus and
dependency-graph file formats used by the rest of the pipeline.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Optional

from cxrlabel.errors import (
    BadHeadIndex,
    DuplicateReportId,
    EmptyReport,
    MalformedRecord,
    TokenCountMismatch,
    read_all_lines,
    read_all_text,
)
from cxrlabel.lazy import lazy_property

SECTION_TAGS = ("comparison", "indication", "findings", "impression", "other")

# Longest synonym first so "findings include:" is not eaten by "findings:".
_HEADER_SYNONYMS = (
    ("findings include", "findings"),
    ("comparison", "comparison"),
    ("indication", "indication"),
    ("impression", "impression"),
    ("findings", "findings"),
    ("other", "other"),
)

# A token is a decimal number, a run of non-separator characters, or a
# single punctuation mark emitted standalone.
_TOKEN_RE = re.compile(r"\d+\.\d+|[^\s/,():;.!?]+|[/,():;.!?]")

# A terminator ends a sentence only before whitespace or at the end of the
# text, so the period inside a decimal like "2.2" never splits. `\s`
# matches exactly the characters for which `str.isspace` is true.
_SENTENCE_END = re.compile(r"(?<=[.!?])(?=\s)")


class SentenceRef(NamedTuple):
    report_id: str
    section: str
    index: int

    def __str__(self) -> str:
        return f"{self.report_id}/{self.section}/{self.index}"


class Token(NamedTuple):
    position: int  # 1-based
    surface: str
    lowered: str


class Edge(NamedTuple):
    head: int  # 0 = virtual root
    dependent: int
    label: str


# The pipeline's records hold their fields without an instance `__dict__`:
# a record that is its fields alone is a named tuple, and one with a lazy
# attribute keeps its fields and that attribute in slots. Each public
# constructor checks its fields; the loaders, whose fields hold by
# construction, build the same record without the checks, a tuple with
# `tuple.__new__` and a slotted record with its `_new`, which writes each
# slot through the slot's own `__set__`, as the frozen class's
# `__setattr__` refuses to.
_new_object = object.__new__


@dataclass(frozen=True, init=False)
class RadiologyReport:
    __slots__ = ("report_id", "patient_id", "sections", "_sentences")
    report_id: str
    patient_id: str
    sections: dict[str, str]

    def __new__(cls, report_id: str, patient_id: str, sections: dict[str, str]):
        if not report_id:
            raise MalformedRecord("empty report_id")
        if not sections:
            raise MalformedRecord(f"report {report_id!r} has no sections")
        for tag in sections:
            if tag not in SECTION_TAGS:
                raise MalformedRecord(f"unknown section tag {tag!r}")
        return cls._new(report_id, patient_id, sections)

    @classmethod
    def _new(cls, report_id: str, patient_id: str,
             sections: dict[str, str]) -> "RadiologyReport":
        """The report of a non-empty id and non-empty sections of known
        tags, which the caller has already checked."""
        report = _new_object(cls)
        _set_report_id(report, report_id)
        _set_patient_id(report, patient_id)
        _set_sections(report, sections)
        return report

    @lazy_property
    def sentences(self) -> tuple["Sentence", ...]:
        """The report split once; every corpus holding it shares the split."""
        return tuple(split_sentences(self))


_set_report_id = RadiologyReport.report_id.__set__
_set_patient_id = RadiologyReport.patient_id.__set__
_set_sections = RadiologyReport.sections.__set__


class _SentenceFields(NamedTuple):
    report_id: str
    section: str
    index: int
    surfaces: tuple[str, ...]
    lowered: tuple[str, ...]
    ref: SentenceRef


class Sentence(_SentenceFields):
    """A sentence as two string columns: the surface of each token and
    its lowercase form, token k at index k - 1. Its `ref` is a field of
    its own, set from the first three. `len()` counts the tokens, not the
    fields."""

    __slots__ = ()

    def __new__(cls, report_id: str, section: str, index: int,
                surfaces: tuple[str, ...], lowered: tuple[str, ...]):
        ref = SentenceRef(report_id, section, index)
        return tuple.__new__(cls, (report_id, section, index, surfaces, lowered, ref))

    @property
    def tokens(self) -> tuple[Token, ...]:
        """The tokens, built from the columns on each read."""
        return tuple(map(Token, range(1, len(self.surfaces) + 1),
                         self.surfaces, self.lowered))

    def __len__(self) -> int:
        return len(self.surfaces)


@dataclass(frozen=True, init=False)
class DependencyGraph:
    """A sentence's parse: its token surfaces, their lowercase forms
    (`lowered`, set with the fields) and its edges."""

    __slots__ = ("sentence_ref", "n_tokens", "surfaces", "edges", "lowered",
                 "_out_adjacency", "_in_adjacency")
    sentence_ref: SentenceRef
    n_tokens: int
    surfaces: tuple[str, ...]
    edges: tuple[Edge, ...]

    def __new__(cls, sentence_ref: SentenceRef, n_tokens: int,
                surfaces: tuple[str, ...], edges: tuple[Edge, ...]):
        if n_tokens < 1:
            raise TokenCountMismatch("graph declares no tokens", sentence_ref)
        if len(surfaces) != n_tokens:
            raise TokenCountMismatch(
                f"{len(surfaces)} surfaces for {n_tokens} tokens", sentence_ref
            )
        for edge in edges:
            if not (0 <= edge.head <= n_tokens):
                raise BadHeadIndex(f"head {edge.head} outside 0..{n_tokens}")
            if not (1 <= edge.dependent <= n_tokens):
                raise BadHeadIndex(
                    f"dependent {edge.dependent} outside 1..{n_tokens}"
                )
            if edge.head == edge.dependent:
                raise BadHeadIndex(f"self-loop at token {edge.head}")
        return cls._new(sentence_ref, n_tokens, surfaces, edges)

    @classmethod
    def _new(cls, sentence_ref: SentenceRef, n_tokens: int,
             surfaces: tuple[str, ...], edges: tuple[Edge, ...]
             ) -> "DependencyGraph":
        """The graph of `n_tokens` >= 1 tokens, `n_tokens` surfaces and
        edges between positions in range with no self-loop, which the
        caller has already checked."""
        graph = _new_object(cls)
        _set_sentence_ref(graph, sentence_ref)
        _set_n_tokens(graph, n_tokens)
        _set_surfaces(graph, surfaces)
        _set_edges(graph, edges)
        _set_lowered(graph, tuple(map(str.lower, surfaces)))
        return graph

    @lazy_property
    def out_adjacency(self) -> dict[int, list[Edge]]:
        """Edges by head position, each list in `edges` order."""
        adjacency: dict[int, list[Edge]] = {}
        for edge in self.edges:
            adjacency.setdefault(edge.head, []).append(edge)
        return adjacency

    @lazy_property
    def in_adjacency(self) -> dict[int, list[Edge]]:
        """Edges by dependent position, each list in `edges` order."""
        adjacency: dict[int, list[Edge]] = {}
        for edge in self.edges:
            adjacency.setdefault(edge.dependent, []).append(edge)
        return adjacency

    def out_edges(self, position: int) -> list[Edge]:
        return list(self.out_adjacency.get(position, ()))

    def in_edges(self, position: int) -> list[Edge]:
        return list(self.in_adjacency.get(position, ()))

    def descendants(self, position: int) -> set[int]:
        """Token positions reachable from `position` via head->dependent edges."""
        adjacency = self.out_adjacency
        seen: set[int] = set()
        frontier = [position]
        while frontier:
            for edge in adjacency.get(frontier.pop(), ()):
                if edge.dependent not in seen:
                    seen.add(edge.dependent)
                    frontier.append(edge.dependent)
        return seen

    def with_edges(self, edges: Iterable[Edge]) -> "DependencyGraph":
        return DependencyGraph(
            sentence_ref=self.sentence_ref,
            n_tokens=self.n_tokens,
            surfaces=self.surfaces,
            edges=_canonical_edges(edges),
        )


_set_sentence_ref = DependencyGraph.sentence_ref.__set__
_set_n_tokens = DependencyGraph.n_tokens.__set__
_set_surfaces = DependencyGraph.surfaces.__set__
_set_edges = DependencyGraph.edges.__set__
_set_lowered = DependencyGraph.lowered.__set__


def _canonical_edges(edges: Iterable[Edge]) -> tuple[Edge, ...]:
    return tuple(sorted(set(edges)))


@dataclass(frozen=True)
class Corpus:
    reports: tuple[RadiologyReport, ...]
    graphs: dict[SentenceRef, DependencyGraph] = field(default_factory=dict)

    def __post_init__(self):
        seen: set[str] = set()
        for report in self.reports:
            if report.report_id in seen:
                raise DuplicateReportId(report.report_id)
            seen.add(report.report_id)
        self._check_graphs()

    def _check_graphs(self):
        """Each graph is stored under its own ref, names a sentence of a
        report, and has that sentence's token count."""
        sentences = {s.ref: s for s in self.sentences()} if self.graphs else {}
        for ref, graph in self.graphs.items():
            if graph.sentence_ref != ref:
                raise TokenCountMismatch(
                    f"graph is for sentence {graph.sentence_ref}", ref
                )
            if ref not in sentences:
                raise TokenCountMismatch("graph for unknown sentence", ref)
            n = len(sentences[ref])
            if graph.n_tokens != n:
                raise TokenCountMismatch(
                    f"graph has {graph.n_tokens} tokens, sentence has {n}", ref
                )

    @classmethod
    def _checked(cls, reports: tuple[RadiologyReport, ...],
                 graphs: dict[SentenceRef, DependencyGraph]) -> "Corpus":
        """The corpus of `reports`, whose ids the caller has already found
        unique, and of `graphs`, which the caller checks: `__post_init__`
        is not run."""
        corpus = object.__new__(cls)
        vars(corpus).update(reports=reports, graphs=graphs)
        return corpus

    def sentences(self) -> list[Sentence]:
        return [s for r in self.reports for s in r.sentences]

    def with_graphs(self, graphs: dict[SentenceRef, DependencyGraph]) -> "Corpus":
        """This corpus with `graphs` added. The reports were checked when
        this corpus was built, so only the graphs are checked."""
        merged = dict(self.graphs)
        merged.update(graphs)
        corpus = Corpus._checked(self.reports, merged)
        corpus._check_graphs()
        return corpus


def _match_header(line: str) -> Optional[tuple[str, str]]:
    """Return (section tag, text after the colon) when the line opens a section."""
    stripped = line.lstrip()
    lowered = stripped.lower()
    for synonym, tag in _HEADER_SYNONYMS:
        if lowered.startswith(synonym):
            rest = stripped[len(synonym):].lstrip()
            if rest.startswith(":"):
                return tag, rest[1:].strip()
    return None


def parse_report_text(
    raw: str, report_id: str = "adhoc", patient_id: str = "adhoc"
) -> RadiologyReport:
    """Split raw report text into sections on header lines.

    A line whose first word(s) case-insensitively name a section followed
    by ":" opens that section. Text before any header, or a report with no
    headers at all, lands in section "other".
    """
    if not raw or not raw.strip():
        raise EmptyReport("blank report text")
    chunks: dict[str, list[str]] = {}
    current: Optional[str] = None
    for line in raw.splitlines():
        header = _match_header(line)
        if header is not None:
            current, rest = header
            chunks.setdefault(current, [])
            if rest:
                chunks[current].append(rest)
            continue
        if line.strip():
            chunks.setdefault(current or "other", []).append(line.strip())
    sections = {tag: " ".join(parts) for tag, parts in chunks.items()}
    return RadiologyReport(report_id, patient_id, sections)


def split_sentences(report: RadiologyReport) -> list[Sentence]:
    """The sentences of each section in order, each numbered from 0 within
    its section; a chunk with no token makes no sentence. No token holds
    whitespace, so a chunk's tokens are those of the chunk stripped."""
    sentences: list[Sentence] = []
    report_id, new, findall = report.report_id, tuple.__new__, _TOKEN_RE.findall
    for tag, text in report.sections.items():
        index = 0
        for chunk in _SENTENCE_END.split(text):
            surfaces = tuple(findall(chunk))
            if surfaces:
                lowered = tuple(map(str.lower, surfaces))
                ref = new(SentenceRef, (report_id, tag, index))
                sentences.append(
                    new(Sentence, (report_id, tag, index, surfaces, lowered, ref))
                )
                index += 1
    return sentences


# Each known tag keyed by itself, so that every loaded report shares it.
_TAGS = {tag: tag for tag in SECTION_TAGS}


def load_corpus(path) -> Corpus:
    """Load the one-record-per-line corpus format.

    Fields are tab-separated: report_id, patient_id, then one "tag=text"
    pair per populated section. Empty and "#" lines are skipped. The file
    is read whole, and each record is checked once, here: the reports and
    the corpus are built without checking them again. Every section dict
    is keyed by the shared strings of SECTION_TAGS.
    """
    reports: list[RadiologyReport] = []
    seen: set[str] = set()
    new = RadiologyReport._new
    for line_no, line in enumerate(read_all_lines(path), start=1):
        if not line or line[0] == "#":
            continue
        fields = line.split("\t")
        if len(fields) < 3:
            raise MalformedRecord(
                "record needs report_id, patient_id and one section", line_no
            )
        report_id, patient_id = fields[0].strip(), fields[1].strip()
        if not report_id:
            raise MalformedRecord("missing report_id", line_no)
        if not patient_id:
            raise MalformedRecord("missing patient_id", line_no)
        if report_id in seen:
            raise DuplicateReportId(report_id, line_no)
        seen.add(report_id)
        sections: dict[str, str] = {}
        for pair in fields[2:]:
            tag, sep, text = pair.partition("=")
            if not sep:
                raise MalformedRecord(f"section field {pair!r} lacks '='", line_no)
            known = _TAGS.get(tag)
            if known is None:
                raise MalformedRecord(f"unknown section tag {tag!r}", line_no)
            tag = known
            if tag in sections:
                raise MalformedRecord(f"duplicate section tag {tag!r}", line_no)
            sections[tag] = text
        reports.append(new(report_id, patient_id, sections))
    return Corpus._checked(tuple(reports), {})


# A block read whole: a "#sent" header of integer index and count, rows
# of four tab-separated fields with integer position and head, then an
# empty line or the end of the text. The rows are group 5.
_PLAIN_BLOCK = re.compile(
    r"#sent\t([^\t\n]*)\t([^\t\n]*)\t([0-9]+)\t([0-9]+)\n"
    r"((?:[0-9]+\t[^\t\n]*\t[0-9]+\t[^\t\n]*\n)+)"
    r"(?:\n|\Z)"
)
# (position, head, deprel) of each row of a plain block other than the
# rows "<position><TAB><surface><TAB>0<TAB>-" of a token with no edge.
_EDGE_ROW = re.compile(r"^([0-9]+)\t[^\t\n]*\t(?!0\t-\n)([0-9]+)\t([^\t\n]*)\n", re.M)


def load_dependency_file(path) -> dict[SentenceRef, DependencyGraph]:
    """Load blank-line-separated dependency graphs.

    Each sentence starts with "#sent<TAB>report_id<TAB>section<TAB>index
    <TAB>n_tokens" followed by rows "position<TAB>surface<TAB>head<TAB>
    deprel". A position may repeat to give a token several heads; head 0
    with deprel "-" declares a token that hangs off no edge, while head 0
    with a real label is a virtual-root edge.

    The file is read whole, with line breaks as in `read_all_lines`, and
    decoded block by block while `_PLAIN_BLOCK` tiles it. A plain block
    whose positions are "1".."n" once each and in order, and which passes
    every check, is taken as columns of one split; any other plain block
    goes through the per-row checks of `_add_graph`. From the first point
    the pattern does not tile, the rest of the file is read line by line.
    Each graph is built once, unchecked, from rows already checked.
    """
    text = read_all_text(path)
    graphs: dict[SentenceRef, DependencyGraph] = {}
    numerals: list[str] = []  # "1", "2", ..., as long as the longest block
    new = DependencyGraph._new
    match = _PLAIN_BLOCK.match
    pos = counted = 0  # the text is tiled up to pos, its lines counted up to counted
    line_no = 1  # the line at counted
    while block := match(text, pos):
        report_id, section, index, count, body = block.groups()
        ref = SentenceRef(report_id, section, int(index))
        cells = body[:-1].replace("\n", "\t").split("\t")
        positions = cells[0::4]
        n = len(positions)
        if n > len(numerals):
            numerals.extend(map(str, range(len(numerals) + 1, n + 1)))
        edges = None
        if int(count) == n and ref not in graphs and positions == numerals[:n]:
            edges = _plain_edges(body, n)
        if edges is None:
            line_no += text.count("\n", counted, block.start())
            counted = block.start()
            rows = [(line_no + k, line.split("\t"))
                    for k, line in enumerate(body[:-1].split("\n"), start=1)]
            _add_graph(graphs, ref, int(count), line_no, rows)
        else:
            graphs[ref] = new(ref, n, tuple(cells[1::4]), edges)
        pos = block.end()
    if pos < len(text):
        line_no += text.count("\n", counted, pos)
        _load_lines(graphs, text[pos:].split("\n"), line_no)
    return graphs


def _plain_edges(body: str, n: int) -> Optional[tuple[Edge, ...]]:
    """The sorted edges of `body`, the rows of a plain block whose
    positions are "1".."n" in order; None when a row gives deprel "-" a
    head other than "0", or has a head past n or equal to its position."""
    if body.count("\t0\t-\n") == n:  # every row is a token with no edge
        return ()
    edges = []
    for position, head, deprel in _EDGE_ROW.findall(body):
        head = int(head)
        if deprel == "-" or head > n or head == int(position):
            return None
        edges.append(Edge(head, int(position), deprel))
    edges.sort()
    return tuple(edges)


def _add_graph(graphs: dict[SentenceRef, DependencyGraph], ref: SentenceRef,
               n_tokens: int, header_line: int, rows: list[tuple[int, list[str]]]):
    """Check the (row_no, four fields) rows of the sentence `ref`, whose
    header on `header_line` declares `n_tokens`, and add its graph."""
    if ref in graphs:
        raise MalformedRecord(f"duplicate sentence {ref}", header_line)
    surfaces: dict[int, str] = {}
    edges: set[Edge] = set()
    for row_no, (position, surface, head, deprel) in rows:
        try:
            pos = int(position)
            head_pos = int(head)
        except ValueError:
            raise BadHeadIndex(
                f"non-integer position/head {position!r}/{head!r}", row_no
            ) from None
        if not (1 <= pos <= n_tokens):
            raise BadHeadIndex(f"position {pos} outside 1..{n_tokens}", row_no)
        if not (0 <= head_pos <= n_tokens):
            raise BadHeadIndex(f"head {head_pos} outside 0..{n_tokens}", row_no)
        if head_pos == pos:
            raise BadHeadIndex(f"self-loop at token {pos}", row_no)
        if pos in surfaces and surfaces[pos] != surface:
            raise TokenCountMismatch(
                f"conflicting surfaces for position {pos}", ref, row_no
            )
        surfaces[pos] = surface
        if deprel == "-":
            if head_pos != 0:
                raise MalformedRecord("deprel '-' requires head 0", row_no)
        else:
            edges.add(Edge(head_pos, pos, deprel))
    if n_tokens < 1:
        raise TokenCountMismatch("graph declares no tokens", ref, header_line)
    # Every position is in 1..n_tokens, so they cover it when there are
    # n_tokens of them; no set of n_tokens positions is built.
    if len(surfaces) != n_tokens:
        raise TokenCountMismatch(
            f"rows cover positions {sorted(surfaces)}, expected 1..{n_tokens}",
            ref,
            header_line,
        )
    graphs[ref] = DependencyGraph._new(
        ref,
        n_tokens,
        tuple(surfaces[i] for i in range(1, n_tokens + 1)),
        _canonical_edges(edges),
    )


def _load_lines(graphs: dict[SentenceRef, DependencyGraph], lines: list[str],
                first_line: int):
    """Add the graphs of `lines`, the first of them line `first_line` of
    the file, checking each line as it is read."""
    header: Optional[tuple[SentenceRef, int, int]] = None  # ref, n_tokens, line
    rows: list[tuple[int, list[str]]] = []
    for line_no, line in enumerate(lines, start=first_line):
        blank = not line.strip()
        fields = line.split("\t")
        if blank or fields[0] == "#sent":
            if header is not None:
                _add_graph(graphs, *header, rows)
            header, rows = None, []
            if blank:
                continue
            if len(fields) != 5:
                raise MalformedRecord("sentence header needs 5 fields", line_no)
            try:
                index = int(fields[3])
                n_tokens = int(fields[4])
            except ValueError:
                raise MalformedRecord("non-integer index/count", line_no) from None
            header = (SentenceRef(fields[1], fields[2], index), n_tokens, line_no)
            continue
        if header is None:
            raise MalformedRecord("token row before any #sent header", line_no)
        if len(fields) != 4:
            raise MalformedRecord("token row needs 4 fields", line_no)
        rows.append((line_no, fields))
    if header is not None:
        _add_graph(graphs, *header, rows)
