"""Report corpus: domain types and ingestion.

Radiology reports are sectioned free text. This module parses raw report
text into sections, splits sections into tokenized sentences with a
deterministic rule-based splitter, and loads the corpus and
dependency-graph file formats used by the rest of the pipeline.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, NamedTuple, Optional

from cxrlabel.errors import (
    BadHeadIndex,
    DuplicateReportId,
    EmptyReport,
    MalformedRecord,
    TokenCountMismatch,
    read_all_lines,
    read_lines,
)

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


@dataclass(frozen=True)
class RadiologyReport:
    report_id: str
    patient_id: str
    sections: dict[str, str]

    def __post_init__(self):
        if not self.report_id:
            raise MalformedRecord("empty report_id")
        if not self.sections:
            raise MalformedRecord(f"report {self.report_id!r} has no sections")
        for tag in self.sections:
            if tag not in SECTION_TAGS:
                raise MalformedRecord(f"unknown section tag {tag!r}")

    @classmethod
    def _checked(cls, report_id: str, patient_id: str,
                 sections: dict[str, str]) -> "RadiologyReport":
        """The report of a non-empty id and non-empty sections of known
        tags, which the caller has already checked: `__post_init__` is not
        run."""
        report = object.__new__(cls)
        fields = report.__dict__
        fields["report_id"] = report_id
        fields["patient_id"] = patient_id
        fields["sections"] = sections
        return report

    @cached_property
    def sentences(self) -> tuple["Sentence", ...]:
        """The report split once; every corpus holding it shares the split."""
        return tuple(split_sentences(self))


@dataclass(frozen=True)
class Sentence:
    report_id: str
    section: str
    index: int
    tokens: tuple[Token, ...]

    @cached_property
    def ref(self) -> SentenceRef:
        return SentenceRef(self.report_id, self.section, self.index)

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)
class DependencyGraph:
    sentence_ref: SentenceRef
    n_tokens: int
    surfaces: tuple[str, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self):
        if self.n_tokens < 1:
            raise TokenCountMismatch("graph declares no tokens", self.sentence_ref)
        if len(self.surfaces) != self.n_tokens:
            raise TokenCountMismatch(
                f"{len(self.surfaces)} surfaces for {self.n_tokens} tokens",
                self.sentence_ref,
            )
        for edge in self.edges:
            if not (0 <= edge.head <= self.n_tokens):
                raise BadHeadIndex(f"head {edge.head} outside 0..{self.n_tokens}")
            if not (1 <= edge.dependent <= self.n_tokens):
                raise BadHeadIndex(
                    f"dependent {edge.dependent} outside 1..{self.n_tokens}"
                )
            if edge.head == edge.dependent:
                raise BadHeadIndex(f"self-loop at token {edge.head}")

    @cached_property
    def lowered(self) -> tuple[str, ...]:
        return tuple(s.lower() for s in self.surfaces)

    @cached_property
    def out_adjacency(self) -> dict[int, list[Edge]]:
        """Edges by head position, each list in `edges` order."""
        adjacency: dict[int, list[Edge]] = {}
        for edge in self.edges:
            adjacency.setdefault(edge.head, []).append(edge)
        return adjacency

    @cached_property
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
    def _checked(cls, reports: tuple[RadiologyReport, ...]) -> "Corpus":
        """The graph-less corpus of `reports`, whose ids the caller has
        already found unique: `__post_init__` is not run."""
        corpus = object.__new__(cls)
        vars(corpus).update(reports=reports, graphs={})
        return corpus

    def sentences(self) -> list[Sentence]:
        return [s for r in self.reports for s in r.sentences]

    def with_graphs(self, graphs: dict[SentenceRef, DependencyGraph]) -> "Corpus":
        merged = dict(self.graphs)
        merged.update(graphs)
        return Corpus(self.reports, merged)


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


def _sentence_chunks(text: str) -> list[str]:
    chunks = (chunk.strip() for chunk in _SENTENCE_END.split(text))
    return [chunk for chunk in chunks if chunk]


def tokenize(chunk: str) -> tuple[Token, ...]:
    surfaces = _TOKEN_RE.findall(chunk)
    return tuple(
        Token(i + 1, surface, surface.lower()) for i, surface in enumerate(surfaces)
    )


def split_sentences(report: RadiologyReport) -> list[Sentence]:
    sentences: list[Sentence] = []
    for tag, text in report.sections.items():
        index = 0
        for chunk in _sentence_chunks(text):
            tokens = tokenize(chunk)
            if tokens:
                sentences.append(Sentence(report.report_id, tag, index, tokens))
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
    checked = RadiologyReport._checked
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
        reports.append(checked(report_id, patient_id, sections))
    return Corpus._checked(tuple(reports))


def load_dependency_file(path) -> dict[SentenceRef, DependencyGraph]:
    """Load blank-line-separated dependency graphs.

    Each sentence starts with "#sent<TAB>report_id<TAB>section<TAB>index
    <TAB>n_tokens" followed by rows "position<TAB>surface<TAB>head<TAB>
    deprel". A position may repeat to give a token several heads; head 0
    with deprel "-" declares a token that hangs off no edge, while head 0
    with a real label is a virtual-root edge.
    """
    graphs: dict[SentenceRef, DependencyGraph] = {}
    header: Optional[tuple[SentenceRef, int, int]] = None  # ref, n_tokens, line
    rows: list[tuple[int, list[str]]] = []

    def flush():
        nonlocal header, rows
        if header is None:
            return
        ref, n_tokens, header_line = header
        if ref in graphs:
            raise MalformedRecord(f"duplicate sentence {ref}", header_line)
        surfaces: dict[int, str] = {}
        edges: set[Edge] = set()
        for row_no, fields in rows:
            position, surface, head, deprel = fields
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
        # Every position is in 1..n_tokens, so they cover it when there
        # are n_tokens of them; no set of n_tokens positions is built.
        if len(surfaces) != n_tokens:
            raise TokenCountMismatch(
                f"rows cover positions {sorted(surfaces)}, expected 1..{n_tokens}",
                ref,
                header_line,
            )
        graphs[ref] = DependencyGraph(
            ref,
            n_tokens,
            tuple(surfaces[i] for i in range(1, n_tokens + 1)),
            _canonical_edges(edges),
        )
        header = None
        rows = []

    for line_no, line in read_lines(path):
        if not line.strip():
            flush()
            continue
        fields = line.split("\t")
        if fields[0] == "#sent":
            flush()
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
    flush()
    return graphs
