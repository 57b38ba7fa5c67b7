"""Concept lexicon and mention detection.

Disease and normal-state concepts are found by greedy token-aligned
dictionary matching against a CUI lexicon. Mentions produced by external
tools can be imported from a standoff TSV and merged with internal hits.
"""

from __future__ import annotations

import re
from enum import Enum
from importlib import resources
from typing import Iterable, NamedTuple, Optional

from cxrlabel.errors import (
    BadCui,
    DuplicateEntry,
    MalformedRow,
    SpanOutOfRange,
    read_rows,
)
from cxrlabel.lazy import _lazy_module, record

# Runs on its first attribute read (see `cxrlabel.lazy`), so that loading
# the lexicon does not run the report layer.
reports = _lazy_module("cxrlabel.reports")

# Categories that are not target-class labels.
NORMAL_CONCEPT = "NORMAL_CONCEPT"
OTHER_DISEASE = "OTHER_DISEASE"

# CUIs whose positive mention marks a report as explicitly normal.
NORMAL_CUIS = frozenset({"C0205307", "C0332506"})

SEMANTIC_TYPES = ("dsyn", "fndg")

_CUI_RE = re.compile(r"^C\d{7}$")


class Source(Enum):
    INTERNAL = "internal"
    EXTERNAL = "external"


@record
class LexiconEntry:
    cui: str
    category: str
    semantic_type: str
    phrase: tuple[str, ...]  # lowercase tokens

    def __post_init__(self):
        if not _CUI_RE.match(self.cui):
            raise BadCui(self.cui)
        if not self.phrase:
            raise MalformedRow(f"empty phrase for {self.cui}")
        if self.semantic_type not in SEMANTIC_TYPES:
            raise MalformedRow(f"unknown semantic type {self.semantic_type!r}")


class _MentionFields(NamedTuple):
    sentence_ref: reports.SentenceRef
    start: int  # 1-based, inclusive
    end: int  # inclusive
    cui: str
    category: str
    source: Source = Source.INTERNAL


class ConceptMention(_MentionFields):
    """A concept's span in a sentence: a named tuple of its fields.
    `match_concepts`, whose spans hold by construction, builds it with
    `tuple.__new__`."""

    __slots__ = ()

    def __new__(cls, sentence_ref: reports.SentenceRef, start: int, end: int,
                cui: str, category: str, source: Source = Source.INTERNAL):
        if start < 1 or end < start:
            raise MalformedRow(f"bad span [{start},{end}]")
        return tuple.__new__(cls, (sentence_ref, start, end, cui, category, source))

    @property
    def span(self) -> tuple[int, int]:
        return (self.start, self.end)

    def length(self) -> int:
        return self.end - self.start + 1

    def overlaps(self, other: "ConceptMention") -> bool:
        return (
            self.sentence_ref == other.sentence_ref
            and self.start <= other.end
            and other.start <= self.end
        )


def _mention_order(mention: ConceptMention):
    return (mention.sentence_ref, mention.start, mention.end, mention.cui)


class Lexicon:
    """Entries indexed by first phrase token for greedy matching."""

    def __init__(self, entries: Iterable[LexiconEntry]):
        self.entries = tuple(entries)
        seen: set[tuple[str, tuple[str, ...]]] = set()
        self._index: dict[str, list[LexiconEntry]] = {}
        for entry in self.entries:
            key = (entry.cui, entry.phrase)
            if key in seen:
                raise DuplicateEntry(entry.cui, " ".join(entry.phrase))
            seen.add(key)
            self._index.setdefault(entry.phrase[0], []).append(entry)
        for bucket in self._index.values():
            bucket.sort(key=lambda e: (-len(e.phrase), e.cui))

    def __len__(self) -> int:
        return len(self.entries)

    def categories(self) -> set[str]:
        return {entry.category for entry in self.entries}

    def longest_match(
        self, lowered: tuple[str, ...], start: int
    ) -> Optional[LexiconEntry]:
        for entry in self._index.get(lowered[start], ()):
            end = start + len(entry.phrase)
            if end <= len(lowered) and lowered[start:end] == entry.phrase:
                return entry
        return None


def load_lexicon(path) -> Lexicon:
    """Load tab-separated rows cui, category, semantic_type, phrase."""
    entries: list[LexiconEntry] = []
    seen: set[tuple[str, tuple[str, ...]]] = set()
    for row_no, fields in read_rows(path, 4, "lexicon row"):
        cui, category, semantic_type, phrase = fields
        if not _CUI_RE.match(cui):
            raise BadCui(cui, row_no)
        if not category.strip():
            raise MalformedRow("empty category", row_no)
        tokens = tuple(phrase.lower().split())
        if not tokens:
            raise MalformedRow("empty phrase", row_no)
        if semantic_type not in SEMANTIC_TYPES:
            raise MalformedRow(f"unknown semantic type {semantic_type!r}", row_no)
        if (cui, tokens) in seen:
            raise DuplicateEntry(cui, " ".join(tokens), row_no)
        seen.add((cui, tokens))
        entries.append(LexiconEntry(cui, category, semantic_type, tokens))
    return Lexicon(entries)


def default_lexicon() -> Lexicon:
    with resources.as_file(
        resources.files("cxrlabel.data").joinpath("lexicon.tsv")
    ) as path:
        return load_lexicon(path)


def match_concepts(
    sentence: reports.Sentence, lexicon: Lexicon
) -> list[ConceptMention]:
    """Greedy left-to-right, longest-phrase-first, case-insensitive matching.

    Matched spans never overlap; every hit carries source=internal. Only
    the positions whose word starts some phrase are tried, and none inside
    the last hit. A hit starts at i + 1 >= 1 and ends no earlier, since no
    phrase is empty.
    """
    lowered, ref = sentence.lowered, sentence.ref
    index, new = lexicon._index, tuple.__new__
    mentions: list[ConceptMention] = []
    end = 0  # the first position past the last hit
    for i in [i for i, word in enumerate(lowered) if word in index]:
        if i < end:
            continue
        entry = lexicon.longest_match(lowered, i)
        if entry is None:
            continue
        end = i + len(entry.phrase)
        mentions.append(new(ConceptMention, (
            ref, i + 1, end, entry.cui, entry.category, Source.INTERNAL
        )))
    return mentions


def _resolve_overlaps(mentions: set[ConceptMention]) -> list[ConceptMention]:
    # Longer spans win within a category; ties prefer earlier start, then
    # lower CUI so the outcome never depends on input order.
    kept: list[ConceptMention] = []
    by_group: dict[tuple[reports.SentenceRef, str], list[ConceptMention]] = {}
    for mention in mentions:
        by_group.setdefault((mention.sentence_ref, mention.category), []).append(
            mention
        )
    for group in by_group.values():
        group.sort(key=lambda m: (-m.length(), m.start, m.cui, m.source.value))
        chosen: list[ConceptMention] = []
        for mention in group:
            if not any(mention.overlaps(other) for other in chosen):
                chosen.append(mention)
        kept.extend(chosen)
    return sorted(kept, key=_mention_order)


def merge_mention_sets(
    a: Iterable[ConceptMention], b: Iterable[ConceptMention]
) -> list[ConceptMention]:
    """Union of two mention sets with duplicates and overlaps resolved.

    Exact duplicates (same sentence, span and CUI) collapse regardless of
    source; overlapping same-category mentions keep only the longest span.
    Commutative, and idempotent in the sense merge(a, a) == merge(a, []).
    """
    unique: dict[tuple, ConceptMention] = {}
    for mention in list(a) + list(b):
        key = (mention.sentence_ref, mention.span, mention.cui)
        held = unique.get(key)
        # Internal wins the source field on exact duplicates.
        if held is None or (
            held.source is Source.EXTERNAL and mention.source is Source.INTERNAL
        ):
            unique[key] = mention
    return _resolve_overlaps(set(unique.values()))


def load_external_mentions(path) -> list[ConceptMention]:
    """Load standoff rows: report_id, section, sentence_index, start, end,
    cui, category. Spans are validated against a corpus at attach time."""
    mentions: list[ConceptMention] = []
    for row_no, fields in read_rows(path, 7, "mention row"):
        report_id, section, index, start, end, cui, category = fields
        try:
            index_i, start_i, end_i = int(index), int(start), int(end)
        except ValueError:
            raise MalformedRow("non-integer index/span", row_no) from None
        if start_i < 1 or end_i < start_i:
            raise MalformedRow(f"bad span [{start_i},{end_i}]", row_no)
        if not _CUI_RE.match(cui):
            raise MalformedRow(f"bad CUI {cui!r}", row_no)
        mentions.append(
            ConceptMention(
                sentence_ref=reports.SentenceRef(report_id, section, index_i),
                start=start_i,
                end=end_i,
                cui=cui,
                category=category,
                source=Source.EXTERNAL,
            )
        )
    return mentions


def attach_mentions(
    corpus: reports.Corpus, mentions: Iterable[ConceptMention]
) -> list[ConceptMention]:
    """Validate mention spans against corpus sentences. Only the reports
    the mentions name are looked at."""
    by_id = None
    lengths: dict[reports.SentenceRef, int] = {}
    attached: list[ConceptMention] = []
    for mention in mentions:
        ref = mention.sentence_ref
        if ref not in lengths:
            if by_id is None:
                by_id = {report.report_id: report for report in corpus.reports}
            report = by_id.get(ref.report_id)
            if report is not None:
                lengths.update((s.ref, len(s)) for s in report.sentences)
        n = lengths.get(ref)
        if n is None:
            raise SpanOutOfRange("unknown sentence", mention)
        if mention.end > n:
            raise SpanOutOfRange(f"span ends past {n} tokens", mention)
        attached.append(mention)
    return sorted(attached, key=_mention_order)
