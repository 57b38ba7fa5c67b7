"""Shared fixture helpers: sentences, graphs, rule example sentences,
mutated CSV tables, the records of a label table, the writers of the
round-trip tests, the independent AUC and box-matching oracles, the
per-point ROC writer that the `--roc-out` renderer is checked against,
the corpus-wide label pipeline that `label_all` is checked against, the
line-by-line readers that `errors.read_rows`, `reports.load_corpus` and
`reports.load_dependency_file` are checked against, and the tokenizer
the sentence splitter and the per-position concept matcher that the
sentence columns and `lexicon.match_concepts` are checked against."""

from __future__ import annotations

from itertools import combinations, permutations
from typing import Iterable

from hypothesis import strategies as st

from cxrlabel.cli import _csv_cell
from cxrlabel.errors import (
    BadHeadIndex,
    DuplicateReportId,
    MalformedRecord,
    MalformedRow,
    MissingGraph,
    SpanOutOfRange,
    TokenCountMismatch,
    read_lines,
)
from cxrlabel.labeling import STATUSES, ReportLabels, Status, polarize_corpus
from cxrlabel.lexicon import (
    NORMAL_CONCEPT,
    ConceptMention,
    Source,
    match_concepts,
    merge_mention_sets,
)
from cxrlabel.localization import Heatmap
from cxrlabel.metrics import roc_points
from cxrlabel.negation import Polarity
from cxrlabel.reports import (
    SECTION_TAGS,
    Corpus,
    DependencyGraph,
    Edge,
    RadiologyReport,
    Sentence,
    SentenceRef,
    Token,
    _canonical_edges,
    _SENTENCE_END,
    _TOKEN_RE,
    split_sentences,
)


def make_sentence(
    text: str,
    report_id: str = "r1",
    section: str = "findings",
    index: int = 0,
) -> Sentence:
    report = RadiologyReport(report_id, "p1", {section: text})
    sentences = split_sentences(report)
    return sentences[index]


def make_graph(sentence: Sentence, edges) -> DependencyGraph:
    return DependencyGraph(
        sentence_ref=sentence.ref,
        n_tokens=len(sentence),
        surfaces=tuple(t.surface for t in sentence.tokens),
        edges=tuple(sorted({Edge(*e) for e in edges})),
    )


# The supplementary rule examples: sentence text, hand-built dependency
# edges in a collapsed/propagated style, the concept phrase the rule is
# about, and the polarity the table assigns to it.
RULE_EXAMPLES = [
    (
        "n1",
        "No acute pulmonary disease",
        [(4, 1, "neg"), (4, 2, "amod"), (4, 3, "nn")],
        "pulmonary disease",
        "negated",
    ),
    (
        "n2",
        "changes without focal airspace disease",
        [(1, 5, "prep_without"), (5, 3, "amod"), (5, 4, "nn")],
        "focal airspace disease",
        "negated",
    ),
    (
        "n3",
        "clear of focal airspace disease, pneumothorax, or pleural effusion",
        [
            (1, 5, "prep_of"),
            (5, 3, "amod"),
            (5, 4, "nn"),
            (5, 7, "conj_or"),
            (5, 11, "conj_or"),
            (11, 10, "amod"),
            # conjunct propagation applied:
            (1, 7, "prep_of"),
            (1, 11, "prep_of"),
        ],
        "pneumothorax",
        "negated",
    ),
    (
        "n4",
        "Changes without evidence of acute infiltrate",
        [(1, 3, "prep_without"), (3, 6, "prep_of"), (6, 5, "amod")],
        "infiltrate",
        "negated",
    ),
    (
        "n5",
        "No evidence of active disease",
        [(2, 1, "neg"), (2, 5, "prep_of"), (5, 4, "amod")],
        "disease",
        "negated",
    ),
    (
        "u1",
        "The aorta is tortuous, and cannot exclude ascending aortic aneurysm",
        [
            (4, 2, "nsubj"),
            (2, 1, "det"),
            (4, 3, "cop"),
            (4, 8, "conj_and"),
            (8, 7, "md"),
            (8, 11, "dobj"),
            (11, 9, "amod"),
            (11, 10, "amod"),
        ],
        "aortic aneurysm",
        "uncertain",
    ),
    (
        "u2",
        "There is raises concern for pneumonia",
        [(3, 1, "expl"), (3, 4, "dobj"), (4, 6, "prep_for")],
        "pneumonia",
        "uncertain",
    ),
    (
        "u3",
        "which could be due to nodule/lymph node",
        [],
        "nodule",
        "uncertain",
    ),
    (
        "u4",
        "interstitial infiltrates difficult to exclude",
        [(2, 1, "amod"), (2, 3, "partmod"), (3, 5, "prep_to"), (5, 2, "dobj")],
        "infiltrates",
        "uncertain",
    ),
    (
        "u5",
        "which may represent pleural reaction or small pulmonary nodules",
        [
            (3, 1, "nsubj"),
            (3, 2, "md"),
            (3, 5, "dobj"),
            (5, 4, "amod"),
            (5, 9, "conj_or"),
            (9, 7, "amod"),
            (9, 8, "nn"),
        ],
        "nodules",
        "uncertain",
    ),
    (
        "u6",
        "Bilateral pulmonary nodules suggesting pulmonary metastases",
        [
            (3, 1, "amod"),
            (3, 2, "nn"),
            (3, 4, "partmod"),
            (4, 6, "dobj"),
            (6, 5, "amod"),
        ],
        "pulmonary metastases",
        "uncertain",
    ),
]


def mention_phrase(sentence: Sentence, mention) -> str:
    return " ".join(
        sentence.tokens[i - 1].lowered for i in range(mention.start, mention.end + 1)
    )


@st.composite
def mutated_csv(draw, rows: list[list[str]], tokens: list[str]) -> str:
    """CSV text of `rows` (header first) after up to four random edits:
    a cell replaced by one of `tokens`, a quoted cell, a repeated row or
    report id, a cell dropped or added, a blank line; then `\\r\\n` line
    ends or no final newline."""
    rows = [list(row) for row in rows]
    for _ in range(draw(st.integers(0, 4))):
        k = draw(st.integers(0, len(rows) - 1))
        row = rows[k]
        edit = draw(st.sampled_from(
            ["token", "token", "token", "quote", "repeat_row", "repeat_id",
             "drop", "add", "blank"]
        ))
        if edit == "token" and k > 0 and len(row) > 1:
            row[draw(st.integers(1, len(row) - 1))] = draw(st.sampled_from(tokens))
        elif edit == "quote" and row:
            j = draw(st.integers(0, len(row) - 1))
            row[j] = f'"{row[j]}"'
        elif edit == "repeat_row" and k > 0:
            rows.insert(draw(st.integers(1, len(rows))), list(row))
        elif edit == "repeat_id" and k > 0 and row:
            other = rows[draw(st.integers(1, len(rows) - 1))]
            row[0] = other[0] if other else ""
        elif edit == "drop" and row:
            del row[draw(st.integers(0, len(row) - 1))]
        elif edit == "add":
            row.append(draw(st.sampled_from(tokens)))
        elif edit == "blank":
            rows.insert(draw(st.integers(1, len(rows))), [])
    end = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    text = end.join(",".join(row) for row in rows)
    return text + end if draw(st.booleans()) else text


def label_records(table) -> list[ReportLabels]:
    """The ReportLabels of each row of a LabelTable, in row order."""
    return [
        ReportLabels(rid, tuple(row), STATUSES[code])
        for rid, row, code in zip(table.ids, table.y.tolist(), table.status.tolist())
    ]


# --- writers for the round-trip tests ---

def serialize_dependency_graphs(graphs: dict[SentenceRef, DependencyGraph]) -> str:
    """Inverse of load_dependency_file; reload yields identical edge sets."""
    blocks: list[str] = []
    for ref in sorted(graphs):
        graph = graphs[ref]
        lines = [
            "\t".join(
                ["#sent", ref.report_id, ref.section, str(ref.index),
                 str(graph.n_tokens)]
            )
        ]
        by_dependent: dict[int, list[Edge]] = {}
        for edge in graph.edges:
            by_dependent.setdefault(edge.dependent, []).append(edge)
        for pos in range(1, graph.n_tokens + 1):
            surface = graph.surfaces[pos - 1]
            edges = sorted(by_dependent.get(pos, []))
            if not edges:
                lines.append(f"{pos}\t{surface}\t0\t-")
            for edge in edges:
                lines.append(f"{pos}\t{surface}\t{edge.head}\t{edge.label}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def write_heatmaps(heatmaps: Iterable[Heatmap], handle):
    for heatmap in heatmaps:
        handle.write(
            f"{heatmap.image_id}\t{heatmap.label}\t{heatmap.size}"
            f"\t{heatmap.image_dim:g}\n"
        )
        for row in heatmap.grid:
            handle.write(" ".join(f"{v:.6g}" for v in row) + "\n")


# --- independent oracles ---

def auc_by_pairs(scores, gold):
    """Independent oracle: enumerate positive/negative pairs."""
    pos = [s for s, g in zip(scores, gold) if g == 1]
    neg = [s for s, g in zip(scores, gold) if g == 0]
    wins = sum(
        1.0 if p > n else (0.5 if p == n else 0.0) for p in pos for n in neg
    )
    return wins / (len(pos) * len(neg))


def optimal_match_count(gts, dets, threshold, measure):
    """Exhaustive maximum one-to-one matching with overlap > threshold."""
    edge = [[measure(g, d) > threshold for g in gts] for d in dets]
    for k in range(min(len(gts), len(dets)), 0, -1):
        for det_idx in combinations(range(len(dets)), k):
            for gt_idx in permutations(range(len(gts)), k):
                if all(edge[d][g] for d, g in zip(det_idx, gt_idx)):
                    return k
    return 0


def roc_lines_by_points(cls, score_vec, label_vec, counts=None) -> str:
    """The `--roc-out` lines of one class, one formatted point at a time:
    the writer the byte renderer of `auc --roc-out` replaced."""
    name = _csv_cell(cls)
    return "".join(
        f"{name},{fpr:.6f},{tpr:.6f}\n"
        for fpr, tpr in roc_points(score_vec, label_vec, counts)
    )


# --- the corpus-wide label pipeline `labeling.label_all` replaced ---

def label_all_corpus_wide(corpus, lexicon, ruleset, config, extra_mentions=()):
    """Match every sentence of the corpus, check the external mentions
    against a table of all sentences, merge the two mention lists of the
    whole corpus, then label."""
    internal = [m for s in corpus.sentences() for m in match_concepts(s, lexicon)]
    lengths = {sentence.ref: len(sentence) for sentence in corpus.sentences()}
    for mention in extra_mentions:
        n = lengths.get(mention.sentence_ref)
        if n is None:
            raise SpanOutOfRange("unknown sentence", mention)
        if mention.end > n:
            raise SpanOutOfRange(f"span ends past {n} tokens", mention)
    attached = sorted(
        extra_mentions, key=lambda m: (m.sentence_ref, m.start, m.end, m.cui)
    )
    merged = merge_mention_sets(internal, attached)
    return label_corpus_corpus_wide(corpus, merged, ruleset, config)


def label_corpus_corpus_wide(corpus, mentions, ruleset, config):
    """Polarize all mentions in sorted sentence order, then give each
    report the whole list and let it pick out its own mentions."""
    mine = {report.report_id: [] for report in corpus.reports}
    for pm in polarize_corpus(corpus, mentions, ruleset):
        mine[pm.mention.sentence_ref.report_id].append(pm)
    return [
        _label_report_filtered(report, corpus.graphs, mine[report.report_id], config)
        for report in corpus.reports
    ]


def _label_report_filtered(report, graphs, polarized_mentions, config):
    mine = [
        pm for pm in polarized_mentions
        if pm.mention.sentence_ref.report_id == report.report_id
    ]
    for pm in mine:
        if pm.mention.sentence_ref not in graphs:
            raise MissingGraph(pm.mention.sentence_ref)
    if "findings" in report.sections or "impression" in report.sections:
        scoped = {"findings", "impression"}
    else:
        scoped = set(report.sections)
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


def read_rows_by_lines(path, width: int, what: str, error=MalformedRow):
    """`errors.read_rows` as two generator layers over `read_lines`: the
    reference its one-pass reader is checked against."""
    for line_no, line in read_lines(path):
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != width:
            raise error(f"{what} needs {width} fields", line_no)
        yield line_no, fields


def load_corpus_by_lines(path) -> Corpus:
    """`reports.load_corpus` as a generator of lines, with each report and
    the corpus checked again by their constructors: the reference its
    one-read loader is checked against."""
    reports: list[RadiologyReport] = []
    seen: set[str] = set()
    for line_no, line in read_lines(path):
        if not line or line.startswith("#"):
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
            if tag not in SECTION_TAGS:
                raise MalformedRecord(f"unknown section tag {tag!r}", line_no)
            if tag in sections:
                raise MalformedRecord(f"duplicate section tag {tag!r}", line_no)
            sections[tag] = text
        reports.append(RadiologyReport(report_id, patient_id, sections))
    return Corpus(tuple(reports))


def sentence_chunks(text: str) -> list[str]:
    """The non-blank chunks of a section's text, stripped, split where
    `reports.split_sentences` splits it: the splitter it is checked
    against."""
    chunks = (chunk.strip() for chunk in _SENTENCE_END.split(text))
    return [chunk for chunk in chunks if chunk]


def tokenize(chunk: str) -> tuple[Token, ...]:
    """The tokens of one sentence chunk, built one `Token` at a time: the
    tokenizer the sentence columns replaced."""
    surfaces = _TOKEN_RE.findall(chunk)
    return tuple(
        Token(i + 1, surface, surface.lower()) for i, surface in enumerate(surfaces)
    )


def match_concepts_by_position(sentence: Sentence, lexicon) -> list[ConceptMention]:
    """`lexicon.match_concepts` trying `longest_match` at every position:
    the greedy matcher that visits only candidate starts is checked
    against it."""
    lowered = sentence.lowered
    mentions: list[ConceptMention] = []
    i = 0
    while i < len(lowered):
        entry = lexicon.longest_match(lowered, i)
        if entry is None:
            i += 1
            continue
        mentions.append(
            ConceptMention(
                sentence_ref=sentence.ref,
                start=i + 1,
                end=i + len(entry.phrase),
                cui=entry.cui,
                category=entry.category,
                source=Source.INTERNAL,
            )
        )
        i += len(entry.phrase)
    return mentions


def load_dependency_file_by_lines(path) -> dict[SentenceRef, DependencyGraph]:
    """`reports.load_dependency_file` as one loop over `read_lines`, with
    each graph checked again by its constructor: the reference the
    block-by-block loader is checked against."""
    graphs: dict[SentenceRef, DependencyGraph] = {}
    header = None  # ref, n_tokens, line
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
