"""The indexed rule engine against the edge-scanning reference it replaced.

`apply_rules` lemmatizes each graph once, finds trigger phrases through a
lemma index and walks adjacency lists. The reference below is the engine
as it was before that: it lowercases and lemmatizes every token for every
rule and phrase, and scans every edge for each adjacency query.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cxrlabel.lexicon import ConceptMention
from cxrlabel.negation import (
    Direction,
    EdgeStep,
    Rule,
    RulePolarity,
    RuleSet,
    Scope,
    apply_rules,
    default_rules,
    lemma,
)
from cxrlabel.reports import DependencyGraph, Edge, SentenceRef

RULES = default_rules()
REF = SentenceRef("r1", "findings", 0)


# --- slow reference ---


def scan_out_edges(graph: DependencyGraph, position: int) -> list[Edge]:
    return [e for e in graph.edges if e.head == position]


def scan_in_edges(graph: DependencyGraph, position: int) -> list[Edge]:
    return [e for e in graph.edges if e.dependent == position]


def scan_descendants(graph: DependencyGraph, position: int) -> set[int]:
    seen: set[int] = set()
    frontier = [position]
    while frontier:
        here = frontier.pop()
        for edge in scan_out_edges(graph, here):
            if edge.dependent not in seen:
                seen.add(edge.dependent)
                frontier.append(edge.dependent)
    return seen


def word_matches(lowered: str, trigger_word: str) -> bool:
    return (
        lowered == trigger_word
        or lemma(lowered) == trigger_word
        or lemma(lowered) == lemma(trigger_word)
    )


def trigger_positions(graph: DependencyGraph, rule: Rule) -> list[int]:
    lowered = [s.lower() for s in graph.surfaces]
    if not rule.triggers:
        return list(range(1, graph.n_tokens + 1))
    positions: list[int] = []
    for start in range(len(lowered)):
        for phrase in rule.triggers:
            if start + len(phrase) > len(lowered):
                continue
            if all(
                word_matches(lowered[start + k], phrase[k])
                for k in range(len(phrase))
            ):
                positions.append(start + 1)
                break
    return positions


def walk(graph: DependencyGraph, start: int, path: tuple[EdgeStep, ...]) -> set[int]:
    frontier = {start}
    for step in path:
        landed: set[int] = set()
        for node in frontier:
            if step.direction is Direction.DOWN:
                for edge in scan_out_edges(graph, node):
                    if step.label_matches(edge.label):
                        landed.add(edge.dependent)
            else:
                for edge in scan_in_edges(graph, node):
                    if step.label_matches(edge.label) and edge.head != 0:
                        landed.add(edge.head)
        if step.node_lemmas is not None:
            landed = {
                node
                for node in landed
                if lemma(graph.surfaces[node - 1].lower()) in step.node_lemmas
                or graph.surfaces[node - 1].lower() in step.node_lemmas
            }
        frontier = landed
        if not frontier:
            break
    return frontier


def rule_fires(
    graph: DependencyGraph, rule: Rule, head: int, landings: set[int]
) -> bool:
    if rule.scope is Scope.SENTENCE:
        return True
    if rule.scope is Scope.ENDPOINT:
        return head in landings
    for landing in landings:
        if head == landing or head in scan_descendants(graph, landing):
            return True
    return False


def reference_head(graph: DependencyGraph, mention: ConceptMention) -> int:
    span = list(range(mention.start, mention.end + 1))
    if len(span) == 1:
        return span[0]
    for candidate in span:
        if set(span) - {candidate} <= scan_descendants(graph, candidate):
            return candidate
    return span[-1]


def reference_apply_rules(graph, mentions, ruleset) -> list[tuple]:
    """(polarity value, matched rule) per mention, by the scanning engine."""
    landings: dict[str, set[int]] = {}
    fired_sentence: dict[str, bool] = {}
    for rule in ruleset.rules:
        positions = trigger_positions(graph, rule)
        fired_sentence[rule.rule_id] = bool(positions)
        landed: set[int] = set()
        if rule.path:
            for position in positions:
                landed |= walk(graph, position, rule.path)
        landings[rule.rule_id] = landed
    result = []
    for mention in mentions:
        head = reference_head(graph, mention)
        outcome = ("positive", None)
        for rule in ruleset.negation_rules + ruleset.uncertainty_rules:
            if rule.scope is Scope.SENTENCE:
                fired = fired_sentence[rule.rule_id]
            else:
                fired = rule_fires(graph, rule, head, landings[rule.rule_id])
            if fired:
                kind = "negated" if rule.polarity is RulePolarity.NEGATION else "uncertain"
                outcome = (kind, rule.rule_id)
                break
        result.append(outcome)
    return result


# --- random graphs ---

# Filler words, trigger words of the shipped rules and the lemmas their
# path steps require, each with some of its inflections.
WORDS = [
    "no", "clear", "free", "disappearance", "cannot", "concern", "concerns",
    "concerning", "difficult", "may", "could", "be", "suggesting", "suggests",
    "suggested", "suspect", "suspected", "evidence", "exclude", "excluded",
    "excludes", "represent", "represents", "pneumonia", "effusion", "of",
]
PHRASES = [("could", "be"), ("may", "be"), ("no", "evidence")]
CHUNKS = [(word,) for word in WORDS] + PHRASES
LABELS = [
    "neg", "md", "dobj", "prep_of", "prep_without", "prep_for", "prep_to",
    "amod", "conj_and",
]
CASES = [str.lower, str.capitalize, str.upper]

# Rules the shipped set lacks: a multi-word phrase beside one-word ones,
# a capitalized and an inflected trigger word, a wildcard that steps up,
# a pathless rule that never fires, a step that keeps an inflected
# surface, a subtree under any governor, and a wildcard sentence rule
# with a path.
EXTRA_RULES = RuleSet([
    Rule("x1", RulePolarity.NEGATION, (("no", "evidence"), ("no",), ("May",)),
         (EdgeStep(Direction.DOWN, None), EdgeStep(Direction.DOWN, frozenset({"amod"}))),
         "ANY", Scope.ENDPOINT),
    Rule("x2", RulePolarity.NEGATION, (),
         (EdgeStep(Direction.UP, frozenset({"neg"})),), "ANY", Scope.SUBTREE),
    Rule("x3", RulePolarity.UNCERTAINTY, (("concerns",), ("may", "be", "suggested")),
         (), "ANY", Scope.SENTENCE),
    Rule("x4", RulePolarity.UNCERTAINTY, (("cannot",),), (), "ANY", Scope.ENDPOINT),
    Rule("x5", RulePolarity.UNCERTAINTY, (("suggesting",),),
         (EdgeStep(Direction.DOWN, None, frozenset({"excludes", "represent"})),),
         "ANY", Scope.SUBTREE),
    Rule("x6", RulePolarity.UNCERTAINTY, (("evidence",),),
         (EdgeStep(Direction.UP, None),), "ANY", Scope.SUBTREE),
    Rule("x7", RulePolarity.UNCERTAINTY, (),
         (EdgeStep(Direction.UP, None), EdgeStep(Direction.DOWN, None)),
         "ANY", Scope.SENTENCE),
])

# The shipped set, the shipped set less each rule, and each extra rule
# alone, so that no other rule masks it.
RULESETS = (
    {"all": RULES}
    | {f"without-{r.rule_id}": RULES.without(r.rule_id) for r in RULES.rules}
    | {f"only-{r.rule_id}": RuleSet([r]) for r in EXTRA_RULES.rules}
)


def variant(draw, word: str) -> str:
    """The word or another form with its lemma, in a random case."""
    forms = [word] + [w for w in WORDS if lemma(w) == lemma(word)]
    return draw(st.sampled_from(CASES))(draw(st.sampled_from(forms)))


@st.composite
def graphs_with_landing(draw, rules) -> tuple[DependencyGraph, int]:
    """A random graph with the trigger and path of one of `rules` planted
    in it, so that every rule can fire, and the token the path ends on.

    The graphs have capitalized and inflected surfaces, multi-word
    triggers, head-0 edges, cycles, repeated edges and any edge order.
    """
    chunks = draw(st.lists(st.sampled_from(CHUNKS), min_size=1, max_size=8))
    surfaces = [variant(draw, word) for chunk in chunks for word in chunk]
    n = len(surfaces)
    edges = [
        Edge(head, dependent, label)
        for head, dependent, label in draw(st.lists(
            st.tuples(
                st.one_of(st.just(0), st.integers(1, n), st.integers(1, n)),
                st.integers(1, n),
                st.sampled_from(LABELS),
            ),
            max_size=2 * n,
        ))
        if head != dependent
    ]
    rule = draw(st.sampled_from(rules))
    node = draw(st.integers(1, n))
    if rule.triggers:
        phrase = draw(st.sampled_from(rule.triggers))
        for k, word in enumerate(phrase[: n - node + 1]):
            surfaces[node - 1 + k] = variant(draw, word)
    for step in rule.path:
        landing = draw(st.integers(1, n))
        label = draw(st.sampled_from(sorted(step.labels or LABELS)))
        if landing != node:
            down = step.direction is Direction.DOWN
            edges.append(Edge(node, landing, label) if down else Edge(landing, node, label))
        if step.node_lemmas:
            surfaces[landing - 1] = variant(draw, min(step.node_lemmas))
        node = landing
    return DependencyGraph(REF, n, tuple(surfaces), tuple(edges)), node


@st.composite
def graphs_with_mentions(draw, rules):
    graph, landing = draw(graphs_with_landing(rules))
    n = graph.n_tokens
    spans = draw(st.lists(st.tuples(st.integers(1, n), st.integers(0, 2)), max_size=3))
    spans.append((landing, draw(st.integers(0, 1))))
    mentions = [
        ConceptMention(REF, start, min(start + extra, n), "C0032285", "Pneumonia")
        for start, extra in draw(st.permutations(spans))
    ]
    return graph, mentions


@pytest.mark.parametrize("name", sorted(RULESETS))
@given(data=st.data())
def test_apply_rules_matches_scanning_reference(name, data):
    ruleset = RULESETS[name]
    graph, mentions = data.draw(graphs_with_mentions(ruleset.rules))
    fast = [
        (p.polarity.value, p.matched_rule)
        for p in apply_rules(graph, mentions, ruleset)
    ]
    assert fast == reference_apply_rules(graph, mentions, ruleset)


@given(case=graphs_with_landing(RULES.rules + EXTRA_RULES.rules))
def test_adjacency_equals_edge_scan(case):
    graph, _ = case
    for position in range(graph.n_tokens + 2):
        assert graph.out_edges(position) == scan_out_edges(graph, position)
        assert graph.in_edges(position) == scan_in_edges(graph, position)
        assert graph.descendants(position) == scan_descendants(graph, position)
