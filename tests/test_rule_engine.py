"""The indexed rule engine against the edge-scanning reference it replaced.

`apply_rules` lemmatizes each graph once, finds trigger phrases through a
lemma index and walks adjacency lists. The reference below is the engine
as it was before that: it lowercases and lemmatizes every token for every
rule and phrase, and scans every edge for each adjacency query.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cxrlabel import negation
from cxrlabel.lexicon import ConceptMention
from cxrlabel.negation import (
    Direction,
    EdgeStep,
    Polarity,
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
                    if step.labels is None or edge.label in step.labels:
                        landed.add(edge.dependent)
            else:
                for edge in scan_in_edges(graph, node):
                    if (
                        step.labels is None or edge.label in step.labels
                    ) and edge.head != 0:
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
# surface, a subtree under any governor, a wildcard sentence rule with a
# path, a wildcard whose first step takes any label, and a wildcard
# sentence rule whose path names a label, which fires on graphs without it.
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
    Rule("x8", RulePolarity.NEGATION, (),
         (EdgeStep(Direction.DOWN, None), EdgeStep(Direction.DOWN, frozenset({"amod"}))),
         "ANY", Scope.ENDPOINT),
    Rule("x9", RulePolarity.UNCERTAINTY, (),
         (EdgeStep(Direction.DOWN, frozenset({"prep_without"})),), "ANY", Scope.SENTENCE),
])

# The shipped set, the shipped set less each rule, each extra rule alone,
# so that no other rule masks it, and the two sets joined, where rules of
# different ranks share a first trigger word: "no" starts n1, n5 and x1,
# "may" u3, u5, x3 and (as "May") x1, "concern(s)" u2 and x3.
RULESETS = (
    {"all": RULES}
    | {
        f"without-{r.rule_id}": RuleSet(s for s in RULES.rules if s is not r)
        for r in RULES.rules
    }
    | {f"only-{r.rule_id}": RuleSet([r]) for r in EXTRA_RULES.rules}
    | {"shipped+extra": RuleSet(RULES.rules + EXTRA_RULES.rules)}
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


@st.composite
def unplanted_graphs_with_mentions(draw):
    """A short random graph with random mentions and no rule planted, so
    that many graphs hold no trigger word and no edge a wildcard rule
    can step along."""
    surfaces = [variant(draw, w) for w in draw(st.lists(st.sampled_from(WORDS),
                                                         min_size=1, max_size=4))]
    n = len(surfaces)
    edges = [
        Edge(head, dependent, label)
        for head, dependent, label in draw(st.lists(
            st.tuples(st.integers(0, n), st.integers(1, n), st.sampled_from(LABELS)),
            max_size=n,
        ))
        if head != dependent
    ]
    graph = DependencyGraph(REF, n, tuple(surfaces), tuple(edges))
    starts = draw(st.lists(st.integers(1, n), min_size=1, max_size=3))
    mentions = [ConceptMention(REF, s, s, "C0032285", "Pneumonia") for s in starts]
    return graph, mentions


@pytest.mark.parametrize("name", sorted(RULESETS))
@given(case=unplanted_graphs_with_mentions())
def test_prefilter_keeps_every_graph_a_rule_can_reach(name, case):
    ruleset = RULESETS[name]
    graph, mentions = case
    fast = [
        (p.polarity.value, p.matched_rule)
        for p in apply_rules(graph, mentions, ruleset)
    ]
    reference = reference_apply_rules(graph, mentions, ruleset)
    assert fast == reference
    if not ruleset.reaches(graph):
        assert reference == [("positive", None)] * len(mentions)


@pytest.mark.parametrize("name", sorted(RULESETS))
def test_first_word_table_lists_each_rule_under_each_first_key(name):
    ruleset = RULESETS[name]
    expected: dict[str, set[int]] = {}
    for rank, (rule, _) in enumerate(ruleset.ranked):
        for phrase in rule.triggers:
            for key in (phrase[0], lemma(phrase[0])):
                expected.setdefault(key, set()).add(rank)
    assert ruleset.first_word_ranks == expected


def test_first_word_table_of_the_joined_set_shares_keys_across_ranks():
    ruleset = RULESETS["shipped+extra"]
    rank = {rule.rule_id: k for k, (rule, _) in enumerate(ruleset.ranked)}
    table = ruleset.first_word_ranks
    assert table["no"] == {rank["n1"], rank["n5"], rank["x1"]}
    # x1's "May" is lowercased when the rule is built, as no lemma is capitalized.
    assert table["may"] == {rank["u3"], rank["u5"], rank["x1"], rank["x3"]}
    assert "May" not in table
    assert table["concern"] == {rank["u2"], rank["x3"]}
    assert table["concerns"] == {rank["x3"]}
    # A rule that triggers on any token is under no key.
    assert not {rank[r] for r in ("n2", "n4", "x2", "x7", "x8", "x9")} & set().union(
        *table.values())


def test_only_the_rules_a_first_word_names_look_for_their_phrases():
    graph = DependencyGraph(
        REF, 4, ("No", "pleural", "effusion", "."),
        (Edge(3, 1, "neg"), Edge(3, 2, "amod")),
    )
    mention = ConceptMention(REF, 2, 3, "C0032227", "Effusion")
    with mock.patch("cxrlabel.negation._trigger_positions",
                    wraps=negation._trigger_positions) as positions:
        polarized = apply_rules(graph, [mention], RULES)
    assert [(p.polarity, p.matched_rule) for p in polarized] == [
        (Polarity.NEGATED, "n1")
    ]
    rules = {rule.rule_id: phrases for rule, phrases in RULES.ranked}
    assert [call.args[2] for call in positions.call_args_list] == [
        rules["n1"], rules["n5"]
    ]


def test_prefilter_skips_the_walk_on_a_graph_no_rule_can_reach():
    graph = DependencyGraph(
        REF, 3, ("small", "left", "effusion"),
        (Edge(3, 1, "amod"), Edge(3, 2, "amod"), Edge(0, 3, "prep_without")),
    )
    mention = ConceptMention(REF, 3, 3, "C0013687", "Effusion")
    assert not RULES.reaches(graph)
    with mock.patch("cxrlabel.negation._walk", side_effect=AssertionError), \
            mock.patch("cxrlabel.negation._trigger_positions",
                       side_effect=AssertionError):
        polarized = apply_rules(graph, [mention], RULES)
    assert [(p.polarity, p.matched_rule) for p in polarized] == [
        (Polarity.POSITIVE, None)
    ]


def test_wildcard_sentence_rule_fires_on_a_graph_without_edges():
    rule = Rule("w", RulePolarity.UNCERTAINTY, (),
                (EdgeStep(Direction.DOWN, frozenset({"dobj"})),), "ANY", Scope.SENTENCE)
    ruleset = RuleSet([rule])
    graph = DependencyGraph(REF, 2, ("left", "effusion"), ())
    mention = ConceptMention(REF, 2, 2, "C0013687", "Effusion")
    assert ruleset.reaches(graph)
    polarized = apply_rules(graph, [mention], ruleset)
    assert [(p.polarity, p.matched_rule) for p in polarized] == [
        (Polarity.UNCERTAIN, "w")
    ]


def walked_rules(graph, mentions, ruleset) -> list[str]:
    """The rules whose paths `apply_rules` walks on `graph`, in order,
    after checking its result against the reference."""
    paths = {rule.path: rule.rule_id for rule in ruleset.rules}
    with mock.patch("cxrlabel.negation._walk", wraps=negation._walk) as walk:
        polarized = apply_rules(graph, mentions, ruleset)
    assert [(p.polarity.value, p.matched_rule) for p in polarized] == (
        reference_apply_rules(graph, mentions, ruleset))
    return [paths[call.args[3]] for call in walk.call_args_list]


def test_wildcard_walk_is_skipped_where_no_edge_has_its_first_label():
    # n2 and n4 step first along prep_without from every token; only the
    # root carries that label here, and no step leaves the root.
    graph = DependencyGraph(
        REF, 3, ("No", "left", "effusion"),
        (Edge(3, 1, "neg"), Edge(3, 2, "amod"), Edge(0, 3, "prep_without")),
    )
    mention = ConceptMention(REF, 3, 3, "C0013687", "Effusion")
    assert walked_rules(graph, [mention], RULES) == ["n1", "n5"]


def test_wildcard_walk_runs_where_an_edge_has_its_first_label():
    graph = DependencyGraph(
        REF, 5, ("lungs", "without", "evidence", "of", "effusion"),
        (Edge(1, 3, "prep_without"), Edge(3, 5, "prep_of")),
    )
    mention = ConceptMention(REF, 5, 5, "C0013687", "Effusion")
    assert walked_rules(graph, [mention], RULES) == ["n2", "n4"]
    assert [p.matched_rule for p in apply_rules(graph, [mention], RULES)] == ["n4"]


def test_wildcard_sentence_rule_with_a_labelled_path_fires_without_the_label():
    ruleset = RuleSet([EXTRA_RULES.rules[-1]] + list(RULES.rules))
    graph = DependencyGraph(REF, 2, ("left", "effusion"), (Edge(2, 1, "amod"),))
    mention = ConceptMention(REF, 2, 2, "C0013687", "Effusion")
    assert walked_rules(graph, [mention], ruleset) == []
    assert [(p.polarity, p.matched_rule)
            for p in apply_rules(graph, [mention], ruleset)] == [
        (Polarity.UNCERTAIN, "x9")]
