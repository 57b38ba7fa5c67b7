"""Syntactic negation and uncertainty rules over dependency graphs.

A rule names trigger word(s), a directed path of labeled dependency
edges, an endpoint kind and a scope. Matching a rule flips the polarity
of concept mentions from positive to negated or uncertain. Conjunct
propagation closes coordination structures first so one trigger can
reach every coordinated disease token.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from importlib import resources
from typing import Iterable, Optional

from cxrlabel.errors import (
    MissingGraph,
    RuleParseError,
    UnknownDirection,
    read_rows,
)
from cxrlabel.lexicon import ConceptMention
from cxrlabel.reports import DependencyGraph, Edge

# Small built-in inflection map standing in for a lemmatizer.
_INFLECTIONS = {
    "suggests": "suggest",
    "suggesting": "suggest",
    "suggested": "suggest",
    "suspects": "suspect",
    "suspected": "suspect",
    "suspecting": "suspect",
    "concerns": "concern",
    "concerning": "concern",
    "raises": "raise",
    "represents": "represent",
    "representing": "represent",
    "excludes": "exclude",
    "excluded": "exclude",
}


def lemma(lowered: str) -> str:
    return _INFLECTIONS.get(lowered, lowered)


class Direction(Enum):
    DOWN = "down"  # governor -> dependent
    UP = "up"  # dependent -> governor


class RulePolarity(Enum):
    NEGATION = "negation"
    UNCERTAINTY = "uncertainty"


class Polarity(Enum):
    POSITIVE = "positive"
    NEGATED = "negated"
    UNCERTAIN = "uncertain"


class Scope(Enum):
    ENDPOINT = "endpoint"
    SUBTREE = "subtree"
    SENTENCE = "sentence"


@dataclass(frozen=True)
class EdgeStep:
    direction: Direction
    labels: Optional[frozenset[str]]  # None = any label
    node_lemmas: Optional[frozenset[str]] = None  # constraint on landing token


@dataclass(frozen=True)
class Rule:
    rule_id: str
    polarity: RulePolarity
    triggers: tuple[tuple[str, ...], ...]  # phrases; empty = any token
    path: tuple[EdgeStep, ...]
    endpoint: str  # "DISEASE" | "ANY"
    scope: Scope

    def __post_init__(self):
        if self.endpoint == "DISEASE" and self.scope is not Scope.ENDPOINT:
            raise RuleParseError(
                f"rule {self.rule_id}: DISEASE endpoint requires endpoint scope"
            )
        if not self.path and not self.triggers:
            raise RuleParseError(
                f"rule {self.rule_id}: pathless rule needs explicit triggers"
            )


@dataclass(frozen=True)
class PolarizedMention:
    mention: ConceptMention
    polarity: Polarity
    matched_rule: Optional[str] = None

    def __post_init__(self):
        if self.polarity is not Polarity.POSITIVE and self.matched_rule is None:
            raise RuleParseError(
                f"{self.polarity.value} mention must name the matched rule"
            )


class RuleSet:
    def __init__(self, rules: Iterable[Rule]):
        self.rules = tuple(rules)
        # Negation rules take precedence over uncertainty rules.
        self.negation_rules = tuple(
            r for r in self.rules if r.polarity is RulePolarity.NEGATION
        )
        self.uncertainty_rules = tuple(
            r for r in self.rules if r.polarity is RulePolarity.UNCERTAINTY
        )
        # Each rule in precedence order with its triggers as key sets: a
        # token matches trigger word w when its lemma is w or lemma(w).
        self.ranked = tuple(
            (rule, tuple(
                tuple(frozenset((word, lemma(word))) for word in phrase)
                for phrase in rule.triggers
            ))
            for rule in self.negation_rules + self.uncertainty_rules
        )
        # What a graph must hold for a rule to fire (see `reaches`): a
        # token that starts a trigger phrase, or an edge that can take the
        # first step of a rule that triggers on any token.
        first_keys = {
            key for _, phrases in self.ranked for phrase in phrases for key in phrase[0]
        }
        self.trigger_words = frozenset(
            word for word in first_keys.union(_INFLECTIONS) if lemma(word) in first_keys
        )
        wildcards = [rule for rule in self.rules if not rule.triggers]
        self.fires_anywhere = any(rule.scope is Scope.SENTENCE for rule in wildcards)
        first_labels = [rule.path[0].labels for rule in wildcards]
        self.first_labels = (
            None if None in first_labels else frozenset().union(*first_labels)
        )

    def reaches(self, graph: DependencyGraph) -> bool:
        """False when no rule can fire on `graph`. A rule that triggers on
        any token and has `sentence` scope fires on every graph."""
        if self.fires_anywhere or not self.trigger_words.isdisjoint(graph.lowered):
            return True
        labels = self.first_labels  # None: any label
        return any(
            edge.head and (labels is None or edge.label in labels)
            for edge in graph.edges
        )

    def __len__(self) -> int:
        return len(self.rules)


def _parse_step(token: str, line_no: int) -> EdgeStep:
    direction, sep, rest = token.partition(":")
    if not sep:
        raise RuleParseError(f"step {token!r} lacks ':'", line_no)
    try:
        parsed = Direction(direction)
    except ValueError:
        raise UnknownDirection(direction, line_no) from None
    label_part, _, lemma_part = rest.partition("@")
    if not label_part:
        raise RuleParseError(f"step {token!r} lacks a label", line_no)
    labels = None if label_part == "*" else frozenset(label_part.split("|"))
    node_lemmas = frozenset(lemma_part.split("|")) if lemma_part else None
    return EdgeStep(parsed, labels, node_lemmas)


def load_rules(path) -> RuleSet:
    """Load the rule DSL: one rule per line, tab-separated fields
    id, polarity, triggers ("|"-joined phrases, "*" = any token), path
    (space-joined "dir:label[@lemma]" steps, "-" = none), endpoint, scope.
    """
    rules: list[Rule] = []
    seen_ids: set[str] = set()
    for line_no, fields in read_rows(path, 6, "rule", RuleParseError):
        rule_id, polarity, triggers, path, endpoint, scope = fields
        if rule_id in seen_ids:
            raise RuleParseError(f"duplicate rule id {rule_id!r}", line_no)
        seen_ids.add(rule_id)
        try:
            rule_polarity = RulePolarity(polarity)
        except ValueError:
            raise RuleParseError(f"unknown polarity {polarity!r}", line_no) from None
        if triggers == "*":
            trigger_phrases: tuple[tuple[str, ...], ...] = ()
        else:
            trigger_phrases = tuple(
                tuple(phrase.split()) for phrase in triggers.lower().split("|")
            )
            if any(not phrase for phrase in trigger_phrases):
                raise RuleParseError("empty trigger phrase", line_no)
        steps = (
            ()
            if path == "-"
            else tuple(_parse_step(tok, line_no) for tok in path.split())
        )
        if endpoint not in ("DISEASE", "ANY"):
            raise RuleParseError(f"unknown endpoint {endpoint!r}", line_no)
        try:
            rule_scope = Scope(scope)
        except ValueError:
            raise RuleParseError(f"unknown scope {scope!r}", line_no) from None
        try:
            rules.append(
                Rule(rule_id, rule_polarity, trigger_phrases, steps,
                     endpoint, rule_scope)
            )
        except RuleParseError as err:
            raise RuleParseError(str(err), line_no) from None
    return RuleSet(rules)


def default_rules() -> RuleSet:
    with resources.as_file(
        resources.files("cxrlabel.data").joinpath("rules.tsv")
    ) as path:
        return load_rules(path)


def propagate_conjuncts(graph: DependencyGraph) -> DependencyGraph:
    """Fixpoint closure over coordination: (h -L-> a) and (a -conj_*-> b)
    imply (h -L-> b) for non-conj L. Original edges are retained.
    A graph the closure adds nothing to, with its edges in canonical
    (sorted, unique) order, is returned as it is."""
    edges = set(graph.edges)
    changed = True
    while changed:
        changed = False
        conj_by_head: dict[int, list[Edge]] = {}
        for edge in edges:
            if edge.label.startswith("conj"):
                conj_by_head.setdefault(edge.head, []).append(edge)
        for edge in list(edges):
            if edge.label.startswith("conj"):
                continue
            for conj in conj_by_head.get(edge.dependent, ()):
                new = Edge(edge.head, conj.dependent, edge.label)
                if new.head != new.dependent and new not in edges:
                    edges.add(new)
                    changed = True
    canonical = tuple(sorted(edges))
    if canonical == graph.edges:
        return graph
    return graph.with_edges(canonical)


def mention_head(graph: DependencyGraph, mention: ConceptMention) -> int:
    """The span token governing every other span token, else the last one."""
    span = list(range(mention.start, mention.end + 1))
    if len(span) == 1:
        return span[0]
    for candidate in span:
        rest = set(span) - {candidate}
        if rest <= graph.descendants(candidate):
            return candidate
    return span[-1]


def _trigger_positions(
    lemmas: list[str],
    index: dict[str, list[int]],
    phrases: tuple[tuple[frozenset[str], ...], ...],
) -> set[int]:
    """Positions where a phrase starts: its first word is looked up in
    the lemma index and only the words after it are checked."""
    positions: set[int] = set()
    for first, *rest in phrases:
        for key in first:
            for start in index.get(key, ()):
                if start + len(rest) <= len(lemmas) and all(
                    lemmas[start + k] in keys for k, keys in enumerate(rest)
                ):
                    positions.add(start)
    return positions


def _walk(
    graph: DependencyGraph,
    lemmas: list[str],
    frontier: Optional[Iterable[int]],
    path: tuple[EdgeStep, ...],
) -> set[int]:
    """Token positions reachable from the `frontier` tokens along the path.

    A frontier of None is every token, so the first step is one pass over
    the edges. No step leaves or lands on the virtual root.
    """
    for step in path:
        labels, down = step.labels, step.direction is Direction.DOWN
        if frontier is None:
            edges = graph.edges
        else:
            adjacency = graph.out_adjacency if down else graph.in_adjacency
            edges = [edge for node in frontier for edge in adjacency.get(node, ())]
        landed = {
            edge.dependent if down else edge.head
            for edge in edges
            if edge.head != 0 and (labels is None or edge.label in labels)
        }
        if step.node_lemmas is not None:
            landed = {
                node
                for node in landed
                if lemmas[node - 1] in step.node_lemmas
                or graph.lowered[node - 1] in step.node_lemmas
            }
        frontier = landed
        if not frontier:
            break
    return frontier


def apply_rules(
    graph: DependencyGraph,
    mentions: Iterable[ConceptMention],
    ruleset: RuleSet,
) -> list[PolarizedMention]:
    """Polarize mentions; negation beats uncertainty beats positive."""
    mentions = list(mentions)
    for mention in mentions:
        if mention.sentence_ref != graph.sentence_ref:
            raise MissingGraph(mention.sentence_ref)
    if not mentions or not ruleset.reaches(graph):
        return [PolarizedMention(mention, Polarity.POSITIVE) for mention in mentions]

    # Lemmatize the graph once and index its positions by lemma.
    lemmas = [lemma(word) for word in graph.lowered]
    index: dict[str, list[int]] = {}
    for position, word in enumerate(lemmas, start=1):
        index.setdefault(word, []).append(position)

    # What a rule covers is mention-independent, so compute it once. Keep
    # the rules that can fire here, in precedence order, with the heads
    # they cover; None covers every head (a triggered sentence rule).
    live: list[tuple[Rule, Optional[set[int]]]] = []
    for rule, phrases in ruleset.ranked:
        starts = _trigger_positions(lemmas, index, phrases) if phrases else None
        if phrases and not starts:
            continue
        if rule.scope is Scope.SENTENCE:
            live.append((rule, None))
            continue
        covered = _walk(graph, lemmas, starts, rule.path) if rule.path else set()
        if rule.scope is Scope.SUBTREE:
            # Subtree scope covers each landing token and its descendants.
            for landing in list(covered):
                covered |= graph.descendants(landing)
        if covered:
            live.append((rule, covered))

    result: list[PolarizedMention] = []
    for mention in mentions:
        head = mention_head(graph, mention)
        polarity = Polarity.POSITIVE
        matched: Optional[str] = None
        for rule, covered in live:
            if covered is None or head in covered:
                matched = rule.rule_id
                polarity = (
                    Polarity.NEGATED
                    if rule.polarity is RulePolarity.NEGATION
                    else Polarity.UNCERTAIN
                )
                break
        result.append(PolarizedMention(mention, polarity, matched))
    return result
