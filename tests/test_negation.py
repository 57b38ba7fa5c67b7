"""Dependency-rule negation/uncertainty: DSL, propagation, rule matching."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cxrlabel.errors import MissingGraph, RuleParseError, UnknownDirection
from cxrlabel.lexicon import ConceptMention, default_lexicon, match_concepts
from cxrlabel.negation import (
    Direction,
    EdgeStep,
    Polarity,
    PolarizedMention,
    Rule,
    RulePolarity,
    RuleSet,
    Scope,
    apply_rules,
    default_rules,
    lemma,
    load_rules,
    mention_head,
    propagate_conjuncts,
)
from cxrlabel.reports import DependencyGraph, Edge, SentenceRef

from conftest import RULE_EXAMPLES, make_graph, make_sentence, mention_phrase

RULES = default_rules()
LEXICON = default_lexicon()


class TestRuleDsl:
    def test_default_rules_shape(self):
        assert len(RULES) == 11
        assert [r.rule_id for r in RULES.negation_rules] == [
            "n1", "n2", "n3", "n4", "n5",
        ]
        assert [r.rule_id for r in RULES.uncertainty_rules] == [
            "u1", "u2", "u3", "u4", "u5", "u6",
        ]

    def test_step_parsing(self, tmp_path):
        path = tmp_path / "rules.tsv"
        path.write_text(
            "x1\tnegation\tno\tup:neg|det@evidence|proof down:*\tANY\tsubtree\n",
            encoding="utf-8",
        )
        rule = load_rules(path).rules[0]
        assert rule.path[0] == EdgeStep(
            Direction.UP, frozenset({"neg", "det"}), frozenset({"evidence", "proof"})
        )
        assert rule.path[1] == EdgeStep(Direction.DOWN, None, None)

    def test_wildcard_triggers_and_empty_path(self, tmp_path):
        path = tmp_path / "rules.tsv"
        path.write_text(
            "x1\tuncertainty\tcould be|may be\t-\tANY\tsentence\n", encoding="utf-8"
        )
        rule = load_rules(path).rules[0]
        assert rule.triggers == (("could", "be"), ("may", "be"))
        assert rule.path == ()

    def test_unknown_direction_rejected(self, tmp_path):
        path = tmp_path / "rules.tsv"
        path.write_text("x1\tnegation\tno\tsideways:neg\tANY\tsubtree\n",
                        encoding="utf-8")
        with pytest.raises(UnknownDirection):
            load_rules(path)

    def test_field_count_enforced(self, tmp_path):
        path = tmp_path / "rules.tsv"
        path.write_text("x1\tnegation\tno\tup:neg\tANY\n", encoding="utf-8")
        with pytest.raises(RuleParseError):
            load_rules(path)

    def test_duplicate_rule_id_rejected(self, tmp_path):
        path = tmp_path / "rules.tsv"
        path.write_text(
            "n1\tnegation\tno\tup:*\tANY\tsubtree\n"
            "n1\tnegation\tclear\tdown:prep_of\tANY\tsubtree\n",
            encoding="utf-8",
        )
        with pytest.raises(RuleParseError, match="^line 2: duplicate rule id 'n1'$"):
            load_rules(path)

    def test_disease_endpoint_requires_endpoint_scope(self):
        with pytest.raises(RuleParseError):
            Rule(
                "x1",
                RulePolarity.NEGATION,
                (("no",),),
                (EdgeStep(Direction.UP, None),),
                "DISEASE",
                Scope.SUBTREE,
            )

    def test_pathless_rule_requires_triggers(self):
        with pytest.raises(RuleParseError):
            Rule("x1", RulePolarity.UNCERTAINTY, (), (), "ANY", Scope.SENTENCE)

    def test_polarized_mention_requires_rule_when_flipped(self):
        mention = ConceptMention(
            SentenceRef("r", "findings", 0), 1, 1, "C0032285", "Pneumonia"
        )
        with pytest.raises(RuleParseError):
            PolarizedMention(mention, Polarity.NEGATED)
        assert PolarizedMention(mention, Polarity.POSITIVE).matched_rule is None


class TestLemma:
    def test_inflections_fold(self):
        assert lemma("suggesting") == "suggest"
        assert lemma("suggests") == "suggest"
        assert lemma("raises") == "raise"
        assert lemma("excluded") == "exclude"

    def test_unknown_words_pass_through(self):
        assert lemma("pneumonia") == "pneumonia"


class TestConjunctPropagation:
    def test_coordinated_objects_gain_governor_edge(self):
        sentence = make_sentence(
            "clear of focal airspace disease, pneumothorax, or pleural effusion"
        )
        graph = make_graph(
            sentence,
            [
                (1, 5, "prep_of"),
                (5, 3, "amod"),
                (5, 4, "nn"),
                (5, 7, "conj_or"),
                (5, 11, "conj_or"),
                (11, 10, "amod"),
            ],
        )
        closed = propagate_conjuncts(graph)
        added = frozenset(closed.edges) - frozenset(graph.edges)
        assert added == {Edge(1, 7, "prep_of"), Edge(1, 11, "prep_of")}

    def test_chained_conjuncts_close_transitively(self):
        sentence = make_sentence("a b c d")
        graph = make_graph(
            sentence, [(1, 2, "dobj"), (2, 3, "conj_and"), (3, 4, "conj_and")]
        )
        closed = propagate_conjuncts(graph)
        assert Edge(1, 3, "dobj") in closed.edges
        assert Edge(1, 4, "dobj") in closed.edges

    def test_conj_labels_are_not_copied(self):
        sentence = make_sentence("a b c")
        graph = make_graph(sentence, [(1, 2, "conj_and"), (2, 3, "conj_and")])
        closed = propagate_conjuncts(graph)
        assert frozenset(closed.edges) == frozenset(graph.edges)

    def test_self_loop_candidates_skipped(self):
        # b -dobj-> a plus a -conj-> b would imply b -dobj-> b; it is dropped.
        sentence = make_sentence("a b")
        graph = make_graph(sentence, [(2, 1, "dobj"), (1, 2, "conj_and")])
        closed = propagate_conjuncts(graph)
        assert frozenset(closed.edges) == frozenset(graph.edges)

    def test_closed_canonical_graph_is_returned_as_is(self):
        sentence = make_sentence("a b c")
        graph = make_graph(sentence, [(1, 2, "dobj"), (2, 3, "amod")])
        assert propagate_conjuncts(graph) is graph

    def test_unsorted_or_duplicate_edges_are_canonicalized(self):
        sentence = make_sentence("a b c")
        canonical = (Edge(1, 2, "dobj"), Edge(2, 3, "amod"))
        for edges in (canonical[::-1], canonical + canonical[:1]):
            graph = DependencyGraph(sentence.ref, 3, ("a", "b", "c"), edges)
            closed = propagate_conjuncts(graph)
            assert closed is not graph
            assert closed.edges == canonical

    @given(
        n=st.integers(min_value=2, max_value=6),
        raw=st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=6),
                st.integers(min_value=1, max_value=6),
                st.sampled_from(["dobj", "prep_of", "conj_and", "conj_or", "nn"]),
            ),
            max_size=10,
        ),
    )
    def test_propagation_is_idempotent_and_monotone(self, n, raw):
        edges = {Edge(h, d, lbl) for h, d, lbl in raw if h <= n and d <= n and h != d}
        ref = SentenceRef("r", "findings", 0)
        graph = DependencyGraph(
            ref, n, tuple(f"w{i}" for i in range(n)), tuple(sorted(edges))
        )
        closed = propagate_conjuncts(graph)
        assert frozenset(graph.edges) <= frozenset(closed.edges)
        assert frozenset(propagate_conjuncts(closed).edges) == frozenset(closed.edges)
        # Closure property: every implied edge is present.
        for edge in closed.edges:
            if edge.label.startswith("conj"):
                continue
            for conj in closed.edges:
                if conj.label.startswith("conj") and conj.head == edge.dependent:
                    if conj.dependent != edge.head:
                        assert (
                            Edge(edge.head, conj.dependent, edge.label)
                            in closed.edges
                        )


class TestMentionHead:
    def test_governing_token_wins(self):
        sentence = make_sentence("focal airspace disease")
        graph = make_graph(sentence, [(3, 1, "amod"), (3, 2, "nn")])
        mention = ConceptMention(sentence.ref, 1, 3, "C0024115", "OTHER_DISEASE")
        assert mention_head(graph, mention) == 3

    def test_single_token_is_its_own_head(self):
        sentence = make_sentence("pneumothorax persists")
        graph = make_graph(sentence, [(2, 1, "nsubj")])
        mention = ConceptMention(sentence.ref, 1, 1, "C0032326", "Pneumothorax")
        assert mention_head(graph, mention) == 1

    def test_fallback_is_last_token(self):
        sentence = make_sentence("pleural effusion")
        graph = make_graph(sentence, [])
        mention = ConceptMention(sentence.ref, 1, 2, "C0032227", "Effusion")
        assert mention_head(graph, mention) == 2


class TestRuleExamples:
    @pytest.mark.parametrize(
        "rule_id,text,edges,phrase,expected",
        RULE_EXAMPLES,
        ids=[case[0] for case in RULE_EXAMPLES],
    )
    def test_example_sentence(self, rule_id, text, edges, phrase, expected):
        sentence = make_sentence(text)
        graph = make_graph(sentence, edges)
        mentions = match_concepts(sentence, LEXICON)
        polarized = apply_rules(graph, mentions, RULES)
        by_phrase = {
            mention_phrase(sentence, p.mention): p for p in polarized
        }
        assert phrase in by_phrase, f"lexicon missed {phrase!r}"
        hit = by_phrase[phrase]
        assert hit.polarity.value == expected
        assert hit.matched_rule == rule_id

    def test_coordination_needs_propagation(self):
        # Without conjunct closure only the first coordinated disease is
        # reachable from the trigger; with it, all three flip.
        sentence = make_sentence(
            "clear of focal airspace disease, pneumothorax, or pleural effusion"
        )
        graph = make_graph(
            sentence,
            [
                (1, 5, "prep_of"),
                (5, 3, "amod"),
                (5, 4, "nn"),
                (5, 7, "conj_or"),
                (5, 11, "conj_or"),
                (11, 10, "amod"),
            ],
        )
        mentions = match_concepts(sentence, LEXICON)
        assert [m.span for m in mentions] == [(3, 5), (7, 7), (10, 11)]

        before = apply_rules(graph, mentions, RULES)
        assert [p.polarity for p in before] == [
            Polarity.NEGATED, Polarity.POSITIVE, Polarity.POSITIVE,
        ]

        after = apply_rules(propagate_conjuncts(graph), mentions, RULES)
        assert all(p.polarity is Polarity.NEGATED for p in after)
        assert all(p.matched_rule == "n3" for p in after)

    def test_uncoordinated_sibling_mention_stays_positive(self):
        # In the u6 example only the rule's object flips; the subject
        # mention keeps its positive polarity.
        rule_id, text, edges, phrase, expected = RULE_EXAMPLES[-1]
        sentence = make_sentence(text)
        graph = make_graph(sentence, edges)
        polarized = apply_rules(graph, match_concepts(sentence, LEXICON), RULES)
        by_phrase = {mention_phrase(sentence, p.mention): p for p in polarized}
        assert by_phrase["nodules"].polarity is Polarity.POSITIVE
        assert by_phrase["pulmonary metastases"].polarity is Polarity.UNCERTAIN


class TestRuleSemantics:
    def test_negation_beats_uncertainty(self):
        sentence = make_sentence("no concern for pneumonia")
        graph = make_graph(sentence, [(4, 1, "neg"), (2, 4, "prep_for")])
        mentions = match_concepts(sentence, LEXICON)
        assert len(mentions) == 1

        hit = apply_rules(graph, mentions, RULES)[0]
        assert hit.polarity is Polarity.NEGATED
        assert hit.matched_rule == "n1"

        # Removing the negation rule exposes the uncertainty match.
        without_n1 = RuleSet(r for r in RULES.rules if r.rule_id != "n1")
        fallback = apply_rules(graph, mentions, without_n1)[0]
        assert fallback.polarity is Polarity.UNCERTAIN
        assert fallback.matched_rule == "u2"

    def test_endpoint_scope_requires_exact_landing(self):
        # Trigger lands on "evidence", not the disease head, so the plain
        # up:* rule n1 must not fire.
        sentence = make_sentence("no evidence of active disease")
        graph = make_graph(
            sentence, [(2, 1, "neg"), (2, 5, "prep_of"), (5, 4, "amod")]
        )
        mentions = match_concepts(sentence, LEXICON)
        only_n1 = RuleSet([r for r in RULES.rules if r.rule_id == "n1"])
        hit = apply_rules(graph, mentions, only_n1)[0]
        assert hit.polarity is Polarity.POSITIVE

    def test_subtree_scope_covers_descendants(self):
        sentence = make_sentence("cannot exclude small pleural effusion")
        graph = make_graph(
            sentence, [(2, 1, "md"), (2, 5, "dobj"), (5, 3, "amod"), (5, 4, "amod")]
        )
        mentions = match_concepts(sentence, LEXICON)
        hit = apply_rules(graph, mentions, RULES)[0]
        assert hit.polarity is Polarity.UNCERTAIN
        assert hit.matched_rule == "u1"

    def test_sentence_scope_ignores_structure(self):
        sentence = make_sentence("opacity could be pneumonia")
        graph = make_graph(sentence, [])
        mentions = match_concepts(sentence, LEXICON)
        hit = apply_rules(graph, mentions, RULES)[0]
        assert hit.polarity is Polarity.UNCERTAIN
        assert hit.matched_rule == "u3"

    def test_up_step_never_crosses_virtual_root(self):
        sentence = make_sentence("no pneumonia")
        graph = make_graph(sentence, [(0, 1, "root")])
        mentions = match_concepts(sentence, LEXICON)
        hit = apply_rules(graph, mentions, RULES)[0]
        assert hit.polarity is Polarity.POSITIVE

    def test_trigger_is_whole_token(self):
        # "nodules" contains "no" as a prefix but must not trigger n1.
        sentence = make_sentence("nodules")
        graph = make_graph(sentence, [])
        mentions = match_concepts(sentence, LEXICON)
        hit = apply_rules(graph, mentions, RULES)[0]
        assert hit.polarity is Polarity.POSITIVE

    def test_inflected_trigger_matches(self):
        # u6 lists "suggesting"; lemma folding lets "suggests" fire too.
        sentence = make_sentence("opacity suggests pneumonia")
        graph = make_graph(sentence, [(2, 1, "nsubj"), (2, 3, "dobj")])
        mentions = match_concepts(sentence, LEXICON)
        assert [m.category for m in mentions] == ["Pneumonia"]
        hit = apply_rules(graph, mentions, RULES)[0]
        assert hit.polarity is Polarity.UNCERTAIN
        assert hit.matched_rule == "u6"

    def test_mismatched_sentence_ref_rejected(self):
        sentence = make_sentence("pneumonia")
        graph = make_graph(sentence, [])
        stray = ConceptMention(
            SentenceRef("other", "findings", 0), 1, 1, "C0032285", "Pneumonia"
        )
        with pytest.raises(MissingGraph):
            apply_rules(graph, [stray], RULES)
