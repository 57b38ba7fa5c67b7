"""Lexicon loading, greedy matching, and mention-set merging."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cxrlabel.errors import BadCui, DuplicateEntry, MalformedRow, SpanOutOfRange
from cxrlabel.lexicon import (
    NORMAL_CONCEPT,
    NORMAL_CUIS,
    OTHER_DISEASE,
    ConceptMention,
    Lexicon,
    LexiconEntry,
    Source,
    attach_mentions,
    default_lexicon,
    load_external_mentions,
    load_lexicon,
    match_concepts,
    merge_mention_sets,
)
from cxrlabel.labeling import X14_CLASSES
from cxrlabel.reports import Corpus, RadiologyReport, SentenceRef

from conftest import make_sentence


def entry(cui, category, phrase, semantic_type="dsyn"):
    return LexiconEntry(cui, category, semantic_type, tuple(phrase.split()))


SMALL = Lexicon(
    [
        entry("C0032326", "Pneumothorax", "pneumothorax"),
        entry("C0032227", "Effusion", "pleural effusion", "fndg"),
        entry("C0013687", "Effusion", "effusion"),
        entry("C0024115", OTHER_DISEASE, "focal airspace disease"),
        entry("C0205307", NORMAL_CONCEPT, "normal", "fndg"),
    ]
)


class TestEntryValidation:
    def test_cui_shape_enforced(self):
        with pytest.raises(BadCui):
            entry("X0032326", "Pneumothorax", "pneumothorax")
        with pytest.raises(BadCui):
            entry("C32326", "Pneumothorax", "pneumothorax")

    def test_semantic_type_enforced(self):
        with pytest.raises(MalformedRow):
            entry("C0032326", "Pneumothorax", "pneumothorax", "evnt")

    def test_duplicate_cui_phrase_pair_rejected(self):
        e = entry("C0032326", "Pneumothorax", "pneumothorax")
        with pytest.raises(DuplicateEntry):
            Lexicon([e, e])

    def test_same_cui_different_phrase_allowed(self):
        lex = Lexicon(
            [
                entry("C0013687", "Effusion", "effusion"),
                entry("C0013687", "Effusion", "effusions"),
            ]
        )
        assert len(lex) == 2


class TestLoadLexicon:
    def write(self, tmp_path, *rows):
        path = tmp_path / "lexicon.tsv"
        path.write_text(
            "C0032285\tPneumonia\tdsyn\tpneumonia\n# comment\n"
            + "".join(row + "\n" for row in rows),
            encoding="utf-8",
        )
        return path

    def test_unknown_semantic_type_names_its_row(self, tmp_path):
        path = self.write(tmp_path, "C0032326\tPneumothorax\tbogus\tpneumothorax")
        with pytest.raises(MalformedRow) as err:
            load_lexicon(path)
        assert str(err.value) == "row 3: unknown semantic type 'bogus'"
        assert err.value.row_no == 3

    def test_repeated_entry_names_its_row(self, tmp_path):
        # The phrase is compared lowercased, as the lexicon matches it.
        path = self.write(tmp_path, "C0032285\tPneumonia\tdsyn\tPneumonia")
        with pytest.raises(DuplicateEntry) as err:
            load_lexicon(path)
        assert str(err.value) == (
            "row 3: duplicate lexicon entry (C0032285, 'pneumonia')"
        )
        assert (err.value.cui, err.value.phrase, err.value.row_no) == (
            "C0032285", "pneumonia", 3
        )

    def test_repeated_entry_is_named_before_a_later_bad_row(self, tmp_path):
        path = self.write(
            tmp_path,
            "C0032285\tPneumonia\tdsyn\tpneumonia",
            "C0032326\tPneumothorax\tbogus\tpneumothorax",
        )
        with pytest.raises(DuplicateEntry, match="^row 3: "):
            load_lexicon(path)


class TestMatching:
    def test_longest_phrase_wins(self):
        sentence = make_sentence("small pleural effusion on the left")
        mentions = match_concepts(sentence, SMALL)
        assert [(m.span, m.cui) for m in mentions] == [((2, 3), "C0032227")]

    def test_single_token_fallback(self):
        sentence = make_sentence("effusion persists")
        mentions = match_concepts(sentence, SMALL)
        assert [(m.span, m.cui) for m in mentions] == [((1, 1), "C0013687")]

    def test_matching_is_case_insensitive(self):
        sentence = make_sentence("PLEURAL EFFUSION noted")
        assert len(match_concepts(sentence, SMALL)) == 1

    def test_greedy_consumes_matched_tokens(self):
        # After "pleural effusion" matches, the scan resumes past it, so the
        # bare "effusion" entry cannot rematch inside the same span.
        sentence = make_sentence("pleural effusion")
        mentions = match_concepts(sentence, SMALL)
        assert len(mentions) == 1

    def test_multiple_hits_in_one_sentence(self):
        sentence = make_sentence(
            "clear of focal airspace disease, pneumothorax, or pleural effusion"
        )
        mentions = match_concepts(sentence, SMALL)
        assert [(m.span, m.category) for m in mentions] == [
            ((3, 5), OTHER_DISEASE),
            ((7, 7), "Pneumothorax"),
            ((10, 11), "Effusion"),
        ]

    def test_internal_source_set(self):
        sentence = make_sentence("pneumothorax")
        assert match_concepts(sentence, SMALL)[0].source is Source.INTERNAL


class TestDefaultLexicon:
    def test_loads_and_covers_all_target_classes(self):
        lex = default_lexicon()
        assert set(X14_CLASSES) <= lex.categories()
        assert NORMAL_CONCEPT in lex.categories()
        assert OTHER_DISEASE in lex.categories()

    def test_normal_cuis_present(self):
        cuis = {e.cui for e in default_lexicon().entries}
        assert NORMAL_CUIS <= cuis

    def test_known_concept_ids(self):
        by_cui = {}
        for e in default_lexicon().entries:
            by_cui.setdefault(e.cui, set()).add(e.category)
        assert by_cui["C0018800"] == {"Cardiomegaly"}
        assert by_cui["C0032326"] == {"Pneumothorax"}
        assert by_cui["C0004144"] == {"Atelectasis"}
        assert by_cui["C1960024"] == {"Pneumonia"}


class TestMerging:
    REF = SentenceRef("r1", "findings", 0)

    def mention(self, start, end, cui, category="Effusion", source=Source.INTERNAL):
        return ConceptMention(self.REF, start, end, cui, category, source)

    def test_exact_duplicates_collapse(self):
        a = [self.mention(1, 2, "C0013687")]
        b = [self.mention(1, 2, "C0013687", source=Source.EXTERNAL)]
        merged = merge_mention_sets(a, b)
        assert len(merged) == 1
        assert merged[0].source is Source.INTERNAL

    def test_longer_span_wins_overlap(self):
        a = [self.mention(2, 2, "C0013687")]
        b = [self.mention(1, 2, "C0032227", source=Source.EXTERNAL)]
        merged = merge_mention_sets(a, b)
        assert [(m.span, m.cui) for m in merged] == [((1, 2), "C0032227")]

    def test_same_span_tie_breaks_on_cui(self):
        a = [self.mention(1, 2, "C0032227")]
        b = [self.mention(1, 2, "C0013687")]
        merged = merge_mention_sets(a, b)
        assert [m.cui for m in merged] == ["C0013687"]

    def test_different_categories_both_kept(self):
        a = [self.mention(1, 3, "C0024115", category=OTHER_DISEASE)]
        b = [self.mention(2, 2, "C0013687")]
        assert len(merge_mention_sets(a, b)) == 2

    def test_commutative(self):
        a = [self.mention(1, 2, "C0032227"), self.mention(4, 4, "C0013687")]
        b = [self.mention(2, 3, "C0747635"), self.mention(4, 4, "C0013687")]
        assert merge_mention_sets(a, b) == merge_mention_sets(b, a)

    def test_idempotent_against_empty(self):
        a = [self.mention(1, 2, "C0032227"), self.mention(2, 3, "C0747635")]
        once = merge_mention_sets(a, [])
        assert merge_mention_sets(once, once) == once
        assert merge_mention_sets(a, a) == once

    @given(
        spans=st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=8),
                st.integers(min_value=0, max_value=3),
                st.sampled_from(["C0013687", "C0032227", "C0747635"]),
                st.sampled_from([Source.INTERNAL, Source.EXTERNAL]),
            ),
            max_size=8,
        ),
        split=st.integers(min_value=0, max_value=8),
    )
    def test_merge_properties_random(self, spans, split):
        mentions = [
            ConceptMention(self.REF, s, s + w, cui, "Effusion", src)
            for s, w, cui, src in spans
        ]
        a, b = mentions[:split], mentions[split:]
        merged = merge_mention_sets(a, b)
        assert merged == merge_mention_sets(b, a)
        assert merged == merge_mention_sets(merged, merged)
        for i, m in enumerate(merged):
            for other in merged[i + 1 :]:
                assert not m.overlaps(other)


class TestExternalMentions:
    def test_load_and_attach(self, tmp_path):
        path = tmp_path / "mentions.tsv"
        path.write_text(
            "r1\tfindings\t0\t2\t3\tC0032227\tEffusion\n", encoding="utf-8"
        )
        mentions = load_external_mentions(path)
        assert mentions == [
            ConceptMention(
                SentenceRef("r1", "findings", 0),
                2,
                3,
                "C0032227",
                "Effusion",
                Source.EXTERNAL,
            )
        ]
        corpus = Corpus(
            (RadiologyReport("r1", "p1", {"findings": "small pleural effusion"}),)
        )
        assert attach_mentions(corpus, mentions) == mentions

    def test_attach_rejects_span_past_sentence(self):
        corpus = Corpus((RadiologyReport("r1", "p1", {"findings": "effusion"}),))
        bad = ConceptMention(
            SentenceRef("r1", "findings", 0), 1, 5, "C0013687", "Effusion"
        )
        with pytest.raises(SpanOutOfRange) as err:
            attach_mentions(corpus, [bad])
        assert str(err.value) == "mention r1/findings/0 [1,5]: span ends past 1 tokens"
        assert err.value.mention == bad

    def test_attach_rejects_unknown_sentence(self):
        corpus = Corpus((RadiologyReport("r1", "p1", {"findings": "effusion"}),))
        bad = ConceptMention(
            SentenceRef("r1", "impression", 0), 1, 1, "C0013687", "Effusion"
        )
        with pytest.raises(SpanOutOfRange):
            attach_mentions(corpus, [bad])

    def test_malformed_rows_rejected(self, tmp_path):
        path = tmp_path / "mentions.tsv"
        path.write_text("r1\tfindings\t0\t2\t3\tC0032227\n", encoding="utf-8")
        with pytest.raises(MalformedRow):
            load_external_mentions(path)
        path.write_text(
            "r1\tfindings\t0\t3\t2\tC0032227\tEffusion\n", encoding="utf-8"
        )
        with pytest.raises(MalformedRow):
            load_external_mentions(path)
