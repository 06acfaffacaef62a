import itertools
import unicodedata

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from botsieve import seedscan as ss
from conftest import account, corpus_of, tweet

TABLE_TEXTS = {
    ss.SelfRevealCategory.HARMFUL_CONTENT:
        "I'm sorry, but I cannot comply with this request as it violates OpenAI's "
        "Content Policy on generating harmful or inappropriate content. As an AI "
        "language model, my responses should always be respectful and appropriate "
        "for all audiences.",
    ss.SelfRevealCategory.BEYOND_CAPABILITY:
        "I'm sorry, but as an AI language model I cannot browse Twitter and access "
        "specific tweets to provide replies.",
    ss.SelfRevealCategory.OTHER_FORBIDDEN_CONTENT:
        "I'm sorry, as an AI language model I cannot provide investment advice or "
        "predictions about stock prices.",
    ss.SelfRevealCategory.POSITIVE_CONTENT:
        "No worries, friend! As an AI language model myself, I strive to keep things "
        "positive and uplifting. Let's spread some good vibes together with a "
        "#positivity hashtag!",
    ss.SelfRevealCategory.OTHER:
        "Interesting topic! Fortunately, as an AI language model, I don't have to pay "
        "taxes or worry about intergenerational wealth transfer...yet.",
}


def reference_contains(haystack: str, needle: str) -> bool:
    """Independent character-level matcher over independently normalized text."""
    def norm(text):
        text = unicodedata.normalize("NFKC", text).lower()
        out = []
        in_space = False
        for ch in text:
            if ch in "​‌‍⁠﻿":
                continue
            if ch.isspace():
                if not in_space and out:
                    out.append(" ")
                in_space = True
            else:
                out.append(ch)
                in_space = False
        return "".join(out).strip()

    h, n = norm(haystack), norm(needle)
    return any(h[i:i + len(n)] == n for i in range(len(h) - len(n) + 1))


def corpus_with_texts(texts):
    tweets = [tweet(f"t{i}", "a1", text=text) for i, text in enumerate(texts)]
    return corpus_of([account("a1")], tweets)


def test_default_phrase_matches_refusal_text():
    corpus = corpus_with_texts([TABLE_TEXTS[ss.SelfRevealCategory.BEYOND_CAPABILITY]])
    hits = ss.find_phrase_tweets(corpus)
    assert hits == {"t0": "as an ai language model"}


def test_match_survives_case_and_space_runs():
    corpus = corpus_with_texts(["As An AI  Language   Model,"])
    assert set(ss.find_phrase_tweets(corpus)) == {"t0"}


def test_hyphen_breaks_contiguity():
    text = "as an ai-language model"
    corpus = corpus_with_texts([text])
    assert ss.find_phrase_tweets(corpus) == {}
    assert not reference_contains(text, "as an ai language model")


def test_retweets_are_searched():
    corpus = corpus_of(
        [account("a1")],
        [tweet("t0", "a1", kind="retweet", ref="x",
               text="RT @x: as an AI language model I cannot help")],
    )
    assert set(ss.find_phrase_tweets(corpus)) == {"t0"}


def test_matches_agree_with_reference_matcher():
    texts = [
        "zero-width a​s an ai language model test",
        "no match here at all",
        "AS AN AI LANGUAGE MODEL",  # non-breaking space
        "as an ai-language model",
        "prefix as  an  ai  language  model suffix",
    ]
    corpus = corpus_with_texts(texts)
    hits = set(ss.find_phrase_tweets(corpus))
    for i, text in enumerate(texts):
        assert (f"t{i}" in hits) == reference_contains(text, "as an ai language model")


def per_tweet_scan(corpus, query):
    """find_phrase_tweets without sharing work between tweets that repeat a text."""
    hits = {}
    for tweet_id in sorted(corpus.tweets):
        haystack = ss.normalize_text(corpus.tweets[tweet_id].text)
        for raw, needle in zip(query.phrases, query.normalized):
            if needle in haystack:
                hits[tweet_id] = raw
                break
    return hits


def test_repeated_texts_match_a_per_tweet_scan():
    refusal = "I'm sorry, but as an AI language model I cannot browse Twitter."
    variants = [
        refusal,
        refusal.replace("AI", "A\u200bI"),                      # zero-width space
        refusal.replace("as an", "ａｓ\u00a0ａｎ"),                # fullwidth, NBSP
        "I cannot browse the web, sorry.",
        "nothing to see here",
        "as an ai-language model",
    ]
    query = ss.PhraseQuery(("As an AI language model", "cannot browse"))
    tweets = [tweet(f"t{i:02d}", f"a{i % 3}", kind="retweet" if i % 5 == 0 else "original",
                    ref="x" if i % 5 == 0 else None, text=variants[i % len(variants)])
              for i in range(30)]
    corpus = corpus_of([account(f"a{i}") for i in range(3)], tweets[::-1])
    hits = ss.find_phrase_tweets(corpus, query)
    assert list(hits.items()) == list(per_tweet_scan(corpus, query).items())
    assert corpus.table.values("tweet_id", hits.rows) == list(hits)
    assert {hits[f"t{i:02d}"] for i in range(3)} == {"As an AI language model"}
    assert hits["t03"] == "cannot browse"
    assert "t04" not in hits and "t05" not in hits


@given(st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=60),
       st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=60),
       st.randoms())
@settings(max_examples=150)
def test_planted_phrase_always_recalled(prefix, suffix, rnd):
    phrase = "as an ai language model"
    mutated = "".join(
        (ch.upper() if rnd.random() < 0.5 else ch) + (" " * rnd.randrange(3) if ch == " " else "")
        for ch in phrase
    )
    haystack = f"{prefix} {mutated} {suffix}"
    assert phrase in ss.normalize_text(haystack)


@given(st.text(max_size=120))
@settings(max_examples=150)
def test_normalization_idempotent(text):
    once = ss.normalize_text(text)
    assert ss.normalize_text(once) == once


_REF_ZERO_WIDTH = dict.fromkeys(map(ord, "\u200b\u200c\u200d\u2060\ufeff"))


def ref_normalize_text(text: str) -> str:
    """Frozen copy of normalize_text from before ASCII text skipped NFKC."""
    text = unicodedata.normalize("NFKC", text).translate(_REF_ZERO_WIDTH)
    return " ".join(text.lower().split())


# ASCII (controls and whitespace included), zero-width code points, fullwidth
# letters and ligatures, alone and mixed.
_SPECIALS = "\u200b\u200c\u200d\u2060\ufeff\uff21\uff49\uff41\ufb01\ufb02\u2163\u212a\u00a0\u3000"


@given(st.one_of(
    st.text(alphabet=st.characters(max_codepoint=127), max_size=80),
    st.text(alphabet=st.one_of(st.characters(max_codepoint=127), st.sampled_from(_SPECIALS)),
            max_size=80),
    st.text(max_size=80)))
@example("As  an\tAI\x1clanguage MODEL")
@example("\uff21\uff29 \ufb01ne\u200b model")
@settings(max_examples=400, derandomize=True)
def test_normalize_text_equals_the_frozen_nfkc_path(text):
    assert ss.normalize_text(text) == ref_normalize_text(text)


def test_phrase_query_validation():
    with pytest.raises(ValueError):
        ss.PhraseQuery(())
    with pytest.raises(ValueError):
        ss.PhraseQuery(("  ",))


@pytest.mark.parametrize("category,text", list(TABLE_TEXTS.items()))
def test_taxonomy_categorizes_canonical_texts(category, text):
    assert ss.categorize_self_revealing(text) is category


def test_categorize_total_and_deterministic():
    for text in ("", "random words", "​", "Content Policy violation"):
        assert ss.categorize_self_revealing(text) is ss.categorize_self_revealing(text)


def test_trigger_permutation_within_category_is_irrelevant():
    base = ss.DEFAULT_RULESET.rules[1]  # beyond-capability triggers
    text = TABLE_TEXTS[ss.SelfRevealCategory.BEYOND_CAPABILITY]
    for perm in itertools.islice(itertools.permutations(base[1]), 12):
        ruleset = ss.CategoryRuleset((ss.DEFAULT_RULESET.rules[0], (base[0], perm))
                                     + ss.DEFAULT_RULESET.rules[2:])
        assert ss.categorize_self_revealing(text, ruleset) is base[0]


def test_first_match_wins_across_categories():
    text = "this violates the content policy and also i cannot browse twitter"
    assert ss.categorize_self_revealing(text) is ss.SelfRevealCategory.HARMFUL_CONTENT


def test_ruleset_rejects_other_and_empty_triggers():
    with pytest.raises(ValueError):
        ss.CategoryRuleset(((ss.SelfRevealCategory.OTHER, ("x",)),))
    with pytest.raises(ValueError):
        ss.CategoryRuleset(((ss.SelfRevealCategory.HARMFUL_CONTENT, ()),))


def test_category_summary_single_category(monkeypatch):
    calls = []
    categorize = ss.categorize_self_revealing
    monkeypatch.setattr(ss, "categorize_self_revealing",
                        lambda text, ruleset: calls.append(text) or categorize(text, ruleset))
    rows = ss.category_summary([TABLE_TEXTS[ss.SelfRevealCategory.HARMFUL_CONTENT]] * 4)
    assert len(rows) == 1
    assert rows[0].category is ss.SelfRevealCategory.HARMFUL_CONTENT
    assert rows[0].count == 4
    assert rows[0].percentage == pytest.approx(100.0)
    assert len(calls) == 1


def test_category_summary_all_five():
    rows = ss.category_summary([TABLE_TEXTS[c] for c in ss.SelfRevealCategory])
    assert [r.category for r in rows] == list(ss.SelfRevealCategory)
    assert all(r.count == 1 for r in rows)
    assert sum(r.percentage for r in rows) == pytest.approx(100.0)


def test_category_summary_empty():
    assert ss.category_summary([]) == []


def test_load_phrases_and_ruleset(tmp_path):
    phrase_file = tmp_path / "phrases.txt"
    phrase_file.write_text("# comment\nas an ai language model\nI'm sorry, I cannot generate\n")
    query = ss.load_phrases(phrase_file)
    assert len(query.phrases) == 2

    rules_file = tmp_path / "rules.csv"
    rules_file.write_text(
        "priority,category,trigger\n"
        "2,beyond_capability,cannot browse\n"
        "1,harmful_content,content policy\n"
        "3,positive_content,positive and uplifting\n"
    )
    ruleset = ss.load_ruleset(rules_file)
    assert [c.value for c, _ in ruleset.rules] == [
        "harmful_content", "beyond_capability", "positive_content"]
    assert ss.categorize_self_revealing("about the Content Policy", ruleset) \
        is ss.SelfRevealCategory.HARMFUL_CONTENT
