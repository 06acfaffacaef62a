"""Self-revealing tweet discovery and taxonomy.

LLM-powered bot accounts occasionally post the refusal boilerplate of the
underlying model verbatim ("as an AI language model..."). This module finds
such tweets by normalized substring search and sorts them into a small
taxonomy of refusal categories using an ordered, first-match-wins ruleset.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass
from enum import Enum

from .corpus import Corpus, _csv_records, _text_lines

# Zero-width / invisible code points stripped before matching.
_ZERO_WIDTH = dict.fromkeys(map(ord, "​‌‍⁠﻿"))

DEFAULT_PHRASES = ("as an ai language model",)


def normalize_text(text: str) -> str:
    """Canonical match form: NFKC, zero-width stripped, lowercased, spaces collapsed."""
    text = unicodedata.normalize("NFKC", text)
    text = text.translate(_ZERO_WIDTH)
    return " ".join(text.lower().split())


@dataclass(frozen=True)
class PhraseQuery:
    """A set of phrases matched as contiguous substrings of normalized text."""

    phrases: tuple[str, ...] = DEFAULT_PHRASES

    def __post_init__(self):
        if not self.phrases:
            raise ValueError("phrase list must be non-empty")
        normalized = tuple(normalize_text(p) for p in self.phrases)
        if any(not p for p in normalized):
            raise ValueError("every phrase must be non-empty after normalization")
        object.__setattr__(self, "_normalized", normalized)

    @property
    def normalized(self) -> tuple[str, ...]:
        return self._normalized


def find_phrase_tweets(corpus: Corpus, query: PhraseQuery | None = None) -> dict[str, str]:
    """Map tweet_id -> first matching phrase, for every tweet containing one.

    Retweets are searched like any other tweet. Keys come out sorted by
    tweet_id so merged results are deterministic. Each distinct text is
    normalized and matched once per call.
    """
    query = query or PhraseQuery()
    # Raw text -> its first matching phrase, or None.
    matches: dict[str, str | None] = {}
    hits: dict[str, str] = {}
    for tweet_id in sorted(corpus.tweets):
        text = corpus.tweets[tweet_id].text
        try:
            phrase = matches[text]
        except KeyError:
            haystack = normalize_text(text)
            phrase = matches[text] = next(
                (raw for raw, needle in zip(query.phrases, query.normalized)
                 if needle in haystack), None)
        if phrase is not None:
            hits[tweet_id] = phrase
    return hits


class SelfRevealCategory(Enum):
    HARMFUL_CONTENT = "harmful_content"
    BEYOND_CAPABILITY = "beyond_capability"
    OTHER_FORBIDDEN_CONTENT = "other_forbidden_content"
    POSITIVE_CONTENT = "positive_content"
    OTHER = "other"


@dataclass(frozen=True)
class CategoryRuleset:
    """Ordered (category, trigger substrings) rules; first category whose any
    trigger occurs in the normalized text wins, with OTHER as the fallback."""

    rules: tuple[tuple[SelfRevealCategory, tuple[str, ...]], ...]

    def __post_init__(self):
        normalized = []
        for category, triggers in self.rules:
            if category is SelfRevealCategory.OTHER:
                raise ValueError("OTHER is the implicit fallback, not a rule row")
            clean = tuple(normalize_text(t) for t in triggers)
            if not clean or any(not t for t in clean):
                raise ValueError(f"{category.value}: triggers must be non-empty")
            normalized.append((category, clean))
        object.__setattr__(self, "rules", tuple(normalized))


# Triggers distilled from the formulaic spans of real refusal messages.
DEFAULT_RULESET = CategoryRuleset((
    (SelfRevealCategory.HARMFUL_CONTENT,
     ("content policy", "harmful or inappropriate", "harmful or offensive")),
    (SelfRevealCategory.BEYOND_CAPABILITY,
     ("cannot browse", "unable to browse", "cannot access", "unable to access",
      "cannot play", "do not have the ability", "don't have the ability")),
    (SelfRevealCategory.OTHER_FORBIDDEN_CONTENT,
     ("cannot provide investment advice", "cannot provide financial advice",
      "predictions about stock prices", "cannot express political")),
    (SelfRevealCategory.POSITIVE_CONTENT,
     ("positive and uplifting", "spread some good vibes", "spread positivity")),
))


def categorize_self_revealing(text: str,
                              ruleset: CategoryRuleset = DEFAULT_RULESET) -> SelfRevealCategory:
    """First category whose any trigger substring occurs in the normalized text."""
    haystack = normalize_text(text)
    for category, triggers in ruleset.rules:
        if any(trigger in haystack for trigger in triggers):
            return category
    return SelfRevealCategory.OTHER


@dataclass(frozen=True)
class CategoryCount:
    category: SelfRevealCategory
    count: int
    percentage: float


def category_summary(tweet_ids, corpus: Corpus,
                     ruleset: CategoryRuleset = DEFAULT_RULESET) -> list[CategoryCount]:
    """Tally categories over a set of tweet ids; rows in taxonomy order."""
    counts = {category: 0 for category in SelfRevealCategory}
    total = 0
    for tweet_id in sorted(set(tweet_ids)):
        tweet = corpus.tweets.get(tweet_id)
        if tweet is None:
            raise KeyError(f"unknown tweet id: {tweet_id}")
        counts[categorize_self_revealing(tweet.text, ruleset)] += 1
        total += 1
    return [
        CategoryCount(category, n, 100.0 * n / total)
        for category, n in counts.items() if n > 0
    ]


def load_phrases(path) -> PhraseQuery:
    """Read phrases.txt: one phrase per line, blank lines and #-comments skipped."""
    return PhraseQuery(tuple(text for _, text in _text_lines(path)))


def load_ruleset(path) -> CategoryRuleset:
    """Read category_rules.csv (priority,category,trigger) into an ordered ruleset;
    a row without an integer priority, a known category and a trigger is an
    error at path:line."""
    by_category: dict[SelfRevealCategory, tuple[int, list[str]]] = {}
    for lineno, row in _csv_records(path, ("priority", "category", "trigger")):
        try:
            priority = int(row["priority"])
            category = SelfRevealCategory(row["category"].strip())
            trigger = row["trigger"]
        except (KeyError, ValueError):
            trigger = ""
        if not trigger:
            raise ValueError(f"{path}:{lineno}: a rule row needs an integer priority, "
                             "a known category and a non-empty trigger")
        prio, triggers = by_category.get(category, (priority, []))
        by_category[category] = (min(prio, priority), triggers + [trigger])
    ordered = sorted(by_category.items(), key=lambda item: item[1][0])
    return CategoryRuleset(tuple(
        (category, tuple(triggers)) for category, (_, triggers) in ordered
    ))
