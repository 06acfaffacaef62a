"""Self-revealing tweet discovery and taxonomy.

LLM-powered bot accounts occasionally post the refusal boilerplate of the
underlying model verbatim ("as an AI language model..."). This module finds
such tweets by normalized substring search and sorts them into a small
taxonomy of refusal categories using an ordered, first-match-wins ruleset.
"""

from __future__ import annotations

import unicodedata
from collections import Counter
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .corpus import Corpus
from .readers import _csv_records, _text_lines

# Zero-width / invisible code points stripped before matching.
_ZERO_WIDTH = dict.fromkeys(map(ord, "​‌‍⁠﻿"))

DEFAULT_PHRASES = ("as an ai language model",)


def normalize_text(text: str) -> str:
    """Canonical match form: NFKC, zero-width stripped, lowercased, spaces collapsed.

    ASCII text skips the first two steps: NFKC maps every ASCII string to
    itself, and every zero-width code point lies outside ASCII.
    """
    if text.isascii():
        return " ".join(text.lower().split())
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


class PhraseHits(dict):
    """A tweet_id -> phrase dict that also holds its hits' table rows (``rows``), in order."""

    def __init__(self, items, rows: list[int]):
        super().__init__(items)
        self.rows = rows


def find_phrase_tweets(corpus: Corpus, query: PhraseQuery | None = None) -> PhraseHits:
    """Map tweet_id -> first matching phrase, for every tweet containing one.

    Retweets are searched like any other tweet. Keys come out sorted by
    tweet_id so merged results are deterministic. Each distinct text is
    normalized and matched once per call, then the rows holding a matching
    text are selected.
    """
    query = query or PhraseQuery()
    table = corpus.table
    # The first matching phrase of each distinct text some row uses, or None.
    phrases: list[str | None] = [None] * len(table.texts)
    for code in np.flatnonzero(np.bincount(table.text, minlength=len(table.texts))).tolist():
        haystack = normalize_text(table.texts[code])
        phrases[code] = next((raw for raw, needle in zip(query.phrases, query.normalized)
                              if needle in haystack), None)
    matched = np.array([phrase is not None for phrase in phrases], dtype=bool)
    rows = sorted(np.flatnonzero(matched[table.text]).tolist(), key=table.ids.__getitem__)
    return PhraseHits(((table.ids[row], phrases[table.text[row]]) for row in rows), rows)


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


def category_summary(texts, ruleset: CategoryRuleset = DEFAULT_RULESET) -> list[CategoryCount]:
    """Tally categories over texts, one per self-revealing tweet, categorizing
    each distinct text once; rows in taxonomy order."""
    counts = {category: 0 for category in SelfRevealCategory}
    tally = Counter(texts)
    for text, n in tally.items():
        counts[categorize_self_revealing(text, ruleset)] += n
    total = tally.total()
    return [
        CategoryCount(category, n, 100.0 * n / total)
        for category, n in counts.items() if n > 0
    ]


def load_phrases(path) -> PhraseQuery:
    """Read phrases.txt: one phrase per line, blank lines and #-comments skipped;
    a line that normalizes to nothing is an error at path:line."""
    phrases = []
    for lineno, text in _text_lines(path):
        if not normalize_text(text):
            raise ValueError(f"{path}:{lineno}: the phrase is empty after normalization")
        phrases.append(text)
    return PhraseQuery(tuple(phrases))


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
