"""Link-domain extraction, botnet expansion by shared domains, domain statistics.

Domains are exact hosts (lowercased, leading "www." labels removed) — no
public-suffix collapsing, because look-alike hosts on different TLDs must
stay distinct. URLs are expected pre-resolved; no unshortening happens here.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple
from urllib.parse import urlsplit

from .corpus import Corpus, Tweet, _text_lines

DEFAULT_SEED_DOMAINS = ("fox8.news", "cryptnomics.org", "globaleconomics.news")


def _strip_www(host: str) -> str:
    # Stripped repeatedly so normalization is idempotent even on freak hosts.
    while host.startswith("www."):
        host = host[4:]
    return host


def normalize_domain(url: str) -> str | None:
    """Hostname of a URL in canonical form, or None if unparseable."""
    try:
        host = urlsplit(url.strip()).hostname
    except ValueError:
        return None
    if not host:
        return None
    host = _strip_www(host.rstrip("."))
    return host or None


def normalize_domain_name(name: str) -> str:
    """Canonicalize a bare domain (as read from a seeds file)."""
    cleaned = _strip_www(name.strip().lower().rstrip("."))
    if not cleaned or "/" in cleaned or ":" in cleaned or " " in cleaned:
        raise ValueError(f"not a bare domain: {name!r}")
    return cleaned


class DomainExtraction(NamedTuple):
    domains: tuple[str, ...]
    skipped: int


def extract_domains(tweet: Tweet) -> DomainExtraction:
    """Normalized domain per URL of the tweet; unparseable URLs are counted, not raised."""
    domains = []
    skipped = 0
    for url in tweet.urls:
        domain = normalize_domain(url)
        if domain is None:
            skipped += 1
        else:
            domains.append(domain)
    return DomainExtraction(tuple(domains), skipped)


def expand_by_domains(corpus: Corpus, seeds) -> frozenset[str]:
    """Accounts with at least one tweet (of any kind) linking into ``seeds``."""
    seed_set = {normalize_domain_name(s) for s in seeds}
    if not seed_set:
        raise ValueError("seed domain set must be non-empty")
    matched = set()
    for author, tweet_ids in corpus.tweets_by_author.items():
        for tweet_id in tweet_ids:
            domains, _ = extract_domains(corpus.tweets[tweet_id])
            if seed_set.intersection(domains):
                matched.add(author)
                break
    return frozenset(matched)


def domain_frequency(corpus: Corpus, group, k: int) -> list[tuple[str, int]]:
    """Top-k domains linked by the group, tweet-level multiplicity, ties lexicographic."""
    if k < 1:
        raise ValueError("k must be >= 1")
    counts: Counter[str] = Counter()
    for account_id in group:
        for tweet in corpus.tweets_of(account_id):
            domains, _ = extract_domains(tweet)
            counts.update(domains)
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    return ranked[:k]


@dataclass(frozen=True)
class DomainShareProfile:
    account_id: str
    total_link_tweets: int
    target_link_tweets: int
    share_probability: float


@dataclass(frozen=True)
class DomainShareReport:
    profiles: tuple[DomainShareProfile, ...]
    mean_share_probability: float


def domain_share_profiles(corpus: Corpus, group, targets) -> DomainShareReport:
    """Per-account probability of sharing a target domain, plus the group mean.

    The denominator is all of the account's tweets, so the group mean reads
    as "this fraction of the group's tweets link to a target site".
    """
    target_set = {normalize_domain_name(t) for t in targets}
    if not target_set:
        raise ValueError("target domain set must be non-empty")
    profiles = []
    for account_id in sorted(group):
        tweets = corpus.tweets_of(account_id)
        link_tweets = 0
        target_tweets = 0
        for tweet in tweets:
            domains, _ = extract_domains(tweet)
            if domains:
                link_tweets += 1
            if target_set.intersection(domains):
                target_tweets += 1
        share = target_tweets / len(tweets) if tweets else 0.0
        profiles.append(
            DomainShareProfile(account_id, link_tweets, target_tweets, share)
        )
    mean = (sum(p.share_probability for p in profiles) / len(profiles)) if profiles else 0.0
    return DomainShareReport(tuple(profiles), mean)


def load_seed_domains(path) -> tuple[str, ...]:
    """Read seeds.txt: one domain per line, blank lines and #-comments skipped."""
    return tuple(normalize_domain_name(text) for _, text in _text_lines(path))
