"""Link-domain extraction, botnet expansion by shared domains, domain statistics.

Domains are exact hosts (lowercased, leading "www." labels removed) — no
public-suffix collapsing, because look-alike hosts on different TLDs must
stay distinct. URLs are expected pre-resolved; no unshortening happens here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple
from urllib.parse import urlsplit

import numpy as np

from .corpus import Corpus, Tweet
from .readers import _text_lines
from .table import top_k

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


def _domains_of(urls) -> DomainExtraction:
    domains = []
    skipped = 0
    for url in urls:
        domain = normalize_domain(url)
        if domain is None:
            skipped += 1
        else:
            domains.append(domain)
    return DomainExtraction(tuple(domains), skipped)


def extract_domains(tweet: Tweet) -> DomainExtraction:
    """Normalized domain per URL of the tweet; unparseable URLs are counted, not raised."""
    return _domains_of(tweet.urls)


def _domains_in(table, rows) -> dict[int, tuple[str, ...]]:
    """Domains of every URL list the given rows (a mask or slice) link, by
    code. Each list is parsed once per table, when a stage first needs it."""
    domains = table.url_domains
    for code in np.flatnonzero(np.bincount(table.urls[rows],
                                           minlength=len(table.url_lists))).tolist():
        if code not in domains:
            domains[code] = _domains_of(table.url_lists[code]).domains
    return domains


def _rows_where(table, domains: dict, test) -> np.ndarray:
    """Per row: whether ``test`` holds for its URL list's domains (False for
    a list ``domains`` does not hold)."""
    mask = np.zeros(len(table.url_lists), dtype=bool)
    mask[[code for code, found in domains.items() if test(found)]] = True
    return mask[table.urls]


def expand_by_domains(corpus: Corpus, seeds) -> frozenset[str]:
    """Accounts with at least one tweet (of any kind) linking into ``seeds``."""
    seed_set = {normalize_domain_name(s) for s in seeds}
    if not seed_set:
        raise ValueError("seed domain set must be non-empty")
    table = corpus.table
    domains = _domains_in(table, slice(None))
    linking = _rows_where(table, domains, lambda found: not seed_set.isdisjoint(found))
    linked = np.zeros(len(table.account_ids), dtype=bool)
    linked[table.author[linking]] = True
    return frozenset(table.account_ids[code] for code in np.flatnonzero(linked).tolist())


def domain_frequency(corpus: Corpus, group, k: int) -> list[tuple[str, int]]:
    """Top-k domains linked by the group's distinct members, tweet-level
    multiplicity, ties lexicographic."""
    table = corpus.table
    members = table.account_mask(set(group))[table.author]
    return top_k(table.tally("urls", members, _domains_in(table, members)), k)


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
    """Per-account probability of sharing a target domain, plus the mean over
    the group's distinct members.

    The denominator is all of the account's tweets, so the group mean reads
    as "this fraction of the group's tweets link to a target site".
    """
    target_set = {normalize_domain_name(t) for t in targets}
    if not target_set:
        raise ValueError("target domain set must be non-empty")
    table = corpus.table
    members = table.account_mask(set(group))[table.author]
    domains = _domains_in(table, members)
    n = len(table.account_ids)
    tweets, link_tweets, target_tweets = (
        np.bincount(table.author[rows], minlength=n).tolist() for rows in (
            members, members & _rows_where(table, domains, bool),
            members & _rows_where(table, domains, lambda found: not target_set.isdisjoint(found))))
    profiles = []
    for account_id in sorted(set(group)):
        code = table.account_code.get(account_id)
        total, links, hits = (0, 0, 0) if code is None else (
            tweets[code], link_tweets[code], target_tweets[code])
        share = hits / total if total else 0.0
        profiles.append(DomainShareProfile(account_id, links, hits, share))
    mean = (sum(p.share_probability for p in profiles) / len(profiles)) if profiles else 0.0
    return DomainShareReport(tuple(profiles), mean)


def load_seed_domains(path) -> tuple[str, ...]:
    """Read seeds.txt: one domain per line, blank lines and #-comments skipped;
    a line that is not a bare domain is an error at path:line."""
    domains = []
    for lineno, text in _text_lines(path):
        try:
            domains.append(normalize_domain_name(text))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
    return tuple(domains)
