"""Per-account content statistics: tweet-type mix, ternary binning, rankings,
profile summaries.

The tweet-type mix treats quotes as retweets, giving each active account a
point on the 2-simplex (original / reply / retweet+quote percentages).
Binning uses a triangular lattice with largest-remainder rounding, so bin
counts conserve the number of accounts exactly.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .corpus import QUOTE, REPLY, RETWEET, Corpus
from .table import top_k


@dataclass(frozen=True)
class TernaryPoint:
    pct_original: float
    pct_reply: float
    pct_retweet_quote: float

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.pct_original, self.pct_reply, self.pct_retweet_quote)


def _mix(counts: list[int]) -> TernaryPoint | None:
    """The mix point of per-kind tweet counts, in table kind order; None for no tweets."""
    total = sum(counts)
    if not total:
        return None
    original, reply, retweet, quote = counts[:4]
    return TernaryPoint(
        pct_original=100.0 * original / total,
        pct_reply=100.0 * reply / total,
        pct_retweet_quote=100.0 * (retweet + quote) / total,
    )


def group_mix_points(corpus: Corpus, group) -> dict[str, TernaryPoint]:
    """Mix point per group member, skipping accounts with no tweets."""
    table = corpus.table
    k = len(table.kinds)
    counts = np.bincount(table.author.astype(np.int64) * k + table.kind,
                         minlength=len(table.account_ids) * k).reshape(-1, k).tolist()
    points = {}
    for account_id in sorted(group):
        code = table.account_code.get(account_id)
        point = None if code is None else _mix(counts[code])
        if point is not None:
            points[account_id] = point
    return points


def tweet_mix(corpus: Corpus, account_id: str) -> TernaryPoint | None:
    """Percentage mix of the account's tweets; None when it has no tweets."""
    return group_mix_points(corpus, [account_id]).get(account_id)


@dataclass(frozen=True)
class TernaryBinGrid:
    resolution: int
    bins: dict[tuple[int, int, int], int]

    @property
    def total(self) -> int:
        return sum(self.bins.values())


def _lattice_bin(point: TernaryPoint, resolution: int) -> tuple[int, int, int]:
    raw = [p * resolution / 100.0 for p in point.as_tuple()]
    base = [math.floor(x) for x in raw]
    missing = resolution - sum(base)
    if not 0 <= missing <= 3:
        raise ValueError(f"ternary point does not sum to 100: {point}")
    # Largest-remainder correction; remainder ties resolved by axis order.
    order = sorted(range(3), key=lambda i: (-(raw[i] - base[i]), i))
    for i in order[:missing]:
        base[i] += 1
    return (base[0], base[1], base[2])


def ternary_bin(points, resolution: int) -> TernaryBinGrid:
    """Assign each mix point to its lattice bin (i, j, k) with i+j+k=resolution."""
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    bins: Counter[tuple[int, int, int]] = Counter()
    for point in points:
        bins[_lattice_bin(point, resolution)] += 1
    return TernaryBinGrid(resolution=resolution, bins=dict(sorted(bins.items())))


def hashtag_ranking(corpus: Corpus, group, k: int) -> list[tuple[str, int]]:
    """Top-k hashtags over all tweet kinds of the group's distinct members,
    ties lexicographic."""
    table = corpus.table
    members = table.account_mask(set(group))[table.author]
    return top_k(table.tally("hashtags", members, table.hashtag_lists), k)


def amplified_accounts(corpus: Corpus, group, k: int) -> list[tuple[str, int]]:
    """Top-k outside accounts the group retweets, quotes, or replies to."""
    table = corpus.table
    members = table.account_mask(frozenset(group))
    target = np.where(table.kind == REPLY, table.reply_to, table.referenced)
    keep = (members[table.author] & np.isin(table.kind, (REPLY, RETWEET, QUOTE))
            & (target >= 0) & ~members[target])
    counts = np.bincount(target[keep], minlength=len(table.account_ids)).tolist()
    return top_k({account_id: n for account_id, n in zip(table.account_ids, counts) if n}, k)


@dataclass(frozen=True)
class ProfileSummary:
    n_accounts: int
    follower_mean: float
    follower_sd: float
    following_mean: float
    following_sd: float
    tweet_count_mean: float
    tweet_count_sd: float
    creation_years: dict[int, int]


def profile_summary(corpus: Corpus, group) -> ProfileSummary:
    """Mean/SD (population) of profile counters over the group's distinct
    members, plus a creation-year histogram."""
    members = sorted(set(group))
    if not members:
        raise ValueError("group must be non-empty")
    accounts = [corpus.accounts[m] for m in members if m in corpus.accounts]
    if not accounts:
        raise ValueError("no group member resolves to an account")
    followers = np.array([a.follower_count for a in accounts], dtype=float)
    following = np.array([a.following_count for a in accounts], dtype=float)
    tweet_counts = np.array([a.tweet_count for a in accounts], dtype=float)
    years = Counter(a.created_at.year for a in accounts)
    return ProfileSummary(
        n_accounts=len(accounts),
        follower_mean=float(followers.mean()),
        follower_sd=float(followers.std()),
        following_mean=float(following.mean()),
        following_sd=float(following.std()),
        tweet_count_mean=float(tweet_counts.mean()),
        tweet_count_sd=float(tweet_counts.std()),
        creation_years=dict(sorted(years.items())),
    )
