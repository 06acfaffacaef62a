"""Synthetic botnet and organic-account generator with known ground truth.

Realizes the hypothesis that a coordinated botnet follows a single
probabilistic model: engineered follow degrees concentrated around a mean,
a programmed tweet-type mix, routine in-group replies, and a fixed share of
tweets promoting the operator's seed domains. Organic accounts get the
opposite treatment — heterogeneous mixes spread over the whole simplex and
no engineered in-group structure.

Every output is a pure function of its parameters including the seed. The
random source is numpy's PCG64 generator (a named, versioned algorithm), so
corpora reproduce bit-for-bit across platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone

import numpy as np

from .corpus import (Account, Corpus, FollowEdge, GroupPartition, _gc_paused, make_corpus,
                     merge_corpora)
from .linkmap import DEFAULT_SEED_DOMAINS
from .seedscan import SelfRevealCategory
from .table import _instant_us, _row_coder

# The five canonical self-revealing refusal texts with their observed
# frequency weights; the generator slot-fills variations of these.
SELF_REVEAL_EXAMPLES: tuple[tuple[SelfRevealCategory, int, str], ...] = (
    (SelfRevealCategory.HARMFUL_CONTENT, 980,
     "I'm sorry, but I cannot comply with this request as it violates OpenAI's "
     "Content Policy on generating harmful or inappropriate content. As an AI "
     "language model, my responses should always be respectful and appropriate "
     "for all audiences."),
    (SelfRevealCategory.BEYOND_CAPABILITY, 148,
     "I'm sorry, but as an AI language model I cannot browse Twitter and access "
     "specific tweets to provide replies."),
    (SelfRevealCategory.OTHER_FORBIDDEN_CONTENT, 49,
     "I'm sorry, as an AI language model I cannot provide investment advice or "
     "predictions about stock prices."),
    (SelfRevealCategory.POSITIVE_CONTENT, 23,
     "No worries, friend! As an AI language model myself, I strive to keep "
     "things positive and uplifting. Let's spread some good vibes together "
     "with a #positivity hashtag!"),
    (SelfRevealCategory.OTHER, 5,
     "Interesting topic! Fortunately, as an AI language model, I don't have to "
     "pay taxes or worry about intergenerational wealth transfer...yet."),
)

_REVEAL_SUFFIXES = ("", " Thanks for understanding.", " Let me know if I can help otherwise.",
                    " #AI")

_BOT_TEXT_TEMPLATES = (
    "Big moves in {topic} today. The market never sleeps!",
    "Another milestone for {topic}. Adoption keeps accelerating.",
    "Watching {topic} closely this week. Momentum is building.",
    "The future of finance runs through {topic}. No doubt about it.",
    "Just read a great analysis on {topic}. Bullish signals everywhere.",
    "Volatility in {topic} is an opportunity, not a threat.",
    "Institutions keep quietly stacking {topic}. Smart money knows.",
    "New all-time highs ahead for {topic}? The charts say maybe.",
)

_BOT_TOPICS = ("bitcoin", "ethereum", "defi", "the blockchain", "nft markets",
               "altcoins", "web3", "crypto mining")

_BOT_HASHTAGS = ("btc", "crypto", "nft", "eth", "blockchain", "web3", "defi",
                 "bullish", "hodl", "altcoin", "memecoin", "trading")

_BOT_DESCRIPTIONS = (
    "Crypto enthusiast. Blockchain believer.",
    "Sharing daily insights on bitcoin and web3.",
    "NFT collector | DeFi degen | Opinions are my own.",
    "Tracking the charts so you don't have to. #crypto",
    "Building towards a decentralized future.",
)

_FILLER_DOMAINS = ("vox.com", "forbes.com", "coindesk.com", "decrypt.co",
                   "cointelegraph.com", "reuters.com", "bloomberg.com", "medium.com")

# Outside accounts amplified by generated bots and humans.
_OUTSIDE_POOL = tuple(f"outside{i:02d}" for i in range(20))
_OUTSIDE_WEIGHTS = np.array([1.0 / (i + 1) for i in range(len(_OUTSIDE_POOL))])
_OUTSIDE_WEIGHTS /= _OUTSIDE_WEIGHTS.sum()

_HUMAN_TEXT_TEMPLATES = (
    "Finally finished that book about {topic}, completely worth it.",
    "Does anyone else think {topic} is wildly overrated? just me?",
    "Long day. At least there's coffee and a bit of {topic} to unwind.",
    "Hot take: {topic} peaked years ago and nobody wants to admit it.",
    "Spent the weekend on {topic} with the kids, zero regrets.",
    "I cannot stop thinking about {topic}. Send help.",
    "OK the news about {topic} today is something else.",
    "Can we normalize talking about {topic} at dinner? Asking for a friend.",
)

_HUMAN_TOPICS = ("the playoffs", "sourdough baking", "that new album", "gardening",
                 "the local elections", "astronomy", "street photography", "old movies")

_HUMAN_HASHTAGS = ("news", "sports", "music", "books", "travel", "food", "photography",
                   "science")

_BOT_YEARS = tuple(range(2009, 2024))
_BOT_YEAR_WEIGHTS = np.array([1, 2, 3, 5, 8, 10, 12, 12, 10, 8, 5, 3, 2, 1, 4], dtype=float)
_BOT_YEAR_WEIGHTS /= _BOT_YEAR_WEIGHTS.sum()

_EPOCH = datetime(2022, 10, 1, tzinfo=timezone.utc)


@dataclass(frozen=True)
class BotnetParams:
    """Knobs for one synthetic botnet; defaults mirror the observed network."""

    n_bots: int = 1140
    follow_degree_mean: float = 13.7
    follow_degree_sd: float = 5.2
    tweet_mix_means: tuple[float, float, float] = (25.6, 36.1, 38.4)
    tweet_mix_sds: tuple[float, float, float] = (22.4, 21.3, 21.7)
    tweets_mean: float = 149.6
    tweets_sd: float = 178.8
    min_tweets: int = 20
    follower_mean: float = 74.0
    follower_sd: float = 36.7
    following_mean: float = 140.4
    following_sd: float = 236.6
    seed_domain_share: float = 0.03
    self_reveal_rate: float = 0.007
    within_reply_pair_rate: float = 0.002
    quote_fraction: float = 0.05
    seed_domains: tuple[str, ...] = DEFAULT_SEED_DOMAINS
    group_label: str = "bot"
    rng_seed: int = 0

    def __post_init__(self):
        if self.n_bots < 2:
            raise ValueError("n_bots must be >= 2")
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be >= 0, got {self.rng_seed}")
        for name in ("seed_domain_share", "self_reveal_rate",
                     "within_reply_pair_rate", "quote_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        for name in ("tweet_mix_means", "tweet_mix_sds"):
            if len(getattr(self, name)) != 3:
                raise ValueError(f"{name} must have 3 components (original, reply, retweet/quote)")
        if abs(sum(self.tweet_mix_means) - 100.0) > 0.5:
            raise ValueError("tweet_mix_means must sum to 100")
        if self.min_tweets < 1:
            raise ValueError("min_tweets must be >= 1")
        if not self.seed_domains:
            raise ValueError("seed_domains must be non-empty")


@dataclass(frozen=True)
class HumanParams:
    """Knobs for the organic comparison population."""

    n_humans: int = 1140
    tweets_mean: float = 120.0
    tweets_sd: float = 90.0
    group_label: str = "human"
    rng_seed: int = 0

    def __post_init__(self):
        if self.n_humans < 0:
            raise ValueError("n_humans must be >= 0")
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be >= 0, got {self.rng_seed}")


# ---------------------------------------------------------------------------
# Clipped-normal machinery
#
# Count-like quantities are drawn as max(bound, N(mean, sd)). Clipping at 0
# keeps the mean nearly unbiased (unlike resampling-style truncation, which
# would inflate e.g. the follower mean by ~2). The tweet-mix components are
# additionally renormalized to sum to 100, which introduces a ratio bias;
# _compensated_mix_means pre-adjusts the draw means with a second-order
# delta-method correction so group means land on target.

def _clipped_moments(mu: float, sd: float) -> tuple[float, float]:
    if sd < 1e-12:
        return max(mu, 0.0), 0.0
    z = mu / sd
    cdf = 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
    pdf = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    m1 = mu * cdf + sd * pdf
    m2 = (mu * mu + sd * sd) * cdf + mu * sd * pdf
    return m1, max(m2 - m1 * m1, 0.0)


def _ratio_means(mus, sds) -> np.ndarray:
    moments = [_clipped_moments(m, s) for m, s in zip(mus, sds)]
    m1 = np.array([m for m, _ in moments])
    var = np.array([v for _, v in moments])
    total = m1.sum()
    total_var = var.sum()
    return m1 / total - var / total**2 + m1 * total_var / total**3


def _compensated_mix_means(means, sds, iterations: int = 200) -> np.ndarray:
    target = np.asarray(means, dtype=float)
    target = target / target.sum()
    adjusted = np.asarray(means, dtype=float).copy()
    for _ in range(iterations):
        current = _ratio_means(adjusted, sds)
        adjusted *= target / current
        adjusted *= 100.0 / adjusted.sum()
    return adjusted


def _clipped_normal(rng, mean, sd, size, low=0.0, high=None) -> np.ndarray:
    return np.clip(rng.normal(mean, sd, size), low, high)


def _partner(u: int, slot: int) -> int:
    # Slots 0..n-2 number the accounts other than u, so the ordered pairs
    # (u, v), u != v, are enumerated as u * (n - 1) + slot.
    return slot if slot < u else slot + 1


def _assemble(ids, years, created_on, descriptions, followers, following, kind_counts,
              quote_counts, content, seconds=0):
    """Account records and the tweet table of one population.

    Each account's tweets run original, reply, retweet, quote. Tweet t, a
    running index over the population, is stamped ``_EPOCH`` plus t minutes
    and ``seconds``. ``content(t, u, kind, nth)`` gives account u's nth tweet
    of its kind as (text, urls, hashtags, target, language); the target
    becomes the reply or reference target by kind, and a retweet's text gets
    the ``RT @<target>: `` prefix. The numeric inputs are numpy arrays. Each
    tweet is coded into the table as it is generated: no per-tweet record
    is built.
    """
    accounts, tweet_ids = [], []
    coder = _row_coder()
    start = _instant_us(_EPOCH + timedelta(seconds=seconds))
    t = 0
    for u, (account_id, year, n_followers, n_following, counts, n_quote) in enumerate(zip(
            ids, years.tolist(), followers.tolist(), following.tolist(), kind_counts.tolist(),
            quote_counts.tolist())):
        n_orig, n_reply, n_rtq = counts
        n_quote = min(n_quote, n_rtq)
        accounts.append(Account(
            account_id, f"user_{account_id}",
            datetime(year, *created_on, tzinfo=timezone.utc) + timedelta(hours=u % 24),
            n_followers, n_following, n_orig + n_reply + n_rtq,
            descriptions[u % len(descriptions)],
        ))
        local = 0
        for kind, count in (("original", n_orig), ("reply", n_reply),
                            ("retweet", n_rtq - n_quote), ("quote", n_quote)):
            for nth in range(count):
                text, urls, hashtags, target, language = content(t, u, kind, nth)
                if kind == "retweet":
                    text = f"RT @{target}: {text}"
                tweet_ids.append(f"{account_id}-t{local:05d}")
                coder.add(account_id, target if kind == "reply" else None,
                          None if kind in ("original", "reply") else target, kind,
                          start + t * 60_000_000, text, coder.hashtags(hashtags),
                          coder.urls(urls), language)
                t += 1
                local += 1
    return accounts, coder.finish(tweet_ids)


def generate_botnet(params: BotnetParams = BotnetParams()) -> Corpus:
    """Generate a labeled botnet fragment: accounts, tweets, and follow edges.

    Follow out-degrees are clipped-normal draws wired to uniform-random
    distinct in-group targets. Tweet kinds follow a per-account draw around
    the configured mix. In-group reply pairs are planted as a binomial draw
    over all ordered pairs, matching the configured rate in expectation;
    remaining replies, retweets, and quotes target outside accounts.
    Seed-domain links and self-revealing texts are injected per tweet at
    their configured rates.
    """
    n = params.n_bots
    if params.follow_degree_mean > n - 1:
        raise ValueError(
            f"unsatisfiable follow degree: mean {params.follow_degree_mean} "
            f"exceeds n_bots - 1 = {n - 1}"
        )
    rng = np.random.default_rng(params.rng_seed)
    ids = [f"b{i:05d}" for i in range(n)]

    followers = np.rint(_clipped_normal(rng, params.follower_mean, params.follower_sd, n)).astype(int)
    following = np.rint(_clipped_normal(rng, params.following_mean, params.following_sd, n)).astype(int)
    # A tweet floor keeps every bot's reply capacity above its planted
    # in-group replies, so planting cannot distort the tweet-kind mix.
    n_tweets = np.rint(_clipped_normal(
        rng, params.tweets_mean, params.tweets_sd, n, low=float(params.min_tweets))).astype(int)
    years = rng.choice(_BOT_YEARS, size=n, p=_BOT_YEAR_WEIGHTS)

    degrees = np.rint(_clipped_normal(
        rng, params.follow_degree_mean, params.follow_degree_sd, n, low=0.0, high=n - 1,
    )).astype(int)
    edges = []
    for u in range(n):
        targets = rng.choice(n - 1, size=degrees[u], replace=False)
        for slot in sorted(int(t) for t in targets):
            edges.append(FollowEdge(source=ids[u], target=ids[_partner(u, slot)]))

    mix_means = _compensated_mix_means(params.tweet_mix_means, params.tweet_mix_sds)
    mix = _clipped_normal(rng, mix_means, params.tweet_mix_sds, (n, 3))
    degenerate = mix.sum(axis=1) <= 0
    mix[degenerate] = np.asarray(params.tweet_mix_means, dtype=float)
    mix /= mix.sum(axis=1, keepdims=True)

    kind_counts = np.array([rng.multinomial(n_tweets[u], mix[u]) for u in range(n)])
    quote_counts = rng.binomial(kind_counts[:, 2], params.quote_fraction)

    pair_space = n * (n - 1)
    n_pairs = rng.binomial(pair_space, params.within_reply_pair_rate)
    planted: dict[int, list[int]] = {u: [] for u in range(n)}
    if n_pairs:
        codes = rng.choice(pair_space, size=n_pairs, replace=False)
        for code in sorted(int(c) for c in codes):
            u, slot = divmod(code, n - 1)
            planted[u].append(_partner(u, slot))
    # Planted replies consume the account's reply allotment, growing it when
    # the plant alone exceeds the draw.
    kind_counts[:, 1] = np.maximum(kind_counts[:, 1], [len(planted[u]) for u in range(n)])

    total = int(kind_counts.sum())
    # Per-tweet draws become Python lists, which read faster than numpy scalars.
    reveal_mask = (rng.random(total) < params.self_reveal_rate).tolist()
    reveal_weights = np.array([w for _, w, _ in SELF_REVEAL_EXAMPLES], dtype=float)
    reveal_template = rng.choice(len(SELF_REVEAL_EXAMPLES), size=total,
                                 p=reveal_weights / reveal_weights.sum()).tolist()
    reveal_suffix = rng.integers(0, len(_REVEAL_SUFFIXES), total).tolist()
    url_roll = rng.random(total).tolist()
    seed_idx = rng.integers(0, len(params.seed_domains), total).tolist()
    filler_idx = rng.integers(0, len(_FILLER_DOMAINS), total).tolist()
    template_idx = rng.integers(0, len(_BOT_TEXT_TEMPLATES), total).tolist()
    topic_idx = rng.integers(0, len(_BOT_TOPICS), total).tolist()
    tag_count = rng.choice(3, size=total, p=[0.35, 0.45, 0.20]).tolist()
    tag_weights = np.array([1.0 / (i + 1) for i in range(len(_BOT_HASHTAGS))])
    tag_first = rng.choice(len(_BOT_HASHTAGS), size=total,
                           p=tag_weights / tag_weights.sum()).tolist()
    tag_second = rng.integers(0, len(_BOT_HASHTAGS), total).tolist()
    outside_idx = rng.choice(len(_OUTSIDE_POOL), size=total, p=_OUTSIDE_WEIGHTS).tolist()
    lang_roll = rng.random(total).tolist()
    filler_share = min(0.04, 1.0 - params.seed_domain_share)

    texts = [[template.format(topic=topic) for topic in _BOT_TOPICS]
             for template in _BOT_TEXT_TEMPLATES]
    reveal_texts = [[text + suffix for suffix in _REVEAL_SUFFIXES]
                    for _, _, text in SELF_REVEAL_EXAMPLES]
    seed_domains = params.seed_domains
    seed_share = params.seed_domain_share
    filler_cut = seed_share + filler_share

    def content(t, u, kind, nth):
        if reveal_mask[t]:
            text = reveal_texts[reveal_template[t]][reveal_suffix[t]]
        else:
            text = texts[template_idx[t]][topic_idx[t]]
        urls: tuple[str, ...] = ()
        roll = url_roll[t]
        if roll < seed_share:
            urls = (f"https://www.{seed_domains[seed_idx[t]]}/post/{t}",)
        elif roll < filler_cut:
            urls = (f"https://{_FILLER_DOMAINS[filler_idx[t]]}/article/{t}",)
        n_tags = tag_count[t]
        tags: tuple[str, ...] = ()
        if n_tags:
            tags = (_BOT_HASHTAGS[tag_first[t]],)
            if n_tags == 2 and _BOT_HASHTAGS[tag_second[t]] not in tags:
                tags += (_BOT_HASHTAGS[tag_second[t]],)
        if kind == "reply" and nth < len(planted[u]):
            target = ids[planted[u][nth]]
        else:
            target = _OUTSIDE_POOL[outside_idx[t]]
        return text, urls, tags, target, "en" if lang_roll[t] >= 0.02 else "es"

    accounts, tweets = _assemble(ids, years, (3, 7), _BOT_DESCRIPTIONS, followers, following,
                                 kind_counts, quote_counts, content)
    partition = GroupPartition({params.group_label: frozenset(ids)})
    return make_corpus(accounts, tweets, edges, partition)


def generate_humans(params: HumanParams = HumanParams()) -> Corpus:
    """Generate an organic comparison fragment: spread-out tweet mixes,
    broad skewed profile counters, and no engineered in-group structure."""
    n = params.n_humans
    rng = np.random.default_rng(params.rng_seed)
    if n == 0:
        return make_corpus([], [], [], GroupPartition({}))
    ids = [f"h{i:05d}" for i in range(n)]

    mixes = rng.dirichlet((1.0, 1.0, 1.0), size=n)
    n_tweets = np.rint(_clipped_normal(rng, params.tweets_mean, params.tweets_sd, n, low=1.0)).astype(int)
    followers = np.rint(rng.lognormal(4.0, 1.5, n)).astype(int)
    following = np.rint(rng.lognormal(4.2, 1.3, n)).astype(int)
    years = rng.integers(2007, 2024, n)
    kind_counts = np.array([rng.multinomial(n_tweets[u], mixes[u]) for u in range(n)])
    quote_counts = rng.binomial(kind_counts[:, 2], 0.1)

    total = int(kind_counts.sum())
    # Per-tweet draws become Python lists, which read faster than numpy scalars.
    template_idx = rng.integers(0, len(_HUMAN_TEXT_TEMPLATES), total).tolist()
    topic_idx = rng.integers(0, len(_HUMAN_TOPICS), total).tolist()
    url_roll = rng.random(total).tolist()
    filler_idx = rng.integers(0, len(_FILLER_DOMAINS), total).tolist()
    tag_roll = rng.random(total).tolist()
    tag_idx = rng.integers(0, len(_HUMAN_HASHTAGS), total).tolist()
    outside_idx = rng.choice(len(_OUTSIDE_POOL), size=total, p=_OUTSIDE_WEIGHTS).tolist()
    texts = [[template.format(topic=topic) for topic in _HUMAN_TOPICS]
             for template in _HUMAN_TEXT_TEMPLATES]

    def content(t, u, kind, nth):
        urls = (f"https://{_FILLER_DOMAINS[filler_idx[t]]}/story/{t}",) if url_roll[t] < 0.10 else ()
        tags = (_HUMAN_HASHTAGS[tag_idx[t]],) if tag_roll[t] < 0.25 else ()
        return (texts[template_idx[t]][topic_idx[t]], urls, tags,
                _OUTSIDE_POOL[outside_idx[t]], "en")

    accounts, tweets = _assemble(ids, years, (6, 15), ("",), followers, following,
                                 kind_counts, quote_counts, content, seconds=30)
    partition = GroupPartition({params.group_label: frozenset(ids)})
    return make_corpus(accounts, tweets, [], partition)


def simulate_scores(n_bots: int = 1140, n_humans: int = 1140,
                    bot_mean: float = 57.7, bot_sd: float = 2.6,
                    human_mean: float = 48.6, human_sd: float = 9.7,
                    rng_seed: int = 0) -> list[tuple[float, str]]:
    """Labeled detector-score draws: clipped normals on the 0-100 scale."""
    if bot_sd <= 0 or human_sd <= 0:
        raise ValueError("score standard deviations must be > 0")
    rng = np.random.default_rng(rng_seed)
    bots = np.clip(rng.normal(bot_mean, bot_sd, n_bots), 0.0, 100.0)
    humans = np.clip(rng.normal(human_mean, human_sd, n_humans), 0.0, 100.0)
    return [(float(v), "bot") for v in bots] + [(float(v), "human") for v in humans]


def fox8_preset(seed: int = 0, n_bots: int = 1140, n_humans: int = 1140,
                bot_fields: dict | None = None, human_fields: dict | None = None) -> Corpus:
    """The default benchmark corpus: one dense botnet plus organic accounts.

    ``bot_fields`` and ``human_fields`` set BotnetParams and HumanParams
    fields by name and win over the arguments. The humans draw from the
    botnet's seed + 1 unless ``human_fields`` sets their ``rng_seed``. Both
    parameter sets are validated, and bots and humans must carry different
    group labels, before anything is generated.
    """
    bot_params = BotnetParams(**{"n_bots": n_bots, "rng_seed": seed, **(bot_fields or {})})
    human_params = HumanParams(**{"n_humans": n_humans, "rng_seed": bot_params.rng_seed + 1,
                                  **(human_fields or {})})
    if human_params.n_humans and human_params.group_label == bot_params.group_label:
        raise ValueError(f"bots and humans share the group label {bot_params.group_label!r}")
    # Generation creates no reference cycles; a collection would only walk the heap.
    with _gc_paused():
        botnet = generate_botnet(bot_params)
        if human_params.n_humans == 0:
            return botnet
        return merge_corpora(botnet, generate_humans(human_params))
