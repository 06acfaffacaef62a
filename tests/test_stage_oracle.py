"""Frozen oracle for the analysis stages.

The ``ref_*`` functions are copies of the stage functions as they stood
before the per-author index held ``Tweet`` tuples: each account's tweets come
from ``ref_tweets_of``, an index built here from ``corpus.tweets`` alone and
ordered by (created_at, tweet_id), never from the index under test. The
property below checks that the library stages still give the same results on
drawn small corpora.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from botsieve import contentstats as cs
from botsieve import detectkit as dk
from botsieve import graphlab as gl
from botsieve import linkmap as lm
from botsieve import seedscan as ss
from botsieve.corpus import FollowEdge, GroupPartition, make_corpus
from conftest import account, edges_of, tweet


def ref_index(corpus) -> dict[str, tuple]:
    by_author: dict[str, list] = {}
    for t in corpus.tweets.values():
        by_author.setdefault(t.author_id, []).append(t)
    return {author: tuple(sorted(ts, key=lambda t: (t.created_at, t.tweet_id)))
            for author, ts in sorted(by_author.items())}


def ref_tweets_of(corpus, account_id):
    return ref_index(corpus).get(account_id, ())


# ---------------------------------------------------------------------------
# graphlab

@dataclass(frozen=True)
class RefInteractionGraph:
    edge_kind: str
    nodes: frozenset[str]
    edges: dict[tuple[str, str], int] = field(default_factory=dict)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        return len(self.edges)


def ref_build_graph(corpus, edge_kind, node_restriction=None):
    if edge_kind not in gl.EDGE_KINDS:
        raise ValueError(f"edge_kind must be one of {gl.EDGE_KINDS}, got {edge_kind!r}")
    restriction = frozenset(node_restriction) if node_restriction is not None else None

    pairs: list[tuple[str, str]] = []
    if edge_kind == "follow":
        pairs = [(e.source, e.target) for e in corpus.follow_edges]
    else:
        for tweet in corpus.tweets.values():
            if tweet.author_id not in corpus.accounts:
                continue
            if edge_kind == "reply":
                if tweet.kind != "reply" or tweet.in_reply_to_account is None:
                    continue
                pairs.append((tweet.author_id, tweet.in_reply_to_account))
            else:
                if tweet.kind != "retweet" or tweet.referenced_account is None:
                    continue
                pairs.append((tweet.author_id, tweet.referenced_account))

    weights: Counter[tuple[str, str]] = Counter()
    endpoints: set[str] = set()
    for source, target in pairs:
        if source == target:
            continue
        if restriction is not None and (source not in restriction or target not in restriction):
            continue
        weights[(source, target)] += 1
        endpoints.add(source)
        endpoints.add(target)

    if restriction is not None:
        nodes = restriction
    else:
        nodes = frozenset(corpus.accounts) | frozenset(endpoints)
    return RefInteractionGraph(edge_kind=edge_kind, nodes=nodes, edges=dict(weights))


def ref_degree_stats(graph):
    if not graph.nodes:
        return gl.DegreeSummary(0.0, 0.0, 0.0, 0.0, {}, {})
    in_deg = dict.fromkeys(graph.nodes, 0)
    out_deg = dict.fromkeys(graph.nodes, 0)
    for (source, target) in graph.edges:
        if source in out_deg:
            out_deg[source] += 1
        if target in in_deg:
            in_deg[target] += 1
    order = sorted(graph.nodes)
    ins = np.array([in_deg[n] for n in order], dtype=float)
    outs = np.array([out_deg[n] for n in order], dtype=float)
    return gl.DegreeSummary(
        mean_in=float(ins.mean()),
        sd_in=float(ins.std()),
        mean_out=float(outs.mean()),
        sd_out=float(outs.std()),
        in_histogram=dict(sorted(Counter(in_deg.values()).items())),
        out_histogram=dict(sorted(Counter(out_deg.values()).items())),
    )


def ref_largest_wcc(graph):
    if not graph.nodes:
        return frozenset()
    neighbors: dict[str, set[str]] = {node: set() for node in graph.nodes}
    for (source, target) in graph.edges:
        if source in neighbors and target in neighbors:
            neighbors[source].add(target)
            neighbors[target].add(source)
    seen: set[str] = set()
    best: frozenset[str] = frozenset()
    for start in sorted(graph.nodes):
        if start in seen:
            continue
        component = {start}
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for neighbor in neighbors[node]:
                if neighbor not in component:
                    component.add(neighbor)
                    frontier.append(neighbor)
        seen.update(component)
        if len(component) > len(best):
            best = frozenset(component)
    return best


def ref_pair_rate_matrix(graph, partition):
    names = partition.names
    if not names:
        raise ValueError("partition has no groups")
    membership: dict[str, int] = {}
    sizes = []
    for index, name in enumerate(names):
        members = partition[name]
        if not members:
            raise ValueError(f"group {name!r} is empty")
        missing = members - graph.nodes
        if missing:
            raise ValueError(
                f"group {name!r} has members outside the graph, e.g. {sorted(missing)[0]!r}"
            )
        if len(members) < 2:
            raise ValueError(f"group {name!r} has fewer than 2 members; within-rate undefined")
        sizes.append(len(members))
        for member in members:
            membership[member] = index

    k = len(names)
    counts = np.zeros((k, k), dtype=np.int64)
    for (source, target) in graph.edges:
        i = membership.get(source)
        j = membership.get(target)
        if i is not None and j is not None:
            counts[i, j] += 1

    denominators = np.empty((k, k), dtype=float)
    for i in range(k):
        for j in range(k):
            denominators[i, j] = sizes[i] * (sizes[i] - 1) if i == j else sizes[i] * sizes[j]
    return gl.PairRateMatrix(groups=names, rates=counts / denominators, counts=counts)


# ---------------------------------------------------------------------------
# contentstats

def ref_tweet_mix(corpus, account_id):
    tweets = ref_tweets_of(corpus, account_id)
    if not tweets:
        return None
    kinds = Counter(t.kind for t in tweets)
    total = len(tweets)
    return cs.TernaryPoint(
        pct_original=100.0 * kinds["original"] / total,
        pct_reply=100.0 * kinds["reply"] / total,
        pct_retweet_quote=100.0 * (kinds["retweet"] + kinds["quote"]) / total,
    )


def ref_group_mix_points(corpus, group):
    points = {}
    for account_id in sorted(group):
        point = ref_tweet_mix(corpus, account_id)
        if point is not None:
            points[account_id] = point
    return points


def ref_hashtag_ranking(corpus, group, k):
    if k < 1:
        raise ValueError("k must be >= 1")
    counts: Counter[str] = Counter()
    for account_id in group:
        for tweet in ref_tweets_of(corpus, account_id):
            counts.update(tweet.hashtags)
    return sorted(counts.items(), key=lambda item: (-item[1], item[0]))[:k]


def ref_amplified_accounts(corpus, group, k):
    if k < 1:
        raise ValueError("k must be >= 1")
    members = frozenset(group)
    counts: Counter[str] = Counter()
    for account_id in members:
        for tweet in ref_tweets_of(corpus, account_id):
            if tweet.kind == "reply":
                target = tweet.in_reply_to_account
            elif tweet.kind in ("retweet", "quote"):
                target = tweet.referenced_account
            else:
                continue
            if target is not None and target not in members:
                counts[target] += 1
    return sorted(counts.items(), key=lambda item: (-item[1], item[0]))[:k]


def ref_profile_summary(corpus, group):
    members = sorted(group)
    if not members:
        raise ValueError("group must be non-empty")
    accounts = [corpus.accounts[m] for m in members if m in corpus.accounts]
    if not accounts:
        raise ValueError("no group member resolves to an account")
    followers = np.array([a.follower_count for a in accounts], dtype=float)
    following = np.array([a.following_count for a in accounts], dtype=float)
    tweet_counts = np.array([a.tweet_count for a in accounts], dtype=float)
    years = Counter(a.created_at.year for a in accounts)
    return cs.ProfileSummary(
        n_accounts=len(accounts),
        follower_mean=float(followers.mean()),
        follower_sd=float(followers.std()),
        following_mean=float(following.mean()),
        following_sd=float(following.std()),
        tweet_count_mean=float(tweet_counts.mean()),
        tweet_count_sd=float(tweet_counts.std()),
        creation_years=dict(sorted(years.items())),
    )


# ---------------------------------------------------------------------------
# linkmap

def ref_expand_by_domains(corpus, seeds):
    seed_set = {lm.normalize_domain_name(s) for s in seeds}
    if not seed_set:
        raise ValueError("seed domain set must be non-empty")
    matched = set()
    for author, tweets in ref_index(corpus).items():
        for tweet in tweets:
            if tweet.urls and seed_set.intersection(lm.extract_domains(tweet).domains):
                matched.add(author)
                break
    return frozenset(matched)


def ref_domain_frequency(corpus, group, k):
    if k < 1:
        raise ValueError("k must be >= 1")
    counts: Counter[str] = Counter()
    for account_id in group:
        for tweet in ref_tweets_of(corpus, account_id):
            if tweet.urls:
                counts.update(lm.extract_domains(tweet).domains)
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    return ranked[:k]


def ref_domain_share_profiles(corpus, group, targets):
    target_set = {lm.normalize_domain_name(t) for t in targets}
    if not target_set:
        raise ValueError("target domain set must be non-empty")
    profiles = []
    for account_id in sorted(group):
        tweets = ref_tweets_of(corpus, account_id)
        link_tweets = 0
        target_tweets = 0
        for tweet in tweets:
            if not tweet.urls:
                continue
            domains, _ = lm.extract_domains(tweet)
            if domains:
                link_tweets += 1
            if target_set.intersection(domains):
                target_tweets += 1
        share = target_tweets / len(tweets) if tweets else 0.0
        profiles.append(
            lm.DomainShareProfile(account_id, link_tweets, target_tweets, share)
        )
    mean = (sum(p.share_probability for p in profiles) / len(profiles)) if profiles else 0.0
    return lm.DomainShareReport(tuple(profiles), mean)


# ---------------------------------------------------------------------------
# seedscan and detectkit

def ref_find_phrase_tweets(corpus, query=None):
    query = query or ss.PhraseQuery()
    matches: dict[str, str | None] = {}
    hits: dict[str, str] = {}
    for tweet_id in sorted(corpus.tweets):
        text = corpus.tweets[tweet_id].text
        try:
            phrase = matches[text]
        except KeyError:
            haystack = ss.normalize_text(text)
            phrase = matches[text] = next(
                (raw for raw, needle in zip(query.phrases, query.normalized)
                 if needle in haystack), None)
        if phrase is not None:
            hits[tweet_id] = phrase
    return hits


def ref_kept_tweets(corpus, account_id, rules):
    return [tweet for tweet in ref_tweets_of(corpus, account_id)
            if not (rules.exclude_retweets and tweet.kind == "retweet")
            and not (rules.english_only and not dk._is_english(tweet.language))]


def ref_score_corpus(corpus, detector, rules=dk.QualificationRules(), group=None):
    account_ids = sorted(group) if group is not None else sorted(corpus.accounts)
    memo: dict[tuple[str, str], tuple[float, ...]] = {}
    scores = {}
    unscored = 0
    for account_id in account_ids:
        if account_id not in corpus.accounts:
            continue
        account_scores = []
        for tweet in ref_kept_tweets(corpus, account_id, rules):
            key = (tweet.text, tweet.kind)
            cached = memo.get(key)
            if cached is None:
                processed = dk.process_text(tweet.text, tweet.kind, rules)
                cached = memo[key] = (
                    (dk._checked(detector.score(processed), detector),) if processed else ())
            account_scores.extend(cached)
        result = dk._account_score(account_id, account_scores)
        if result is None:
            unscored += 1
        else:
            scores[account_id] = result
    return scores, unscored


# ---------------------------------------------------------------------------
# The property

# "a0".."a6" may post and be targeted; only some of them are in the account
# table. "x0"/"x1" are outside accounts that are only ever targeted.
POOL = [f"a{i}" for i in range(7)]
OUTSIDE = ["x0", "x1"]
# Few instants and few authors, so one author's tweets often share a created_at.
INSTANTS = ["2023-01-01T00:00:00Z", "2023-01-02T00:00:00Z", "2022-12-31T23:59:59Z"]
TEXTS = ["hello world", "As an AI language model, I cannot browse.", "buy $ETH now",
         "as an ai​ language   model i can't", "@a1 sure thing https://fox8.news/x", ""]
HASHTAGS = [(), (), ("btc",), ("btc", "eth"), ("eth",), ("news",)]
URLS = [(), (), ("https://www.fox8.news/a",), ("https://vox.com/b", "not a url"),
        ("https://cryptnomics.org/z", "https://fox8.news/q"), ("http://[::1",)]
KINDS = ["original", "reply", "retweet", "quote"]
LANGUAGES = ["en", "en", "en-GB", "es", None]
TARGETS = [None] + POOL + OUTSIDE


@st.composite
def small_corpora(draw):
    in_table = draw(st.lists(st.sampled_from(POOL), unique=True, max_size=len(POOL)))
    accounts = [account(a, followers=draw(st.integers(0, 9)), following=draw(st.integers(0, 9)),
                        tweet_count=draw(st.integers(0, 9)),
                        created=draw(st.sampled_from(INSTANTS)))
                for a in in_table]
    authors = draw(st.lists(st.sampled_from(POOL), min_size=1, max_size=4))
    rows = draw(st.lists(st.tuples(
        st.sampled_from(authors), st.sampled_from(KINDS),
        st.sampled_from(TEXTS), st.sampled_from(INSTANTS), st.sampled_from(TARGETS),
        st.sampled_from(HASHTAGS), st.sampled_from(URLS), st.sampled_from(LANGUAGES)),
        max_size=40))
    # Unpadded ids, so "t10" sorts before "t2"; insertion order is drawn.
    numbers = draw(st.permutations(range(len(rows))))
    tweets = []
    for n, (author, kind, text, created, target, tags, urls, language) in zip(numbers, rows):
        tweets.append(tweet(
            f"t{n}", author, kind=kind, text=text, created=created,
            reply_to=target if kind == "reply" else None,
            ref=target if kind in ("retweet", "quote") else None,
            hashtags=tags, urls=urls, language=language))
    edges = draw(st.lists(st.tuples(st.sampled_from(POOL), st.sampled_from(POOL + OUTSIDE)),
                          unique=True, max_size=12))
    members = draw(st.permutations(POOL))
    split = draw(st.integers(0, len(POOL)))
    partition = GroupPartition({"bot": frozenset(members[:split]),
                                "human": frozenset(members[split:])})
    return make_corpus(accounts, tweets, [FollowEdge(*e) for e in edges], partition)


def outcome(fn, *args):
    """The result, or the exception's type and message."""
    try:
        return ("ok", fn(*args))
    except (ValueError, KeyError) as exc:
        return ("error", type(exc), str(exc))


def same_pair_rates(mine, ref):
    if mine[0] != "ok" or ref[0] != "ok":
        return mine == ref
    a, b = mine[1], ref[1]
    return (a.groups == b.groups and np.array_equal(a.counts, b.counts)
            and np.array_equal(a.rates, b.rates))


@given(corpus=small_corpora(),
       group=st.lists(st.sampled_from(POOL + OUTSIDE), unique=True, max_size=6),
       k=st.integers(1, 4))
@settings(max_examples=300, derandomize=True, deadline=None)
def test_stages_match_the_frozen_reference(corpus, group, k):
    for author in POOL:
        assert corpus.tweets_of(author) == ref_tweets_of(corpus, author)
    detector = dk.StubDetector("oracle")
    partition = GroupPartition({name: members for name, members in corpus.partition.groups.items()
                                if len(members) >= 2})
    for kind in gl.EDGE_KINDS:
        for restriction in (None, group, sorted(corpus.partition["bot"])):
            graph = gl.build_graph(corpus, kind, node_restriction=restriction)
            ref = ref_build_graph(corpus, kind, node_restriction=restriction)
            assert (graph.edge_kind, frozenset(graph.nodes)) == (ref.edge_kind, ref.nodes)
            assert edges_of(graph) == ref.edges
            summary, ref_summary = gl.degree_stats(graph), ref_degree_stats(ref)
            assert summary == ref_summary
            assert list(summary.in_histogram.items()) == list(ref_summary.in_histogram.items())
            assert list(summary.out_histogram.items()) == list(ref_summary.out_histogram.items())
            assert gl.largest_wcc(graph) == ref_largest_wcc(ref)
            assert same_pair_rates(outcome(gl.pair_rate_matrix, graph, partition),
                                   outcome(ref_pair_rate_matrix, ref, partition))

    assert list(cs.group_mix_points(corpus, group).items()) == \
        list(ref_group_mix_points(corpus, group).items())
    assert cs.hashtag_ranking(corpus, group, k) == ref_hashtag_ranking(corpus, group, k)
    assert cs.amplified_accounts(corpus, group, k) == ref_amplified_accounts(corpus, group, k)
    assert outcome(cs.profile_summary, corpus, group) == \
        outcome(ref_profile_summary, corpus, group)

    seeds = lm.DEFAULT_SEED_DOMAINS[:k]
    assert lm.expand_by_domains(corpus, seeds) == ref_expand_by_domains(corpus, seeds)
    assert lm.domain_frequency(corpus, group, k) == ref_domain_frequency(corpus, group, k)
    share, ref_share = (lm.domain_share_profiles(corpus, group, seeds),
                        ref_domain_share_profiles(corpus, group, seeds))
    assert share == ref_share
    assert math.isfinite(share.mean_share_probability)

    query = ss.PhraseQuery(("as an ai language model", "buy"))
    for q in (None, query):
        assert list(ss.find_phrase_tweets(corpus, q).items()) == \
            list(ref_find_phrase_tweets(corpus, q).items())

    for members in (None, group):
        scores, unscored = dk.score_corpus(corpus, detector, group=members)
        ref_scores, ref_unscored = ref_score_corpus(corpus, detector, group=members)
        assert list(scores.items()) == list(ref_scores.items())
        assert unscored == ref_unscored


# Hand-built graphs: nodes drawn from POOL, edge ends from POOL and OUTSIDE, so
# an edge may leave the node set; weights above 1; groups that may be empty,
# have one member, reach outside the graph or overlap.
GRAPH_END = st.sampled_from(POOL + OUTSIDE)


@st.composite
def hand_graphs(draw):
    nodes = draw(st.frozensets(st.sampled_from(POOL)))
    edges = draw(st.dictionaries(st.tuples(GRAPH_END, GRAPH_END), st.integers(1, 5),
                                 max_size=15))
    groups = draw(st.dictionaries(st.sampled_from(["g", "h", "i"]),
                                  st.frozensets(GRAPH_END, max_size=4), max_size=3))
    return nodes, edges, GroupPartition(groups)


def hand_graph(nodes, edges, groups):
    return (frozenset(nodes), edges,
            GroupPartition({name: frozenset(members) for name, members in groups.items()}))


@given(case=hand_graphs())
@example(case=hand_graph((), {}, {}))
@example(case=hand_graph((), {}, {"g": ()}))
@example(case=hand_graph(POOL[:4], {("a0", "a1"): 3, ("a1", "x0"): 2, ("x1", "a2"): 1,
                                    ("a2", "a3"): 4, ("a3", "a0"): 1},
                         {"g": POOL[:3], "h": POOL[2:4]}))
@example(case=hand_graph(POOL[:3], {("a0", "a1"): 2}, {"g": POOL[:2], "h": ["a2"]}))
@example(case=hand_graph(POOL[:3], {("a0", "a1"): 2}, {"g": POOL[:2], "h": ["a2", "x0"]}))
@settings(max_examples=300, derandomize=True, deadline=None)
def test_hand_built_graphs_match_the_frozen_reference(case):
    nodes, edges, partition = case
    graph = gl.InteractionGraph.from_edges("reply", nodes, edges)
    ref = RefInteractionGraph("reply", nodes, edges)
    summary, ref_summary = gl.degree_stats(graph), ref_degree_stats(ref)
    assert summary == ref_summary
    assert list(summary.in_histogram.items()) == list(ref_summary.in_histogram.items())
    assert list(summary.out_histogram.items()) == list(ref_summary.out_histogram.items())
    assert gl.largest_wcc(graph) == ref_largest_wcc(ref)
    assert same_pair_rates(outcome(gl.pair_rate_matrix, graph, partition),
                           outcome(ref_pair_rate_matrix, ref, partition))
