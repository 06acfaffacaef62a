import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from botsieve import contentstats as cs
from conftest import account, corpus_of, tweet


def mix_corpus(kinds):
    tweets = []
    for i, kind in enumerate(kinds):
        extra = {}
        if kind == "reply":
            extra["reply_to"] = "X"
        elif kind in ("retweet", "quote"):
            extra["ref"] = "X"
        tweets.append(tweet(f"t{i}", "A", kind=kind, **extra))
    return corpus_of([account("A")], tweets)


def test_tweet_mix_example():
    corpus = mix_corpus(["original", "original", "reply", "retweet"])
    point = cs.tweet_mix(corpus, "A")
    assert point.as_tuple() == (50.0, 25.0, 25.0)


def test_quotes_merge_into_retweet_axis():
    corpus = mix_corpus(["quote", "quote", "quote"])
    assert cs.tweet_mix(corpus, "A").as_tuple() == (0.0, 0.0, 100.0)


def test_zero_tweets_yields_none():
    corpus = corpus_of([account("A")], [])
    assert cs.tweet_mix(corpus, "A") is None
    assert cs.group_mix_points(corpus, {"A"}) == {}


@given(st.lists(st.sampled_from(["original", "reply", "retweet", "quote"]),
                min_size=1, max_size=40))
@settings(max_examples=150)
def test_ternary_components_sum_to_100(kinds):
    point = cs.tweet_mix(mix_corpus(kinds), "A")
    assert abs(sum(point.as_tuple()) - 100.0) <= 1e-9


def test_bin_corner_point():
    grid = cs.ternary_bin([cs.TernaryPoint(100.0, 0.0, 0.0)], 10)
    assert grid.bins == {(10, 0, 0): 1}


def test_bin_exact_lattice_point():
    grid = cs.ternary_bin([cs.TernaryPoint(50.0, 25.0, 25.0)], 4)
    assert grid.bins == {(2, 1, 1): 1}


def test_bin_requires_valid_resolution():
    with pytest.raises(ValueError):
        cs.ternary_bin([], 0)


@given(st.integers(1, 30), st.integers(0, 500))
@settings(max_examples=60)
def test_bin_mass_conservation(resolution, seed):
    rng = np.random.default_rng(seed)
    raw = rng.dirichlet((1.0, 1.0, 1.0), size=50) * 100.0
    points = [cs.TernaryPoint(*row) for row in raw]
    grid = cs.ternary_bin(points, resolution)
    assert grid.total == len(points)
    assert all(sum(coords) == resolution for coords in grid.bins)


def test_hashtag_ranking_example():
    corpus = corpus_of(
        [account("A")],
        [tweet("t1", "A", hashtags=["btc"]),
         tweet("t2", "A", hashtags=["btc", "nft"])],
    )
    assert cs.hashtag_ranking(corpus, {"A"}, 1) == [("btc", 2)]
    assert cs.hashtag_ranking(corpus, {"A"}, 5) == [("btc", 2), ("nft", 1)]
    assert cs.hashtag_ranking(corpus, set(), 3) == []


def test_hashtag_ranking_covers_all_kinds():
    corpus = corpus_of(
        [account("A")],
        [tweet("t1", "A", kind="retweet", ref="X", hashtags=["btc"]),
         tweet("t2", "A", kind="reply", reply_to="X", hashtags=["btc"])],
    )
    assert cs.hashtag_ranking(corpus, {"A"}, 1) == [("btc", 2)]


def test_hashtag_ranking_order_invariant_under_tweet_permutation():
    tweets = [tweet(f"t{i}", "A", hashtags=[tag])
              for i, tag in enumerate(["b", "a", "a", "c", "b"])]
    forward = cs.hashtag_ranking(corpus_of([account("A")], tweets), {"A"}, 10)
    backward = cs.hashtag_ranking(corpus_of([account("A")], tweets[::-1]), {"A"}, 10)
    assert forward == backward == [("a", 2), ("b", 2), ("c", 1)]


def test_amplified_accounts_excludes_in_group():
    corpus = corpus_of(
        [account("A"), account("B")],
        [tweet("t1", "A", kind="reply", reply_to="X"),
         tweet("t2", "A", kind="reply", reply_to="X"),
         tweet("t3", "A", kind="retweet", ref="B")],
    )
    assert cs.amplified_accounts(corpus, {"A", "B"}, 5) == [("X", 2)]


def test_amplified_accounts_planted_ranking():
    tweets = [tweet(f"x{i}", "A", kind="reply", reply_to="X") for i in range(10)]
    tweets += [tweet(f"y{i}", "A", kind="retweet", ref="Y") for i in range(3)]
    corpus = corpus_of([account("A")], tweets)
    assert cs.amplified_accounts(corpus, {"A"}, 2) == [("X", 10), ("Y", 3)]


def test_amplified_accounts_empty():
    corpus = corpus_of([account("A")], [tweet("t1", "A")])
    assert cs.amplified_accounts(corpus, {"A"}, 3) == []


def test_profile_summary_example():
    corpus = corpus_of([account("A", followers=10), account("B", followers=20)], [])
    summary = cs.profile_summary(corpus, {"A", "B"})
    assert summary.follower_mean == 15.0
    assert summary.follower_sd == 5.0  # population SD


def test_profile_summary_single_account_and_years():
    corpus = corpus_of([account("A", created="2016-05-01T00:00:00Z")], [])
    summary = cs.profile_summary(corpus, {"A"})
    assert summary.follower_sd == 0.0
    assert summary.creation_years == {2016: 1}
    with pytest.raises(ValueError):
        cs.profile_summary(corpus, set())


def test_repeated_group_members_count_once():
    from botsieve import detectkit as dk
    from botsieve import linkmap as lm

    corpus = corpus_of(
        [account("a", followers=1), account("b", followers=3), account("c", followers=5)],
        [tweet("t1", "a", hashtags=["btc"], urls=["https://fox8.news/x"]),
         tweet("t2", "b", hashtags=["eth"], urls=["https://vox.com/y"]),
         tweet("t3", "b", text="more words", language="es")])
    repeated = ["a", "a", "b", "c", "c"]
    assert cs.hashtag_ranking(corpus, repeated, 5) == [("btc", 1), ("eth", 1)]
    assert lm.domain_frequency(corpus, repeated, 5) == [("fox8.news", 1), ("vox.com", 1)]
    share = lm.domain_share_profiles(corpus, repeated, ["fox8.news"])
    assert [p.account_id for p in share.profiles] == ["a", "b", "c"]
    assert share.mean_share_probability == pytest.approx(1 / 3)
    summary = cs.profile_summary(corpus, repeated)
    assert (summary.n_accounts, summary.follower_mean) == (3, 3.0)
    # c has no tweets and counts once in ``unscored``.
    scores, unscored = dk.score_corpus(corpus, dk.StubDetector(), group=repeated)
    assert (sorted(scores), unscored) == (["a", "b"], 1)
