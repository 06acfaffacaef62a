import hashlib

import numpy as np
import pytest

from botsieve import synthnet as sn
from botsieve.corpus import export_corpus, validate
from botsieve import contentstats, graphlab, linkmap, seedscan


def test_same_seed_byte_identical(tmp_path):
    params = sn.BotnetParams(n_bots=40, rng_seed=9)
    first = export_corpus(sn.generate_botnet(params), tmp_path / "one")
    second = export_corpus(sn.generate_botnet(params), tmp_path / "two")
    for key in first:
        assert first[key].read_bytes() == second[key].read_bytes()


def test_different_seed_differs(tmp_path):
    a = sn.generate_botnet(sn.BotnetParams(n_bots=40, rng_seed=1))
    b = sn.generate_botnet(sn.BotnetParams(n_bots=40, rng_seed=2))
    assert a != b


def test_generated_corpora_validate_clean():
    botnet = sn.generate_botnet(sn.BotnetParams(n_bots=60, rng_seed=4))
    humans = sn.generate_humans(sn.HumanParams(n_humans=60, rng_seed=5))
    assert validate(botnet).empty
    assert validate(humans).empty
    merged = sn.fox8_preset(seed=4, n_bots=30, n_humans=30)
    assert validate(merged).empty


def test_fox8_preset_validates_both_parameter_sets_before_generating(monkeypatch):
    monkeypatch.setattr(sn, "generate_botnet",
                        lambda params: pytest.fail("generated before validating"))
    with pytest.raises(ValueError, match="n_humans"):
        sn.fox8_preset(seed=1, n_bots=30, n_humans=-1)
    with pytest.raises(ValueError, match="min_tweets"):
        sn.fox8_preset(seed=1, n_bots=30, bot_fields={"min_tweets": 0})


def test_fox8_preset_rejects_a_shared_group_label(monkeypatch):
    monkeypatch.setattr(sn, "generate_botnet",
                        lambda params: pytest.fail("generated before validating"))
    with pytest.raises(ValueError, match="group label 'human'"):
        sn.fox8_preset(seed=1, n_bots=6, n_humans=3, bot_fields={"group_label": "human"})
    with pytest.raises(ValueError, match="group label 'bot'"):
        sn.fox8_preset(seed=1, n_bots=6, n_humans=3, human_fields={"group_label": "bot"})


def test_shared_group_label_is_allowed_without_humans():
    corpus = sn.fox8_preset(seed=1, n_bots=6, n_humans=0,
                            bot_fields={"group_label": "human", "follow_degree_mean": 2.0})
    assert corpus.partition.names == ("human",)


# SHA-256 of each exported file of fox8_preset(seed=3, n_bots=40, n_humans=30).
# Generation is a pure function of the parameters, so any change to the
# random draws or to how they become records shows here.
PINNED_FOX8_SMALL = {
    "accounts": "45efbfc23e614158537015889f5b34f10060833266564ed934c70a02ef88c1f8",
    "tweets": "86fef3db5f8d43b0262936f1e795e2b94acdf055611468feda124e6efaa56cce",
    "edges": "0a360745a5e691978b9dec0f5ab13a2719824ffe73d0c3af77e966c67b5f4c8f",
    "labels": "02cc5b6addc62789f09e9bbc8d863282f53f7e4262de62d46018841e0e2697f9",
}


def test_generated_files_are_pinned(tmp_path):
    paths = export_corpus(sn.fox8_preset(seed=3, n_bots=40, n_humans=30), tmp_path)
    digests = {name: hashlib.sha256(path.read_bytes()).hexdigest()
               for name, path in paths.items()}
    assert digests == PINNED_FOX8_SMALL


# The same for a botnet alone in which most tweets carry a URL (seed-domain
# share 0.5) and 30% are self-revealing, so those branches of the generator
# and of the writer carry most of the bytes.
PINNED_URL_HEAVY_BOTNET = {
    "accounts": "ae2eb6576956800b351ef5703733cbf5601de0741f4d5e8602ca35239af3f8ed",
    "tweets": "c6580129ca21a20be8fb511f44d21927af97d5d63157cc3de593f7dcdc4f0f8c",
    "edges": "6c79000c9c3c9bd9ddab04736679c566cdf69db32d37fa7a2dba9ee370ff22b0",
    "labels": "86307c8c50af71dba840ba900efbe8bae82fae9d828f64c89671cf216c6dbbf4",
}


def test_url_heavy_botnet_files_are_pinned(tmp_path):
    corpus = sn.fox8_preset(seed=5, n_bots=40, n_humans=0,
                            bot_fields={"seed_domain_share": 0.5, "self_reveal_rate": 0.3})
    tweets = list(corpus.tweets.values())
    assert sum(bool(t.urls) for t in tweets) > len(tweets) / 2
    assert sum("AI language model" in t.text for t in tweets) > len(tweets) / 5
    paths = export_corpus(corpus, tmp_path)
    digests = {name: hashlib.sha256(path.read_bytes()).hexdigest()
               for name, path in paths.items()}
    assert digests == PINNED_URL_HEAVY_BOTNET


def test_fox8_preset_generates_each_population_once(monkeypatch):
    # Calls go through the module globals, where a caller (a tracer, say)
    # may have wrapped them.
    calls = {"generate_botnet": 0, "generate_humans": 0}

    def counted(name):
        original = getattr(sn, name)

        def wrapper(params):
            calls[name] += 1
            return original(params)
        return wrapper

    for name in calls:
        monkeypatch.setattr(sn, name, counted(name))
    corpus = sn.fox8_preset(seed=2, n_bots=8, n_humans=5,
                            bot_fields={"follow_degree_mean": 2.0, "min_tweets": 2})
    assert calls == {"generate_botnet": 1, "generate_humans": 1}
    assert corpus.partition.names == ("bot", "human")


def test_planted_replies_come_first_and_the_rest_go_outside():
    params = sn.BotnetParams(n_bots=30, within_reply_pair_rate=0.05, rng_seed=8)
    corpus = sn.generate_botnet(params)
    bots = corpus.partition["bot"]
    planted = 0
    for account_id in sorted(bots):
        replies = [t for t in corpus.tweets_of(account_id) if t.kind == "reply"]
        targets = [t.in_reply_to_account in bots for t in replies]
        # In-group targets form a prefix of the account's replies.
        assert targets == sorted(targets, reverse=True)
        planted += sum(targets)
    assert planted > 0


def test_unsatisfiable_degree_errors():
    with pytest.raises(ValueError, match="unsatisfiable"):
        sn.generate_botnet(sn.BotnetParams(n_bots=5, follow_degree_mean=10.0, rng_seed=0))


def test_two_bot_network_is_constrained():
    corpus = sn.generate_botnet(sn.BotnetParams(
        n_bots=2, follow_degree_mean=1.0, follow_degree_sd=0.0, rng_seed=0))
    assert {(e.source, e.target) for e in corpus.follow_edges} <= {
        ("b00000", "b00001"), ("b00001", "b00000")}
    again = sn.generate_botnet(sn.BotnetParams(
        n_bots=2, follow_degree_mean=1.0, follow_degree_sd=0.0, rng_seed=0))
    assert corpus == again


def test_param_validation():
    with pytest.raises(ValueError):
        sn.BotnetParams(n_bots=1)
    with pytest.raises(ValueError):
        sn.BotnetParams(seed_domain_share=1.5)
    with pytest.raises(ValueError):
        sn.BotnetParams(tweet_mix_means=(50.0, 30.0, 30.0))
    for params in (sn.BotnetParams, sn.HumanParams):
        with pytest.raises(ValueError, match="rng_seed"):
            params(rng_seed=-1)


def test_humans_have_no_in_group_interactions():
    humans = sn.generate_humans(sn.HumanParams(n_humans=200, rng_seed=6))
    members = humans.partition["human"]
    graph = graphlab.build_graph(humans, "reply", node_restriction=members)
    rate = graph.n_edges / (len(members) * (len(members) - 1))
    assert rate < 0.0005
    assert humans.follow_edges == frozenset()


def test_generate_humans_empty():
    empty = sn.generate_humans(sn.HumanParams(n_humans=0, rng_seed=0))
    assert empty.n_accounts == 0
    assert empty.n_tweets == 0


def test_human_mixes_spread_over_simplex():
    humans = sn.generate_humans(sn.HumanParams(n_humans=300, rng_seed=7))
    points = contentstats.group_mix_points(humans, humans.partition["human"])
    values = np.array([p.as_tuple() for p in points.values()])
    assert values[:, 0].std() > 15.0  # heterogeneous, not programmed


def test_statistical_recovery_moderate_scale():
    params = sn.BotnetParams(n_bots=500, rng_seed=12)
    corpus = sn.generate_botnet(params)
    bots = sorted(corpus.partition["bot"])

    graph = graphlab.build_graph(corpus, "follow", node_restriction=bots)
    summary = graphlab.degree_stats(graph)
    degree_se = params.follow_degree_sd / np.sqrt(len(bots))
    assert abs(summary.mean_in - params.follow_degree_mean) < 3 * degree_se + 0.05

    points = contentstats.group_mix_points(corpus, bots)
    mix = np.array([p.as_tuple() for p in points.values()])
    for axis, target in enumerate(params.tweet_mix_means):
        se = mix[:, axis].std() / np.sqrt(len(mix))
        assert abs(mix[:, axis].mean() - target) < 3 * se + 0.3

    share = linkmap.domain_share_profiles(corpus, bots, params.seed_domains)
    shares = np.array([p.share_probability for p in share.profiles])
    share_se = shares.std() / np.sqrt(len(shares))
    assert abs(share.mean_share_probability - params.seed_domain_share) < 3 * share_se + 0.001

    profile = contentstats.profile_summary(corpus, bots)
    follower_se = params.follower_sd / np.sqrt(len(bots))
    assert abs(profile.follower_mean - params.follower_mean) < 3 * follower_se + 0.5


def test_self_revealing_tweets_injected_and_categorized():
    corpus = sn.generate_botnet(sn.BotnetParams(n_bots=300, rng_seed=13))
    hits = seedscan.find_phrase_tweets(corpus)
    total = corpus.n_tweets
    assert 0.002 * total < len(hits) < 0.02 * total
    rows = seedscan.category_summary(corpus.table.values("text", hits.rows))
    assert rows[0].category is seedscan.SelfRevealCategory.HARMFUL_CONTENT
    assert rows[0].count == max(r.count for r in rows)


def test_seed_domains_dominate_link_ranking():
    params = sn.BotnetParams(n_bots=300, rng_seed=14)
    corpus = sn.generate_botnet(params)
    bots = sorted(corpus.partition["bot"])
    top = linkmap.domain_frequency(corpus, bots, 3)
    assert {domain for domain, _ in top} == set(params.seed_domains)


def test_simulate_scores_degenerate_sd():
    scores = sn.simulate_scores(n_bots=50, n_humans=0, bot_sd=1e-9, rng_seed=0)
    values = [v for v, _ in scores]
    assert all(abs(v - 57.7) < 1e-6 for v in values)


def test_simulate_scores_structure():
    scores = sn.simulate_scores(n_bots=10, n_humans=20, rng_seed=3)
    assert len(scores) == 30
    assert sum(1 for _, label in scores if label == "bot") == 10
    assert all(0.0 <= v <= 100.0 for v, _ in scores)
    assert scores == sn.simulate_scores(n_bots=10, n_humans=20, rng_seed=3)
    with pytest.raises(ValueError):
        sn.simulate_scores(bot_sd=0.0)
