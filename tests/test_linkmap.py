from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from botsieve import linkmap as lm
from conftest import account, corpus_of, tweet


def test_extract_strips_www_and_path():
    t = tweet("t1", "a1", urls=["https://www.fox8.news/article?x=1"])
    assert lm.extract_domains(t) == (("fox8.news",), 0)


def test_extract_lowercases_scheme_and_host():
    t = tweet("t1", "a1", urls=["HTTP://Cryptnomics.ORG/post"])
    assert lm.extract_domains(t).domains == ("cryptnomics.org",)


def test_extract_skips_unparseable():
    t = tweet("t1", "a1", urls=["not a url"])
    domains, skipped = lm.extract_domains(t)
    assert domains == ()
    assert skipped == 1


def test_extract_counts_multiplicity():
    t = tweet("t1", "a1", urls=["https://a.com/1", "https://a.com/2", "junk"])
    assert lm.extract_domains(t) == (("a.com", "a.com"), 1)


@given(st.from_regex(r"(www\.)*[a-z0-9-]{1,20}(\.[a-z]{2,6}){1,3}", fullmatch=True))
@settings(max_examples=200)
def test_domain_name_normalization_idempotent(name):
    once = lm.normalize_domain_name(name)
    assert lm.normalize_domain_name(once) == once


def test_url_normalization_fixed_point():
    for url in ("https://www.fox8.news/x", "http://A.B.C/", "https://www.www.x.com/q"):
        host = lm.normalize_domain(url)
        assert lm.normalize_domain_name(host) == host


def seeded_corpus():
    tweets = [
        tweet("t1", "A", urls=["https://fox8.news/a"]),
        tweet("t2", "B", kind="retweet", ref="x", urls=["https://www.fox8.news/b"]),
        tweet("t3", "C", urls=["https://vox.com/c"]),
        tweet("t4", "C", urls=["https://cryptnomics.org/d"]),
    ]
    return corpus_of([account(a) for a in "ABC"], tweets)


def test_expand_by_domains_example():
    corpus = corpus_of(
        [account(a) for a in "ABC"],
        [tweet("t1", "A", urls=["https://fox8.news/a"]),
         tweet("t2", "B", urls=["https://fox8.news/b"]),
         tweet("t3", "C", urls=["https://vox.com/c"])],
    )
    assert lm.expand_by_domains(corpus, {"fox8.news"}) == frozenset({"A", "B"})


def test_expand_empty_seeds_forbidden():
    with pytest.raises(ValueError):
        lm.expand_by_domains(seeded_corpus(), set())


def test_expand_counts_any_tweet_kind():
    assert "B" in lm.expand_by_domains(seeded_corpus(), {"fox8.news"})


@given(st.lists(st.sampled_from(["a.com", "b.org", "c.net", "d.io"]), min_size=1, max_size=3),
       st.lists(st.sampled_from(["a.com", "b.org", "c.net", "d.io"]), min_size=1, max_size=3),
       st.lists(st.tuples(st.integers(0, 7), st.sampled_from(
           ["a.com", "b.org", "c.net", "d.io", "e.gov"])), max_size=20))
@settings(max_examples=100)
def test_expansion_monotone_in_seeds(seeds_one, seeds_two, assignments):
    accounts = [account(f"u{i}") for i in range(8)]
    tweets = [
        tweet(f"t{j}", f"u{owner}", urls=[f"https://{domain}/p"])
        for j, (owner, domain) in enumerate(assignments)
    ]
    corpus = corpus_of(accounts, tweets)
    s1, s2 = set(seeds_one), set(seeds_two)
    union = lm.expand_by_domains(corpus, s1 | s2)
    assert union == lm.expand_by_domains(corpus, s1) | lm.expand_by_domains(corpus, s2)


def test_domain_frequency_ranking_and_ties():
    corpus = corpus_of(
        [account("A")],
        [tweet("t1", "A", urls=["https://a.com/1"]),
         tweet("t2", "A", urls=["https://a.com/2"]),
         tweet("t3", "A", urls=["https://b.org/1"])],
    )
    assert lm.domain_frequency(corpus, {"A"}, 2) == [("a.com", 2), ("b.org", 1)]
    tie = corpus_of(
        [account("A")],
        [tweet("t1", "A", urls=["https://a.com/1"]),
         tweet("t2", "A", urls=["https://b.org/1"])],
    )
    assert lm.domain_frequency(tie, {"A"}, 1) == [("a.com", 1)]
    assert lm.domain_frequency(tie, {"A"}, 10) == [("a.com", 1), ("b.org", 1)]
    with pytest.raises(ValueError):
        lm.domain_frequency(tie, {"A"}, 0)


def test_domain_frequency_counts_sum_to_total_occurrences():
    corpus = seeded_corpus()
    group = {"A", "B", "C"}
    ranked = lm.domain_frequency(corpus, group, 100)
    total = 0
    for member in group:
        for t in corpus.tweets_of(member):
            total += len(lm.extract_domains(t).domains)
    assert sum(count for _, count in ranked) == total


def test_share_profiles():
    tweets = [tweet(f"t{i}", "A", urls=["https://fox8.news/x"] if i < 3 else [])
              for i in range(100)]
    corpus = corpus_of([account("A"), account("B")], tweets)
    report = lm.domain_share_profiles(corpus, {"A", "B"}, {"fox8.news"})
    by_id = {p.account_id: p for p in report.profiles}
    assert by_id["A"].share_probability == pytest.approx(0.03)
    assert by_id["A"].target_link_tweets == 3
    assert by_id["B"].share_probability == 0.0  # no tweets at all
    assert report.mean_share_probability == pytest.approx(0.015)


def test_share_probability_full():
    tweets = [tweet(f"t{i}", "A", urls=["https://fox8.news/x"]) for i in range(10)]
    corpus = corpus_of([account("A")], tweets)
    report = lm.domain_share_profiles(corpus, {"A"}, {"fox8.news"})
    assert report.profiles[0].share_probability == 1.0
    with pytest.raises(ValueError):
        lm.domain_share_profiles(corpus, {"A"}, set())


def test_load_seed_domains(tmp_path):
    seeds = tmp_path / "seeds.txt"
    seeds.write_text("# suspicious sites\nwww.FOX8.news\ncryptnomics.org\n\n")
    assert lm.load_seed_domains(seeds) == ("fox8.news", "cryptnomics.org")


# Per-tweet reference loops: every tweet goes through extract_domains, with no
# shortcut for tweets that carry no URL.

def ref_expand_by_domains(corpus, seeds):
    seed_set = {lm.normalize_domain_name(s) for s in seeds}
    return frozenset(
        author for author, tweet_ids in corpus.tweets_by_author.items()
        if any(seed_set & set(lm.extract_domains(corpus.tweets[t]).domains) for t in tweet_ids))


def ref_domain_frequency(corpus, group, k):
    counts = Counter()
    for account_id in group:
        for t in corpus.tweets_of(account_id):
            counts.update(lm.extract_domains(t).domains)
    return sorted(counts.items(), key=lambda item: (-item[1], item[0]))[:k]


def ref_domain_share_profiles(corpus, group, targets):
    target_set = {lm.normalize_domain_name(t) for t in targets}
    profiles = []
    for account_id in sorted(group):
        tweets = corpus.tweets_of(account_id)
        extracted = [lm.extract_domains(t).domains for t in tweets]
        link = sum(1 for domains in extracted if domains)
        target = sum(1 for domains in extracted if target_set & set(domains))
        profiles.append(lm.DomainShareProfile(
            account_id, link, target, target / len(tweets) if tweets else 0.0))
    mean = sum(p.share_probability for p in profiles) / len(profiles) if profiles else 0.0
    return lm.DomainShareReport(tuple(profiles), mean)


URL_POOL = ["https://fox8.news/a", "https://www.fox8.news/b", "http://www.www.a.com/x",
            "https://A.com/y", "https://b.org", "not a url", "http://[::1", "", "   ",
            "https://cryptnomics.org/z?q=1"]


@given(st.lists(st.tuples(st.integers(0, 5), st.lists(st.sampled_from(URL_POOL), max_size=4)),
                max_size=40),
       st.sets(st.sampled_from(["fox8.news", "a.com", "www.b.org", "cryptnomics.org"]),
               min_size=1),
       st.sets(st.sampled_from([f"u{i}" for i in range(7)] + ["quiet", "ghost"]), min_size=1),
       st.integers(1, 6))
@settings(max_examples=200, derandomize=True, deadline=None)
def test_domain_stages_match_a_per_tweet_reference(assignments, domains, group, k):
    tweets = [tweet(f"t{j}", f"u{owner}", urls=urls) for j, (owner, urls) in enumerate(assignments)]
    # "quiet" posts only tweets without URLs; "ghost" has no tweets at all.
    tweets += [tweet(f"q{j}", "quiet") for j in range(3)]
    corpus = corpus_of([account(a) for a in [f"u{i}" for i in range(7)] + ["quiet"]], tweets)
    assert lm.expand_by_domains(corpus, domains) == ref_expand_by_domains(corpus, domains)
    assert lm.domain_frequency(corpus, group, k) == ref_domain_frequency(corpus, group, k)
    report = lm.domain_share_profiles(corpus, group, domains)
    assert report == ref_domain_share_profiles(corpus, group, domains)
    by_id = {p.account_id: p for p in report.profiles}
    if "quiet" in group:
        assert by_id["quiet"] == lm.DomainShareProfile("quiet", 0, 0, 0.0)


def test_url_less_tweets_count_in_the_share_denominator():
    tweets = [tweet("t0", "A", urls=["https://www.fox8.news/x", "https://b.org/"]),
              tweet("t1", "A", urls=["not a url"]), tweet("t2", "A"), tweet("t3", "A")]
    report = lm.domain_share_profiles(corpus_of([account("A")], tweets), {"A"}, {"fox8.news"})
    assert report.profiles == (lm.DomainShareProfile("A", 1, 1, 0.25),)
