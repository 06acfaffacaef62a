"""The package's public names: each resolves, on first use, to its home module's object."""

import importlib

import pytest

import botsieve

# Every name the package exported when it imported its submodules eagerly, by home module.
EXPORTS = {
    "corpus": ("Account", "Corpus", "CorpusError", "FollowEdge", "GroupPartition", "Tweet",
               "ValidationReport", "cap_tweets", "export_corpus", "load_corpus",
               "merge_corpora", "validate"),
    "detectkit": ("AccountScore", "HeuristicDetector", "QualificationRules", "ReplayDetector",
                  "StubDetector", "TextDetector", "ThresholdResult", "WelchResult",
                  "bin_openai", "classify_probability", "concat_and_score",
                  "filter_min_qualified", "qualify_tweets", "recall_at", "score_account",
                  "score_corpus", "sweep_threshold", "welch_t"),
    "graphlab": ("InteractionGraph", "build_graph", "degree_stats", "largest_wcc",
                 "pair_rate_matrix"),
    "linkmap": ("DEFAULT_SEED_DOMAINS", "domain_frequency", "domain_share_profiles",
                "expand_by_domains", "extract_domains", "normalize_domain"),
    "seedscan": ("DEFAULT_RULESET", "CategoryRuleset", "PhraseQuery", "SelfRevealCategory",
                 "categorize_self_revealing", "category_summary", "find_phrase_tweets",
                 "normalize_text"),
    "contentstats": ("TernaryPoint", "amplified_accounts", "hashtag_ranking",
                     "profile_summary", "ternary_bin", "tweet_mix"),
    "synthnet": ("BotnetParams", "HumanParams", "fox8_preset", "generate_botnet",
                 "generate_humans", "simulate_scores"),
}


@pytest.mark.parametrize("home", EXPORTS)
def test_each_name_is_its_home_modules_object(home):
    module = importlib.import_module(f"botsieve.{home}")
    for name in (home, *EXPORTS[home]):
        namespace = {}
        exec(f"from botsieve import {name}", namespace)
        expected = module if name == home else getattr(module, name)
        assert getattr(botsieve, name) is namespace[name] is expected, name


def test_the_package_lists_every_name_and_no_other():
    names = {name for home, names in EXPORTS.items() for name in (home, *names)}
    assert set(botsieve.__all__) == names
    assert names <= set(dir(botsieve))


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        botsieve.no_such_name
    with pytest.raises(ImportError):
        exec("from botsieve import no_such_name", {})


def test_the_version_is_unchanged():
    assert botsieve.__version__ == "0.1.0"
