"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one pass line (visible with -s or on failure); the
assertions pin the tolerances. Simulation criteria use fixed seeds so the
suite is deterministic.
"""

import time

import numpy as np
import pytest

from botsieve import contentstats, detectkit, graphlab, linkmap, seedscan, synthnet
from botsieve.corpus import GroupPartition, export_corpus, load_corpus
from conftest import account, corpus_of, tweet

SIM_SEED = 1140


def announce(n, message):
    print(f"[acceptance] criterion {n}: PASS — {message}")


@pytest.fixture(scope="module")
def simulated_scores():
    return synthnet.simulate_scores(
        n_bots=1140, n_humans=1140,
        bot_mean=57.7, bot_sd=2.6, human_mean=48.6, human_sd=9.7,
        rng_seed=SIM_SEED,
    )


def test_criterion_1_threshold_sweep_reproduction(simulated_scores):
    start = time.perf_counter()
    outcome = detectkit.sweep_threshold(simulated_scores)
    elapsed = time.perf_counter() - start
    assert abs(outcome.best.threshold - 52.7) <= 1.5
    assert abs(outcome.best.f1 - 0.84) <= 0.02
    assert elapsed < 1.0
    announce(1, f"threshold {outcome.best.threshold:.2f} (52.7±1.5), "
                f"F1 {outcome.best.f1:.4f} (0.84±0.02), {elapsed:.3f}s")


def test_criterion_2_welch_reproduction(simulated_scores):
    bots = [v for v, label in simulated_scores if label == "bot"]
    humans = [v for v, label in simulated_scores if label == "human"]
    # welch_t imports scipy.special on first use; load it here so the bound
    # times the test itself, not the import.
    import scipy.special  # noqa: F401
    start = time.perf_counter()
    result = detectkit.welch_t(bots, humans)
    elapsed = time.perf_counter() - start
    assert abs(result.t - 30.6) <= 2.0
    assert result.p < 0.001
    assert elapsed < 1.0
    announce(2, f"t {result.t:.2f} (30.6±2), p {result.p:.2e} (<0.001), {elapsed:.3f}s")


def test_criterion_3_botnet_statistics_recovery():
    start = time.perf_counter()
    params = synthnet.BotnetParams(n_bots=1140, rng_seed=SIM_SEED)
    corpus = synthnet.generate_botnet(params)
    bots = sorted(corpus.partition["bot"])

    degrees = graphlab.degree_stats(
        graphlab.build_graph(corpus, "follow", node_restriction=bots))
    assert abs(degrees.mean_in - 13.7) <= 0.5

    mix = np.array([p.as_tuple() for p in
                    contentstats.group_mix_points(corpus, bots).values()])
    mix_means = mix.mean(axis=0)
    for axis, target in enumerate((25.6, 36.1, 38.4)):
        assert abs(mix_means[axis] - target) <= 2.0

    share = linkmap.domain_share_profiles(corpus, bots, linkmap.DEFAULT_SEED_DOMAINS)
    assert abs(share.mean_share_probability - 0.03) <= 0.005

    profile = contentstats.profile_summary(corpus, bots)
    assert abs(profile.follower_mean - 74.0) <= 3.0

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    announce(3, f"degree {degrees.mean_in:.2f} (13.7±0.5), "
                f"mix {np.round(mix_means, 2)} (±2), "
                f"share {share.mean_share_probability:.4f} (0.03±0.005), "
                f"followers {profile.follower_mean:.1f} (74±3), {elapsed:.1f}s")


def test_criterion_4_pair_rate_exactness():
    n = 500
    ids = [f"g{i:03d}" for i in range(n)]
    accounts = [account(i) for i in ids]
    # Exactly 499 distinct ordered reply pairs over 500*499 ordered pairs:
    # a rate of exactly 0.2%.
    tweets = [
        tweet(f"t{i}", ids[i], kind="reply", reply_to=ids[(i + 1) % n])
        for i in range(n - 1)
    ]
    corpus = corpus_of(accounts, tweets, groups={"X": set(ids)})
    graph = graphlab.build_graph(corpus, "reply", node_restriction=ids)
    matrix = graphlab.pair_rate_matrix(graph, GroupPartition({"X": frozenset(ids)}))
    rate = matrix.rate("X", "X")
    assert rate == 0.002
    announce(4, f"planted within-group reply rate {rate} == 0.002 exactly")


def test_criterion_5_taxonomy_fidelity():
    for category, _, text in synthnet.SELF_REVEAL_EXAMPLES:
        assert seedscan.categorize_self_revealing(text) is category
    announce(5, "five canonical self-revealing texts map to their five categories")


def test_criterion_6_bin_edge_exactness():
    expected = {
        0.0: detectkit.ScoreBand.VERY_UNLIKELY,
        10.0: detectkit.ScoreBand.VERY_UNLIKELY,
        10.0001: detectkit.ScoreBand.UNLIKELY,
        45.0: detectkit.ScoreBand.UNLIKELY,
        90.0: detectkit.ScoreBand.UNCLEAR,
        90.0001: detectkit.ScoreBand.POSSIBLY,
        98.0: detectkit.ScoreBand.POSSIBLY,
        100.0: detectkit.ScoreBand.LIKELY,
    }
    for score, band in expected.items():
        assert detectkit.bin_openai(score) is band, score
    announce(6, "all eight boundary scores bin per the published ranges")


def _brute_force_best_f1(scores):
    values = sorted({v for v, _ in scores})
    best = 0.0
    for threshold in values + [values[-1] + 1.0]:
        tp = sum(1 for v, l in scores if l == "bot" and v >= threshold)
        fp = sum(1 for v, l in scores if l == "human" and v >= threshold)
        fn = sum(1 for v, l in scores if l == "bot" and v < threshold)
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / (tp + fn) if tp + fn else 0.0
        best = max(best, 2 * p * r / (p + r) if p + r else 0.0)
    return best


def test_criterion_7a_sweep_equals_brute_force():
    rng = np.random.default_rng(71)
    checked = 0
    while checked < 1000:
        n = int(rng.integers(2, 21))
        scores = [(float(np.round(rng.uniform(0, 10), 2)),
                   "bot" if rng.random() < 0.5 else "human") for _ in range(n)]
        if {label for _, label in scores} != {"bot", "human"}:
            continue
        outcome = detectkit.sweep_threshold(scores)
        assert outcome.best.f1 == pytest.approx(_brute_force_best_f1(scores))
        checked += 1
    announce("7a", "sweep F1 equals brute-force max on 1000 random datasets")


def _closure_components(nodes, edges):
    order = sorted(nodes)
    index = {node: i for i, node in enumerate(order)}
    reach = np.eye(len(order), dtype=bool)
    for source, target in edges:
        reach[index[source], index[target]] = True
        reach[index[target], index[source]] = True
    while True:
        expanded = reach | (reach @ reach)
        if (expanded == reach).all():
            break
        reach = expanded
    components, seen = [], set()
    for i in range(len(order)):
        if i not in seen:
            members = frozenset(order[j] for j in np.flatnonzero(reach[i]))
            seen.update(index[m] for m in members)
            components.append(members)
    return components


def test_criterion_7b_wcc_equals_brute_force():
    rng = np.random.default_rng(72)
    for _ in range(500):
        n = int(rng.integers(1, 51))
        nodes = [f"n{i:02d}" for i in range(n)]
        edges = {
            (nodes[int(rng.integers(n))], nodes[int(rng.integers(n))])
            for _ in range(int(rng.integers(0, 2 * n + 1)))
        }
        edges = {(s, t) for s, t in edges if s != t}
        graph = graphlab.InteractionGraph("follow", frozenset(nodes),
                                          {e: 1 for e in edges})
        components = _closure_components(nodes, edges)
        biggest = max(len(c) for c in components)
        expected = min((c for c in components if len(c) == biggest), key=min)
        assert graphlab.largest_wcc(graph) == expected
    announce("7b", "largest WCC equals brute-force closure on 500 random digraphs")


def test_criterion_7c_welch_fixture():
    result = detectkit.welch_t([1, 2, 3], [4, 5, 6])
    assert result.t == pytest.approx(-3.674, abs=1e-3)
    assert result.df == pytest.approx(4.0, abs=1e-3)
    announce("7c", f"welch fixture t {result.t:.4f} (−3.674±1e-3), df {result.df}")


def test_criterion_8_conservation_and_invariants(tmp_path):
    rng = np.random.default_rng(8)

    # Ternary components sum to 100 within 1e-9.
    kinds = ["original", "reply", "retweet", "quote"]
    for _ in range(200):
        counts = rng.integers(0, 20, size=4)
        if counts.sum() == 0:
            continue
        tweets = []
        for kind, count in zip(kinds, counts):
            for i in range(count):
                extra = {"reply_to": "X"} if kind == "reply" else (
                    {"ref": "X"} if kind in ("retweet", "quote") else {})
                tweets.append(tweet(f"{kind}{i}", "A", kind=kind, **extra))
        point = contentstats.tweet_mix(corpus_of([account("A")], tweets), "A")
        assert abs(sum(point.as_tuple()) - 100.0) <= 1e-9

    # Ternary-bin mass conservation for every resolution 1..30.
    points = [contentstats.TernaryPoint(*(row * 100))
              for row in rng.dirichlet((1, 1, 1), size=300)]
    for resolution in range(1, 31):
        grid = contentstats.ternary_bin(points, resolution)
        assert grid.total == len(points)

    # Handshake identity on random graphs.
    for _ in range(100):
        n = int(rng.integers(1, 30))
        edges = {(f"n{rng.integers(n)}", f"n{rng.integers(n)}") for _ in range(2 * n)}
        edges = {(s, t) for s, t in edges if s != t}
        graph = graphlab.InteractionGraph(
            "follow", frozenset(f"n{i}" for i in range(n)), {e: 1 for e in edges})
        summary = graphlab.degree_stats(graph)
        assert sum(d * c for d, c in summary.in_histogram.items()) == len(edges)
        assert sum(d * c for d, c in summary.out_histogram.items()) == len(edges)

    # Domain-expansion monotonicity under seed-set union.
    pool = ["a.com", "b.org", "c.net", "d.io", "e.gov"]
    for _ in range(50):
        n_accounts = int(rng.integers(1, 8))
        accounts = [account(f"u{i}") for i in range(n_accounts)]
        tweets = [
            tweet(f"t{j}", f"u{rng.integers(n_accounts)}",
                  urls=[f"https://{pool[rng.integers(len(pool))]}/x"])
            for j in range(int(rng.integers(0, 15)))
        ]
        corpus = corpus_of(accounts, tweets)
        s1 = {pool[i] for i in rng.choice(len(pool), size=2, replace=False)}
        s2 = {pool[i] for i in rng.choice(len(pool), size=2, replace=False)}
        assert linkmap.expand_by_domains(corpus, s1 | s2) == \
            linkmap.expand_by_domains(corpus, s1) | linkmap.expand_by_domains(corpus, s2)

    # Corpus round-trip identity.
    original = synthnet.fox8_preset(seed=3, n_bots=15, n_humans=10)
    exported = export_corpus(original, tmp_path / "rt")
    reloaded = load_corpus(exported["accounts"], exported["tweets"],
                           exported["edges"], exported["labels"])
    assert reloaded == original

    # Generator determinism: byte-identical reruns.
    params = synthnet.BotnetParams(n_bots=25, rng_seed=88)
    first = export_corpus(synthnet.generate_botnet(params), tmp_path / "g1")
    second = export_corpus(synthnet.generate_botnet(params), tmp_path / "g2")
    for key in first:
        assert first[key].read_bytes() == second[key].read_bytes()

    announce(8, "ternary sums, bin conservation (r=1..30), handshake, "
                "expansion monotonicity, round-trip, generator determinism")


def test_criterion_9_recall_harness():
    scores = [(float(v), "bot") for v in (0.3, 0.8, 1.1, 1.9, 2.4)]
    recall = detectkit.recall_at(scores, 2.5)
    assert recall == 0.0
    announce(9, "bot scores entirely below threshold 2.5 yield recall 0")
