import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from botsieve import detectkit as dk
from botsieve.synthnet import simulate_scores
from conftest import account, corpus_of, tweet

# ---------------------------------------------------------------------------
# Qualification


def test_reply_handle_strip():
    assert dk.process_text("@alice @bob thanks!", "reply") == "thanks!"


def test_link_removal_and_whitespace_collapse():
    assert dk.process_text("check https://x.y/z now", "original") == "check now"


def test_handles_kept_outside_replies():
    assert dk.process_text("@alice hello", "original") == "@alice hello"


def test_all_handle_reply_strips_to_empty():
    assert dk.process_text("@alice @bob", "reply") == ""
    assert dk.process_text("@alice, real words", "reply") == "@alice, real words"


def test_qualify_drops_retweets_and_non_english():
    corpus = corpus_of(
        [account("A")],
        [tweet("t1", "A", kind="retweet", ref="X", text="RT @X: whatever"),
         tweet("t2", "A", text="hola mundo", language="es"),
         tweet("t3", "A", text="no tag at all", language=None),
         tweet("t4", "A", text="keep me", language="en"),
         tweet("t5", "A", text="https://only.link/x", language="en")],
    )
    assert dk.qualify_tweets(corpus, "A") == ["keep me"]


def test_qualify_keeps_quotes_and_replies():
    corpus = corpus_of(
        [account("A")],
        [tweet("t1", "A", kind="quote", ref="X", text="my take"),
         tweet("t2", "A", kind="reply", reply_to="X", text="@x well said")],
    )
    assert sorted(dk.qualify_tweets(corpus, "A")) == ["my take", "well said"]


def test_qualify_unknown_account():
    corpus = corpus_of([account("A")], [])
    with pytest.raises(KeyError):
        dk.qualify_tweets(corpus, "ghost")


def test_qualify_rule_toggles():
    corpus = corpus_of(
        [account("A")],
        [tweet("t1", "A", kind="retweet", ref="X", text="RT text"),
         tweet("t2", "A", text="hola", language="es")],
    )
    rules = dk.QualificationRules(exclude_retweets=False, english_only=False)
    assert dk.qualify_tweets(corpus, "A", rules) == ["RT text", "hola"]


@given(st.text(max_size=200), st.sampled_from(["original", "reply", "quote"]))
@settings(max_examples=200)
def test_processing_idempotent(text, kind):
    once = dk.process_text(text, kind)
    assert dk.process_text(once, kind) == once


# ---------------------------------------------------------------------------
# Detectors


def test_stub_detector_deterministic_and_in_range():
    detector = dk.StubDetector(key="k")
    values = {detector.score("one"), detector.score("two"), detector.score("one")}
    assert len(values) == 2
    for text in ("one", "two", "three"):
        assert 0.0 <= detector.score(text) <= 100.0
    prob = dk.StubDetector(score_scale=dk.PROBABILITY_SCALE)
    assert 0.0 <= prob.score("x") <= 1.0


def test_stub_detector_key_changes_scores():
    assert dk.StubDetector(key="a").score("x") != dk.StubDetector(key="b").score("x")


def test_replay_detector_roundtrip(tmp_path):
    path = dk.write_replay_scores(tmp_path / "replay_scores.jsonl",
                                  {"alpha": 60.0, "beta": 40.0})
    detector = dk.ReplayDetector.from_file(path)
    assert detector.score("alpha") == 60.0
    assert detector.score("beta") == 40.0
    with pytest.raises(LookupError):
        detector.score("unseen")


def test_heuristic_detector_range_and_determinism():
    detector = dk.HeuristicDetector()
    samples = [
        "", "word", "the the the the the",
        "As an AI language model, I strive to be helpful. I aim to assist. I want to help.",
        "completely unrelated rambling text with odd punctuation!!! and no repeats whatsoever",
    ]
    for text in samples:
        first, second = detector.score(text), detector.score(text)
        assert first == second
        assert 0.0 <= first <= 100.0
    assert detector.score("") == 0.0


# ---------------------------------------------------------------------------
# Aggregation


def replay_for(scores: dict, score_scale=dk.OPENAI_STYLE_SCALE):
    return dk.ReplayDetector({dk.text_digest(t): s for t, s in scores.items()},
                             score_scale=score_scale)


def test_score_account_mean():
    detector = replay_for({"a": 60.0, "b": 40.0})
    result = dk.score_account("acct", ["a", "b"], detector)
    assert result.mean_score == 50.0
    assert result.n_qualified == 2
    assert result.per_tweet_scores == (60.0, 40.0)


def test_score_account_single_and_empty():
    detector = replay_for({"a": 98.0})
    assert dk.score_account("acct", ["a"], detector).mean_score == 98.0
    assert dk.score_account("acct", [], detector) is None


def test_score_account_matches_hand_computed_fixture(tmp_path):
    texts = {"tweet one": 12.5, "tweet two": 87.5, "tweet three": 41.0}
    path = dk.write_replay_scores(tmp_path / "fixture.jsonl", texts)
    detector = dk.ReplayDetector.from_file(path)
    result = dk.score_account("acct", list(texts), detector)
    assert result.mean_score == pytest.approx(sum(texts.values()) / 3)


@given(st.lists(st.floats(0, 90), min_size=1, max_size=8), st.floats(-10, 10))
@settings(max_examples=100)
def test_mean_translation_equivariance(scores, shift):
    texts = [f"text {i}" for i in range(len(scores))]
    base = replay_for(dict(zip(texts, scores)))
    shifted = replay_for({t: s + shift for t, s in zip(texts, scores)},
                         score_scale=(-10.0, 100.0))
    a = dk.score_account("x", texts, base).mean_score
    b = dk.score_account("x", texts, shifted).mean_score
    assert b == pytest.approx(a + shift, abs=1e-9)


def test_concat_and_score():
    stub = dk.StubDetector(key="c")
    assert dk.concat_and_score(["only"], stub) == stub.score("only")
    assert dk.concat_and_score(["a", "b"], stub) == stub.score("a\nb")
    assert dk.concat_and_score(["a", "b"], stub, separator=" ") == stub.score("a b")
    with pytest.raises(ValueError):
        dk.concat_and_score([], stub)


def test_concat_and_score_replay_fixture():
    detector = replay_for({"a\nb": 77.0})
    assert dk.concat_and_score(["a", "b"], detector) == 77.0


class ConstantDetector(dk.TextDetector):
    def __init__(self, value):
        self.value = value

    def score(self, text):
        return self.value


def scoring_entry_points(detector):
    """Each public way to score text with a detector, as a thunk."""
    corpus = corpus_of([account("A")], [tweet("t1", "A", text="a"), tweet("t2", "A", text="b")])
    return [lambda: dk.score_account("acct", ["a", "b"], detector),
            lambda: dk.concat_and_score(["a", "b"], detector),
            lambda: dk.score_corpus(corpus, detector)]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_detector_output_is_rejected(value):
    for call in scoring_entry_points(ConstantDetector(value)):
        with pytest.raises(ValueError, match="non-finite"):
            call()


def test_out_of_scale_detector_output_is_rejected():
    for call in scoring_entry_points(ConstantDetector(150.0)):
        with pytest.raises(ValueError, match=r"detector 'detector' returned a score "
                                             r"outside its score_scale \[0\.0, 100\.0\]: 150\.0"):
            call()
    for call in scoring_entry_points(ConstantDetector(100.0)):
        call()


class CountingDetector(dk.TextDetector):
    """Stub scores, with every text it was asked to score recorded."""

    def __init__(self):
        self.inner = dk.StubDetector(key="count")
        self.texts = []

    def score(self, text):
        self.texts.append(text)
        return self.inner.score(text)


def test_score_corpus_scores_each_distinct_pair_once_and_matches_score_account():
    same = "the same templated text"
    corpus = corpus_of(
        [account("A"), account("B"), account("C"), account("D")],
        [tweet("a1", "A", text=same, created="2023-01-01T00:00:00Z"),
         tweet("a2", "A", kind="reply", reply_to="X", text=f"@x @y {same}",
               created="2023-01-02T00:00:00Z"),
         # Other leading handles, same processed text: its own (text, kind) pair.
         tweet("a3", "A", kind="reply", reply_to="Z", text=f"@z {same}",
               created="2023-01-03T00:00:00Z"),
         tweet("a4", "A", kind="retweet", ref="X", text=f"RT @x: {same}",
               created="2023-01-04T00:00:00Z"),
         tweet("a5", "A", text="hola mundo", language="es", created="2023-01-05T00:00:00Z"),
         tweet("a6", "A", text="https://only.link/x", created="2023-01-06T00:00:00Z"),
         tweet("a7", "A", kind="quote", ref="X", text=same, created="2023-01-07T00:00:00Z"),
         tweet("a8", "A", text=same, created="2023-01-08T00:00:00Z"),
         tweet("b1", "B", text="another text", created="2023-01-01T00:00:00Z"),
         tweet("b2", "B", kind="reply", reply_to="X", text=f"@x @y {same}",
               created="2023-01-02T00:00:00Z"),
         tweet("b3", "B", text=same, created="2023-01-03T00:00:00Z"),
         tweet("b4", "B", text="another text", created="2023-01-04T00:00:00Z"),
         tweet("c1", "C", text="https://only.link/x"),
         tweet("c2", "C", kind="retweet", ref="X", text=same),
         tweet("c3", "C", text=same, language="es")],
    )
    reference_detector = dk.StubDetector(key="count")
    reference = {}
    for account_id in sorted(corpus.accounts):
        result = dk.score_account(account_id, dk.qualify_tweets(corpus, account_id),
                                  reference_detector)
        if result is not None:
            reference[account_id] = result

    detector = CountingDetector()
    scores, unscored = dk.score_corpus(corpus, detector)
    assert list(scores) == list(reference) == ["A", "B"]
    for account_id, expected in reference.items():
        got = scores[account_id]
        assert got.account_id == expected.account_id
        assert got.n_qualified == expected.n_qualified
        assert got.per_tweet_scores == expected.per_tweet_scores
        assert got.mean_score == expected.mean_score
    assert scores["A"].n_qualified == 5
    assert unscored == 2  # C has nothing that qualifies; D has no tweets

    qualified_pairs = {(t.text, t.kind) for t in corpus.tweets.values()
                       if t.kind != "retweet" and t.language == "en"
                       and dk.process_text(t.text, t.kind)}
    assert len(qualified_pairs) == 5
    assert len(detector.texts) == len(qualified_pairs)
    assert sorted(set(detector.texts)) == ["another text", same]


def test_filter_min_qualified():
    scores = [
        dk.AccountScore("a", 1, 50.0, (50.0,)),
        dk.AccountScore("b", 4, 50.0, (50.0,) * 4),
        dk.AccountScore("c", 7, 50.0, (50.0,) * 7),
    ]
    assert [s.account_id for s in dk.filter_min_qualified(scores, 4)] == ["b", "c"]
    assert dk.filter_min_qualified(scores, 1) == scores
    with pytest.raises(ValueError):
        dk.filter_min_qualified(scores, 0)


def test_short_text_accounts_removed_by_filter(tmp_path):
    # Lone very short tweets can score deceptively high; the minimum-tweet
    # filter is what removes those accounts, not any detector guarantee.
    path = dk.write_replay_scores(tmp_path / "short.jsonl",
                                  {"thank you": 61.0, "amen": 64.2,
                                   "a longer ordinary tweet": 31.0})
    detector = dk.ReplayDetector.from_file(path)
    short = dk.score_account("short", ["thank you"], detector)
    assert short.mean_score > 60.0
    kept = dk.filter_min_qualified([short], 4)
    assert kept == []


# ---------------------------------------------------------------------------
# Binning / dichotomization


@pytest.mark.parametrize("score,band", [
    (0.0, dk.ScoreBand.VERY_UNLIKELY),
    (10.0, dk.ScoreBand.VERY_UNLIKELY),
    (10.0001, dk.ScoreBand.UNLIKELY),
    (45.0, dk.ScoreBand.UNLIKELY),
    (90.0, dk.ScoreBand.UNCLEAR),
    (90.0001, dk.ScoreBand.POSSIBLY),
    (95.0, dk.ScoreBand.POSSIBLY),
    (98.0, dk.ScoreBand.POSSIBLY),
    (98.5, dk.ScoreBand.LIKELY),
    (100.0, dk.ScoreBand.LIKELY),
])
def test_bin_openai_boundaries(score, band):
    assert dk.bin_openai(score) is band


def test_bin_openai_out_of_range():
    for value in (-0.1, 100.1):
        with pytest.raises(ValueError):
            dk.bin_openai(value)


@given(st.floats(0, 100, allow_nan=False))
@settings(max_examples=200)
def test_bin_openai_partitions_the_range(score):
    assert dk.bin_openai(score) in dk.ScoreBand


def test_classify_probability():
    assert dk.classify_probability(0.9) == "generated"
    assert dk.classify_probability(0.65) == "generated"
    assert dk.classify_probability(0.0) == "not_generated"
    with pytest.raises(ValueError):
        dk.classify_probability(1.5)


# ---------------------------------------------------------------------------
# Threshold sweeps


def test_sweep_two_point_fixture():
    outcome = dk.sweep_threshold([(60, "bot"), (58, "bot"), (55, "human"), (40, "human")])
    assert outcome.best.threshold == pytest.approx(56.5)
    assert outcome.best.f1 == 1.0
    assert outcome.best.precision == 1.0
    assert outcome.best.recall == 1.0


def test_sweep_crossed_labels():
    outcome = dk.sweep_threshold([(10, "bot"), (90, "human")])
    assert outcome.best.f1 == pytest.approx(2 / 3)
    assert outcome.best.threshold == pytest.approx(9.0)


def test_sweep_requires_both_labels():
    with pytest.raises(ValueError):
        dk.sweep_threshold([(1.0, "bot")])
    with pytest.raises(ValueError):
        dk.sweep_threshold([(1.0, "x")])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_sweep_and_recall_reject_non_finite_scores(bad):
    scores = [(1.0, "bot"), (2.0, "bot"), (0.5, "human"), (bad, "human")]
    with pytest.raises(ValueError, match="non-finite"):
        dk.sweep_threshold(scores)
    with pytest.raises(ValueError, match="non-finite"):
        dk.recall_at(scores, 1.5)


def test_sweep_midpoints_near_the_float_limit_stay_finite():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        outcome = dk.sweep_threshold([(1.7e308, "bot"), (1.6e308, "human"), (1.65e308, "bot")])
    thresholds = [r.threshold for r in outcome.curve]
    assert thresholds[1:3] == [1.6e308 / 2 + 1.65e308 / 2, 1.65e308 / 2 + 1.7e308 / 2]
    assert thresholds == sorted(set(thresholds)) and all(map(math.isfinite, thresholds))
    assert outcome.best.f1 == 1.0
    assert outcome.best.threshold == thresholds[1]


def test_sweep_sentinels_lie_strictly_beyond_the_extremes():
    big = 2.0**60
    curve = dk.sweep_threshold([(big, "bot"), (-big, "human"), (0.0, "bot")]).curve
    assert curve[0].threshold == math.nextafter(-big, -math.inf)
    assert curve[-1].threshold == math.nextafter(big, math.inf)
    assert (curve[0].precision, curve[0].recall) == (2 / 3, 1.0)
    assert (curve[-1].precision, curve[-1].recall, curve[-1].f1) == (0.0, 0.0, 0.0)
    # Where one unit still counts, the sentinels stay one unit out.
    curve = dk.sweep_threshold([(10.0, "bot"), (4.0, "human")]).curve
    assert (curve[0].threshold, curve[-1].threshold) == (3.0, 11.0)


def test_sweep_sentinels_stay_finite_at_the_largest_float():
    top = sys.float_info.max
    outcome = dk.sweep_threshold([(top, "bot"), (-top, "human")])
    assert [r.threshold for r in outcome.curve] == [-top, 0.0, top]
    assert outcome.best.f1 == 1.0


def brute_force_best_f1(scores):
    values = sorted({v for v, _ in scores})
    candidates = values + [values[-1] + 1.0]
    best = 0.0
    for threshold in candidates:
        tp = sum(1 for v, l in scores if l == "bot" and v >= threshold)
        fp = sum(1 for v, l in scores if l == "human" and v >= threshold)
        fn = sum(1 for v, l in scores if l == "bot" and v < threshold)
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * p * r / (p + r) if p + r else 0.0
        best = max(best, f1)
    return best


def test_sweep_matches_brute_force_on_random_data():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(2, 20))
        scores = [(float(rng.integers(0, 15)), "bot" if rng.random() < 0.5 else "human")
                  for _ in range(n)]
        labels = {l for _, l in scores}
        if labels != {"bot", "human"}:
            continue
        outcome = dk.sweep_threshold(scores)
        assert outcome.best.f1 == pytest.approx(brute_force_best_f1(scores))
        assert outcome.best.f1 == max(r.f1 for r in outcome.curve)


def test_sweep_tie_returns_smallest_threshold():
    # F1 = 2/3 both when everything is predicted bot (threshold 3) and when
    # only the top bot is (threshold 9); the smaller threshold must win.
    outcome = dk.sweep_threshold([(10, "bot"), (4, "bot"), (8, "human"), (6, "human")])
    ties = [r.threshold for r in outcome.curve if r.f1 == pytest.approx(outcome.best.f1)]
    assert len(ties) >= 2
    assert outcome.best.threshold == pytest.approx(3.0)
    assert outcome.best.f1 == pytest.approx(2 / 3)


def counted_sweep(scores):
    """The sweep by direct counting: every candidate compared with every value."""
    bots = np.array([v for v, label in scores if label == "bot"])
    humans = np.array([v for v, label in scores if label == "human"])
    values = sorted({v for v, _ in scores})
    candidates = ([values[0] - 1.0] + [(a + b) / 2.0 for a, b in zip(values, values[1:])]
                  + [values[-1] + 1.0])
    curve = []
    for threshold in candidates:
        tp = int(np.count_nonzero(bots >= threshold))
        fp = int(np.count_nonzero(humans >= threshold))
        fn = len(bots) - tp
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        curve.append(dk.ThresholdResult(threshold, f1, precision, recall))
    best = curve[0]
    for result in curve[1:]:
        if result.f1 > best.f1:
            best = result
    return best, tuple(curve)


def assert_sweep_equals_counting(scores):
    best, curve = counted_sweep(scores)
    outcome = dk.sweep_threshold(scores)
    assert outcome.curve == curve
    assert outcome.best == best


def test_sweep_curve_equals_direct_counting_with_ties():
    rng = np.random.default_rng(5)
    checked = 0
    for _ in range(300):
        # Few distinct values, two of them adjacent floats, so most rows tie.
        pool = np.concatenate([rng.integers(0, 6, 4), rng.random(2), [0.3, 0.1 + 0.2]])
        n = int(rng.integers(2, 60))
        scores = [(float(rng.choice(pool)), "bot" if rng.random() < 0.5 else "human")
                  for _ in range(n)]
        if {label for _, label in scores} == {"bot", "human"}:
            assert_sweep_equals_counting(scores)
            checked += 1
    assert checked > 250


def test_sweep_curve_equals_direct_counting_on_simulated_scores():
    scores = simulate_scores(n_bots=10_000, n_humans=10_000, rng_seed=3)
    assert_sweep_equals_counting(scores)


# ---------------------------------------------------------------------------
# Recall


def test_recall_at_examples():
    scores = [(1.0, "bot"), (2.0, "bot"), (3.0, "bot")]
    assert dk.recall_at(scores, 2.5) == pytest.approx(1 / 3)
    assert dk.recall_at(scores, 0.0) == 1.0
    assert dk.recall_at([(1.0, "bot"), (2.0, "bot")], 2.5) == 0.0
    with pytest.raises(ValueError):
        dk.recall_at([(1.0, "human")], 2.5)


# ---------------------------------------------------------------------------
# Welch t-test


def test_welch_fixture():
    result = dk.welch_t([1, 2, 3], [4, 5, 6])
    assert result.t == pytest.approx(-3.674, abs=1e-3)
    assert result.df == pytest.approx(4.0, abs=1e-9)


def test_welch_identical_samples():
    result = dk.welch_t([1, 2, 3], [1, 2, 3])
    assert result.t == 0.0
    assert result.p == pytest.approx(1.0)


def test_welch_sign_follows_means():
    assert dk.welch_t([5, 6, 7], [1, 2, 3]).t > 0
    assert dk.welch_t([1, 2, 3], [5, 6, 7]).t < 0


def test_welch_errors():
    with pytest.raises(ValueError):
        dk.welch_t([1], [2, 3])
    with pytest.raises(ValueError):
        dk.welch_t([2, 2, 2], [3, 3, 3])
    with pytest.raises(ValueError, match="not finite"):
        dk.welch_t([1e308, -1e308], [1e308, -1e308])
    # numpy's variance of this constant sample is 1.9e-29, the rounding of its mean.
    with pytest.raises(ValueError, match="degenerate"):
        dk.welch_t([0.0, 0.0], [22.044602925845844] * 3)


def test_welch_tiny_samples_keep_their_precision():
    # The variance of [0, c] is about 4.9e-322 here, subnormal when computed
    # unscaled, which moved t to -1.005.
    c = 3.1272911542522752e-161
    for sample in ([0.0, c], [0.0, c / 2], [0.0, 5e-324]):
        result = dk.welch_t([0.0, 0.0], sample)
        assert result.t == pytest.approx(-1.0, rel=1e-12)
        assert result.df == pytest.approx(1.0, rel=1e-12)
    # Beside a constant sample of magnitude 50 the variance of [0, 1e-300]
    # underflows to zero unless the spread, not the magnitude, sets the scale.
    result = dk.welch_t([50.0, 50.0], [0.0, 1e-300])
    assert result.t == pytest.approx(1e302, rel=1e-12)
    assert result.df == pytest.approx(1.0, rel=1e-12)


def _rounding_shift(sample):
    """How far rounding each value by one step can move the sample's variance."""
    if np.ptp(sample) == 0:
        return 0.0
    step = np.spacing(np.max(np.abs(sample)))
    return step * (np.ptp(sample) + step)


@given(st.lists(st.floats(-50, 50), min_size=2, max_size=12),
       st.lists(st.floats(-50, 50), min_size=2, max_size=12),
       st.floats(0.1, 10))
@example(a=[0.0, 1e-7], b=[50.0, 50.0], k=0.3)
@settings(max_examples=100)
def test_welch_antisymmetry_and_scale_invariance(a, b, k):
    # Scaling by k rounds each value by up to one step, which can move the
    # variance of a non-constant sample by about step * (spread + step); a
    # constant sample stays constant. With at most 12 observations the
    # combined variance is at least spread**2 / 264 for the wider spread, so
    # t is checked only where that rounding moves it by well under rel=1e-6,
    # and where t is finite: with values within +-50, |t| < 1e4 / spread.
    spread = max(np.ptp(a), np.ptp(b))
    if max(_rounding_shift(a), _rounding_shift(b)) >= 1e-9 * spread**2 or spread < 1e-300:
        return
    forward = dk.welch_t(a, b)
    backward = dk.welch_t(b, a)
    assert forward.t == pytest.approx(-backward.t, rel=1e-9, abs=1e-12)
    scaled = dk.welch_t([k * x for x in a], [k * x for x in b])
    assert scaled.t == pytest.approx(forward.t, rel=1e-6, abs=1e-9)
