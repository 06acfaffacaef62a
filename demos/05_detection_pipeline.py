"""
Account-level machine-generated-text detection
==============================================

The detection pipeline: qualify and preprocess each account's tweets, score
them with a pluggable detector, average per account, then tune a bot/human
threshold by sweeping F1. Detectors here are local and deterministic; to
reproduce a recorded experiment, freeze real detector outputs into a replay
file and score from that.
"""

import tempfile
from pathlib import Path

from botsieve import BotnetParams, QualificationRules
from botsieve.detectkit import (HeuristicDetector, ReplayDetector, bin_openai,
                                filter_min_qualified, qualify_tweets, recall_at,
                                score_account, score_corpus, sweep_threshold,
                                welch_t, write_replay_scores)
from botsieve.synthnet import generate_botnet, simulate_scores

# --- Qualification -----------------------------------------------------
corpus = generate_botnet(BotnetParams(n_bots=50, rng_seed=41))
some_bot = sorted(corpus.partition["bot"])[0]
texts = qualify_tweets(corpus, some_bot, QualificationRules())
print(f"{some_bot}: {len(corpus.tweets_of(some_bot))} tweets, "
      f"{len(texts)} qualified (English, non-retweet, handles/links stripped)")

# --- Scoring with the transparent heuristic ----------------------------
detector = HeuristicDetector()
scores, unscored = score_corpus(corpus, detector, group=corpus.partition["bot"])
sample = next(iter(scores.values()))
print(f"heuristic detector: {len(scores)} accounts scored, {unscored} had no "
      f"qualified tweets; e.g. {sample.account_id} -> {sample.mean_score:.1f} "
      f"({bin_openai(sample.mean_score).value})")

# --- Replaying recorded scores -----------------------------------------
with tempfile.TemporaryDirectory(prefix="botsieve_demo_") as tmp:
    replay_path = Path(tmp) / "replay_scores.jsonl"
    write_replay_scores(replay_path, {"thank you": 61.0, "amen": 64.2,
                                      "a longer, ordinary status update": 28.0})
    replay = ReplayDetector.from_file(replay_path)
short_account = score_account("short-tweeter", ["thank you"], replay)
print(f"\nreplayed scores: lone 'thank you' averages {short_account.mean_score}")
print(f"kept after a >=4 qualified-tweet filter: "
      f"{len(filter_min_qualified([short_account], 4))} accounts "
      f"(very short tweets score deceptively high)")

# --- Threshold tuning on account-level score distributions -------------
labeled = simulate_scores(n_bots=1140, n_humans=1140, rng_seed=1140)
outcome = sweep_threshold(labeled)
print(f"\nsimulated benchmark (1,140 bots vs 1,140 humans):")
print(f"  best threshold {outcome.best.threshold:.1f}: "
      f"F1 {outcome.best.f1:.3f}, precision {outcome.best.precision:.3f}, "
      f"recall {outcome.best.recall:.3f}")

bots = [v for v, label in labeled if label == "bot"]
humans = [v for v, label in labeled if label == "human"]
test = welch_t(bots, humans)
print(f"  group separation: t = {test.t:.1f}, p = {test.p:.2e}")

# A generic supervised bot score that never fires on these accounts:
legacy = [(0.4, "bot"), (1.1, "bot"), (1.9, "bot"), (2.2, "bot")]
print(f"  legacy 0-5 bot score at threshold 2.5: recall {recall_at(legacy, 2.5):.2f}")
