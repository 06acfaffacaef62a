"""Input generation for the benchmark workloads.

Run as its own process by ``run.py`` so that set-up time and memory are
measured apart from the timed CLI processes:

    python3 benchmarks/workloads.py --workload staged-distinct --seed 1 --out DIR

Each workload's inputs are a pure function of (workload, seed, scale). The
files the program reads go under ``DIR``; ``DIR/manifest.json`` holds what
only the benchmark knows (the planted bad lines), and is never passed to the
program.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

WORKLOADS = ("fox8-report", "staged-distinct", "tweet-sweep")

# Corpus sizes (bots, humans) and score-row counts per scale. "full" is what
# the benchmark measures; "smoke" keeps every code path but runs in seconds.
SCALES = {
    "full": {
        "fox8-report": {"n_bots": None, "n_humans": None},  # synth's fox8 defaults
        "staged-distinct": {"n_bots": 100, "n_humans": 100},
        "tweet-sweep": {"n_bots": 50_000, "n_humans": 50_000},
    },
    "smoke": {
        "fox8-report": {"n_bots": 40, "n_humans": 40},
        "staged-distinct": {"n_bots": 30, "n_humans": 30},
        "tweet-sweep": {"n_bots": 1140, "n_humans": 1140},
    },
}

MANIFEST = "manifest.json"
CORPUS_DIR = "corpus"
SCORES_FILE = "scores.csv"

# Ordinary words for the distinct per-tweet suffix. None of them touches the
# self-reveal phrase or a category trigger, so appending them changes no
# identification result.
SUFFIX_WORDS = (
    "amber basket candle desert engine feather garden harbor island jacket "
    "kettle ladder meadow needle orchard pepper quilt ribbon saddle tunnel "
    "umbrella valley wagon yarn zebra anchor blanket canyon daisy elbow fabric "
    "granite hollow insect jungle kernel lantern marble nickel oyster pebble "
    "quarry rocket silver timber velvet walnut yellow bridge castle dragon "
    "falcon glacier hammer ivory jasmine koala lemon mirror noodle olive "
    "parrot raven lotus"
).split()


def _synth(seed: int, sizes: dict, out: Path) -> None:
    from botsieve.cli import run

    argv = ["synth", "--preset", "fox8", "--seed", str(seed), "--out", str(out)]
    if sizes["n_bots"] is not None:
        argv += ["--n-bots", str(sizes["n_bots"]), "--n-humans", str(sizes["n_humans"])]
    code = run(argv)
    if code != 0:
        raise RuntimeError(f"botsieve synth exited {code}")


def _suffix(index: int, perm: list[int]) -> str:
    # Three base-64 digits of the tweet's position: distinct for every tweet
    # below 64**3 = 262,144, which bounds the staged corpus size.
    words = []
    for _ in range(3):
        words.append(SUFFIX_WORDS[perm[index % len(perm)]])
        index //= len(perm)
    return " ".join(words)


def _tweet_obj(tweet_id: str, author_id: str, **overrides) -> dict:
    obj = {
        "tweet_id": tweet_id, "author_id": author_id,
        "created_at": "2022-11-01T00:00:00Z", "text": "planted line",
        "kind": "original", "in_reply_to_account": None, "referenced_account": None,
        "hashtags": [], "urls": [], "language": "en",
    }
    obj.update(overrides)
    return obj


def _account_obj(account_id: str, **overrides) -> dict:
    obj = {
        "account_id": account_id, "handle": f"user_{account_id}",
        "created_at": "2020-01-01T00:00:00Z", "follower_count": 1,
        "following_count": 1, "tweet_count": 0, "description": "",
    }
    obj.update(overrides)
    return obj


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def _plant(lines: list[str], planted: list[tuple[str, str]], rng) -> list[tuple[int, str]]:
    """Insert (text, rule) lines at seeded positions; returns (1-based line, rule)."""
    slots = sorted(rng.sample(range(len(lines) + 1), len(planted)), reverse=True)
    marked = [(text, None) for text in lines]
    for slot, (text, rule) in zip(slots, planted):
        marked.insert(slot, (text, rule))
    lines[:] = [text for text, _ in marked]
    return [(lineno, rule) for lineno, (_, rule) in enumerate(marked, start=1) if rule]


def rewrite_staged(corpus: Path, seed: int) -> list[dict]:
    """Give every tweet a distinct word suffix and plant known bad lines.

    Returns the planted lines as {"file", "line", "rule"} records, the exact
    rows the loader must report. Every planted record carries an identifier
    no valid record refers to, so dropping it changes nothing else.
    """
    import random

    rng = random.Random(seed)
    perm = list(range(len(SUFFIX_WORDS)))
    rng.shuffle(perm)

    tweet_path = corpus / "tweets.jsonl"
    tweets = []
    with open(tweet_path, "r", encoding="utf-8") as fh:
        for index, line in enumerate(fh):
            obj = json.loads(line)
            obj["text"] = f"{obj['text']} {_suffix(index, perm)}"
            tweets.append(_dumps(obj))
    some_bot = "b00001"
    planted_tweets = [
        ('{"tweet_id": "planted-t1", "author_id": "b00000", "text": "cut', "invalid-json"),
        ("[1, 2, 3]", "invalid-json"),
        (_dumps(_tweet_obj("planted-t3", some_bot, kind="story")), "bad-kind"),
        (_dumps({k: v for k, v in _tweet_obj("planted-t4", some_bot).items() if k != "text"}),
         "missing-field:text"),
        (_dumps(_tweet_obj("planted-t5", some_bot, created_at="last tuesday")), "bad-timestamp"),
        (_dumps(_tweet_obj("planted-t6", some_bot, hashtags="crypto")), "bad-field:entities"),
        (_dumps({k: v for k, v in _tweet_obj("planted-t7", some_bot).items()
                 if k != "author_id"}), "missing-field:author_id"),
    ]
    records = [{"file": "tweets.jsonl", "line": n, "rule": r}
               for n, r in _plant(tweets, planted_tweets, rng)]
    tweet_path.write_text("".join(t + "\n" for t in tweets), encoding="utf-8")

    account_path = corpus / "accounts.jsonl"
    accounts = account_path.read_text(encoding="utf-8").splitlines()
    planted_accounts = [
        (_dumps(_account_obj("planted-a1", follower_count=-3)), "negative-count"),
        (_dumps(_account_obj("planted-a2", tweet_count="12")), "bad-field:tweet_count"),
        ('{"account_id": "planted-a3", "handle": ', "invalid-json"),
    ]
    records += [{"file": "accounts.jsonl", "line": n, "rule": r}
                for n, r in _plant(accounts, planted_accounts, rng)]
    account_path.write_text("".join(a + "\n" for a in accounts), encoding="utf-8")

    edge_path = corpus / "edges.jsonl"
    edges = edge_path.read_text(encoding="utf-8").splitlines()
    duplicate = edges[rng.randrange(len(edges))]
    planted_edges = [
        (_dumps({"source": some_bot, "target": some_bot}), "self-follow"),
        (_dumps({"source": some_bot}), "missing-field:target"),
    ]
    records += [{"file": "edges.jsonl", "line": n, "rule": r}
                for n, r in _plant(edges, planted_edges, rng)]
    # The copy goes last so the loader keeps the original and reports the copy.
    edges.append(duplicate)
    records.append({"file": "edges.jsonl", "line": len(edges), "rule": "duplicate-edge"})
    edge_path.write_text("".join(e + "\n" for e in edges), encoding="utf-8")

    label_path = corpus / "labels.csv"
    with open(label_path, "a", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["planted-ghost", "bot"])
        writer.writerow(["b00002", ""])
    n_label_lines = len(label_path.read_text(encoding="utf-8").splitlines())
    records += [
        {"file": "labels.csv", "line": n_label_lines - 1, "rule": "partition-unknown-member"},
        {"file": "labels.csv", "line": n_label_lines, "rule": "bad-label-row"},
    ]
    return sorted(records, key=lambda r: (r["file"], r["line"]))


def write_scores(path: Path, seed: int, sizes: dict) -> int:
    from botsieve import synthnet

    rows = synthnet.simulate_scores(n_bots=sizes["n_bots"], n_humans=sizes["n_humans"],
                                    rng_seed=seed)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["value", "label"])
        for value, label in rows:
            writer.writerow([repr(value), label])
    return len(rows)


def make_inputs(workload: str, seed: int, out: Path, scale: str = "full") -> dict:
    """Write the workload's inputs under ``out``; returns the manifest."""
    sizes = SCALES[scale][workload]
    out.mkdir(parents=True, exist_ok=True)
    manifest = {"workload": workload, "seed": seed, "scale": scale, "planted": []}
    if workload == "tweet-sweep":
        manifest["score_rows"] = write_scores(out / SCORES_FILE, seed, sizes)
    else:
        _synth(seed, sizes, out / CORPUS_DIR)
        if workload == "staged-distinct":
            manifest["planted"] = rewrite_staged(out / CORPUS_DIR, seed)
    (out / MANIFEST).write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n",
                                encoding="utf-8")
    return manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", choices=tuple(SCALES), default="full")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    make_inputs(args.workload, args.seed, Path(args.out), args.scale)
    return 0


if __name__ == "__main__":
    sys.exit(main())
