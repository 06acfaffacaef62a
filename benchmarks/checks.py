"""Output checks for the benchmark workloads.

Every check is computed apart from the program: either from the raw input
files, parsed here with the standard library, or as a property the method
must have (the handshake identity, conservation of accounts, a recall that
never rises with the threshold). None compares against stored output.

A check is a function ``check(out, ctx)`` that raises ``CheckFailed``.
"""

from __future__ import annotations

import csv
import json
import math
import re
import unicodedata
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# What the paper's method looks for; restated here, not imported, so a
# change to the program's defaults shows up as a failed check.
SELF_REVEAL_PHRASE = "as an ai language model"
SEED_DOMAINS = frozenset({"fox8.news", "cryptnomics.org", "globaleconomics.news"})
BOT, HUMAN = "bot", "human"
TOP_K = 10

# Paper figures the generator plants and the method must recover.
FOLLOW_IN_DEGREE = (13.7, 0.5)
FOLLOWER_MEAN = (74.0, 3.0)
SWEEP_THRESHOLD = (52.7, 1.5)
SWEEP_F1 = (0.84, 0.02)


class CheckFailed(Exception):
    pass


def _reject_constant(name):
    raise CheckFailed(f"non-finite JSON constant {name}")


def strict_loads(text: str):
    """json.loads that rejects NaN, Infinity and -Infinity."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"invalid JSON: {exc}") from exc


def strict_load(path: Path):
    return strict_loads(Path(path).read_text(encoding="utf-8"))


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise CheckFailed(f"{Path(path).name}: empty file")
    return rows[0], rows[1:]


def _finite(text: str, where: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise CheckFailed(f"{where}: not a number: {text!r}") from exc
    if not math.isfinite(value):
        raise CheckFailed(f"{where}: non-finite value {text!r}")
    return value


def _close(a: float, b: float, rel: float = 1e-9) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=1e-12)


def _within(value: float, target: tuple[float, float], what: str) -> None:
    centre, tol = target
    if not abs(value - centre) <= tol:
        raise CheckFailed(f"{what} {value:.4f} outside {centre} ± {tol}")


# ---------------------------------------------------------------------------
# Independent tallies from the raw corpus files

_URL_HOST_RE = re.compile(r"^[A-Za-z][A-Za-z0-9+.-]*://([^/?#]*)")


def url_host(url: str) -> str | None:
    """Lowercased host of a URL with port, userinfo and leading www. removed."""
    match = _URL_HOST_RE.match(url.strip())
    if not match:
        return None
    host = match.group(1).rsplit("@", 1)[-1].split(":", 1)[0].lower().rstrip(".")
    while host.startswith("www."):
        host = host[4:]
    return host or None


def _match_form(text: str) -> str:
    return " ".join(unicodedata.normalize("NFKC", text).lower().split())


@dataclass
class RawCorpus:
    """Tallies from one pass over the raw JSONL/CSV files."""

    accounts: set = field(default_factory=set)
    group_of: dict[str, str] = field(default_factory=dict)
    follow_pairs: set = field(default_factory=set)
    n_tweets: int = 0
    authors: set = field(default_factory=set)
    self_reveal: set = field(default_factory=set)
    seed_accounts: set = field(default_factory=set)
    reply_pairs: set = field(default_factory=set)
    retweet_pairs: set = field(default_factory=set)
    hashtags: dict = field(default_factory=dict)
    amplified: dict = field(default_factory=dict)
    domains: dict = field(default_factory=dict)

    def members(self, group: str) -> set[str]:
        return {a for a, g in self.group_of.items() if g == group}

    def within(self, pairs, group: str) -> set:
        return {(s, t) for s, t in pairs
                if self.group_of.get(s) == group and self.group_of.get(t) == group}


def _jsonl(path: Path, skip: set[int]):
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if lineno not in skip and line.strip():
                yield json.loads(line)


def tally_corpus(corpus: Path, planted=()) -> RawCorpus:
    """Tally the raw files, skipping the lines the benchmark planted."""
    skip: dict[str, set[int]] = {}
    for rec in planted:
        skip.setdefault(rec["file"], set()).add(rec["line"])
    raw = RawCorpus()
    for obj in _jsonl(corpus / "accounts.jsonl", skip.get("accounts.jsonl", set())):
        raw.accounts.add(str(obj["account_id"]))
    with open(corpus / "labels.csv", "r", encoding="utf-8", newline="") as fh:
        for lineno, row in enumerate(csv.DictReader(fh), start=2):
            if lineno not in skip.get("labels.csv", set()):
                raw.group_of.setdefault(row["account_id"], row["group_name"])
    for obj in _jsonl(corpus / "edges.jsonl", skip.get("edges.jsonl", set())):
        if obj["source"] != obj["target"]:
            raw.follow_pairs.add((obj["source"], obj["target"]))

    for group in set(raw.group_of.values()):
        raw.hashtags[group], raw.amplified[group], raw.domains[group] = (
            Counter(), Counter(), Counter())
    for obj in _jsonl(corpus / "tweets.jsonl", skip.get("tweets.jsonl", set())):
        raw.n_tweets += 1
        author, kind = obj["author_id"], obj["kind"]
        raw.authors.add(author)
        if SELF_REVEAL_PHRASE in _match_form(obj["text"]):
            raw.self_reveal.add(obj["tweet_id"])
        hosts = [h for h in map(url_host, obj.get("urls") or []) if h]
        if SEED_DOMAINS.intersection(hosts):
            raw.seed_accounts.add(author)
        reply_to, referenced = obj.get("in_reply_to_account"), obj.get("referenced_account")
        if kind == "reply" and reply_to and reply_to != author:
            raw.reply_pairs.add((author, reply_to))
        if kind == "retweet" and referenced and referenced != author:
            raw.retweet_pairs.add((author, referenced))
        group = raw.group_of.get(author)
        if group is None:
            continue
        raw.hashtags[group].update(
            t for t in (str(tag).strip().lstrip("#").lower() for tag in obj.get("hashtags") or [])
            if t)
        raw.domains[group].update(hosts)
        target = reply_to if kind == "reply" else referenced if kind in ("retweet", "quote") \
            else None
        if target and raw.group_of.get(target) != group:
            raw.amplified[group][target] += 1
    return raw


def top_k(counter: Counter, k: int = TOP_K) -> list[list[str]]:
    ranked = sorted(counter.items(), key=lambda item: (-item[1], item[0]))[:k]
    return [[str(rank), name, str(count)] for rank, (name, count) in enumerate(ranked, start=1)]


# ---------------------------------------------------------------------------
# Check context


@dataclass
class Context:
    """What a check may consult besides the output directory."""

    inputs: Path
    manifest: dict
    stdout: dict[str, str]          # op name -> the op's captured stdout
    labeled_scores: Path | None = None
    raw: RawCorpus | None = None    # tallies of the input corpus, if there is one

    def summary(self, op: str) -> dict:
        lines = self.stdout.get(op, "").strip().splitlines()
        if not lines:
            raise CheckFailed(f"{op}: no --json summary on stdout")
        return strict_loads(lines[-1])

    @property
    def full_scale(self) -> bool:
        return self.manifest.get("scale") == "full"


def check_summary_lines(out: Path, ctx: Context) -> None:
    """Every op's --json line is strict JSON with status ok."""
    for op in ctx.stdout:
        summary = ctx.summary(op)
        if summary.get("status") != "ok" or summary.get("command") != op:
            raise CheckFailed(f"{op}: summary {summary.get('command')}/{summary.get('status')}")


def check_json_files(out: Path, ctx: Context) -> None:
    """Every JSON output parses with a parser that rejects NaN and Infinity."""
    files = sorted(out.rglob("*.json"))
    if not files:
        raise CheckFailed("no JSON outputs")
    for path in files:
        strict_load(path)


# ---------------------------------------------------------------------------
# fox8-report


def check_report_rankings(out: Path, ctx: Context) -> None:
    raw = ctx.raw
    for name, counter in (("fig4_hashtags.csv", raw.hashtags[BOT]),
                          ("fig4_amplified.csv", raw.amplified[BOT]),
                          ("fig5_domains.csv", raw.domains[BOT])):
        _, rows = read_csv(out / name)
        expected = top_k(counter)
        if rows != expected:
            raise CheckFailed(f"{name}: {rows} differs from the raw tally {expected}")


def check_report_self_reveal(out: Path, ctx: Context) -> None:
    expected = len(ctx.raw.self_reveal)
    reported = ctx.summary("report")["metrics"]["n_self_revealing"]
    _, rows = read_csv(out / "table1_categories.csv")
    category_sum = sum(int(row[1]) for row in rows)
    if reported != expected or category_sum != expected:
        raise CheckFailed(f"self-revealing: reported {reported}, categories sum to "
                          f"{category_sum}, substring count {expected}")


def _histograms(rows, kind_col: int) -> dict:
    hist: dict = {}
    for row in rows:
        kind, direction, degree, count = row[kind_col:kind_col + 4]
        hist.setdefault(kind, {}).setdefault(direction, Counter())[int(degree)] += int(count)
    return hist


def _degree_histograms(pairs, nodes) -> dict[str, Counter]:
    ins = Counter({n: 0 for n in nodes})
    outs = Counter({n: 0 for n in nodes})
    for s, t in pairs:
        outs[s] += 1
        ins[t] += 1
    return {"in": Counter(ins.values()), "out": Counter(outs.values())}


def check_report_degrees(out: Path, ctx: Context) -> None:
    raw = ctx.raw
    bots = raw.members(BOT)
    edges = {"follow": raw.within(raw.follow_pairs, BOT),
             "reply": raw.within(raw.reply_pairs, BOT),
             "retweet": raw.within(raw.retweet_pairs, BOT)}
    _, rows = read_csv(out / "fig2_degrees.csv")
    hist = _histograms(rows, 0)
    for kind, pairs in edges.items():
        got = hist.get(kind, {})
        ins, outs = got.get("in", Counter()), got.get("out", Counter())
        in_sum = sum(d * c for d, c in ins.items())
        out_sum = sum(d * c for d, c in outs.items())
        if in_sum != out_sum:
            raise CheckFailed(f"{kind}: handshake broken, in {in_sum} != out {out_sum}")
        if sum(ins.values()) != len(bots) or sum(outs.values()) != len(bots):
            raise CheckFailed(f"{kind}: histogram covers {sum(ins.values())} nodes, "
                              f"group has {len(bots)}")
        expected = _degree_histograms(pairs, bots)
        if ins != expected["in"] or outs != expected["out"] or in_sum != len(pairs):
            raise CheckFailed(f"{kind}: degree histogram does not match the "
                              f"{len(pairs)} within-bot edges counted from the raw files")


def check_report_pair_rate(out: Path, ctx: Context) -> None:
    raw = ctx.raw
    n = len(raw.members(BOT))
    pairs = len(raw.within(raw.reply_pairs, BOT))
    _, rows = read_csv(out / "fig2_pairrates.csv")
    row = next((r for r in rows if r[:3] == ["reply", BOT, BOT]), None)
    if row is None:
        raise CheckFailed("fig2_pairrates.csv: no reply bot->bot row")
    rate = _finite(row[4], "reply bot->bot rate")
    if int(row[3]) != pairs or not _close(rate, pairs / (n * (n - 1)), 1e-12):
        raise CheckFailed(f"reply bot->bot: {row[3]} pairs at rate {rate}, expected "
                          f"{pairs} / ({n}*{n - 1}) = {pairs / (n * (n - 1))}")


def _check_ternary_rows(rows, active: dict[str, int], name: str) -> None:
    totals: Counter = Counter()
    sums = set()
    for row in rows:
        group, i, j, k, count = row[0], *map(int, row[1:])
        sums.add(i + j + k)
        totals[group] += count
    if len(sums) > 1:
        raise CheckFailed(f"{name}: lattice coordinates sum to {sorted(sums)}")
    for group, n_active in active.items():
        if totals[group] != n_active:
            raise CheckFailed(f"{name}: {group} bins hold {totals[group]} accounts, "
                              f"{n_active} have tweets")


def check_report_ternary(out: Path, ctx: Context) -> None:
    raw = ctx.raw
    _, rows = read_csv(out / "fig3_ternary.csv")
    active = {g: len(raw.members(g) & raw.authors) for g in (BOT, HUMAN)}
    _check_ternary_rows(rows, active, "fig3_ternary.csv")


def check_report_recovery(out: Path, ctx: Context) -> None:
    """Planted generator parameters come back out (statistical: full scale only)."""
    if not ctx.full_scale:
        return
    _, rows = read_csv(out / "fig2_degrees.csv")
    ins = _histograms(rows, 0).get("follow", {}).get("in", Counter())
    nodes = sum(ins.values())
    _within(sum(d * c for d, c in ins.items()) / max(nodes, 1), FOLLOW_IN_DEGREE,
            "follow in-degree mean")
    profiles = strict_load(out / "fig1_profiles.json")
    _within(profiles[BOT]["follower_mean"], FOLLOWER_MEAN, "bot follower mean")


def check_curve(path: Path, best_threshold: float, best_f1: float) -> None:
    """The best row has the highest F1; recall never rises with the threshold."""
    _, rows = read_csv(path)
    if not rows:
        raise CheckFailed(f"{path.name}: empty curve")
    curve = [[_finite(v, f"{path.name}:{n}") for v in row] for n, row in enumerate(rows, 2)]
    thresholds = [r[0] for r in curve]
    if any(b <= a for a, b in zip(thresholds, thresholds[1:])):
        raise CheckFailed(f"{path.name}: thresholds do not strictly increase")
    for n, (prev, cur) in enumerate(zip(curve, curve[1:]), start=3):
        if cur[2] > prev[2]:
            raise CheckFailed(f"{path.name}:{n}: recall rises with the threshold")
    if any(not 0.0 <= v <= 1.0 for r in curve for v in r[1:]):
        raise CheckFailed(f"{path.name}: precision/recall/F1 outside [0, 1]")
    top = max(r[3] for r in curve)
    first = next(r for r in curve if r[3] == top)
    if best_f1 != top or best_threshold != first[0]:
        raise CheckFailed(f"{path.name}: best row ({best_threshold}, F1 {best_f1}) is not "
                          f"the first highest-F1 row ({first[0]}, F1 {top})")


def check_report_sweep(out: Path, ctx: Context) -> None:
    metrics = ctx.summary("report")["metrics"]
    check_curve(out / "fig8_sweep.csv", metrics["best_threshold"], metrics["best_f1"])


REPORT_CHECKS = (check_summary_lines, check_json_files, check_report_rankings,
                 check_report_self_reveal, check_report_degrees, check_report_pair_rate,
                 check_report_ternary, check_report_recovery, check_report_sweep)


# ---------------------------------------------------------------------------
# sweep and ttest (staged-distinct and tweet-sweep)


def read_labeled(path: Path) -> tuple[np.ndarray, np.ndarray]:
    values, labels = [], []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            values.append(float(row["value"]))
            labels.append(row["label"].strip())
    return np.array(values), np.array(labels)


def best_f1(values: np.ndarray, labels: np.ndarray) -> float:
    """Highest F1 over every cut of the sorted scores (predict bot iff value >= t)."""
    order = np.argsort(-values, kind="stable")
    ranked, is_bot = values[order], labels[order] == BOT
    tp = np.cumsum(is_bot)
    fp = np.cumsum(~is_bot)
    cut = np.r_[ranked[1:] != ranked[:-1], True]   # below the last copy of a value
    tp, fp = tp[cut], fp[cut]
    positives = int(is_bot.sum())
    f1 = 2.0 * tp / (tp + fp + positives)
    return float(max(f1.max(), 0.0))


def check_sweep(out: Path, ctx: Context) -> None:
    summary = strict_load(out / "summary.json")
    values, labels = read_labeled(ctx.labeled_scores)
    expected = best_f1(values, labels)
    if not _close(summary["f1"], expected):
        raise CheckFailed(f"sweep: best F1 {summary['f1']} != recomputed {expected}")
    check_curve(out / "sweep_curve.csv", summary["best_threshold"], summary["f1"])
    if ctx.summary("sweep")["metrics"]["f1"] != summary["f1"]:
        raise CheckFailed("sweep: --json F1 differs from summary.json")


def check_sweep_reference(out: Path, ctx: Context) -> None:
    """The paper's threshold and F1 come back from the simulated distributions."""
    summary = strict_load(out / "summary.json")
    _within(summary["best_threshold"], SWEEP_THRESHOLD, "sweep threshold")
    _within(summary["f1"], SWEEP_F1, "sweep F1")


def check_ttest(out: Path, ctx: Context) -> None:
    from scipy import stats

    result = strict_load(out / "ttest.json")
    values, labels = read_labeled(ctx.labeled_scores)
    bots, humans = values[labels == BOT], values[labels == HUMAN]
    ref = stats.ttest_ind(bots, humans, equal_var=False)
    if not (_close(result["t"], float(ref.statistic)) and _close(result["df"], float(ref.df))):
        raise CheckFailed(f"ttest: t={result['t']} df={result['df']}, scipy gives "
                          f"t={float(ref.statistic)} df={float(ref.df)}")
    if (result["n_bot"], result["n_human"]) != (len(bots), len(humans)):
        raise CheckFailed(f"ttest: sample sizes {result['n_bot']}/{result['n_human']}")


SWEEP_CHECKS = (check_summary_lines, check_json_files, check_sweep, check_sweep_reference,
                check_ttest)


# ---------------------------------------------------------------------------
# staged-distinct


def check_validation_report(out: Path, ctx: Context) -> None:
    _, rows = read_csv(out / "validation_report.csv")
    got = sorted((r[0], int(r[1]) if r[1] else -1, r[3]) for r in rows)
    planted = sorted((p["file"], p["line"], p["rule"]) for p in ctx.manifest["planted"])
    if got != planted:
        raise CheckFailed(f"validation_report.csv: {sorted(set(got) ^ set(planted))[:5]} "
                          f"differ from the planted lines")
    summary = strict_load(out / "corpus_summary.json")
    raw = ctx.raw
    expected = {"n_accounts": len(raw.accounts), "n_tweets": raw.n_tweets,
                "n_follow_edges": len(raw.follow_pairs), "n_load_violations": len(planted),
                "n_invariant_violations": 0}
    wrong = {k: summary.get(k) for k, v in expected.items() if summary.get(k) != v}
    if wrong:
        raise CheckFailed(f"corpus_summary.json: {wrong}, raw files give {expected}")


def check_hits(out: Path, ctx: Context) -> None:
    _, rows = read_csv(out / "hits.csv")
    got = {r[0] for r in rows}
    if got != ctx.raw.self_reveal or len(rows) != len(got):
        raise CheckFailed(f"hits.csv: {len(rows)} hits, substring count "
                          f"{len(ctx.raw.self_reveal)}")
    _, summary_rows = read_csv(out / "category_summary.csv")
    if sum(int(r[1]) for r in summary_rows) != len(got):
        raise CheckFailed("category_summary.csv: counts do not sum to the hits")


def check_expanded(out: Path, ctx: Context) -> None:
    _, rows = read_csv(out / "expanded_accounts.csv")
    got = [r[0] for r in rows]
    if set(got) != ctx.raw.seed_accounts or len(got) != len(set(got)):
        raise CheckFailed(f"expanded_accounts.csv: {len(got)} accounts, raw files give "
                          f"{len(ctx.raw.seed_accounts)}")


def check_follow_edges(out: Path, ctx: Context) -> None:
    raw = ctx.raw
    expected = raw.within(raw.follow_pairs, BOT)
    _, rows = read_csv(out / "follow_edges.csv")
    got = {(r[0], r[1]) for r in rows}
    if got != expected or len(rows) != len(got) or any(r[2] != "1" for r in rows):
        raise CheckFailed(f"follow_edges.csv: {len(rows)} edges, raw files give "
                          f"{len(expected)} within-bot follows")
    summary = strict_load(out / "follow_degree_summary.json")
    n = len(raw.members(BOT))
    if (summary["n_edges"], summary["n_nodes"]) != (len(expected), n) or \
            not _close(summary["mean_in"], len(expected) / n, 1e-12):
        raise CheckFailed(f"follow_degree_summary.json: {summary['n_edges']} edges over "
                          f"{summary['n_nodes']} nodes, mean in {summary['mean_in']}")


def check_content_ternary(out: Path, ctx: Context) -> None:
    raw = ctx.raw
    _, rows = read_csv(out / "ternary_bins.csv")
    _check_ternary_rows([[BOT, *r] for r in rows],
                        {BOT: len(raw.members(BOT) & raw.authors)}, "ternary_bins.csv")


def check_scores(out: Path, ctx: Context) -> None:
    _, rows = read_csv(out / "account_scores.csv")
    for n, row in enumerate(rows, start=2):
        value = _finite(row[2], f"account_scores.csv:{n}")
        if not 0.0 <= value <= 100.0 or int(row[1]) < 1:
            raise CheckFailed(f"account_scores.csv:{n}: score {value} over {row[1]} texts")
    metrics = ctx.summary("score")["metrics"]
    n_accounts = len(ctx.raw.accounts)
    if metrics["n_scored"] + metrics["n_unscored"] != n_accounts or \
            len(rows) != metrics["n_scored"]:
        raise CheckFailed(f"score: {metrics['n_scored']} scored + {metrics['n_unscored']} "
                          f"unscored, {len(rows)} rows, {n_accounts} accounts")


STAGED_CHECKS = (check_summary_lines, check_json_files, check_validation_report, check_hits,
                 check_expanded, check_follow_edges, check_content_ternary, check_scores,
                 check_sweep, check_ttest)

CHECKS = {
    "fox8-report": REPORT_CHECKS,
    "staged-distinct": STAGED_CHECKS,
    "tweet-sweep": SWEEP_CHECKS,
}


def run_checks(workload: str, out: Path, ctx: Context) -> list[str]:
    """Run every check of the workload; returns the failure messages."""
    failures = []
    for check in CHECKS[workload]:
        try:
            check(out, ctx)
        except (CheckFailed, OSError, KeyError, ValueError, IndexError, TypeError) as exc:
            failures.append(f"{check.__name__}: {type(exc).__name__}: {exc}")
    return failures
