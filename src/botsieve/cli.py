"""Command-line surface: file-driven pipeline stages over offline corpora.

Every subcommand reads corpus/score files, writes CSV/JSON outputs into an
output directory, and (with --json) prints a machine-readable summary on
stdout that validates against schemas/cli_summary.schema.json. Re-running a
subcommand with identical inputs overwrites outputs byte-identically.

Exit codes: 0 success, 1 usage error, 2 data error, 3 internal error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

from . import contentstats, detectkit, graphlab, linkmap, seedscan, synthnet
from .corpus import (ACCOUNTS_FILE, EDGES_FILE, LABELS_FILE, TWEETS_FILE, Corpus,
                     GroupPartition, _csv_records, _text_lines, cap_tweets, export_corpus,
                     load_corpus, validate)

SUBCOMMANDS = ("ingest", "scan-phrases", "expand-domains", "graph-stats",
               "content-stats", "score", "sweep", "ttest", "synth", "report")

OUTPUT_DIR_ENV = "BOTSIEVE_OUT"


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# Small deterministic writers

def _write_csv(path: Path, header, rows) -> Path:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def _write_json(path: Path, obj) -> Path:
    # Serialized first, so a non-finite value leaves no partial file behind.
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
    path.write_text(text, encoding="utf-8")
    return path


def _summary(command: str, outputs: dict[str, Path], metrics: dict) -> dict:
    return {
        "command": command,
        "status": "ok",
        "outputs": {name: str(path) for name, path in outputs.items()},
        "metrics": metrics,
    }


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


# ---------------------------------------------------------------------------
# Row builders shared by the single-stage subcommands and `report`, which
# prefixes its edge_kind/group column onto the same rows.

DEGREE_COLUMNS = ("direction", "degree", "count")
PAIR_COLUMNS = ("source_group", "target_group", "pairs_with_edge", "rate")
TERNARY_COLUMNS = ("i", "j", "k", "count")
CATEGORY_COLUMNS = ("category", "count", "percentage")
SWEEP_COLUMNS = ("threshold", "precision", "recall", "f1")


def _graph_stats(corpus: Corpus, kind: str, members):
    """The kind's graph over ``members`` (None: every account), its degree
    summary and the metrics graph-stats reports."""
    graph = graphlab.build_graph(corpus, kind, node_restriction=members)
    summary = graphlab.degree_stats(graph)
    metrics = {
        "mean_in": summary.mean_in, "sd_in": summary.sd_in,
        "mean_out": summary.mean_out, "sd_out": summary.sd_out,
        "n_nodes": graph.n_nodes, "n_edges": graph.n_edges,
        "largest_wcc_size": len(graphlab.largest_wcc(graph)),
    }
    return graph, summary, metrics


def _degree_rows(summary: graphlab.DegreeSummary) -> list[tuple]:
    return ([("in", d, c) for d, c in summary.in_histogram.items()]
            + [("out", d, c) for d, c in summary.out_histogram.items()])


def _pair_rows(graph, partition: GroupPartition) -> list[tuple]:
    matrix = graphlab.pair_rate_matrix(graph, partition)
    return [(src, dst, int(matrix.counts[i, j]), float(matrix.rates[i, j]))
            for i, src in enumerate(matrix.groups) for j, dst in enumerate(matrix.groups)]


def _ternary_rows(points, resolution: int) -> list[tuple]:
    grid = contentstats.ternary_bin(points.values(), resolution)
    return [(i, j, k, c) for (i, j, k), c in grid.bins.items()]


def _rank_rows(ranking) -> list[tuple]:
    return [(r + 1, key, c) for r, (key, c) in enumerate(ranking)]


def _category_rows(corpus: Corpus, hits, ruleset=seedscan.DEFAULT_RULESET) -> list[tuple]:
    return [(row.category.value, row.count, row.percentage)
            for row in seedscan.category_summary(hits.keys(), corpus, ruleset)]


def _sweep_rows(outcome: detectkit.SweepOutcome) -> list[tuple]:
    return [(r.threshold, r.precision, r.recall, r.f1) for r in outcome.curve]


# ---------------------------------------------------------------------------
# Shared argument plumbing

def _add_corpus_command(sub, name: str, handler, help: str):
    """A subcommand that loads a corpus and writes into --out."""
    parser = sub.add_parser(name, help=help)
    parser.add_argument("--corpus-dir", help="directory holding accounts.jsonl, "
                        "tweets.jsonl, edges.jsonl, labels.csv")
    parser.add_argument("--accounts", help="accounts.jsonl path (overrides --corpus-dir)")
    parser.add_argument("--tweets", help="tweets.jsonl path (overrides --corpus-dir)")
    parser.add_argument("--edges", help="edges.jsonl path")
    parser.add_argument("--labels", help="labels.csv path")
    parser.add_argument("--aliases", help="JSON file mapping canonical field names "
                        "to the names used in the input files")
    parser.add_argument("--tweet-cap", type=_positive_int, default=None,
                        help="keep only each account's N most recent tweets")
    _add_out_arg(parser)
    parser.set_defaults(handler=handler)
    return parser


def _add_out_arg(parser):
    parser.add_argument("--out", default=None,
                        help=f"output directory (default: ${OUTPUT_DIR_ENV} or ./botsieve_out)")


def _out_dir(args) -> Path:
    out = Path(args.out or os.environ.get(OUTPUT_DIR_ENV, "botsieve_out"))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _require(path_str: str | None, label: str) -> Path:
    if path_str is None:
        raise UsageError(f"missing required input: {label}")
    path = Path(path_str)
    if not path.exists():
        raise DataError(f"missing artifact: {label} ({path})")
    return path


def _optional(path_str: str | None, default: Path | None) -> Path | None:
    if path_str is not None:
        path = Path(path_str)
        if not path.exists():
            raise DataError(f"missing artifact: {path}")
        return path
    if default is not None and default.exists():
        return default
    return None


def _load_corpus_from_args(args) -> Corpus:
    base = Path(args.corpus_dir) if args.corpus_dir else None
    accounts = args.accounts or (base / ACCOUNTS_FILE if base else None)
    tweets = args.tweets or (base / TWEETS_FILE if base else None)
    account_path = _require(str(accounts) if accounts else None, "accounts.jsonl")
    tweet_path = _require(str(tweets) if tweets else None, "tweets.jsonl")
    edge_path = _optional(args.edges, base / EDGES_FILE if base else None)
    label_path = _optional(args.labels, base / LABELS_FILE if base else None)
    aliases = None
    if args.aliases:
        with open(_require(args.aliases, "aliases file"), "r", encoding="utf-8") as fh:
            aliases = json.load(fh)
    corpus = load_corpus(account_path, tweet_path, edge_path, label_path,
                         field_aliases=aliases)
    if args.tweet_cap is not None:
        corpus = cap_tweets(corpus, args.tweet_cap)
    return corpus


def _group_members(corpus: Corpus, name: str | None):
    if name is None:
        return sorted(corpus.accounts)
    if name not in corpus.partition:
        raise DataError(f"missing artifact: group {name!r} not in labels")
    return sorted(corpus.partition[name])


def _read_scores_csv(path: Path) -> list[tuple[float, str]]:
    """Rows of a value,label CSV; a row without a finite value and a label
    of bot or human is a data error at its line."""
    labels = (detectkit.BOT_LABEL, detectkit.HUMAN_LABEL)
    scores = []
    for lineno, row in _csv_records(path, ("value", "label")):
        try:
            value = float(row["value"])
        except (KeyError, ValueError):
            value = math.nan
        label = row.get("label", "").strip()
        if not math.isfinite(value) or label not in labels:
            raise DataError(f"{path}:{lineno}: need a finite value and a label in "
                            f"{labels}, got {row.get('value')!r},{label!r}")
        scores.append((value, label))
    return scores


def _make_detector(args) -> detectkit.TextDetector:
    scale = (detectkit.PROBABILITY_SCALE if args.scale == "probability"
             else detectkit.OPENAI_STYLE_SCALE)
    if args.detector == "stub":
        return detectkit.StubDetector(key=args.stub_key, score_scale=scale)
    if args.detector == "replay":
        path = _require(args.replay_file, "--replay-file")
        return detectkit.ReplayDetector.from_file(path, score_scale=scale)
    return detectkit.HeuristicDetector()


def _qualification_rules(args) -> detectkit.QualificationRules:
    return detectkit.QualificationRules(
        exclude_retweets=not args.include_retweets,
        english_only=not args.any_language,
        strip_reply_handles=not args.keep_handles,
        strip_links=not args.keep_links,
    )


def _add_detector_args(parser):
    parser.add_argument("--detector", choices=("heuristic", "stub", "replay"),
                        default="heuristic")
    parser.add_argument("--replay-file", help="replay_scores.jsonl for --detector replay")
    parser.add_argument("--stub-key", default="", help="key for --detector stub")
    parser.add_argument("--scale", choices=("openai", "probability"), default="openai")
    parser.add_argument("--include-retweets", action="store_true")
    parser.add_argument("--any-language", action="store_true")
    parser.add_argument("--keep-handles", action="store_true")
    parser.add_argument("--keep-links", action="store_true")


# ---------------------------------------------------------------------------
# Subcommand handlers

def _cmd_ingest(args):
    corpus = _load_corpus_from_args(args)
    report = validate(corpus)
    out = _out_dir(args)
    outputs = {
        "validation_report": _write_csv(
            out / "validation_report.csv",
            ("file", "line", "identifier", "rule", "detail"),
            list(corpus.load_report.to_rows()) + list(report.to_rows()),
        ),
        "corpus_summary": _write_json(out / "corpus_summary.json", {
            "n_accounts": corpus.n_accounts,
            "n_tweets": corpus.n_tweets,
            "n_follow_edges": len(corpus.follow_edges),
            "groups": {name: len(corpus.partition[name]) for name in corpus.partition.names},
            "n_load_violations": len(corpus.load_report),
            "n_invariant_violations": len(report),
        }),
    }
    if args.export:
        exported = export_corpus(corpus, out / "corpus")
        outputs.update({f"export_{k}": v for k, v in exported.items()})
    if args.strict and (corpus.load_report or report):
        raise DataError(
            f"validation failed: {len(corpus.load_report)} load + {len(report)} invariant violations"
        )
    metrics = {
        "n_accounts": corpus.n_accounts,
        "n_tweets": corpus.n_tweets,
        "n_violations": len(corpus.load_report) + len(report),
    }
    return _summary("ingest", outputs, metrics)


def _cmd_scan_phrases(args):
    corpus = _load_corpus_from_args(args)
    query = seedscan.load_phrases(_require(args.phrases, "--phrases")) \
        if args.phrases else seedscan.PhraseQuery()
    ruleset = seedscan.load_ruleset(_require(args.rules, "--rules")) \
        if args.rules else seedscan.DEFAULT_RULESET
    hits = seedscan.find_phrase_tweets(corpus, query)
    out = _out_dir(args)
    hit_rows = [(tid, corpus.tweets[tid].author_id, phrase) for tid, phrase in hits.items()]
    category_rows = _category_rows(corpus, hits, ruleset)
    outputs = {
        "hits": _write_csv(out / "hits.csv", ("tweet_id", "account_id", "phrase"), hit_rows),
        "categories": _write_csv(
            out / "categories.csv", ("tweet_id", "category"),
            [(tid, seedscan.categorize_self_revealing(corpus.tweets[tid].text, ruleset).value)
             for tid in hits]),
        "category_summary": _write_csv(out / "category_summary.csv", CATEGORY_COLUMNS,
                                       category_rows),
    }
    metrics = {
        "n_hits": len(hits),
        "n_accounts": len({author for _, author, _ in hit_rows}),
        "categories": {category: count for category, count, _ in category_rows},
    }
    return _summary("scan-phrases", outputs, metrics)


def _cmd_expand_domains(args):
    corpus = _load_corpus_from_args(args)
    seeds = linkmap.load_seed_domains(_require(args.seeds, "--seeds")) \
        if args.seeds else linkmap.DEFAULT_SEED_DOMAINS
    expanded = linkmap.expand_by_domains(corpus, seeds)
    out = _out_dir(args)
    outputs = {
        "expanded_accounts": _write_csv(out / "expanded_accounts.csv", ("account_id",),
                                        [(a,) for a in sorted(expanded)]),
        "domain_freq": _write_csv(
            out / "domain_freq.csv", ("domain", "count"),
            linkmap.domain_frequency(corpus, expanded, args.top)),
    }
    share = linkmap.domain_share_profiles(corpus, expanded, seeds)
    outputs["share_profiles"] = _write_csv(
        out / "share_profiles.csv", ("account_id", "share_probability"),
        [(p.account_id, p.share_probability) for p in share.profiles])
    return _summary("expand-domains", outputs, {
        "n_seeds": len(set(seeds)),
        "n_accounts": len(expanded),
        "mean_share_probability": share.mean_share_probability,
    })


def _cmd_graph_stats(args):
    corpus = _load_corpus_from_args(args)
    restriction = _group_members(corpus, args.group) if args.group is not None else None
    graph, summary, metrics = _graph_stats(corpus, args.kind, restriction)
    out = _out_dir(args)
    outputs = {
        "edges": _write_csv(out / f"{args.kind}_edges.csv", ("source", "target", "weight"),
                            sorted((s, t, w) for (s, t), w in graph.edges.items())),
        "degree_histogram": _write_csv(out / f"{args.kind}_degree_histogram.csv",
                                       DEGREE_COLUMNS, _degree_rows(summary)),
        "degree_summary": _write_json(out / f"{args.kind}_degree_summary.json",
                                      {"edge_kind": args.kind, **metrics}),
    }
    if args.pair_groups:
        names = [n.strip() for n in args.pair_groups.split(",") if n.strip()]
        try:
            sub = GroupPartition({n: corpus.partition[n] for n in names})
        except KeyError as exc:
            raise DataError(f"missing artifact: group {exc.args[0]!r} not in labels") from exc
        rows = _pair_rows(graph, sub)
        outputs["pair_rates"] = _write_csv(out / f"{args.kind}_pair_rates.csv",
                                           PAIR_COLUMNS, rows)
        metrics["pair_rates"] = {f"{src}->{dst}": rate for src, dst, _, rate in rows}
    return _summary("graph-stats", outputs, metrics)


def _cmd_content_stats(args):
    corpus = _load_corpus_from_args(args)
    group = _group_members(corpus, args.group)
    points = contentstats.group_mix_points(corpus, group)
    ternary_rows = _ternary_rows(points, args.resolution)
    hashtags = contentstats.hashtag_ranking(corpus, group, args.top)
    amplified = contentstats.amplified_accounts(corpus, group, args.top)
    out = _out_dir(args)
    outputs = {
        "ternary_points": _write_csv(
            out / "ternary_points.csv",
            ("account_id", "pct_original", "pct_reply", "pct_retweet_quote"),
            [(a, p.pct_original, p.pct_reply, p.pct_retweet_quote)
             for a, p in points.items()]),
        "ternary_bins": _write_csv(out / "ternary_bins.csv", TERNARY_COLUMNS, ternary_rows),
        "hashtags": _write_csv(out / "hashtags.csv", ("rank", "hashtag", "count"),
                               _rank_rows(hashtags)),
        "amplified": _write_csv(out / "amplified.csv", ("rank", "account_id", "count"),
                                _rank_rows(amplified)),
    }
    metrics = {"n_accounts_with_tweets": len(points), "resolution": args.resolution}
    if group:
        profile = dataclasses.asdict(contentstats.profile_summary(corpus, group))
        outputs["profile_summary"] = _write_json(out / "profile_summary.json", profile)
        metrics["follower_mean"] = profile["follower_mean"]
    return _summary("content-stats", outputs, metrics)


def _cmd_score(args):
    corpus = _load_corpus_from_args(args)
    detector = _make_detector(args)
    rules = _qualification_rules(args)
    group = _group_members(corpus, args.group) if args.group else None
    scores, unscored = detectkit.score_corpus(corpus, detector, rules, group=group)
    kept = detectkit.filter_min_qualified(scores.values(), args.min_qualified)
    out = _out_dir(args)
    outputs = {
        "account_scores": _write_csv(
            out / "account_scores.csv", ("account_id", "n_qualified", "mean_score"),
            [(s.account_id, s.n_qualified, s.mean_score) for s in kept]),
    }
    metrics = {
        "detector": detector.name,
        "n_scored": len(scores),
        "n_unscored": unscored,
        "n_after_filter": len(kept),
    }
    return _summary("score", outputs, metrics)


def _cmd_sweep(args):
    scores = _read_scores_csv(_require(args.scores, "--scores"))
    outcome = detectkit.sweep_threshold(scores)
    out = _out_dir(args)
    summary_obj = {
        "best_threshold": outcome.best.threshold,
        "f1": outcome.best.f1,
        "precision": outcome.best.precision,
        "recall": outcome.best.recall,
        "welch": None,
    }
    try:
        summary_obj["welch"] = dataclasses.asdict(
            detectkit.welch_t(*detectkit.split_labeled(scores)))
    except ValueError:
        pass
    outputs = {
        "sweep_curve": _write_csv(out / "sweep_curve.csv", SWEEP_COLUMNS, _sweep_rows(outcome)),
        "summary": _write_json(out / "summary.json", summary_obj),
    }
    return _summary("sweep", outputs, summary_obj)


def _cmd_ttest(args):
    bots, humans = detectkit.split_labeled(_read_scores_csv(_require(args.scores, "--scores")))
    result = detectkit.welch_t(bots, humans)
    out = _out_dir(args)
    obj = {**dataclasses.asdict(result), "n_bot": len(bots), "n_human": len(humans)}
    outputs = {"ttest": _write_json(out / "ttest.json", obj)}
    return _summary("ttest", outputs, obj)


def _typed_like(default, text: str):
    """``text`` as the type of a generator field's default; a tuple field
    takes comma-separated values of its first element's type."""
    if isinstance(default, tuple):
        return tuple(_typed_like(default[0], part.strip()) for part in text.split(","))
    value = type(default)(text)
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def _read_params_file(path: Path) -> tuple[dict, dict]:
    """Parse key = value generator settings into BotnetParams and HumanParams
    fields; human_* keys and n_humans address the organic side."""
    defaults = tuple({f.name: f.default for f in dataclasses.fields(cls)}
                     for cls in (synthnet.BotnetParams, synthnet.HumanParams))
    fields: tuple[dict, dict] = ({}, {})
    for lineno, line in _text_lines(path):
        key, sep, value = line.partition("=")
        if not sep:
            raise DataError(f"{path}:{lineno}: expected key = value")
        key = key.strip()
        if key.startswith("human_") and key[6:] in defaults[1]:
            side, name = 1, key[6:]
        elif key == "n_humans":
            side, name = 1, key
        elif key in defaults[0]:
            side, name = 0, key
        else:
            raise DataError(f"{path}:{lineno}: unknown generator parameter {key!r}")
        try:
            fields[side][name] = _typed_like(defaults[side][name], value.strip())
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: bad value for {key!r} ({exc})") from exc
    return fields


def _cmd_synth(args):
    bot_fields, human_fields = (_read_params_file(_require(args.params, "--params"))
                                if args.params else ({}, {}))
    for fields, name, value in ((bot_fields, "rng_seed", args.seed),
                                (bot_fields, "n_bots", args.n_bots),
                                (human_fields, "n_humans", args.n_humans)):
        if value is not None:
            fields[name] = value
    corpus = synthnet.fox8_preset(bot_fields=bot_fields, human_fields=human_fields)
    paths = export_corpus(corpus, _out_dir(args))
    metrics = {
        "preset": args.preset,
        "seed": bot_fields.get("rng_seed", 0),
        "n_accounts": corpus.n_accounts,
        "n_tweets": corpus.n_tweets,
        "n_follow_edges": len(corpus.follow_edges),
    }
    return _summary("synth", paths, metrics)


def _cmd_report(args):
    corpus = _load_corpus_from_args(args)
    out = _out_dir(args)
    bot_group = sorted(corpus.partition.groups.get(args.bot_group, ()))
    human_group = sorted(corpus.partition.groups.get(args.human_group, ()))
    named_groups = ((args.bot_group, bot_group), (args.human_group, human_group))
    outputs: dict[str, Path] = {}
    metrics: dict = {"bot_group_size": len(bot_group), "human_group_size": len(human_group)}

    outputs["fig1_profiles"] = _write_json(out / "fig1_profiles.json", {
        name: dataclasses.asdict(contentstats.profile_summary(corpus, members))
        if members else None
        for name, members in named_groups})

    degree_rows = []
    for kind in graphlab.EDGE_KINDS if bot_group else ():
        _, summary, stats = _graph_stats(corpus, kind, bot_group)
        degree_rows += [(kind, *row) for row in _degree_rows(summary)]
        metrics[f"{kind}_mean_in"] = stats["mean_in"]
        metrics[f"{kind}_largest_wcc"] = stats["largest_wcc_size"]
    outputs["fig2_degrees"] = _write_csv(
        out / "fig2_degrees.csv", ("edge_kind", *DEGREE_COLUMNS), degree_rows)

    pair_rows = []
    usable = GroupPartition({name: corpus.partition[name] for name in corpus.partition.names
                             if len(corpus.partition[name]) >= 2})
    for kind in ("reply", "retweet") if usable.groups else ():
        graph = graphlab.build_graph(corpus, kind)
        pair_rows += [(kind, *row) for row in _pair_rows(graph, usable)]
    outputs["fig2_pairrates"] = _write_csv(
        out / "fig2_pairrates.csv", ("edge_kind", *PAIR_COLUMNS), pair_rows)

    ternary_rows = []
    for name, members in named_groups:
        if members:
            points = contentstats.group_mix_points(corpus, members)
            ternary_rows += [(name, *row) for row in _ternary_rows(points, args.resolution)]
    outputs["fig3_ternary"] = _write_csv(
        out / "fig3_ternary.csv", ("group", *TERNARY_COLUMNS), ternary_rows)

    hashtags = contentstats.hashtag_ranking(corpus, bot_group, args.top)
    outputs["fig4_hashtags"] = _write_csv(
        out / "fig4_hashtags.csv", ("rank", "hashtag", "count"), _rank_rows(hashtags))
    amplified = contentstats.amplified_accounts(corpus, bot_group, args.top)
    outputs["fig4_amplified"] = _write_csv(
        out / "fig4_amplified.csv", ("rank", "account_id", "count"), _rank_rows(amplified))

    domains = linkmap.domain_frequency(corpus, bot_group, args.top)
    outputs["fig5_domains"] = _write_csv(
        out / "fig5_domains.csv", ("rank", "domain", "count"), _rank_rows(domains))
    if bot_group:
        share = linkmap.domain_share_profiles(corpus, bot_group, linkmap.DEFAULT_SEED_DOMAINS)
        metrics["seed_domain_share_mean"] = share.mean_share_probability

    hits = seedscan.find_phrase_tweets(corpus)
    outputs["table1_categories"] = _write_csv(
        out / "table1_categories.csv", CATEGORY_COLUMNS, _category_rows(corpus, hits))
    metrics["n_self_revealing"] = len(hits)

    recall_obj = {"threshold": args.recall_threshold, "recall": None,
                  "n_bot_scores": 0, "scores_file": None}
    if args.recall_scores:
        recall_scores = _read_scores_csv(_require(args.recall_scores, "--recall-scores"))
        recall_obj["recall"] = detectkit.recall_at(recall_scores, args.recall_threshold)
        recall_obj["n_bot_scores"] = len(detectkit.split_labeled(recall_scores)[0])
        recall_obj["scores_file"] = str(args.recall_scores)
    outputs["fig6_recall"] = _write_json(out / "fig6_recall.json", recall_obj)

    sweep_rows = []
    if bot_group and human_group:
        detector = _make_detector(args)
        rules = _qualification_rules(args)
        labeled = {}
        for members, label in ((bot_group, detectkit.BOT_LABEL),
                               (human_group, detectkit.HUMAN_LABEL)):
            scores, _ = detectkit.score_corpus(corpus, detector, rules, group=members)
            labeled[label] = [(s.mean_score, label) for s in scores.values()]
        if all(labeled.values()):
            outcome = detectkit.sweep_threshold([row for rows in labeled.values() for row in rows])
            sweep_rows = _sweep_rows(outcome)
            metrics["best_threshold"] = outcome.best.threshold
            metrics["best_f1"] = outcome.best.f1
    outputs["fig8_sweep"] = _write_csv(out / "fig8_sweep.csv", SWEEP_COLUMNS, sweep_rows)

    return _summary("report", outputs, metrics)


# ---------------------------------------------------------------------------
# Parser assembly

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="botsieve",
                     description="Botnet forensics over offline social-media corpora")
    parser.add_argument("--json", action="store_true",
                        help="print a machine-readable summary on stdout")
    sub = parser.add_subparsers(dest="command", metavar="|".join(SUBCOMMANDS))

    p = _add_corpus_command(sub, "ingest", _cmd_ingest, "load, validate, and summarize a corpus")
    p.add_argument("--export", action="store_true", help="re-emit the normalized corpus")
    p.add_argument("--strict", action="store_true", help="exit 2 on any violation")

    p = _add_corpus_command(sub, "scan-phrases", _cmd_scan_phrases,
                            "find and categorize self-revealing tweets")
    p.add_argument("--phrases", help="phrases.txt (one phrase per line)")
    p.add_argument("--rules", help="category_rules.csv (priority,category,trigger)")

    p = _add_corpus_command(sub, "expand-domains", _cmd_expand_domains,
                            "expand candidate accounts by seed domains")
    p.add_argument("--seeds", help="seeds.txt (one domain per line)")
    p.add_argument("--top", type=_positive_int, default=10,
                   help="domains to keep in domain_freq.csv")

    p = _add_corpus_command(sub, "graph-stats", _cmd_graph_stats, "interaction-graph metrics")
    p.add_argument("--kind", choices=graphlab.EDGE_KINDS, default="follow")
    p.add_argument("--group", help="restrict both endpoints to this labeled group")
    p.add_argument("--pair-groups", help="comma-separated group names for pair rates")

    p = _add_corpus_command(sub, "content-stats", _cmd_content_stats,
                            "tweet mix, rankings, profile summaries")
    p.add_argument("--group", help="labeled group (default: every account)")
    p.add_argument("--resolution", type=_positive_int, default=20)
    p.add_argument("--top", type=_positive_int, default=10)

    p = _add_corpus_command(sub, "score", _cmd_score, "run a text detector over accounts")
    p.add_argument("--group", help="labeled group (default: every account)")
    p.add_argument("--min-qualified", type=_positive_int, default=1)
    _add_detector_args(p)

    p = sub.add_parser("sweep", help="F1-maximizing threshold sweep over labeled scores")
    _add_out_arg(p)
    p.add_argument("--scores", required=True, help="CSV with value,label columns")
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("ttest", help="Welch t-test between bot and human scores")
    _add_out_arg(p)
    p.add_argument("--scores", required=True, help="CSV with value,label columns")
    p.set_defaults(handler=_cmd_ttest)

    p = sub.add_parser("synth", help="generate a synthetic benchmark corpus")
    _add_out_arg(p)
    p.add_argument("--preset", choices=("fox8",), default="fox8")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--n-bots", type=int, default=None)
    p.add_argument("--n-humans", type=int, default=None)
    p.add_argument("--params", help="key=value generator settings file "
                   "(human_* keys address the organic side)")
    p.set_defaults(handler=_cmd_synth)

    p = _add_corpus_command(sub, "report", _cmd_report, "emit every figure/table data file")
    p.add_argument("--bot-group", default="bot")
    p.add_argument("--human-group", default="human")
    p.add_argument("--resolution", type=_positive_int, default=20)
    p.add_argument("--top", type=_positive_int, default=10)
    p.add_argument("--recall-scores", help="CSV with value,label for the recall harness")
    p.add_argument("--recall-threshold", type=float, default=2.5)
    _add_detector_args(p)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "handler", None) is None:
            raise UsageError("a subcommand is required (see --help)")
        summary = args.handler(args)
        line = json.dumps(summary, sort_keys=True, allow_nan=False) if args.json else None
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DataError, ValueError, LookupError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except SystemExit:
        raise
    except Exception as exc:  # pragma: no cover - defensive catch-all
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    if line is not None:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(run())
