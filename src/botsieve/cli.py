"""Command-line surface: file-driven pipeline stages over offline corpora.

Every subcommand reads corpus/score files, computes every output file, and
only then writes them into an output directory, so a usage or data error
writes nothing (``ingest --strict`` writes its report, then exits 2). With
--json it prints a machine-readable summary on stdout that validates against
schemas/cli_summary.schema.json. Re-running a subcommand with identical
inputs overwrites outputs byte-identically.

Exit codes: 0 success, 1 usage error, 2 data error (an --out that cannot be made
or an output name taken by a directory included), 3 internal error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
from array import array
from itertools import repeat
from pathlib import Path

# No botsieve code calls a BLAS routine, yet OpenBLAS starts a thread per core
# with numpy, and the idle ones busy-wait: one thread, unless the caller chose.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# The corpus module is imported by the stages that load or write a corpus only.
from .readers import _csv_header, _csv_row, _iter_lines, _text_lines
from .table import EDGE_KINDS

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
# The stage runner. A stage is a function (corpus, args) -> (files, metrics):
# ``files`` maps each --json output name to a file name and its content, a
# CSV's (header, rows) or a JSON object. Subcommands without a corpus get None.

def _run_stage(args):
    """Load the subcommand's corpus, let its stage compute every file, then create
    --out and write them all; returns the corpus, --out and the --json summary."""
    corpus = args.load(args) if args.load is not None else None
    files, metrics = args.stage(corpus, args)
    out = Path(args.out or os.environ.get(OUTPUT_DIR_ENV, "botsieve_out"))
    _write_files(out, files, args.export_to(args, out))
    outputs = {name: str(out / file_name) for name, (file_name, _) in files.items()}
    return corpus, out, {"command": args.command, "status": "ok",
                         "outputs": outputs, "metrics": metrics}


def _write_files(out: Path, files: dict, export: Path | None) -> None:
    """Write the stage's files into --out. Their paths, and those of the corpus
    the stage exports into ``export`` after them, are checked first."""
    # Every JSON text is serialized first, so a non-finite value leaves no file behind.
    texts = {name: json.dumps(content, indent=2, sort_keys=True, allow_nan=False) + "\n"
             for name, (_, content) in files.items() if isinstance(content, dict)}
    paths = [out / file_name for file_name, _ in files.values()]
    if export is not None:
        from .corpus import ACCOUNTS_FILE, EDGES_FILE, LABELS_FILE, TWEETS_FILE
        paths += [export / name for name in (ACCOUNTS_FILE, TWEETS_FILE, EDGES_FILE, LABELS_FILE)]
    taken = [path for path in paths if path.is_dir()]
    if taken:
        raise DataError(f"output file name taken by a directory: {taken[0]}")
    try:
        out.mkdir(parents=True, exist_ok=True)
        if export is not None:
            export.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # e.g. an --out or export directory that is a file or lies under one
        raise DataError(exc) from exc
    for name, (file_name, content) in files.items():
        with open(out / file_name, "w", encoding="utf-8", newline="") as fh:
            if name in texts:
                fh.write(texts[name])
            else:
                writer = csv.writer(fh)
                writer.writerow(content[0])
                writer.writerows(content[1])


def _int_at_least(least: int):
    """An argparse type: an integer of at least ``least``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = least - 1
        if value < least:
            raise argparse.ArgumentTypeError(f"expected an integer >= {least}, got {text!r}")
        return value
    return parse


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _name_list(text: str) -> list[str] | None:
    """Comma-separated names; a value that names none is the same as none given."""
    return [n.strip() for n in text.split(",") if n.strip()] or None


# ---------------------------------------------------------------------------
# Column headers and row builders shared by the stages and `report`, which
# leads a stage's rows with its edge_kind/group column.

DEGREE_COLUMNS = ("direction", "degree", "count")
PAIR_COLUMNS = ("source_group", "target_group", "pairs_with_edge", "rate")
TERNARY_COLUMNS = ("i", "j", "k", "count")
HASHTAG_COLUMNS = ("rank", "hashtag", "count")
AMPLIFIED_COLUMNS = ("rank", "account_id", "count")
SWEEP_COLUMNS = ("threshold", "precision", "recall", "f1")
# Curve rows made into Python floats at a time; see _sweep_rows.
_SWEEP_CHUNK = 4096


def _rank_rows(ranking) -> list[tuple]:
    return [(r + 1, key, c) for r, (key, c) in enumerate(ranking)]


def _sweep_rows(outcome):
    """A detectkit.SweepOutcome's curve as CSV rows, made _SWEEP_CHUNK at a time."""
    columns = (outcome.threshold, outcome.precision, outcome.recall, outcome.f1)
    for start in range(0, len(outcome.threshold), _SWEEP_CHUNK):
        yield from zip(*(column[start:start + _SWEEP_CHUNK].tolist() for column in columns))


def _keyed(column: str, columns, parts) -> tuple:
    """A CSV led by ``column``: the rows of each (key, stage CSV file) part,
    each behind its key."""
    return ((column, *columns), [(key, *row) for key, (_, (_, rows)) in parts for row in rows])


def _with(args, **options) -> argparse.Namespace:
    return argparse.Namespace(**{**vars(args), **options})


# ---------------------------------------------------------------------------
# Shared argument plumbing

def _add_command(sub, name: str, stage, help: str, corpus: bool = False, **defaults):
    """A subcommand that runs ``stage`` and writes into --out; with
    ``corpus``, on the corpus its input options name."""
    parser = sub.add_parser(name, help=help)
    if corpus:
        parser.add_argument("--corpus-dir", help="directory holding accounts.jsonl, "
                            "tweets.jsonl, edges.jsonl, labels.csv")
        parser.add_argument("--accounts", help="accounts.jsonl path (overrides --corpus-dir)")
        parser.add_argument("--tweets", help="tweets.jsonl path (overrides --corpus-dir)")
        parser.add_argument("--edges", help="edges.jsonl path")
        parser.add_argument("--labels", help="labels.csv path")
        parser.add_argument("--aliases", help="JSON file mapping canonical field names "
                            "to the names used in the input files")
        parser.add_argument("--tweet-cap", type=_int_at_least(1), default=None,
                            help="keep only each account's N most recent tweets")
    parser.add_argument("--out", default=None,
                        help=f"output directory (default: ${OUTPUT_DIR_ENV} or ./botsieve_out)")
    parser.set_defaults(**{"stage": stage, "load": _load_corpus_from_args if corpus else None,
                           "after_write": lambda *_: {}, "export_to": lambda *_: None,
                           **defaults})
    return parser


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


def _load_corpus_from_args(args):
    from .corpus import (ACCOUNTS_FILE, EDGES_FILE, LABELS_FILE, TWEETS_FILE, cap_tweets,
                         load_corpus)
    base = Path(args.corpus_dir) if args.corpus_dir else None
    accounts = args.accounts or (base / ACCOUNTS_FILE if base else None)
    tweets = args.tweets or (base / TWEETS_FILE if base else None)
    account_path = _require(str(accounts) if accounts else None, "accounts.jsonl")
    tweet_path = _require(str(tweets) if tweets else None, "tweets.jsonl")
    edge_path = _optional(args.edges, base / EDGES_FILE if base else None)
    label_path = _optional(args.labels, base / LABELS_FILE if base else None)
    aliases = None
    if args.aliases:
        try:
            aliases = json.loads(_require(args.aliases, "aliases file").read_text("utf-8"))
        except OSError as exc:
            raise DataError(f"cannot read aliases file: {exc}") from exc
    corpus = load_corpus(account_path, tweet_path, edge_path, label_path,
                         field_aliases=aliases)
    if args.tweet_cap is not None:
        corpus = cap_tweets(corpus, args.tweet_cap)
    return corpus


def _group_members(corpus, name: str | None):
    if name is None:
        return sorted(corpus.accounts)
    if name not in corpus.partition:
        raise DataError(f"missing artifact: group {name!r} not in labels")
    return sorted(corpus.partition[name])


def _read_scores_csv(path: Path) -> tuple[array, array]:
    """The bot and the human values of a value,label CSV, each an array("d")
    in file order; a row without a finite value and a label of bot or human is
    a data error at its line. A line with no quote, carriage return or NUL is
    split on its commas, as the csv module splits it; any other line goes
    through it."""
    from . import detectkit
    labels = (detectkit.BOT_LABEL, detectkit.HUMAN_LABEL)
    lines = _iter_lines(path)
    fields = _csv_header(path, lines, ("value", "label"))
    width = len(fields)
    # Each name's last column, as the dict of a row at least as wide as the header holds it.
    at_value, at_label = (width - 1 - fields[::-1].index(name) for name in ("value", "label"))
    values = {label: array("d") for label in labels}
    for lineno, text in lines:
        plain = text is not None and '"' not in text and "\r" not in text and "\0" not in text
        row = text.split(",") if plain else _csv_row(text)
        if len(row) >= width:
            value, label = row[at_value], row[at_label].strip()
        else:
            record = dict(zip(fields, row))
            value, label = record.get("value"), record.get("label", "").strip()
        try:
            number = float(value)
        except (TypeError, ValueError):
            number = math.nan
        column = values.get(label)
        if column is None or not math.isfinite(number):
            raise DataError(f"{path}:{lineno}: need a finite value and a label in "
                            f"{labels}, got {value!r},{label!r}")
        column.append(number)
    return values[labels[0]], values[labels[1]]


DETECTOR_OPTIONS = {"stub_key": ("stub",), "scale": ("stub", "replay"), "replay_file": ("replay",)}


def _detection(args) -> tuple:
    """The --detector and the rules a text must pass to be scored; an option
    that detector does not read is a usage error."""
    from . import detectkit
    for option, readers in DETECTOR_OPTIONS.items():
        if getattr(args, option) is not None and args.detector not in readers:
            raise UsageError(f"--{option.replace('_', '-')} does not apply to "
                             f"--detector {args.detector}")
    scale = (detectkit.PROBABILITY_SCALE if args.scale == "probability"
             else detectkit.OPENAI_STYLE_SCALE)
    if args.detector == "stub":
        detector = detectkit.StubDetector(key=args.stub_key or "", score_scale=scale)
    elif args.detector == "replay":
        path = _require(args.replay_file, "--replay-file")
        detector = detectkit.ReplayDetector.from_file(path, score_scale=scale)
    else:
        detector = detectkit.HeuristicDetector()
    return detector, detectkit.QualificationRules(
        exclude_retweets=not args.include_retweets,
        english_only=not args.any_language,
        strip_reply_handles=not args.keep_handles,
        strip_links=not args.keep_links,
    )


def _add_detector_args(parser):
    parser.add_argument("--detector", choices=("heuristic", "stub", "replay"),
                        default="heuristic")
    parser.add_argument("--replay-file", help="replay_scores.jsonl for --detector replay")
    parser.add_argument("--stub-key", help="key for --detector stub")
    parser.add_argument("--scale", choices=("openai", "probability"),
                        help="score scale for --detector stub or replay (default: openai)")
    parser.add_argument("--include-retweets", action="store_true")
    parser.add_argument("--any-language", action="store_true")
    parser.add_argument("--keep-handles", action="store_true")
    parser.add_argument("--keep-links", action="store_true")


# ---------------------------------------------------------------------------
# Stages

def _ingest(corpus, args):
    from .corpus import validate
    report = validate(corpus)
    files = {
        "validation_report": ("validation_report.csv", (
            ("file", "line", "identifier", "rule", "detail"),
            list(corpus.load_report.to_rows()) + list(report.to_rows()))),
        "corpus_summary": ("corpus_summary.json", {
            "n_accounts": corpus.n_accounts,
            "n_tweets": corpus.n_tweets,
            "n_follow_edges": len(corpus.follow_edges),
            "groups": {name: len(corpus.partition[name]) for name in corpus.partition.names},
            "n_load_violations": len(corpus.load_report),
            "n_invariant_violations": len(report),
        }),
    }
    metrics = {
        "n_accounts": corpus.n_accounts,
        "n_tweets": corpus.n_tweets,
        "n_violations": len(corpus.load_report) + len(report),
    }
    return files, metrics


def _ingest_after_write(args, corpus, out, metrics) -> dict:
    """ingest's own step once its report is written: --export, then --strict."""
    from .corpus import export_corpus
    exported = export_corpus(corpus, args.export_to(args, out)) if args.export else {}
    n_load = len(corpus.load_report)
    if args.strict and metrics["n_violations"]:
        raise DataError(f"validation failed: {n_load} load + "
                        f"{metrics['n_violations'] - n_load} invariant violations")
    return {f"export_{k}": str(v) for k, v in exported.items()}


def _scan_phrases(corpus, args):
    from . import seedscan
    query = seedscan.load_phrases(_require(args.phrases, "--phrases")) \
        if args.phrases else seedscan.PhraseQuery()
    ruleset = seedscan.load_ruleset(_require(args.rules, "--rules")) \
        if args.rules else seedscan.DEFAULT_RULESET
    hits = seedscan.find_phrase_tweets(corpus, query)
    authors = corpus.table.values("author_id", hits.rows)
    texts = corpus.table.values("text", hits.rows)
    category_of = {text: seedscan.categorize_self_revealing(text, ruleset).value
                   for text in set(texts)}
    category_rows = [(row.category.value, row.count, row.percentage)
                     for row in seedscan.category_summary(texts, ruleset)]
    files = {
        "hits": ("hits.csv", (("tweet_id", "account_id", "phrase"),
                              list(zip(hits, authors, hits.values())))),
        "categories": ("categories.csv", (
            ("tweet_id", "category"),
            [(tid, category_of[text]) for tid, text in zip(hits, texts)])),
        "category_summary": ("category_summary.csv",
                             (("category", "count", "percentage"), category_rows)),
    }
    metrics = {
        "n_hits": len(hits),
        "n_accounts": len(set(authors)),
        "categories": {category: count for category, count, _ in category_rows},
    }
    return files, metrics


def _expand_domains(corpus, args):
    from . import linkmap
    seeds = linkmap.load_seed_domains(_require(args.seeds, "--seeds")) \
        if args.seeds else linkmap.DEFAULT_SEED_DOMAINS
    expanded = linkmap.expand_by_domains(corpus, seeds)
    domains = linkmap.domain_frequency(corpus, expanded, args.top)
    share = linkmap.domain_share_profiles(corpus, expanded, seeds)
    files = {
        "expanded_accounts": ("expanded_accounts.csv",
                              (("account_id",), [(a,) for a in sorted(expanded)])),
        "domain_freq": ("domain_freq.csv", (("domain", "count"), domains)),
        "share_profiles": ("share_profiles.csv", (
            ("account_id", "share_probability"),
            [(p.account_id, p.share_probability) for p in share.profiles])),
    }
    return files, {
        "n_seeds": len(set(seeds)),
        "n_accounts": len(expanded),
        "mean_share_probability": share.mean_share_probability,
    }


def _graph_stats(corpus, args):
    from . import graphlab
    restriction = _group_members(corpus, args.group) if args.group is not None else None
    graph = graphlab.build_graph(corpus, args.kind, node_restriction=restriction)
    summary = graphlab.degree_stats(graph)
    metrics = {
        "mean_in": summary.mean_in, "sd_in": summary.sd_in,
        "mean_out": summary.mean_out, "sd_out": summary.sd_out,
        "n_nodes": graph.n_nodes, "n_edges": graph.n_edges,
        "largest_wcc_size": len(graphlab.largest_wcc(graph)),
    }
    files = {
        "edges": (f"{args.kind}_edges.csv", (("source", "target", "weight"), list(
            zip(graph.nodes[graph.source], graph.nodes[graph.target], graph.weight.tolist())))),
        "degree_histogram": (f"{args.kind}_degree_histogram.csv", (
            DEGREE_COLUMNS, [("in", d, c) for d, c in summary.in_histogram.items()]
            + [("out", d, c) for d, c in summary.out_histogram.items()])),
        "degree_summary": (f"{args.kind}_degree_summary.json",
                           {"edge_kind": args.kind, **metrics}),
    }
    if args.pair_groups is not None:
        files["pair_rates"] = _pair_rates(corpus, graph, args.pair_groups)
        metrics["pair_rates"] = {f"{src}->{dst}": rate
                                 for src, dst, _, rate in files["pair_rates"][1][1]}
    return files, metrics


def _pair_rates(corpus, graph, names) -> tuple:
    """graph-stats' pair-rate step: the pair_rates.csv file of the graph
    between the named groups, one row per ordered pair of groups."""
    from . import graphlab
    from .corpus import GroupPartition
    try:
        groups = GroupPartition({n: corpus.partition[n] for n in names})
    except KeyError as exc:
        raise DataError(f"missing artifact: group {exc.args[0]!r} not in labels") from exc
    matrix = graphlab.pair_rate_matrix(graph, groups)
    rows = [(src, dst, int(matrix.counts[i, j]), float(matrix.rates[i, j]))
            for i, src in enumerate(matrix.groups) for j, dst in enumerate(matrix.groups)]
    return (f"{graph.edge_kind}_pair_rates.csv", (PAIR_COLUMNS, rows))


def _content_stats(corpus, args):
    from . import contentstats
    group = _group_members(corpus, args.group)
    points = contentstats.group_mix_points(corpus, group)
    grid = contentstats.ternary_bin(points.values(), args.resolution)
    hashtags = contentstats.hashtag_ranking(corpus, group, args.top)
    amplified = contentstats.amplified_accounts(corpus, group, args.top)
    files = {
        "ternary_points": ("ternary_points.csv", (
            ("account_id", "pct_original", "pct_reply", "pct_retweet_quote"),
            [(a, p.pct_original, p.pct_reply, p.pct_retweet_quote)
             for a, p in points.items()])),
        "ternary_bins": ("ternary_bins.csv", (
            TERNARY_COLUMNS, [(i, j, k, c) for (i, j, k), c in grid.bins.items()])),
        "hashtags": ("hashtags.csv", (HASHTAG_COLUMNS, _rank_rows(hashtags))),
        "amplified": ("amplified.csv", (AMPLIFIED_COLUMNS, _rank_rows(amplified))),
    }
    metrics = {"n_accounts_with_tweets": len(points), "resolution": args.resolution}
    if group:
        profile = dataclasses.asdict(contentstats.profile_summary(corpus, group))
        files["profile_summary"] = ("profile_summary.json", profile)
        metrics["follower_mean"] = profile["follower_mean"]
    return files, metrics


def _score(corpus, args):
    from . import detectkit
    detector, rules = _detection(args)
    group = _group_members(corpus, args.group) if args.group else None
    scores, unscored = detectkit.score_corpus(corpus, detector, rules, group=group)
    kept = detectkit.filter_min_qualified(scores.values(), args.min_qualified)
    files = {
        "account_scores": ("account_scores.csv", (
            ("account_id", "n_qualified", "mean_score"),
            [(s.account_id, s.n_qualified, s.mean_score) for s in kept])),
    }
    metrics = {
        "detector": detector.name,
        "n_scored": len(scores),
        "n_unscored": unscored,
        "n_after_filter": len(kept),
    }
    return files, metrics


def _sweep(_, args):
    from . import detectkit
    bots, humans = _read_scores_csv(_require(args.scores, "--scores"))
    outcome = detectkit.sweep_threshold(split=(bots, humans))
    summary = {
        "best_threshold": outcome.best.threshold,
        "f1": outcome.best.f1,
        "precision": outcome.best.precision,
        "recall": outcome.best.recall,
        "welch": None,
    }
    try:
        summary["welch"] = dataclasses.asdict(detectkit.welch_t(bots, humans))
    except ValueError:
        pass
    files = {
        "sweep_curve": ("sweep_curve.csv", (SWEEP_COLUMNS, _sweep_rows(outcome))),
        "summary": ("summary.json", summary),
    }
    return files, summary


def _ttest(_, args):
    from . import detectkit
    bots, humans = _read_scores_csv(_require(args.scores, "--scores"))
    result = detectkit.welch_t(bots, humans)
    obj = {**dataclasses.asdict(result), "n_bot": len(bots), "n_human": len(humans)}
    return {"ttest": ("ttest.json", obj)}, obj


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
    from . import synthnet
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


def _synth_corpus(args):
    """synth's corpus, generated from --params and the flags that override it."""
    from . import synthnet
    bot_fields, human_fields = (_read_params_file(_require(args.params, "--params"))
                                if args.params else ({}, {}))
    for fields, name, value in ((bot_fields, "rng_seed", args.seed),
                                (bot_fields, "n_bots", args.n_bots),
                                (human_fields, "n_humans", args.n_humans)):
        if value is not None:
            fields[name] = value
    args.seed = bot_fields.get("rng_seed", 0)  # the seed it is drawn from, for the summary
    return synthnet.fox8_preset(bot_fields=bot_fields, human_fields=human_fields)


def _synth(corpus, args):
    return {}, {
        "preset": args.preset,
        "seed": args.seed,
        "n_accounts": corpus.n_accounts,
        "n_tweets": corpus.n_tweets,
        "n_follow_edges": len(corpus.follow_edges),
    }


def _synth_after_write(args, corpus, out, metrics) -> dict:
    from .corpus import export_corpus
    return {name: str(path) for name, path in
            export_corpus(corpus, args.export_to(args, out)).items()}


def _load_report_corpus(args):
    """report's corpus; one group named as both bot and human is a usage error."""
    if args.bot_group == args.human_group:
        raise UsageError(f"--bot-group and --human-group are both {args.bot_group!r}")
    return _load_corpus_from_args(args)


def _report(corpus, args):
    """Every figure and table file over one load. Where a file is another
    stage's file, or one led by an edge_kind/group column, it takes that
    stage's rows."""
    from . import detectkit, graphlab, linkmap
    detector, rules = _detection(args)
    bot, human = args.bot_group, args.human_group
    # A corpus without labels reports two empty groups.
    members = {name: _group_members(corpus, name) if corpus.partition.names else []
               for name in (bot, human)}
    content = {name: _content_stats(corpus, _with(args, group=name))[0]
               for name in (bot, human) if members[name]}
    metrics: dict = {"bot_group_size": len(members[bot]), "human_group_size": len(members[human])}
    files = {"fig1_profiles": ("fig1_profiles.json", {
        name: content[name]["profile_summary"][1] if name in content else None
        for name in (bot, human)})}

    degrees = []
    for kind in EDGE_KINDS if members[bot] else ():
        graph_files, stats = _graph_stats(corpus, _with(args, kind=kind, group=bot,
                                                        pair_groups=None))
        degrees.append((kind, graph_files["degree_histogram"]))
        metrics[f"{kind}_mean_in"] = stats["mean_in"]
        metrics[f"{kind}_largest_wcc"] = stats["largest_wcc_size"]
    files["fig2_degrees"] = ("fig2_degrees.csv", _keyed("edge_kind", DEGREE_COLUMNS, degrees))

    # Bot, human, then the rest by name, whatever the order of labels.csv.
    order = sorted(corpus.partition.names, key=lambda name: (name != bot, name != human, name))
    usable = [name for name in order if len(corpus.partition[name]) >= 2]
    pairs = [(kind, _pair_rates(corpus, graphlab.build_graph(corpus, kind), usable))
             for kind in (("reply", "retweet") if usable else ())]
    files["fig2_pairrates"] = ("fig2_pairrates.csv", _keyed("edge_kind", PAIR_COLUMNS, pairs))
    files["fig3_ternary"] = ("fig3_ternary.csv", _keyed(
        "group", TERNARY_COLUMNS,
        [(name, content[name]["ternary_bins"]) for name in (bot, human) if name in content]))

    for name, columns in (("hashtags", HASHTAG_COLUMNS), ("amplified", AMPLIFIED_COLUMNS)):
        files[f"fig4_{name}"] = (f"fig4_{name}.csv",
                                 content[bot][name][1] if members[bot] else (columns, []))
    domains = linkmap.domain_frequency(corpus, members[bot], args.top)
    files["fig5_domains"] = ("fig5_domains.csv",
                             (("rank", "domain", "count"), _rank_rows(domains)))
    if members[bot]:
        share = linkmap.domain_share_profiles(corpus, members[bot], linkmap.DEFAULT_SEED_DOMAINS)
        metrics["seed_domain_share_mean"] = share.mean_share_probability

    phrase_files, phrase_metrics = _scan_phrases(corpus, _with(args, phrases=None, rules=None))
    files["table1_categories"] = ("table1_categories.csv",
                                  phrase_files["category_summary"][1])
    metrics["n_self_revealing"] = phrase_metrics["n_hits"]

    recall = {"threshold": args.recall_threshold, "recall": None,
              "n_bot_scores": 0, "scores_file": None}
    if args.recall_scores:
        bots, _ = _read_scores_csv(_require(args.recall_scores, "--recall-scores"))
        recall["recall"] = detectkit.recall_at(zip(bots, repeat(detectkit.BOT_LABEL)),
                                               args.recall_threshold)
        recall["n_bot_scores"] = len(bots)
        recall["scores_file"] = str(args.recall_scores)
    files["fig6_recall"] = ("fig6_recall.json", recall)

    sweep_rows = []
    if members[bot] and members[human]:
        split = []
        for name in (bot, human):
            scores, _ = detectkit.score_corpus(corpus, detector, rules, group=members[name])
            split.append([s.mean_score for s in scores.values()])
        if all(split):
            outcome = detectkit.sweep_threshold(split=split)
            sweep_rows = _sweep_rows(outcome)
            metrics["best_threshold"] = outcome.best.threshold
            metrics["best_f1"] = outcome.best.f1
    files["fig8_sweep"] = ("fig8_sweep.csv", (SWEEP_COLUMNS, sweep_rows))
    return files, metrics


# ---------------------------------------------------------------------------
# Parser assembly

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="botsieve",
                     description="Botnet forensics over offline social-media corpora")
    parser.add_argument("--json", action="store_true",
                        help="print a machine-readable summary on stdout")
    sub = parser.add_subparsers(dest="command", metavar="|".join(SUBCOMMANDS))

    p = _add_command(sub, "ingest", _ingest, "load, validate, and summarize a corpus",
                     corpus=True, after_write=_ingest_after_write,
                     export_to=lambda args, out: out / "corpus" if args.export else None)
    p.add_argument("--export", action="store_true", help="re-emit the normalized corpus")
    p.add_argument("--strict", action="store_true", help="exit 2 on any violation")

    p = _add_command(sub, "scan-phrases", _scan_phrases,
                     "find and categorize self-revealing tweets", corpus=True)
    p.add_argument("--phrases", help="phrases.txt (one phrase per line)")
    p.add_argument("--rules", help="category_rules.csv (priority,category,trigger)")

    p = _add_command(sub, "expand-domains", _expand_domains,
                     "expand candidate accounts by seed domains", corpus=True)
    p.add_argument("--seeds", help="seeds.txt (one domain per line)")
    p.add_argument("--top", type=_int_at_least(1), default=10,
                   help="domains to keep in domain_freq.csv")

    p = _add_command(sub, "graph-stats", _graph_stats, "interaction-graph metrics",
                     corpus=True)
    p.add_argument("--kind", choices=EDGE_KINDS, default="follow")
    p.add_argument("--group", help="restrict both endpoints to this labeled group")
    p.add_argument("--pair-groups", type=_name_list,
                   help="comma-separated group names for pair rates")

    p = _add_command(sub, "content-stats", _content_stats,
                     "tweet mix, rankings, profile summaries", corpus=True)
    p.add_argument("--group", help="labeled group (default: every account)")
    p.add_argument("--resolution", type=_int_at_least(1), default=20)
    p.add_argument("--top", type=_int_at_least(1), default=10)

    p = _add_command(sub, "score", _score, "run a text detector over accounts", corpus=True)
    p.add_argument("--group", help="labeled group (default: every account)")
    p.add_argument("--min-qualified", type=_int_at_least(1), default=1)
    _add_detector_args(p)

    p = _add_command(sub, "sweep", _sweep, "F1-maximizing threshold sweep over labeled scores")
    p.add_argument("--scores", required=True, help="CSV with value,label columns")

    p = _add_command(sub, "ttest", _ttest, "Welch t-test between bot and human scores")
    p.add_argument("--scores", required=True, help="CSV with value,label columns")

    p = _add_command(sub, "synth", _synth, "generate a synthetic benchmark corpus",
                     load=_synth_corpus, after_write=_synth_after_write,
                     export_to=lambda args, out: out)
    p.add_argument("--preset", choices=("fox8",), default="fox8")
    p.add_argument("--seed", type=_int_at_least(0), default=None)
    p.add_argument("--n-bots", type=_int_at_least(2), default=None)
    p.add_argument("--n-humans", type=_int_at_least(0), default=None)
    p.add_argument("--params", help="key=value generator settings file "
                   "(human_* keys address the organic side)")

    p = _add_command(sub, "report", _report, "emit every figure/table data file", corpus=True,
                     load=_load_report_corpus)
    p.add_argument("--bot-group", default="bot")
    p.add_argument("--human-group", default="human")
    p.add_argument("--resolution", type=_int_at_least(1), default=20)
    p.add_argument("--top", type=_int_at_least(1), default=10)
    p.add_argument("--recall-scores", help="CSV with value,label for the recall harness")
    p.add_argument("--recall-threshold", type=_finite_float, default=2.5)
    _add_detector_args(p)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "stage", None) is None:
            raise UsageError("a subcommand is required (see --help)")
        corpus, out, summary = _run_stage(args)
        summary["outputs"].update(args.after_write(args, corpus, out, summary["metrics"]))
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
