#!/usr/bin/env python3
"""Benchmark of the botsieve CLI: three workloads, each in child processes.

    python3 benchmarks/run.py --workload fox8-report --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Each run makes its inputs from ``--seed`` (set-up, timed on its own), then
runs whole rounds of the workload's CLI invocations until ``--seconds`` have
passed, checks every output, and prints one JSON line last:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (medians over
rounds); with ``--trace 1`` the run adds one traced set-up and one traced
round and prints the per-layer metrics instead. See benchmarks/README.md.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "_work"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import workloads  # noqa: E402

PY = sys.executable
DEADLINE_S = 170.0
# Set-up is repeated and its median reported, so that work moved into
# set-up shows. The fox8 synth takes 11-15 s; repeating it would push a full
# comparison (70 runs in 57 minutes) past its time budget, so it runs once.
SETUP_REPEATS = {"fox8-report": 1, "staged-distinct": 4, "tweet-sweep": 4}
# Rounds per run: at least these, more while --seconds have not passed. The
# 10 s tweet-sweep round gets a second one; a second 20-30 s round of the
# corpus workloads does not fit that time budget.
MIN_ROUNDS = {"fox8-report": 1, "staged-distinct": 1, "tweet-sweep": 2}
IMPORT_REPEATS = 3

END_TO_END = {
    "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s", "setup_rss_mb": "MB",
}
CLI_COMMANDS = ("report", "ingest", "scan-phrases", "expand-domains", "graph-stats",
                "content-stats", "score", "sweep", "ttest")
# Per-layer metrics: (name, unit). Function times are self times summed over
# every call in the traced set-up and round.
PER_LAYER = (
    [("corpus.load_s", "s"), ("corpus.load_tweets_per_s", "1/s"),
     ("corpus.rss_after_load_mb", "MB"), ("corpus.validate_s", "s"),
     ("corpus.export_s", "s")]
    + [(f"{m}.{f}_s", "s") for m, f in (
        ("seedscan", "find_phrase_tweets"), ("seedscan", "category_summary"),
        ("linkmap", "expand_by_domains"), ("linkmap", "domain_frequency"),
        ("linkmap", "domain_share_profiles"),
        ("graphlab", "build_graph"), ("graphlab", "degree_stats"),
        ("graphlab", "largest_wcc"), ("graphlab", "pair_rate_matrix"),
        ("contentstats", "group_mix_points"), ("contentstats", "ternary_bin"),
        ("contentstats", "hashtag_ranking"), ("contentstats", "amplified_accounts"),
        ("contentstats", "profile_summary"),
        ("detectkit", "score_corpus"))]
    + [("detectkit.texts_per_s", "1/s"), ("detectkit.detector_calls", "count"),
       ("detectkit.sweep_threshold_s", "s"), ("detectkit.welch_t_s", "s"),
       ("synthnet.generate_botnet_s", "s"), ("synthnet.generate_humans_s", "s"),
       ("synthnet.simulate_scores_s", "s"), ("cli.import_s", "s")]
    + [(f"cli.{c}_s", "s") for c in CLI_COMMANDS]
    + [("cli.self_s", "s"), ("trace.overhead_s", "s")]
)
# Metric name -> traced function, where the two differ.
FUNCTION_OF = {"corpus.load_s": "corpus.load_corpus", "corpus.validate_s": "corpus.validate",
               "corpus.export_s": "corpus.export_corpus"}


class BenchError(Exception):
    """The benchmark itself cannot run (as opposed to a failed operation)."""


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv, cwd: Path, log: Path, deadline: float) -> dict:
    """Run one child to completion; wall, CPU and peak RSS come from wait4."""
    with open(log.with_suffix(".stdout"), "wb") as out, \
            open(log.with_suffix(".stderr"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=err, env=child_env())
        watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    return {"code": proc.returncode, "wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "stdout": log.with_suffix(".stdout").read_text(encoding="utf-8", errors="replace")}


# ---------------------------------------------------------------------------
# Workload definitions


def operations(workload: str, inputs: Path, out: Path) -> list:
    """The CLI invocations of one round, in order; a callable is an untimed step."""
    corpus = ["--corpus-dir", str(inputs / workloads.CORPUS_DIR)]
    dest = ["--out", str(out)]
    if workload == "fox8-report":
        return [("report", ["report", *corpus, "--detector", "heuristic", *dest])]
    if workload == "tweet-sweep":
        scores = ["--scores", str(inputs / workloads.SCORES_FILE)]
        return [("sweep", ["sweep", *scores, *dest]), ("ttest", ["ttest", *scores, *dest])]
    labeled = ["--scores", str(out.parent / "labeled_scores.csv")]
    return [
        ("ingest", ["ingest", *corpus, "--export", *dest]),
        ("scan-phrases", ["scan-phrases", *corpus, *dest]),
        ("expand-domains", ["expand-domains", *corpus, *dest]),
        ("graph-stats", ["graph-stats", *corpus, "--kind", "follow", "--group", "bot", *dest]),
        ("content-stats", ["content-stats", *corpus, "--group", "bot", *dest]),
        ("score", ["score", *corpus, "--detector", "heuristic", *dest]),
        lambda: join_scores(out / "account_scores.csv",
                            inputs / workloads.CORPUS_DIR / "labels.csv",
                            out.parent / "labeled_scores.csv"),
        ("sweep", ["sweep", *labeled, *dest]),
        ("ttest", ["ttest", *labeled, *dest]),
    ]


def join_scores(scores: Path, labels: Path, dest: Path) -> None:
    """account_scores.csv x labels.csv -> the value,label file sweep/ttest read."""
    group_of: dict[str, str] = {}
    with open(labels, "r", encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            if row["group_name"] in (checks.BOT, checks.HUMAN):
                group_of.setdefault(row["account_id"], row["group_name"])
    rows = []
    if scores.exists():
        with open(scores, "r", encoding="utf-8", newline="") as fh:
            rows = [(r["mean_score"], group_of[r["account_id"]]) for r in csv.DictReader(fh)
                    if r["account_id"] in group_of]
    with open(dest, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["value", "label"])
        writer.writerows(rows)


def labeled_scores(workload: str, inputs: Path, round_dir: Path) -> Path | None:
    if workload == "tweet-sweep":
        return inputs / workloads.SCORES_FILE
    if workload == "staged-distinct":
        return round_dir / "labeled_scores.csv"
    return None


# ---------------------------------------------------------------------------
# Set-up, rounds, tracing


def make_inputs(args, dest: Path, deadline: float, spans: Path | None = None) -> dict:
    setup = ["--workload", args.workload, "--seed", str(args.seed), "--scale", args.scale,
             "--out", str(dest)]
    if spans is None:
        argv = [PY, str(BENCH / "workloads.py"), *setup]
    else:
        argv = [PY, str(BENCH / "tracing.py"), "--spans", str(spans), "setup", "--", *setup]
    result = spawn(argv, dest.parent, dest.parent / f"{dest.name}-setup", deadline)
    if result["code"] != 0:
        err = (dest.parent / f"{dest.name}-setup.stderr").read_text(errors="replace")
        raise BenchError(f"set-up failed with exit {result['code']}:\n{err[-2000:]}")
    return result


def run_round(args, inputs: Path, round_dir: Path, deadline: float,
              spans_dir: Path | None = None) -> dict:
    out = round_dir / "analysis"
    out.mkdir(parents=True)
    ops = []
    for step in operations(args.workload, inputs, out):
        if callable(step):
            step()
            continue
        name, cli_args = step
        if spans_dir is None:
            argv = [PY, "-m", "botsieve.cli", "--json", *cli_args]
        else:
            argv = [PY, str(BENCH / "tracing.py"), "--spans", str(spans_dir / f"{name}.json"),
                    "cli", "--", "--json", *cli_args]
        result = spawn(argv, round_dir, round_dir / name, deadline)
        result["name"] = name
        ops.append(result)
    return {"dir": round_dir, "out": out, "ops": ops,
            "wall": sum(op["wall"] for op in ops), "cpu": sum(op["cpu"] for op in ops),
            "rss_mb": max(op["rss_mb"] for op in ops)}


def digests(out: Path) -> dict[str, str]:
    result = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        result[str(path.relative_to(out))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return result


def check_round(args, inputs: Path, manifest: dict, raw, rnd: dict) -> list[str]:
    failed = {op["name"] for op in rnd["ops"] if op["code"] != 0}
    if failed:
        return [f"operations failed: {sorted(failed)}"]
    ctx = checks.Context(inputs=inputs, manifest=manifest,
                         stdout={op["name"]: op["stdout"] for op in rnd["ops"]},
                         labeled_scores=labeled_scores(args.workload, inputs, rnd["dir"]),
                         raw=raw)
    return checks.run_checks(args.workload, rnd["out"], ctx)


def code_digest() -> str:
    """Hash of the program's sources and the benchmark's own, so that stored
    output digests are only ever compared within one version of both."""
    h = hashlib.sha256()
    files = [p for p in (ROOT / "src").rglob("*") if p.is_file() and "__pycache__" not in p.parts]
    for path in sorted(files + list(BENCH.glob("*.py"))):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def check_repeatable(args, rounds: list[dict]) -> list[str]:
    """Outputs are byte-identical across the rounds of this run, and across
    earlier runs of the same code with the same seed and scale."""
    failures = []
    first = digests(rounds[0]["out"])
    for rnd in rounds[1:]:
        if digests(rnd["out"]) != first:
            failures.append(f"{rnd['dir'].name}: outputs differ from {rounds[0]['dir'].name}")
    key = f"{args.workload}-{args.scale}-seed{args.seed}-{code_digest()}"
    store = WORK / "digests" / f"{key}.json"
    if store.exists():
        if json.loads(store.read_text(encoding="utf-8")) != first:
            failures.append(f"outputs differ from an earlier run of this code with seed {args.seed}")
    else:
        store.parent.mkdir(parents=True, exist_ok=True)
        tmp = store.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(first, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        tmp.replace(store)
    return failures


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the time its child spans cover (children never overlap)."""
    child_time: dict[int, float] = {}
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] = child_time.get(span["parent"], 0.0) + \
                span["end"] - span["start"]
    return {s["id"]: s["end"] - s["start"] - child_time.get(s["id"], 0.0) for s in spans}


def layer_metrics(processes: list[list[dict]], import_s: float, overhead_s: float) -> dict:
    """Per-layer metrics from the spans of every traced process."""
    self_s: dict[str, float] = {}
    inclusive: dict[str, float] = {}    # root spans: one per process
    counts: dict[str, float] = {}
    rss_after_load = 0.0
    for spans in processes:
        own = self_times(spans)
        for span in spans:
            name = span["name"]
            self_s[name] = self_s.get(name, 0.0) + own[span["id"]]
            if span["parent"] is None:
                inclusive[name] = inclusive.get(name, 0.0) + span["end"] - span["start"]
            for key, value in span["counts"].items():
                counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + value
            if name == "corpus.load_corpus":
                rss_after_load = max(rss_after_load, span["counts"]["rss_mb"])

    def rate(count_key: str, fn: str) -> float:
        seconds = self_s.get(fn, 0.0)
        return counts.get(count_key, 0) / seconds if seconds > 0 else 0.0

    values = {
        "corpus.load_tweets_per_s": rate("corpus.load_corpus.tweets", "corpus.load_corpus"),
        "corpus.rss_after_load_mb": rss_after_load,
        "detectkit.texts_per_s": rate("detectkit.score_corpus.texts", "detectkit.score_corpus"),
        "detectkit.detector_calls": counts.get("detectkit.score_corpus.detector_calls", 0),
        "cli.import_s": import_s,
        "cli.self_s": sum(self_s.get(f"cli.{c}", 0.0) for c in CLI_COMMANDS),
        "trace.overhead_s": overhead_s,
    }
    for name, _ in PER_LAYER:
        if name in values:
            continue
        if name.startswith("cli."):
            values[name] = inclusive.get(name[:-2], 0.0)
        else:
            values[name] = self_s.get(FUNCTION_OF.get(name, name[:-2]), 0.0)
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def measure_import(work: Path, deadline: float) -> float:
    walls = [spawn([PY, "-c", "import botsieve.cli"], work, work / f"import-{i}", deadline)
             for i in range(IMPORT_REPEATS)]
    if any(w["code"] != 0 for w in walls):
        raise BenchError("cannot import botsieve.cli")
    return statistics.median(w["wall"] for w in walls)


def traced(args, work: Path, inputs: Path, untraced_wall: float, deadline: float):
    """One traced set-up and one traced round; returns (round, metrics, trace file)."""
    import_s = measure_import(work, deadline)
    spans_dir = work / "spans"
    spans_dir.mkdir()
    make_inputs(args, work / "trace-inputs", deadline, spans=spans_dir / "setup.json")
    shutil.rmtree(work / "trace-inputs")
    rnd = run_round(args, inputs, work / "trace-round", deadline, spans_dir=spans_dir)
    processes = {p.stem: json.loads(p.read_text(encoding="utf-8"))
                 for p in sorted(spans_dir.glob("*.json"))}
    metrics = layer_metrics(list(processes.values()), import_s, rnd["wall"] - untraced_wall)
    trace_file = WORK / "traces" / f"{args.workload}-{args.scale}-seed{args.seed}.json"
    trace_file.parent.mkdir(parents=True, exist_ok=True)
    trace_file.write_text(json.dumps({"processes": processes, "metrics": metrics},
                                     indent=1, allow_nan=False) + "\n", encoding="utf-8")
    return rnd, metrics, trace_file


# ---------------------------------------------------------------------------


def bench(args, work: Path) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    setups = []
    inputs = work / "inputs"
    smoke = args.scale == "smoke"
    repeats = 1 if smoke else SETUP_REPEATS[args.workload]
    for i in range(repeats):
        dest = inputs if i == 0 else work / f"inputs-{i}"
        setups.append(make_inputs(args, dest, deadline))
        if dest != inputs:
            shutil.rmtree(dest)
    manifest = json.loads((inputs / workloads.MANIFEST).read_text(encoding="utf-8"))

    rounds = []
    min_rounds = 1 if smoke else MIN_ROUNDS[args.workload]
    start = time.perf_counter()
    while len(rounds) < min_rounds or time.perf_counter() - start < args.seconds:
        rounds.append(run_round(args, inputs, work / f"round-{len(rounds)}", deadline))
    wall = statistics.median(r["wall"] for r in rounds)

    # Untimed: independent tallies of the raw corpus for the output checks.
    corpus = inputs / workloads.CORPUS_DIR
    raw = checks.tally_corpus(corpus, manifest["planted"]) if corpus.is_dir() else None
    failures = check_round(args, inputs, manifest, raw, rounds[0])
    metrics = {
        "wall_s": wall,
        "cpu_s": statistics.median(r["cpu"] for r in rounds),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in rounds),
        "setup_s": statistics.median(s["wall"] for s in setups),
        "setup_rss_mb": statistics.median(s["rss_mb"] for s in setups),
    }
    metrics = {name: {"value": metrics[name], "unit": END_TO_END[name]} for name in END_TO_END}
    if args.trace:
        rnd, metrics, trace_file = traced(args, work, inputs, wall, deadline)
        failures += [f"traced round: {f}" for f in check_round(args, inputs, manifest, raw, rnd)]
        rounds.append(rnd)
        print(f"spans written to {trace_file.relative_to(ROOT)}", file=sys.stderr)
    if not failures:
        failures = check_repeatable(args, rounds)
    for failure in failures:
        print(f"CHECK FAILED {failure}", file=sys.stderr)
    ops = [op for r in rounds for op in r["ops"]]
    return {"correct": not failures, "attempted": len(ops),
            "failed": sum(1 for op in ops if op["code"] != 0), "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(workloads.SCALES), default="full",
                        help="smoke: tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so children are killed and work is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "botsieve" / "cli.py").is_file():
        print(f"error: no botsieve sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = WORK / f"run-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = bench(args, work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
