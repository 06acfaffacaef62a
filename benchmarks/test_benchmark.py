"""The benchmark's own tests: a smoke run of every workload, and negative
tests showing that each output check rejects a corrupted output.

    python3 -m pytest benchmarks -q
"""

from __future__ import annotations

import argparse
import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run as bench_run
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_bench(*argv, cwd=ROOT):
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="session")
def kept(tmp_path_factory):
    """Smoke run of each workload, in-process; its work directory is kept for the checks."""
    runs = {}
    for workload in workloads.WORKLOADS:
        work = tmp_path_factory.mktemp(workload)
        args = argparse.Namespace(workload=workload, seed=3, seconds=0, trace=0, scale="smoke")
        runs[workload] = (work, bench_run.bench(args, work))
    return runs


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_is_correct(kept, workload):
    _, result = kept[workload]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] == len([op for op in bench_run.operations(
        workload, Path("in"), Path("out")) if not callable(op)])
    assert set(result["metrics"]) == set(bench_run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_smoke_run_reports_every_layer_metric():
    proc = run_bench("--workload", "fox8-report", "--seed", "4", "--seconds", "0",
                     "--trace", "1", "--scale", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    metrics = result["metrics"]
    assert [name for name, _ in bench_run.PER_LAYER] == list(metrics)
    for name in ("corpus.load_s", "detectkit.score_corpus_s", "detectkit.detector_calls",
                 "synthnet.generate_botnet_s", "cli.report_s", "cli.import_s"):
        assert metrics[name]["value"] > 0, name
    assert metrics["cli.ingest_s"]["value"] == 0.0


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert spec["command"] == ["python3", "benchmarks/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench_run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(bench_run.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "tweet-sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""


# ---------------------------------------------------------------------------
# Negative tests: every check rejects a corrupted output.


def context_for(work: Path, workload: str) -> tuple[Path, checks.Context]:
    inputs = work / "inputs"
    round_dir = work / "round-0"
    stdout = {p.stem: p.read_text(encoding="utf-8") for p in round_dir.glob("*.stdout")}
    manifest = json.loads((inputs / workloads.MANIFEST).read_text(encoding="utf-8"))
    corpus = inputs / workloads.CORPUS_DIR
    ctx = checks.Context(
        inputs=inputs, manifest=manifest, stdout=stdout,
        labeled_scores=bench_run.labeled_scores(workload, inputs, round_dir),
        raw=checks.tally_corpus(corpus, manifest["planted"]) if corpus.is_dir() else None)
    return round_dir / "analysis", ctx


@pytest.fixture
def copy_of(kept, tmp_path):
    def make(workload):
        work = tmp_path / workload
        shutil.copytree(kept[workload][0], work)
        out, ctx = context_for(work, workload)
        assert checks.run_checks(workload, out, ctx) == []
        return out, ctx
    return make


def edit_csv(path: Path, edit) -> None:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    rows = edit(rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows(rows)


def set_cell(row: int, col: int, value):
    def edit(rows):
        rows[row][col] = str(value(rows[row][col]) if callable(value) else value)
        return rows
    return edit


def drop_row(row: int):
    return lambda rows: rows[:row] + rows[row + 1:]


def edit_json(path: Path, key: str, value) -> None:
    obj = json.loads(path.read_text(encoding="utf-8"))
    obj[key] = value(obj[key]) if callable(value) else value
    path.write_text(json.dumps(obj), encoding="utf-8")


def swap_recall(rows):
    # Put a higher recall after a lower one: recall now rises with the threshold.
    lo = next(i for i in range(2, len(rows)) if rows[i][2] != rows[1][2])
    rows[1][2], rows[lo][2] = rows[lo][2], rows[1][2]
    return rows


def drop_best(rows):
    best = max(range(1, len(rows)), key=lambda i: float(rows[i][3]))
    return rows[:best] + rows[best + 1:]


def plus_one(text):
    return int(text) + 1


REPORT_CORRUPTIONS = [
    ("check_report_rankings", "fig5_domains.csv", set_cell(1, 2, plus_one)),
    ("check_report_rankings", "fig4_hashtags.csv", set_cell(2, 2, plus_one)),
    ("check_report_rankings", "fig4_amplified.csv", drop_row(1)),
    ("check_report_self_reveal", "table1_categories.csv", set_cell(1, 1, plus_one)),
    ("check_report_degrees", "fig2_degrees.csv", set_cell(1, 3, plus_one)),
    ("check_report_pair_rate", "fig2_pairrates.csv", set_cell(1, 3, plus_one)),
    ("check_report_ternary", "fig3_ternary.csv", set_cell(1, 4, plus_one)),
    ("check_report_sweep", "fig8_sweep.csv", swap_recall),
    ("check_report_sweep", "fig8_sweep.csv", drop_best),
]


@pytest.mark.parametrize("check, name, edit", REPORT_CORRUPTIONS,
                         ids=[f"{c}-{n}" for c, n, _ in REPORT_CORRUPTIONS])
def test_report_checks_reject_corruption(copy_of, check, name, edit):
    out, ctx = copy_of("fox8-report")
    edit_csv(out / name, edit)
    with pytest.raises(checks.CheckFailed):
        getattr(checks, check)(out, ctx)


def test_strict_json_checks_reject_nan(copy_of):
    out, ctx = copy_of("fox8-report")
    ctx.stdout["report"] = ctx.stdout["report"].replace('"best_f1": ', '"best_f1": NaN, "x": ')
    with pytest.raises(checks.CheckFailed):
        checks.check_summary_lines(out, ctx)
    path = out / "fig6_recall.json"
    path.write_text(path.read_text(encoding="utf-8").replace("2.5", "Infinity"),
                    encoding="utf-8")
    with pytest.raises(checks.CheckFailed):
        checks.check_json_files(out, ctx)


def test_recovery_check_rejects_drifted_parameters(tmp_path):
    ctx = checks.Context(inputs=tmp_path, manifest={"scale": "full"}, stdout={})
    (tmp_path / "fig2_degrees.csv").write_text(
        "edge_kind,direction,degree,count\nfollow,in,13,3\nfollow,in,15,2\n", encoding="utf-8")
    profiles = tmp_path / "fig1_profiles.json"
    profiles.write_text(json.dumps({"bot": {"follower_mean": 74.9}}), encoding="utf-8")
    checks.check_report_recovery(tmp_path, ctx)
    profiles.write_text(json.dumps({"bot": {"follower_mean": 77.5}}), encoding="utf-8")
    with pytest.raises(checks.CheckFailed):
        checks.check_report_recovery(tmp_path, ctx)
    (tmp_path / "fig2_degrees.csv").write_text(
        "edge_kind,direction,degree,count\nfollow,in,12,3\nfollow,in,15,1\n", encoding="utf-8")
    profiles.write_text(json.dumps({"bot": {"follower_mean": 74.0}}), encoding="utf-8")
    with pytest.raises(checks.CheckFailed):
        checks.check_report_recovery(tmp_path, ctx)


STAGED_CORRUPTIONS = [
    ("check_validation_report", "validation_report.csv", drop_row(1)),
    ("check_validation_report", "validation_report.csv", set_cell(1, 1, plus_one)),
    ("check_hits", "hits.csv", drop_row(1)),
    ("check_expanded", "expanded_accounts.csv", drop_row(1)),
    ("check_follow_edges", "follow_edges.csv", set_cell(1, 2, 2)),
    ("check_follow_edges", "follow_edges.csv", drop_row(1)),
    ("check_content_ternary", "ternary_bins.csv", set_cell(1, 3, plus_one)),
    ("check_scores", "account_scores.csv", set_cell(1, 2, "100.5")),
    ("check_scores", "account_scores.csv", set_cell(1, 2, "nan")),
    ("check_scores", "account_scores.csv", drop_row(1)),
    ("check_sweep", "sweep_curve.csv", swap_recall),
]


@pytest.mark.parametrize("check, name, edit", STAGED_CORRUPTIONS,
                         ids=[f"{c}-{n}" for c, n, _ in STAGED_CORRUPTIONS])
def test_staged_checks_reject_corruption(copy_of, check, name, edit):
    out, ctx = copy_of("staged-distinct")
    edit_csv(out / name, edit)
    with pytest.raises(checks.CheckFailed):
        getattr(checks, check)(out, ctx)


JSON_CORRUPTIONS = [
    ("staged-distinct", "check_validation_report", "corpus_summary.json", "n_tweets", plus_one),
    ("staged-distinct", "check_follow_edges", "follow_degree_summary.json", "mean_in",
     lambda v: v * 1.01),
    ("staged-distinct", "check_sweep", "summary.json", "f1", lambda v: v - 0.01),
    ("staged-distinct", "check_ttest", "ttest.json", "t", lambda v: v + 0.5),
    ("tweet-sweep", "check_sweep", "summary.json", "f1", lambda v: v + 1e-6),
    ("tweet-sweep", "check_sweep_reference", "summary.json", "best_threshold", 45.0),
    ("tweet-sweep", "check_ttest", "ttest.json", "df", lambda v: v + 1.0),
    ("tweet-sweep", "check_ttest", "ttest.json", "n_bot", plus_one),
]


@pytest.mark.parametrize("workload, check, name, key, value", JSON_CORRUPTIONS,
                         ids=[f"{w}-{c}-{k}" for w, c, _, k, _ in JSON_CORRUPTIONS])
def test_json_checks_reject_corruption(copy_of, workload, check, name, key, value):
    out, ctx = copy_of(workload)
    edit_json(out / name, key, value)
    with pytest.raises(checks.CheckFailed):
        getattr(checks, check)(out, ctx)


def test_repeatability_check_rejects_a_changed_byte(kept, tmp_path):
    work = tmp_path / "work"
    shutil.copytree(kept["tweet-sweep"][0], work)
    second = work / "round-1"
    shutil.copytree(work / "round-0", second)
    rounds = [{"dir": work / "round-0", "out": work / "round-0" / "analysis"},
              {"dir": second, "out": second / "analysis"}]
    args = type("Args", (), {"workload": "tweet-sweep", "scale": "smoke", "seed": 3})()
    assert bench_run.check_repeatable(args, rounds) == []
    path = second / "analysis" / "sweep_curve.csv"
    path.write_bytes(path.read_bytes() + b"\n")
    assert bench_run.check_repeatable(args, rounds) != []


# ---------------------------------------------------------------------------
# Independent recomputations and span arithmetic


def test_best_f1_matches_brute_force():
    import numpy as np

    rng = np.random.default_rng(0)
    values = np.round(rng.normal(50, 10, 300), 1)     # rounding makes ties
    labels = np.where(rng.random(300) < 0.4, "bot", "human")
    best = 0.0
    for t in np.unique(values):
        tp = np.sum((values >= t) & (labels == "bot"))
        fp = np.sum((values >= t) & (labels == "human"))
        fn = np.sum((values < t) & (labels == "bot"))
        best = max(best, 2 * tp / (2 * tp + fp + fn))
    assert checks.best_f1(values, labels) == pytest.approx(best, rel=1e-12)


def test_url_host_normalization():
    assert checks.url_host("https://www.www.Fox8.News./post/1") == "fox8.news"
    assert checks.url_host("http://user@host.org:8080/x") == "host.org"
    assert checks.url_host("not a url") is None


def test_self_time_subtracts_child_spans():
    spans = [
        {"id": 1, "parent": None, "name": "cli.report", "start": 0.0, "end": 10.0, "counts": {}},
        {"id": 2, "parent": 1, "name": "corpus.load_corpus", "start": 1.0, "end": 5.0,
         "counts": {"tweets": 400, "rss_mb": 50.0}},
        {"id": 3, "parent": 1, "name": "detectkit.score_corpus", "start": 5.0, "end": 8.0,
         "counts": {"texts": 300, "detector_calls": 300}},
    ]
    metrics = bench_run.layer_metrics([spans], import_s=1.5, overhead_s=0.25)
    value = {name: m["value"] for name, m in metrics.items()}
    assert value["cli.report_s"] == 10.0
    assert value["cli.self_s"] == 3.0
    assert value["corpus.load_s"] == 4.0
    assert value["corpus.load_tweets_per_s"] == 100.0
    assert value["detectkit.texts_per_s"] == 100.0
    assert value["detectkit.detector_calls"] == 300
    assert value["corpus.rss_after_load_mb"] == 50.0
    assert value["graphlab.build_graph_s"] == 0.0
