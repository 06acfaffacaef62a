import csv
import json
import shutil
from pathlib import Path

import jsonschema
import pytest

from botsieve import synthnet
from botsieve.cli import run
from botsieve.corpus import export_corpus
from conftest import account, corpus_of, tweet

SCHEMA = json.loads(
    (Path(__file__).resolve().parents[1] / "src" / "botsieve" / "schemas"
     / "cli_summary.schema.json").read_text()
)


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def run_json(capsys, argv):
    code = run(["--json"] + argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    summary = json.loads(captured.out, parse_constant=_reject_constant)
    jsonschema.validate(summary, SCHEMA)
    return summary


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    code = run(["synth", "--preset", "fox8", "--seed", "7",
                "--n-bots", "80", "--n-humans", "60", "--out", str(out)])
    assert code == 0
    return out


def test_synth_writes_corpus(synth_dir):
    for name in ("accounts.jsonl", "tweets.jsonl", "edges.jsonl", "labels.csv"):
        assert (synth_dir / name).exists()


def test_synth_rerun_is_byte_identical(tmp_path):
    argv = ["synth", "--seed", "3", "--n-bots", "20", "--n-humans", "10"]
    assert run(argv + ["--out", str(tmp_path / "a")]) == 0
    assert run(argv + ["--out", str(tmp_path / "b")]) == 0
    for name in ("accounts.jsonl", "tweets.jsonl", "edges.jsonl", "labels.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_ingest_summary(capsys, synth_dir, tmp_path):
    summary = run_json(capsys, ["ingest", "--corpus-dir", str(synth_dir),
                                "--out", str(tmp_path)])
    assert summary["command"] == "ingest"
    assert summary["metrics"]["n_accounts"] == 140
    assert summary["metrics"]["n_violations"] == 0
    assert (tmp_path / "validation_report.csv").exists()
    assert (tmp_path / "corpus_summary.json").exists()


def test_scan_phrases_finds_planted_hit(capsys, tmp_path):
    corpus = corpus_of(
        [account("A"), account("B")],
        [tweet("t1", "A", text="just a normal tweet"),
         tweet("t2", "B", text="As an AI language model I cannot do that")],
    )
    corpus_dir = tmp_path / "corpus"
    export_corpus(corpus, corpus_dir)
    phrases = tmp_path / "phrases.txt"
    phrases.write_text("as an ai language model\n")
    out = tmp_path / "out"
    summary = run_json(capsys, ["scan-phrases", "--corpus-dir", str(corpus_dir),
                                "--phrases", str(phrases), "--out", str(out)])
    assert summary["metrics"]["n_hits"] == 1
    lines = (out / "hits.csv").read_text().strip().splitlines()
    assert lines[0] == "tweet_id,account_id,phrase"
    assert lines[1].startswith("t2,B,")


def test_expand_domains(capsys, tmp_path):
    corpus = corpus_of(
        [account("A"), account("B")],
        [tweet("t1", "A", urls=["https://fox8.news/x"]),
         tweet("t2", "B", urls=["https://vox.com/y"])],
    )
    corpus_dir = tmp_path / "corpus"
    export_corpus(corpus, corpus_dir)
    out = tmp_path / "out"
    summary = run_json(capsys, ["expand-domains", "--corpus-dir", str(corpus_dir),
                                "--out", str(out)])
    assert summary["metrics"]["n_accounts"] == 1
    assert (out / "expanded_accounts.csv").read_text().strip().splitlines()[1] == "A"
    freq = (out / "domain_freq.csv").read_text().strip().splitlines()
    assert freq == ["domain,count", "fox8.news,1"]
    shares = (out / "share_profiles.csv").read_text().strip().splitlines()
    assert shares == ["account_id,share_probability", "A,1.0"]


def test_synth_params_file(capsys, tmp_path):
    params = tmp_path / "gen.conf"
    params.write_text(
        "# generator settings\n"
        "n_bots = 12\n"
        "follow_degree_mean = 3.0\n"
        "tweet_mix_means = 40, 30, 30\n"
        "n_humans = 4\n"
        "human_tweets_mean = 30\n"
    )
    out = tmp_path / "out"
    summary = run_json(capsys, ["synth", "--params", str(params),
                                "--seed", "5", "--out", str(out)])
    assert summary["metrics"]["n_accounts"] == 16
    labels = (out / "labels.csv").read_text()
    assert labels.count(",bot") == 12
    assert labels.count(",human") == 4
    bad = tmp_path / "bad.conf"
    bad.write_text("no_such_knob = 4\n")
    assert run(["synth", "--params", str(bad), "--out", str(out)]) == 2
    capsys.readouterr()


def test_graph_stats_recovers_follow_degrees(capsys, tmp_path):
    corpus_dir = tmp_path / "corpus"
    export_corpus(synthnet.generate_botnet(synthnet.BotnetParams(rng_seed=7)), corpus_dir)
    out = tmp_path / "out"
    summary = run_json(capsys, [
        "graph-stats", "--corpus-dir", str(corpus_dir), "--kind", "follow",
        "--group", "bot", "--out", str(out)])
    assert abs(summary["metrics"]["mean_in"] - 13.7) <= 0.5
    assert (out / "follow_degree_summary.json").exists()
    assert (out / "follow_edges.csv").exists()


def test_graph_stats_pair_groups(capsys, synth_dir, tmp_path):
    out = tmp_path / "out"
    summary = run_json(capsys, [
        "graph-stats", "--corpus-dir", str(synth_dir), "--kind", "reply",
        "--pair-groups", "bot,human", "--out", str(out)])
    assert "pair_rates" in summary["metrics"]
    assert (out / "reply_pair_rates.csv").exists()


def test_content_stats(capsys, synth_dir, tmp_path):
    out = tmp_path / "out"
    summary = run_json(capsys, ["content-stats", "--corpus-dir", str(synth_dir),
                                "--group", "bot", "--out", str(out)])
    assert summary["metrics"]["n_accounts_with_tweets"] == 80
    for name in ("ternary_points.csv", "ternary_bins.csv", "hashtags.csv",
                 "amplified.csv", "profile_summary.json"):
        assert (out / name).exists()


def test_score_with_stub_detector(capsys, synth_dir, tmp_path):
    out = tmp_path / "out"
    summary = run_json(capsys, ["score", "--corpus-dir", str(synth_dir),
                                "--detector", "stub", "--group", "bot",
                                "--min-qualified", "2", "--out", str(out)])
    assert summary["metrics"]["detector"] == "stub"
    assert summary["metrics"]["n_scored"] > 0
    header = (out / "account_scores.csv").read_text().splitlines()[0]
    assert header == "account_id,n_qualified,mean_score"


def test_sweep_two_point_fixture(capsys, tmp_path):
    scores = tmp_path / "scores.csv"
    scores.write_text("value,label\n60,bot\n58,bot\n55,human\n40,human\n")
    out = tmp_path / "out"
    summary = run_json(capsys, ["sweep", "--scores", str(scores), "--out", str(out)])
    assert summary["metrics"]["f1"] == 1.0
    assert summary["metrics"]["best_threshold"] == 56.5
    written = json.loads((out / "summary.json").read_text())
    assert written["f1"] == 1.0
    curve_header = (out / "sweep_curve.csv").read_text().splitlines()[0]
    assert curve_header == "threshold,precision,recall,f1"


def test_ttest_command(capsys, tmp_path):
    scores = tmp_path / "scores.csv"
    rows = [f"{50 + i * 0.5},bot" for i in range(10)] + [f"{40 + i * 0.5},human" for i in range(10)]
    scores.write_text("value,label\n" + "\n".join(rows) + "\n")
    summary = run_json(capsys, ["ttest", "--scores", str(scores),
                                "--out", str(tmp_path / "out")])
    assert summary["metrics"]["t"] > 0
    assert 0 <= summary["metrics"]["p"] <= 1


REPORT_FILES = (
    "fig1_profiles.json", "fig2_degrees.csv", "fig2_pairrates.csv",
    "fig3_ternary.csv", "fig4_hashtags.csv", "fig4_amplified.csv",
    "fig5_domains.csv", "table1_categories.csv", "fig6_recall.json",
    "fig8_sweep.csv",
)


def test_report_emits_all_figure_files(capsys, synth_dir, tmp_path):
    out = tmp_path / "report"
    summary = run_json(capsys, ["report", "--corpus-dir", str(synth_dir),
                                "--detector", "stub", "--out", str(out)])
    for name in REPORT_FILES:
        assert (out / name).exists(), name
    assert summary["metrics"]["n_self_revealing"] >= 0
    assert "best_threshold" in summary["metrics"]
    recall = json.loads((out / "fig6_recall.json").read_text())
    assert recall["threshold"] == 2.5
    assert recall["recall"] is None


def test_report_recall_harness(capsys, synth_dir, tmp_path):
    scores = tmp_path / "botometer_like.csv"
    scores.write_text("value,label\n0.5,bot\n1.2,bot\n2.1,bot\n")
    out = tmp_path / "report"
    run_json(capsys, ["report", "--corpus-dir", str(synth_dir), "--detector", "stub",
                      "--recall-scores", str(scores), "--out", str(out)])
    recall = json.loads((out / "fig6_recall.json").read_text())
    assert recall["recall"] == 0.0
    assert recall["n_bot_scores"] == 3


def test_report_on_empty_corpus_writes_headers(capsys, tmp_path):
    corpus_dir = tmp_path / "corpus"
    export_corpus(corpus_of([], []), corpus_dir)
    out = tmp_path / "report"
    run_json(capsys, ["report", "--corpus-dir", str(corpus_dir), "--out", str(out)])
    for name in REPORT_FILES:
        assert (out / name).exists(), name
        if name.endswith(".csv"):
            content = (out / name).read_text().splitlines()
            assert len(content) >= 1 and "," in content[0]


def test_report_rerun_byte_identical(capsys, synth_dir, tmp_path):
    argv = ["report", "--corpus-dir", str(synth_dir), "--detector", "stub"]
    assert run(argv + ["--out", str(tmp_path / "r1")]) == 0
    assert run(argv + ["--out", str(tmp_path / "r2")]) == 0
    for name in REPORT_FILES:
        assert (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()


def test_tweet_cap_flag(capsys, synth_dir, tmp_path):
    from botsieve.corpus import load_corpus
    full = load_corpus(synth_dir / "accounts.jsonl", synth_dir / "tweets.jsonl")
    expected = sum(min(5, len(ids)) for ids in full.tweets_by_author.values())
    capped = run_json(capsys, ["ingest", "--corpus-dir", str(synth_dir),
                               "--tweet-cap", "5", "--out", str(tmp_path)])
    assert capped["metrics"]["n_tweets"] == expected < full.n_tweets


def test_tweet_cap_keeps_load_report(capsys, synth_dir, tmp_path):
    corpus_dir = tmp_path / "corpus"
    shutil.copytree(synth_dir, corpus_dir)
    with open(corpus_dir / "tweets.jsonl", "a", encoding="utf-8") as fh:
        fh.write("{not json\n")
    argv = ["ingest", "--corpus-dir", str(corpus_dir), "--out", str(tmp_path / "out")]
    assert run_json(capsys, argv)["metrics"]["n_violations"] == 1
    capped = run_json(capsys, argv + ["--tweet-cap", "5"])
    assert capped["metrics"]["n_violations"] == 1


@pytest.mark.parametrize("argv", [
    ["expand-domains", "--top", "0"],
    ["content-stats", "--resolution", "0"],
    ["score", "--min-qualified", "0"],
    ["ingest", "--tweet-cap", "0"],
])
def test_non_positive_counts_are_usage_errors_before_loading(capsys, tmp_path, argv):
    missing = str(tmp_path / "no-such-corpus")
    assert run(argv + ["--corpus-dir", missing, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith("usage error:")


@pytest.mark.parametrize("command,row", [("sweep", "nan,human"), ("sweep", "inf,bot"),
                                         ("ttest", "50.0,hmn")])
def test_bad_score_row_is_a_located_data_error(capsys, tmp_path, command, row):
    scores = tmp_path / "scores.csv"
    rows = [f"{50 + i},bot" for i in range(3)] + [f"{40 + i},human" for i in range(3)]
    scores.write_text("value,label\n" + "\n".join(rows + [row]) + "\n")
    assert run([command, "--scores", str(scores), "--out", str(tmp_path / "o")]) == 2
    assert f"{scores}:8:" in capsys.readouterr().err


def _csv_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def test_report_and_stage_subcommands_write_the_same_rows(capsys, synth_dir, tmp_path):
    corpus = ["--corpus-dir", str(synth_dir)]
    report, stage = tmp_path / "report", tmp_path / "stage"
    run_json(capsys, ["report", *corpus, "--detector", "stub", "--out", str(report)])
    run_json(capsys, ["content-stats", *corpus, "--group", "bot", "--out", str(stage)])
    run_json(capsys, ["graph-stats", *corpus, "--kind", "follow", "--group", "bot",
                      "--out", str(stage)])
    profiles = json.loads((report / "fig1_profiles.json").read_text())
    assert profiles["bot"] == json.loads((stage / "profile_summary.json").read_text())
    assert (report / "fig4_hashtags.csv").read_bytes() == (stage / "hashtags.csv").read_bytes()
    degrees = _csv_rows(report / "fig2_degrees.csv")
    histogram = _csv_rows(stage / "follow_degree_histogram.csv")
    assert degrees[0][1:] == histogram[0]
    assert [row[1:] for row in degrees[1:] if row[0] == "follow"] == histogram[1:]
    assert len(histogram) > 1


def test_exit_codes(tmp_path, capsys):
    assert run(["no-such-command"]) == 1
    assert run([]) == 1
    assert run(["sweep", "--scores", str(tmp_path / "missing.csv"),
                "--out", str(tmp_path)]) == 2
    single = tmp_path / "single.csv"
    single.write_text("value,label\n1.0,bot\n")
    assert run(["sweep", "--scores", str(single), "--out", str(tmp_path)]) == 2
    capsys.readouterr()


def test_usage_error_message_on_stderr(capsys):
    assert run(["graph-stats", "--kind", "nonsense"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:")
    assert "\n" not in err.strip()


def test_data_error_names_missing_group(capsys, tmp_path):
    corpus_dir = tmp_path / "corpus"
    export_corpus(corpus_of([account("A")], [tweet("t1", "A")]), corpus_dir)
    code = run(["content-stats", "--corpus-dir", str(corpus_dir),
                "--group", "bot", "--out", str(tmp_path / "o")])
    assert code == 2
    assert "bot" in capsys.readouterr().err
