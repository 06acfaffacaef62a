import csv
import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from botsieve import synthnet
from botsieve.cli import DataError, _read_params_file, run
from botsieve.corpus import Account, FollowEdge, Tweet, export_corpus
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


def test_welch_overflow_is_rejected_not_printed_as_nan(capsys, tmp_path):
    scores = tmp_path / "scores.csv"
    scores.write_text("value,label\n1e308,bot\n-1e308,bot\n1e308,human\n-1e308,human\n")
    out = tmp_path / "out"
    assert run(["ttest", "--scores", str(scores), "--out", str(out)]) == 2
    assert "not finite" in capsys.readouterr().err
    assert not (out / "ttest.json").exists()
    summary = run_json(capsys, ["sweep", "--scores", str(scores), "--out", str(out)])
    assert summary["metrics"]["welch"] is None
    assert json.loads((out / "summary.json").read_text())["welch"] is None


@pytest.mark.parametrize("aliases", ['[1]', '{"tweets": "x"}', '"tweets"',
                                     '{"tweets": {"tweet_id": ["id"]}}'])
def test_malformed_aliases_are_data_errors(capsys, synth_dir, tmp_path, aliases):
    path = tmp_path / "aliases.json"
    path.write_text(aliases)
    assert run(["ingest", "--corpus-dir", str(synth_dir), "--aliases", str(path),
                "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("data error:")


@pytest.mark.parametrize("line", ["n_bots = 12.0", "rng_seed = abc", "min_tweets = 3.5"])
def test_params_values_take_their_field_type(capsys, tmp_path, line):
    params = tmp_path / "gen.conf"
    params.write_text(f"n_bots = 12\nn_humans = 2\nfollow_degree_mean = 3.0\n{line}\n")
    assert run(["synth", "--params", str(params), "--out", str(tmp_path / "o")]) == 2
    assert f"{params}:4:" in capsys.readouterr().err


def test_synth_is_the_fox8_preset(tmp_path):
    assert run(["synth", "--seed", "3", "--n-bots", "15", "--n-humans", "10",
                "--out", str(tmp_path / "cli")]) == 0
    expected = export_corpus(synthnet.fox8_preset(3, 15, 10), tmp_path / "lib")
    for name, path in expected.items():
        assert (tmp_path / "cli" / path.name).read_bytes() == path.read_bytes(), name


CORPUS_COMMANDS = ("ingest", "scan-phrases", "expand-domains", "graph-stats",
                   "content-stats", "score", "report")
RECORD_FIELDS = sorted({f.name for cls in (Account, Tweet, FollowEdge)
                        for f in dataclasses.fields(cls)})
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6)
FUZZ_LINES = st.binary(max_size=40) | st.dictionaries(
    st.sampled_from(RECORD_FIELDS), JSON_VALUES, max_size=6).map(lambda o: json.dumps(o).encode())


@pytest.fixture(scope="module")
def tiny_dir(tmp_path_factory):
    """A 7-account corpus with a few tweets per account."""
    base = tmp_path_factory.mktemp("tiny")
    params = base / "gen.conf"
    params.write_text("n_bots = 4\nn_humans = 3\nfollow_degree_mean = 2.0\n"
                      "follow_degree_sd = 1.0\nmin_tweets = 1\ntweets_mean = 4.0\n"
                      "tweets_sd = 2.0\nhuman_tweets_mean = 4.0\nhuman_tweets_sd = 2.0\n")
    assert run(["synth", "--params", str(params), "--seed", "2",
                "--out", str(base / "corpus")]) == 0
    return base / "corpus"


@given(name=st.sampled_from(("accounts.jsonl", "tweets.jsonl", "edges.jsonl", "labels.csv")),
       lines=st.lists(FUZZ_LINES, min_size=1, max_size=4))
@settings(max_examples=150, derandomize=True, deadline=None)
def test_fuzzed_corpus_lines_exit_0_1_or_2(tiny_dir, name, lines):
    with tempfile.TemporaryDirectory() as tmp:
        corpus_dir = Path(tmp) / "corpus"
        shutil.copytree(tiny_dir, corpus_dir)
        with open(corpus_dir / name, "ab") as fh:
            fh.write(b"".join(line + b"\n" for line in lines))
        for command in CORPUS_COMMANDS:
            code = run(["--json", command, "--corpus-dir", str(corpus_dir),
                        "--out", str(Path(tmp) / "out")])
            assert code in (0, 1, 2), (command, lines)


def test_shared_group_label_makes_synth_exit_2_and_write_nothing(capsys, tmp_path):
    params = tmp_path / "gen.conf"
    params.write_text("n_bots = 6\nn_humans = 3\nfollow_degree_mean = 2\ngroup_label = human\n")
    out = tmp_path / "o"
    assert run(["synth", "--params", str(params), "--out", str(out)]) == 2
    assert "group label 'human'" in capsys.readouterr().err
    assert not out.exists()


def test_importing_the_cli_leaves_scipy_stats_unloaded():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    code = "import sys, botsieve.cli; print('scipy.stats' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


AUX_FILES = {
    # name: (valid contents, subcommand arguments with {path} for the file)
    "rules.csv": (b"priority,category,trigger\n1,harmful_content,content policy\n",
                  ["scan-phrases", "--rules", "{path}"]),
    "phrases.txt": (b"# phrases\nas an ai language model\n",
                    ["scan-phrases", "--phrases", "{path}"]),
    "seeds.txt": (b"fox8.news\n", ["expand-domains", "--seeds", "{path}"]),
    "replay.jsonl": (b'{"text_digest": "ab", "score": 1.5}\n',
                     ["score", "--detector", "replay", "--replay-file", "{path}"]),
    "scores.csv": (b"value,label\n50,bot\n51,bot\n52,bot\n40,human\n41,human\n42,human\n",
                   ["sweep", "--scores", "{path}"]),
}


def _aux_argv(tiny_dir, name, path, out):
    argv = [part.format(path=path) for part in AUX_FILES[name][1]]
    if argv[0] not in ("sweep", "ttest"):
        argv += ["--corpus-dir", str(tiny_dir)]
    return argv + ["--out", str(out)]


@pytest.mark.parametrize("name,line", [
    ("rules.csv", b"2,beyond_capability"),
    ("rules.csv", b"2,beyond_capability,"),
    ("rules.csv", b"x,beyond_capability,cannot browse"),
    ("rules.csv", b"2,no_such_category,cannot browse"),
    ("rules.csv", b"2,beyond_capability,cannot \xff browse"),
    ("phrases.txt", b"as an \xff ai"),
    ("seeds.txt", b"fox8\xff.news"),
    ("scores.csv", b"51,bot\xff"),
    ("replay.jsonl", b"[1]"),
    ("replay.jsonl", b'"ab"'),
    ("replay.jsonl", b'{"text_digest": 7, "score": 1.5}'),
    ("replay.jsonl", b'{"text_digest": "ab", "score": NaN}'),
    ("replay.jsonl", b'{"text_digest": "ab", "score": 1e999}'),
    ("replay.jsonl", b'{"text_digest": "ab", "score": "1.5"}'),
    ("replay.jsonl", b'{"text_digest": "ab"}'),
    ("replay.jsonl", b"\xff"),
])
def test_bad_auxiliary_line_is_a_located_data_error(capsys, tiny_dir, tmp_path, name, line):
    path = tmp_path / name
    valid = AUX_FILES[name][0]
    path.write_bytes(valid + line + b"\n")
    assert run(_aux_argv(tiny_dir, name, path, tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:")
    assert f"{path}:{len(valid.splitlines()) + 1}:" in err


def test_non_utf8_params_line_is_located(capsys, tmp_path):
    params = tmp_path / "gen.conf"
    params.write_bytes(b"n_bots = 12\nn_humans = \xff2\n")
    assert run(["synth", "--params", str(params), "--out", str(tmp_path / "o")]) == 2
    assert f"{params}:2:" in capsys.readouterr().err


AUX_LINES = (st.binary(max_size=40)
             | st.lists(st.text(max_size=6), min_size=1, max_size=4).map(
                 lambda row: ",".join(row).encode())
             | st.dictionaries(st.sampled_from(("text_digest", "score")), JSON_VALUES,
                               max_size=2).map(lambda o: json.dumps(o).encode()))


@given(name=st.sampled_from((*AUX_FILES, "params.conf")),
       lines=st.lists(AUX_LINES, min_size=1, max_size=4))
@settings(max_examples=150, derandomize=True, deadline=None)
def test_fuzzed_auxiliary_lines_exit_0_1_or_2(tiny_dir, name, lines):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        valid = AUX_FILES[name][0] if name in AUX_FILES else b"n_bots = 4\n"
        path.write_bytes(valid + b"".join(line + b"\n" for line in lines))
        if name == "params.conf":
            # Only the reader: a fuzzed file may ask synth for any corpus size.
            try:
                _read_params_file(path)
            except (DataError, ValueError):
                pass
            return
        argv = _aux_argv(tiny_dir, name, path, Path(tmp) / "out")
        commands = [argv, ["ttest", *argv[1:]]] if name == "scores.csv" else [argv]
        for command in commands:
            assert run(["--json", *command]) in (0, 1, 2), (command, lines)
