import csv
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from botsieve import cli, detectkit, synthnet
from botsieve.cli import DataError, _read_params_file, _read_scores_csv, run
from botsieve.corpus import _csv_records, export_corpus
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


@pytest.mark.parametrize("names", ["", ",", " , "])
def test_graph_stats_pair_groups_naming_none_is_none_given(capsys, synth_dir, tmp_path, names):
    out = tmp_path / "out"
    summary = run_json(capsys, [
        "graph-stats", "--corpus-dir", str(synth_dir), "--kind", "reply",
        "--pair-groups", names, "--out", str(out)])
    assert "pair_rates" not in summary["metrics"]
    assert not list(out.glob("*_pair_rates.csv"))


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


@pytest.fixture(scope="module")
def options_dir(tmp_path_factory):
    """Four accounts in groups named sock and real. Account a has one tweet
    that each qualification option lets in or rewrites."""
    out = tmp_path_factory.mktemp("options")
    tweets = [tweet("t1", "a", text="plain words here"),
              tweet("t2", "a", kind="retweet", ref="c", text="RT @c: shared words"),
              tweet("t3", "a", text="des mots", language="fr"),
              tweet("t4", "a", kind="reply", reply_to="c", text="@c handled words"),
              tweet("t5", "a", text="linked words https://example.com/p"),
              *(tweet(f"t{n}", n, text=f"words of {n}") for n in "bcd")]
    export_corpus(corpus_of([account(n) for n in "abcd"], tweets,
                            groups={"sock": {"a", "b"}, "real": {"c", "d"}}), out)
    return out


@pytest.mark.parametrize("options,texts", [
    ([], ["plain words here", "handled words", "linked words"]),
    (["--include-retweets"],
     ["plain words here", "RT @c: shared words", "handled words", "linked words"]),
    (["--any-language"], ["plain words here", "des mots", "handled words", "linked words"]),
    (["--keep-handles"], ["plain words here", "@c handled words", "linked words"]),
    (["--keep-links"],
     ["plain words here", "handled words", "linked words https://example.com/p"]),
    (["--stub-key", "k"], ["plain words here", "handled words", "linked words"]),
])
def test_score_options_change_what_is_scored(options_dir, tmp_path, options, texts):
    out = tmp_path / "out"
    assert run(["score", "--corpus-dir", str(options_dir), "--detector", "stub", *options,
                "--out", str(out)]) == 0
    rows = {row[0]: row[1:] for row in _csv_rows(out / "account_scores.csv")[1:]}
    detector = detectkit.StubDetector(key="k" if "--stub-key" in options else "")
    n_qualified, mean_score = rows["a"]
    assert int(n_qualified) == len(texts)
    assert float(mean_score) == pytest.approx(sum(map(detector.score, texts)) / len(texts))


def test_report_group_options_name_the_groups(capsys, options_dir, tmp_path):
    out = tmp_path / "out"
    summary = run_json(capsys, ["report", "--corpus-dir", str(options_dir), "--detector",
                                "stub", "--bot-group", "sock", "--human-group", "real",
                                "--out", str(out)])
    assert summary["metrics"]["bot_group_size"] == 2
    assert summary["metrics"]["human_group_size"] == 2
    assert sorted(json.loads((out / "fig1_profiles.json").read_text())) == ["real", "sock"]
    assert len(_csv_rows(out / "fig8_sweep.csv")) > 1


@pytest.mark.parametrize("command", ["score", "report"])
@pytest.mark.parametrize("detector,option", [
    ("heuristic", ["--stub-key", "zzz"]),
    ("heuristic", ["--scale", "probability"]),
    ("heuristic", ["--replay-file", "{replay}"]),
    ("stub", ["--replay-file", "{replay}"]),
    ("replay", ["--stub-key", "zzz"]),
])
def test_detector_option_the_detector_does_not_read_is_a_usage_error(
        capsys, options_dir, tmp_path, command, detector, option):
    replay = tmp_path / "replay.jsonl"
    replay.write_text('{"text_digest": "ab", "score": 1.5}\n')
    needs_file = ["--replay-file", str(replay)] if detector == "replay" else []
    out = tmp_path / "out"
    argv = [command, "--corpus-dir", str(options_dir), "--detector", detector, *needs_file,
            *(part.format(replay=replay) for part in option), "--out", str(out)]
    assert run(argv) == 1
    assert f"{option[0]} does not apply to --detector {detector}" in capsys.readouterr().err
    assert not out.exists()


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


def test_label_row_order_changes_no_report_or_export_byte(synth_dir, tmp_path):
    # synth writes the bot rows first; move the human rows to the top.
    flipped = tmp_path / "flipped"
    shutil.copytree(synth_dir, flipped)
    header, *rows = (synth_dir / "labels.csv").read_text().splitlines(keepends=True)
    human = [row for row in rows if row.rstrip("\r\n").endswith(",human")]
    assert human and rows[0] not in human
    (flipped / "labels.csv").write_text(
        "".join([header, *human, *(row for row in rows if row not in human)]))
    written = {}
    for name, corpus_dir in (("original", synth_dir), ("flipped", flipped)):
        out = tmp_path / "out" / name
        for argv in (["report", "--detector", "stub"], ["ingest", "--export"]):
            assert run(argv + ["--corpus-dir", str(corpus_dir),
                               "--out", str(out / argv[0])]) == 0
        written[name] = {path.relative_to(out): path.read_bytes()
                         for path in sorted(out.rglob("*")) if path.is_file()}
    assert Path("report", "fig2_pairrates.csv") in written["original"]
    assert Path("ingest", "corpus", "labels.csv") in written["original"]
    assert written["flipped"] == written["original"]


def test_report_and_stage_subcommands_build_no_tweet_rows(synth_dir, tmp_path, monkeypatch):
    # The stages read the tweet columns. Every Tweet row a corpus builds goes
    # through the table module's Tweet, so a stage that reads corpus.tweets or
    # tweets_of shows up here.
    from botsieve import corpus as cp
    from botsieve import table
    built = []
    make_row = table.Tweet
    monkeypatch.setattr(table, "Tweet",
                        lambda *fields: built.append(fields[0]) or make_row(*fields))
    for argv in (["report", "--detector", "heuristic"], ["scan-phrases"], ["expand-domains"],
                 ["graph-stats", "--kind", "reply"], ["content-stats", "--group", "bot"],
                 ["score", "--detector", "stub"], ["ingest", "--tweet-cap", "5", "--export"]):
        out = tmp_path / argv[0]
        assert run(argv + ["--corpus-dir", str(synth_dir), "--out", str(out)]) == 0, argv
    assert built == []

    corpus = cp.load_corpus(synth_dir / "accounts.jsonl", synth_dir / "tweets.jsonl")
    first = next(iter(corpus.tweets))
    assert corpus.tweets[first].tweet_id == first and built == [first]


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
    ["report", "--recall-threshold", "nan"],
    ["report", "--recall-threshold", "inf"],
])
def test_non_positive_counts_are_usage_errors_before_loading(capsys, tmp_path, argv):
    missing = str(tmp_path / "no-such-corpus")
    assert run(argv + ["--corpus-dir", missing, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith("usage error:")


@pytest.mark.parametrize("flag,value", [("--seed", "-1"), ("--n-bots", "-5"), ("--n-bots", "1"),
                                        ("--n-humans", "-1")])
def test_bad_synth_flags_are_usage_errors_naming_the_flag(capsys, tmp_path, flag, value):
    out = tmp_path / "o"
    assert run(["synth", flag, value, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"usage error: argument {flag}:")
    assert not out.exists()


@pytest.mark.parametrize("key", ["rng_seed", "human_rng_seed"])
def test_negative_seed_in_a_params_file_is_a_data_error_naming_it(capsys, tmp_path, key):
    params = tmp_path / "gen.conf"
    params.write_text(f"n_bots = 6\nn_humans = 3\nfollow_degree_mean = 2\n{key} = -1\n")
    out = tmp_path / "o"
    assert run(["synth", "--params", str(params), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "data error: rng_seed must be >= 0, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize("corpus", ["synth", "missing"])
def test_report_with_one_group_as_bot_and_human_is_a_usage_error(capsys, synth_dir, tmp_path,
                                                                   corpus):
    # Raised before the corpus loads: a missing corpus is not reached.
    corpus_dir = synth_dir if corpus == "synth" else tmp_path / "no-such-corpus"
    out = tmp_path / "out"
    assert run(["report", "--corpus-dir", str(corpus_dir), "--bot-group", "bot",
                "--human-group", "bot", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("usage error:")
    assert not out.exists()


@pytest.mark.parametrize("command,row", [("sweep", "nan,human"), ("sweep", "inf,bot"),
                                         ("ttest", "50.0,hmn")])
def test_bad_score_row_is_a_located_data_error(capsys, tmp_path, command, row):
    scores = tmp_path / "scores.csv"
    rows = [f"{50 + i},bot" for i in range(3)] + [f"{40 + i},human" for i in range(3)]
    scores.write_text("value,label\n" + "\n".join(rows + [row]) + "\n")
    assert run([command, "--scores", str(scores), "--out", str(tmp_path / "o")]) == 2
    assert f"{scores}:8:" in capsys.readouterr().err


def reference_read_scores_csv(path):
    """The score reader as built on ``_csv_records``: one csv row and one dict
    per line. ``_read_scores_csv`` must read every file as this does."""
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


SCORE_NAMES = st.sampled_from(("value", "label", " value", "label ", "x"))
SCORE_VALUES = (st.sampled_from(("1", "2.5", " 3 ", "1_0", "-0", "1e308", "2,5"))
                | st.floats(allow_nan=False, allow_infinity=False).map(repr))
SCORE_LABELS = st.sampled_from(("bot", "human", " bot", "human ", "bot,human"))
BAD_SCORE_CELLS = st.sampled_from(("nan", "-inf", "1e400", "", "x", "hmn"))
ODD_SCORE_LINES = st.sampled_from((b"\n", b"  \n", b"\xff,bot\n", b"1,hu\xffman\n",
                                   b'1,"bot\n', b'1,b"ot\n', b"2\x00,human\n"))


@st.composite
def score_files(draw):
    """A value,label file: a header of names (repeated, reordered or padded
    now and then) and rows whose cells suit those names. Now and then a cell
    is quoted or one no reader takes, a row is short or long, a line holds a
    carriage return or ends in CRLF, and an odd line (blank, not UTF-8, a
    stray quote) comes in."""
    def rarely(odds):
        # Not at a bound of the range: hypothesis draws those far more often.
        return draw(st.integers(0, 10**6)) % odds == 1

    names = draw(st.sampled_from((["value", "label"], ["label", "value"],
                                  ["value", "label", "value"]))
                 | st.lists(SCORE_NAMES, min_size=2, max_size=4))
    cells = {"value": SCORE_VALUES, "label": SCORE_LABELS}
    rows = draw(st.lists(st.tuples(*(cells.get(name, SCORE_VALUES | SCORE_LABELS)
                                     for name in names)), max_size=8))
    lines = []
    for row in [names, *rows]:
        row = list(row)
        if rarely(16):
            row[draw(st.integers(0, len(row) - 1))] = draw(BAD_SCORE_CELLS)
        if rarely(16):
            row = row[:draw(st.integers(0, len(row)))]
        if rarely(8):
            row.append(draw(SCORE_VALUES | SCORE_LABELS))
        text = ",".join('"' + cell.replace('"', '""') + '"' if rarely(4) else cell
                        for cell in row)
        if rarely(16):
            at = draw(st.integers(0, len(text)))
            text = text[:at] + "\r" + text[at:]
        if rarely(16):
            lines.append(draw(ODD_SCORE_LINES))
        lines.append(text.encode() + draw(st.sampled_from((b"\n", b"\r\n"))))
    return b"".join(lines)


def _scores_or_error(read, path):
    """(bot values, human values) as reprs, or the error the reader raised."""
    try:
        bots, humans = read(path)
    except (DataError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return [repr(v) for v in bots], [repr(v) for v in humans]


def _split_rows(path):
    rows = reference_read_scores_csv(path)
    return ([v for v, label in rows if label == detectkit.BOT_LABEL],
            [v for v, label in rows if label == detectkit.HUMAN_LABEL])


@given(data=score_files())
@settings(max_examples=400, derandomize=True, deadline=None)
def test_score_reader_reads_every_file_as_the_reference(data):
    # Quoted cells (a quoted comma among them), carriage returns, short and
    # long rows, repeated and reordered header names, padded cells, values
    # float() takes or refuses, non-UTF-8 and blank lines: the same values
    # by label, or the same error at the same line.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scores.csv"
        path.write_bytes(data)
        assert _scores_or_error(_read_scores_csv, path) == _scores_or_error(_split_rows, path)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sweep_builds_one_threshold_result_and_writes_the_curve(tmp_path, monkeypatch, seed):
    # The curve goes from the sweep to sweep_curve.csv as columns: only the
    # best row is a ThresholdResult. The file still equals the curve a
    # library caller reads, sentinel rows at the largest float included.
    rng = np.random.default_rng(seed)
    top = sys.float_info.max
    values = np.concatenate([rng.normal(50.0, 20.0, 598), rng.integers(0, 40, 398),
                             [1e308, -1e308]]).tolist()
    rows = list(zip(values, rng.choice(["bot", "human"], len(values)).tolist()))
    rows += [(top, "bot"), (-top, "human")]
    scores = tmp_path / "scores.csv"
    scores.write_text("value,label\n" + "".join(f"{v!r},{label}\n" for v, label in rows))
    built = []
    make_result = detectkit.ThresholdResult
    monkeypatch.setattr(detectkit, "ThresholdResult",
                        lambda *fields: built.append(fields) or make_result(*fields))
    out = tmp_path / "out"
    assert run(["sweep", "--scores", str(scores), "--out", str(out)]) == 0
    assert len(built) <= 1
    monkeypatch.undo()

    curve = detectkit.sweep_threshold(rows).curve
    assert (curve[0].threshold, curve[-1].threshold) == (-top, top)
    expected = io.StringIO()
    writer = csv.writer(expected)
    writer.writerow(("threshold", "precision", "recall", "f1"))
    writer.writerows((r.threshold, r.precision, r.recall, r.f1) for r in curve)
    assert (out / "sweep_curve.csv").read_bytes().decode("utf-8") == expected.getvalue()


SWEEP_CHUNK = cli._SWEEP_CHUNK
EDGE_FLOATS = st.sampled_from((sys.float_info.max, -sys.float_info.max, 5e-324, -5e-324,
                               sys.float_info.min / 3, -0.0, 0.0))


@given(n=st.sampled_from((0, 1, SWEEP_CHUNK - 1, SWEEP_CHUNK, SWEEP_CHUNK + 1,
                          3 * SWEEP_CHUNK + 2)),
       pool=st.lists(st.floats(allow_nan=False, allow_infinity=False) | EDGE_FLOATS,
                     min_size=1, max_size=12),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, derandomize=True, deadline=None)
def test_chunked_sweep_rows_write_the_bytes_of_the_tuple_rows(n, pool, seed):
    # Each column draws n values from the pool; the rows the columns made as
    # tuples of Python floats, through one csv.writer, are the reference.
    rng = np.random.default_rng(seed)
    columns = [rng.choice(np.array(pool), n) for _ in range(4)]
    outcome = detectkit.SweepOutcome(detectkit.ThresholdResult(0.0, 0.0, 0.0, 0.0), *columns)
    expected = io.StringIO()
    writer = csv.writer(expected)
    writer.writerow(cli.SWEEP_COLUMNS)
    writer.writerows(zip(*(tuple(columns[k].tolist()) for k in (0, 2, 3, 1))))
    files = {"sweep_curve": ("sweep_curve.csv", (cli.SWEEP_COLUMNS, cli._sweep_rows(outcome)))}
    with tempfile.TemporaryDirectory() as tmp:
        cli._write_files(Path(tmp), files, None)
        assert (Path(tmp) / "sweep_curve.csv").read_bytes() == expected.getvalue().encode()


@pytest.mark.parametrize("option,group", [("--bot-group", "nosuch"), ("--bot-group", "bot "),
                                          ("--human-group", "nosuch")])
def test_report_group_not_in_labels_is_a_data_error(capsys, synth_dir, tmp_path, option, group):
    out = tmp_path / "out"
    assert run(["report", "--corpus-dir", str(synth_dir), "--detector", "stub", option, group,
                "--out", str(out)]) == 2
    assert f"missing artifact: group {group!r} not in labels" in capsys.readouterr().err
    assert not out.exists()


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
    run_json(capsys, ["scan-phrases", *corpus, "--out", str(stage)])
    run_json(capsys, ["graph-stats", *corpus, "--kind", "reply", "--pair-groups", "bot,human",
                      "--out", str(stage)])
    profiles = json.loads((report / "fig1_profiles.json").read_text())
    assert profiles["bot"] == json.loads((stage / "profile_summary.json").read_text())
    assert (report / "fig4_hashtags.csv").read_bytes() == (stage / "hashtags.csv").read_bytes()
    assert ((report / "table1_categories.csv").read_bytes()
            == (stage / "category_summary.csv").read_bytes())
    # A report file led by an edge_kind/group column holds the stage file's rows.
    for report_file, key, stage_file in (
            ("fig2_degrees.csv", "follow", "follow_degree_histogram.csv"),
            ("fig3_ternary.csv", "bot", "ternary_bins.csv"),
            ("fig2_pairrates.csv", "reply", "reply_pair_rates.csv")):
        keyed, rows = _csv_rows(report / report_file), _csv_rows(stage / stage_file)
        assert keyed[0][1:] == rows[0], report_file
        assert [row[1:] for row in keyed[1:] if row[0] == key] == rows[1:], report_file
        assert len(rows) > 1, stage_file


@pytest.mark.parametrize("argv", [
    ["report", "--detector", "stub", "--recall-scores", "{tmp}/missing.csv"],
    ["graph-stats", "--kind", "retweet", "--group", "bot", "--pair-groups", "bot,human"],
])
def test_data_error_after_the_first_file_writes_nothing(capsys, synth_dir, tmp_path, argv):
    # Both fail on their last file: every file is computed before any is written.
    out = tmp_path / "out"
    argv = [a.format(tmp=tmp_path) for a in argv]
    assert run(argv + ["--corpus-dir", str(synth_dir), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("data error:")
    assert not out.exists()


def test_ingest_strict_writes_its_report_then_exits_2(capsys, synth_dir, tmp_path):
    corpus_dir = tmp_path / "corpus"
    shutil.copytree(synth_dir, corpus_dir)
    author = json.loads((corpus_dir / "tweets.jsonl").read_text().splitlines()[0])["author_id"]
    with open(corpus_dir / "tweets.jsonl", "a", encoding="utf-8") as fh:
        fh.write("{not json\n[1, 2]\n")
        fh.write(json.dumps({"tweet_id": "orphan", "author_id": "no-such-account",
                             "created_at": "2023-05-01T00:00:00Z", "text": "hi",
                             "kind": "reply", "in_reply_to_account": author}) + "\n")
    out = tmp_path / "out"
    argv = ["ingest", "--corpus-dir", str(corpus_dir), "--out", str(out)]
    assert run(argv + ["--strict", "--export"]) == 2
    assert capsys.readouterr().err.strip() == (
        "data error: validation failed: 2 load + 1 invariant violations")
    summary = json.loads((out / "corpus_summary.json").read_text())
    assert (summary["n_load_violations"], summary["n_invariant_violations"]) == (2, 1)
    assert len(_csv_rows(out / "validation_report.csv")) == 1 + 3
    assert sorted(p.name for p in (out / "corpus").iterdir()) == [
        "accounts.jsonl", "edges.jsonl", "labels.csv", "tweets.jsonl"]


def test_ingest_strict_on_a_clean_corpus_exits_0(capsys, synth_dir, tmp_path):
    summary = run_json(capsys, ["ingest", "--corpus-dir", str(synth_dir), "--strict",
                                "--out", str(tmp_path)])
    assert summary["metrics"]["n_violations"] == 0
    assert sorted(summary["outputs"]) == ["corpus_summary", "validation_report"]


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
# Text may hold lone surrogates, which json.dumps writes as \udXXX escapes; a
# draw from all of Unicode seldom holds one, so some are drawn on purpose.
TEXTS = st.text(st.characters(blacklist_categories=())
                | st.sampled_from("\ud800\udfff\U0001f600"), max_size=8)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | TEXTS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6)
# A fuzzed line is raw bytes, or (record, field, value): a valid line of the
# file, picked by index, with the field at that index of its sorted fields
# set to the value, so that it can load and reach the outputs.
FUZZ_LINES = st.binary(max_size=40) | st.tuples(
    st.integers(0, 99), st.integers(0, 99), TEXTS | st.lists(TEXTS, max_size=3) | JSON_VALUES)


def _fuzzed_line(path: Path, spec, n: int) -> bytes:
    """The ``FUZZ_LINES`` line ``spec`` for the file ``path``, the n-th appended
    to it; a copied account or tweet gets a new id, so that it is not a
    duplicate."""
    if isinstance(spec, bytes):
        return spec
    record, key, value = spec
    lines = path.read_text(encoding="utf-8").splitlines()
    if path.suffix == ".csv":
        row = next(csv.reader([lines[1 + record % (len(lines) - 1)]]))
        row[key % len(row)] = value if isinstance(value, str) else json.dumps(value)
        line = io.StringIO()
        csv.writer(line, lineterminator="").writerow(row)
        return line.getvalue().encode("utf-8", "surrogatepass")
    obj = json.loads(lines[record % len(lines)])
    for name in ("tweet_id", "account_id"):
        if name in obj:
            obj[name] = f"fuzz{n}"
    obj[sorted(obj)[key % len(obj)]] = value
    return json.dumps(obj).encode()


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
        lines = [_fuzzed_line(tiny_dir / name, spec, n) for n, spec in enumerate(lines)]
        with open(corpus_dir / name, "ab") as fh:
            fh.write(b"".join(line + b"\n" for line in lines))
        for command in CORPUS_COMMANDS:
            out = Path(tmp) / f"out-{command}"
            code = run(["--json", command, "--corpus-dir", str(corpus_dir), "--out", str(out)])
            assert code in (0, 1, 2), (command, lines)
            # A usage or data error writes nothing.
            assert code == 0 or not out.exists(), (command, lines)


@pytest.mark.parametrize("case", ["out-is-a-file", "out-under-a-file",
                                  "output-name-is-a-directory", "aliases-is-a-directory",
                                  "export-dir-is-a-file", "export-name-is-a-directory"])
def test_path_the_system_refuses_is_a_data_error(capsys, tmp_path, tiny_dir, case):
    scores = tmp_path / "scores.csv"
    scores.write_text("value,label\n50,bot\n51,bot\n40,human\n41,human\n")
    out = tmp_path / "out"
    argv = ["ttest", "--scores", str(scores), "--out", str(out)]
    if case == "out-is-a-file":
        out.write_text("")
    elif case == "out-under-a-file":
        out.write_text("")
        argv[-1] = str(out / "sub")
    elif case == "output-name-is-a-directory":
        # categories.csv comes after hits.csv, which must not be written either.
        (out / "categories.csv").mkdir(parents=True)
        argv = ["scan-phrases", "--corpus-dir", str(tiny_dir), "--out", str(out)]
    elif case == "export-dir-is-a-file":
        # ingest's own files come before the export, and must not be written either.
        out.mkdir()
        (out / "corpus").write_text("")
        argv = ["ingest", "--corpus-dir", str(tiny_dir), "--export", "--out", str(out)]
    elif case == "export-name-is-a-directory":
        # accounts.jsonl is exported before tweets.jsonl.
        (out / "tweets.jsonl").mkdir(parents=True)
        argv = ["synth", "--n-bots", "15", "--n-humans", "10", "--out", str(out)]
    else:
        argv = ["ingest", "--corpus-dir", str(tiny_dir), "--aliases", str(tmp_path),
                "--out", str(out)]
    before = sorted(out.rglob("*")) if out.is_dir() else []
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith("data error: ")
    if out.is_dir():
        assert sorted(out.rglob("*")) == before


@pytest.mark.parametrize("line", ["tweet_mix_means = 100", "tweet_mix_means = 50, 50",
                                  "tweet_mix_sds = 1, 2"])
def test_tweet_mix_without_three_components_makes_synth_exit_2(capsys, tmp_path, line):
    params = tmp_path / "gen.conf"
    params.write_text(f"n_bots = 6\nn_humans = 3\nfollow_degree_mean = 2\n{line}\n")
    out = tmp_path / "o"
    assert run(["synth", "--params", str(params), "--out", str(out)]) == 2
    assert f"{line.split()[0]} must have 3 components" in capsys.readouterr().err
    assert not out.exists()


def test_shared_group_label_makes_synth_exit_2_and_write_nothing(capsys, tmp_path):
    params = tmp_path / "gen.conf"
    params.write_text("n_bots = 6\nn_humans = 3\nfollow_degree_mean = 2\ngroup_label = human\n")
    out = tmp_path / "o"
    assert run(["synth", "--params", str(params), "--out", str(out)]) == 2
    assert "group label 'human'" in capsys.readouterr().err
    assert not out.exists()


SRC = Path(__file__).resolve().parents[1] / "src"


def _child_env(environ=os.environ) -> dict:
    """``environ`` with src/ leading PYTHONPATH."""
    path = os.pathsep.join(filter(None, [str(SRC), environ.get("PYTHONPATH")]))
    return {**environ, "PYTHONPATH": path}


def _fresh_python(code: str, env=None) -> str:
    """The stripped stdout of ``code`` run in a new interpreter that imports src/."""
    result = subprocess.run([sys.executable, "-c", code], env=env or _child_env(),
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def _run_in_fresh_python(runs, loaded: str, env=None) -> str:
    """Each argv of ``runs`` through cli.run in a new interpreter; prints the
    exit codes and the value of the expression ``loaded``."""
    return _fresh_python("import os, sys; from botsieve.cli import run\n"
                         f"codes = [run(argv) for argv in {runs!r}]\n"
                         f"print(codes, {loaded})", env)


SCIPY_LOADED = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def test_importing_the_cli_leaves_scipy_stats_unloaded():
    code = "import sys, botsieve.cli; print('scipy.stats' in sys.modules)"
    assert _fresh_python(code) == "False"


def test_graph_stats_and_report_load_no_scipy_module(tiny_dir, tmp_path):
    corpus = ["--corpus-dir", str(tiny_dir)]
    runs = [["graph-stats", *corpus, "--kind", "reply", "--pair-groups", "bot,human",
             "--out", str(tmp_path / "graph")],
            ["report", *corpus, "--out", str(tmp_path / "report")]]
    assert _run_in_fresh_python(runs, SCIPY_LOADED) == "[0, 0] []"


def _labelled_scores(tmp_path) -> Path:
    scores = tmp_path / "scores.csv"
    scores.write_text("value,label\n60,bot\n55,bot\n58,bot\n40,human\n48,human\n45,human\n")
    return scores


def test_sweep_and_ttest_load_no_scipy_module(tmp_path):
    scores = _labelled_scores(tmp_path)
    runs = [["sweep", "--scores", str(scores), "--out", str(tmp_path / "sweep")],
            ["ttest", "--scores", str(scores), "--out", str(tmp_path / "ttest")]]
    assert _run_in_fresh_python(runs, SCIPY_LOADED) == "[0, 0] []"
    written = json.loads((tmp_path / "ttest" / "ttest.json").read_text())
    assert written["p"] == detectkit.welch_t([60, 55, 58], [40, 48, 45]).p


STAGE_MODULES = tuple(f"botsieve.{name}" for name in (
    "detectkit", "graphlab", "contentstats", "linkmap", "seedscan", "synthnet"))


# hashlib loads OpenSSL. numpy.ma is imported by numpy 2's np.unique(x) without
# return_index, return_inverse or return_counts.
@pytest.mark.parametrize("commands,unloaded", [
    (["ingest"], STAGE_MODULES),
    (["sweep", "ttest"], (*STAGE_MODULES[1:], "botsieve.corpus", "hashlib", "numpy.ma")),
    (["report"], ("numpy.ma",)),
    (["expand-domains"], ("numpy.ma",)),
    (["score"], ("hashlib",)),
], ids=["ingest", "sweep-ttest", "report", "expand-domains", "score-heuristic"])
def test_a_subcommand_loads_no_other_stage_module(tiny_dir, tmp_path, commands, unloaded):
    scores = ["--scores", str(_labelled_scores(tmp_path))]
    corpus = ["--corpus-dir", str(tiny_dir)]
    inputs = {"sweep": scores, "ttest": scores, "score": [*corpus, "--detector", "heuristic"]}
    runs = [[command, *inputs.get(command, corpus), "--out", str(tmp_path / command)]
            for command in commands]
    loaded = f"[name for name in {list(unloaded)!r} if name in sys.modules]"
    assert _run_in_fresh_python(runs, loaded) == f"{[0] * len(runs)} []"


def test_importing_the_package_loads_no_submodule_and_no_numpy():
    code = ("import sys, botsieve\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('botsieve', 'numpy')))")
    assert _fresh_python(code) == "['botsieve']"


@pytest.mark.skipif(not Path("/proc/self/task").is_dir() or len(os.sched_getaffinity(0)) < 2,
                    reason="needs /proc/self/task and two usable cores")
@pytest.mark.parametrize("chosen", [None, "2"])
def test_the_cli_runs_numpy_on_one_blas_thread_unless_the_caller_chose(tmp_path, chosen):
    # Built explicitly: importing the CLI in this process may have set the variable here.
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if chosen is not None:
        env["OPENBLAS_NUM_THREADS"] = chosen
    runs = [["ttest", "--scores", str(_labelled_scores(tmp_path)), "--out", str(tmp_path / "t")]]
    loaded = "os.environ['OPENBLAS_NUM_THREADS'], len(os.listdir('/proc/self/task'))"
    codes, value, threads = _run_in_fresh_python(runs, loaded, _child_env(env)).split()
    assert (codes, value) == ("[0]", chosen or "1")
    if chosen is None:
        assert threads == "1"


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
    ("phrases.txt", "\u200b".encode()),
    ("seeds.txt", b"fox8\xff.news"),
    ("seeds.txt", b"https://x.com/a"),
    ("scores.csv", b"51,bot\xff"),
    ("replay.jsonl", b"[1]"),
    ("replay.jsonl", b'"ab"'),
    ("replay.jsonl", b'{"text_digest": 7, "score": 1.5}'),
    ("replay.jsonl", b'{"text_digest": "ab", "score": NaN}'),
    ("replay.jsonl", b'{"text_digest": "ab", "score": 1e999}'),
    ("replay.jsonl", b'{"text_digest": "ab", "score": "1.5"}'),
    ("replay.jsonl", b'{"text_digest": "ab", "score": 150.0}'),
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


def test_shuffled_tweet_lines_leave_every_order_as_it_was(capsys, tmp_path):
    import random

    from botsieve.corpus import load_corpus

    authors = ("a10", "a2", "a1", "b")
    reveal = "As an AI language model, I cannot browse."
    # Unpadded ids ("t10" < "t2"), and two instants, so each author has ties.
    tweets = [tweet(f"t{n}", authors[n % 4], kind=("original", "reply", "retweet")[n % 3],
                    text=reveal if n % 5 == 0 else f"plain {n}",
                    created=f"2023-01-0{1 + n // 4 % 2}T00:00:00Z",
                    reply_to="x" if n % 3 == 1 else None, ref="x" if n % 3 == 2 else None)
              for n in range(24)]
    corpus_dir = tmp_path / "corpus"
    export_corpus(corpus_of([account(a) for a in authors], tweets), corpus_dir)
    path = corpus_dir / "tweets.jsonl"
    lines = path.read_bytes().splitlines(keepends=True)
    shuffled = lines[:]
    random.Random(5).shuffle(shuffled)
    assert shuffled != lines
    path.write_bytes(b"".join(shuffled))

    run_json(capsys, ["scan-phrases", "--corpus-dir", str(corpus_dir), "--out", str(tmp_path / "s")])
    with open(tmp_path / "s" / "hits.csv", newline="") as fh:
        hit_ids = [row["tweet_id"] for row in csv.DictReader(fh)]
    assert hit_ids == sorted(f"t{n}" for n in range(0, 24, 5))
    run_json(capsys, ["content-stats", "--corpus-dir", str(corpus_dir), "--out", str(tmp_path / "c")])
    with open(tmp_path / "c" / "ternary_points.csv", newline="") as fh:
        assert [row["account_id"] for row in csv.DictReader(fh)] == sorted(authors)

    loaded = load_corpus(corpus_dir / "accounts.jsonl", path)
    # a2 wrote t1, t9, t17 on Jan 1 and t5, t13, t21 on Jan 2; ties go to the id.
    assert [t.tweet_id for t in loaded.tweets_of("a2")] == ["t1", "t17", "t9", "t13", "t21", "t5"]
    for author in authors:
        expected = sorted((t for t in loaded.tweets.values() if t.author_id == author),
                          key=lambda t: (t.created_at, t.tweet_id))
        assert loaded.tweets_of(author) == tuple(expected)
        assert loaded.tweets_by_author[author] == tuple(t.tweet_id for t in expected)


@pytest.fixture(scope="module")
def labelled_scores(tmp_path_factory) -> Path:
    """60 bot and 60 human scores with full-precision values, bots first."""
    rng = np.random.default_rng(12)
    rows = [f"{value!r},{label}" for label, mean in (("bot", 55.0), ("human", 45.0))
            for value in rng.normal(mean, 5.0, 60).tolist()]
    scores = tmp_path_factory.mktemp("scores") / "scores.csv"
    scores.write_text("value,label\n" + "\n".join(rows) + "\n")
    return scores


def _stage_files(corpus_dir: Path, scores: Path, out: Path) -> dict:
    """Every file that each stage subcommand writes, by its path under ``out``."""
    corpus = ["--corpus-dir", str(corpus_dir)]
    runs = [["ingest", "--export", *corpus], ["scan-phrases", *corpus],
            ["expand-domains", *corpus],
            *(["graph-stats", *corpus, "--kind", kind, "--pair-groups", "bot,human"]
              for kind in ("follow", "reply", "retweet")),
            ["content-stats", *corpus], ["score", *corpus], ["report", *corpus],
            ["sweep", "--scores", str(scores)], ["ttest", "--scores", str(scores)]]
    for n, argv in enumerate(runs):
        assert run([*argv, "--out", str(out / f"{n}-{argv[0]}")]) == 0, argv
    return {path.relative_to(out): path.read_bytes()
            for path in sorted(out.rglob("*")) if path.is_file()}


@given(seed=st.integers(0, 2**32 - 1))
@example(seed=0)
@settings(max_examples=8, derandomize=True, deadline=None)
def test_input_line_order_changes_no_output_byte(tiny_dir, labelled_scores, seed):
    # tiny_dir is clean, so validation_report.csv names no line number.
    import random

    shuffle = random.Random(seed).shuffle
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        written = [_stage_files(tiny_dir, labelled_scores, tmp / "original")]
        shutil.copytree(tiny_dir, tmp / "corpus")
        shutil.copy(labelled_scores, tmp / "scores.csv")
        for path in [*sorted((tmp / "corpus").iterdir()), tmp / "scores.csv"]:
            lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
            header = 1 if path.suffix == ".csv" else 0
            rows = lines[header:]
            shuffle(rows)
            path.write_text("".join(lines[:header] + rows), encoding="utf-8")
        written.append(_stage_files(tmp / "corpus", tmp / "scores.csv", tmp / "shuffled"))
    assert written[1] == written[0]
