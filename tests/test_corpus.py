import dataclasses
import gc
import json
import os
import re
import subprocess
import sys
import tempfile
from array import array
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from botsieve import corpus as cp
from botsieve import synthnet as sn
from conftest import account, corpus_of, parse_tweet, tweet

ACCOUNT_LINES = [
    {"account_id": "a1", "handle": "alice", "created_at": "2019-03-01T12:00:00Z",
     "follower_count": 10, "following_count": 4, "tweet_count": 3, "description": "hi"},
    {"account_id": "a2", "handle": "bob", "created_at": 1680000000,
     "follower_count": 0, "following_count": 0, "tweet_count": 2, "description": ""},
]

TWEET_LINES = [
    {"tweet_id": "t1", "author_id": "a1", "created_at": "2023-01-01T00:00:00Z",
     "text": "hello", "kind": "original", "hashtags": ["#BTC"], "urls": [], "language": "en"},
    {"tweet_id": "t2", "author_id": "a1", "created_at": "2023-01-02T00:00:00Z",
     "text": "hey @bob", "kind": "reply", "in_reply_to_account": "a2",
     "hashtags": [], "urls": [], "language": "en"},
    {"tweet_id": "t3", "author_id": "a2", "created_at": "2023-01-03T00:00:00Z",
     "text": "RT @alice: hello", "kind": "retweet", "referenced_account": "a1",
     "hashtags": [], "urls": ["https://www.fox8.news/x"], "language": "en"},
]


def write_jsonl(path, objects):
    path.write_text("".join(json.dumps(o) + "\n" for o in objects), encoding="utf-8")
    return path


def write_corpus_files(tmp_path, accounts=ACCOUNT_LINES, tweets=TWEET_LINES,
                       edges=({"source": "a1", "target": "a2"},), labels=None):
    paths = {
        "accounts": write_jsonl(tmp_path / "accounts.jsonl", accounts),
        "tweets": write_jsonl(tmp_path / "tweets.jsonl", tweets),
        "edges": write_jsonl(tmp_path / "edges.jsonl", edges),
    }
    if labels is not None:
        label_path = tmp_path / "labels.csv"
        label_path.write_text("account_id,group_name\n" + "".join(f"{a},{g}\n" for a, g in labels),
                              encoding="utf-8")
        paths["labels"] = label_path
    return paths


def test_load_counts(tmp_path):
    paths = write_corpus_files(tmp_path)
    corpus = cp.load_corpus(paths["accounts"], paths["tweets"], paths["edges"])
    assert corpus.n_accounts == 2
    assert corpus.n_tweets == 3
    assert len(corpus.follow_edges) == 1
    assert corpus.load_report.empty


def test_empty_edge_file(tmp_path):
    paths = write_corpus_files(tmp_path, edges=())
    corpus = cp.load_corpus(paths["accounts"], paths["tweets"], paths["edges"])
    assert corpus.follow_edges == frozenset()
    from botsieve.graphlab import build_graph
    assert build_graph(corpus, "follow").n_edges == 0


def test_missing_author_id_reported_with_line(tmp_path):
    tweets = [dict(t) for t in TWEET_LINES]
    bad = dict(TWEET_LINES[0])
    bad["tweet_id"] = "t4"
    del bad["author_id"]
    lines = [tweets[0], tweets[1], bad, tweets[2],
             {**TWEET_LINES[0], "tweet_id": "t5"}]
    paths = write_corpus_files(tmp_path, tweets=lines)
    corpus = cp.load_corpus(paths["accounts"], paths["tweets"])
    assert corpus.n_tweets == 4
    [violation] = [v for v in corpus.load_report if v.rule.startswith("missing-field")]
    assert violation.rule == "missing-field:author_id"
    assert violation.file == "tweets.jsonl"
    assert violation.line == 3


def test_undecodable_lines_fatal_over_ten_percent(tmp_path):
    paths = write_corpus_files(tmp_path)
    lines = [json.dumps(t) for t in TWEET_LINES] + ["{not json", "also bad"]
    tweet_path = tmp_path / "broken.jsonl"
    tweet_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(cp.CorpusError, match="line: 4"):
        cp.load_corpus(paths["accounts"], tweet_path)


def test_undecodable_lines_tolerated_under_ten_percent(tmp_path):
    paths = write_corpus_files(tmp_path)
    many = [{**TWEET_LINES[0], "tweet_id": f"x{i}"} for i in range(19)]
    lines = [json.dumps(t) for t in many] + ["{not json"]
    tweet_path = tmp_path / "mostly_fine.jsonl"
    tweet_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    corpus = cp.load_corpus(paths["accounts"], tweet_path)
    assert corpus.n_tweets == 19
    assert corpus.load_report.rules() == ["invalid-json"]


def test_invalid_utf8_line_is_a_located_violation(tmp_path):
    paths = write_corpus_files(tmp_path)
    many = [{**TWEET_LINES[0], "tweet_id": f"x{i}"} for i in range(19)]
    lines = [json.dumps(t).encode("utf-8") for t in many]
    lines.insert(5, b'{"tweet_id": "bad\xff"}')
    tweet_path = tmp_path / "one_bad_byte.jsonl"
    tweet_path.write_bytes(b"\n".join(lines) + b"\n")
    corpus = cp.load_corpus(paths["accounts"], tweet_path)
    assert corpus.n_tweets == 19
    assert [(v.rule, v.line) for v in corpus.load_report] == [("invalid-json", 6)]


def test_overlong_integer_and_deep_nesting_are_located_violations(tmp_path):
    paths = write_corpus_files(tmp_path)
    lines = [json.dumps({**TWEET_LINES[0], "tweet_id": f"x{i}"}) for i in range(20)]
    lines[3] = '{"tweet_id": ' + "1" * 5000 + "}"
    lines[7] = "[" * 100_000 + "]" * 100_000
    tweet_path = tmp_path / "hostile.jsonl"
    tweet_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    corpus = cp.load_corpus(paths["accounts"], tweet_path)
    assert corpus.n_tweets == 18
    assert [(v.rule, v.line) for v in corpus.load_report] == [("invalid-json", 4),
                                                              ("invalid-json", 8)]


def test_duplicate_tweet_id_fatal(tmp_path):
    lines = TWEET_LINES + [dict(TWEET_LINES[0])]
    paths = write_corpus_files(tmp_path, tweets=lines)
    with pytest.raises(cp.CorpusError, match="t1"):
        cp.load_corpus(paths["accounts"], paths["tweets"])


def test_duplicate_account_id_fatal(tmp_path):
    paths = write_corpus_files(tmp_path, accounts=ACCOUNT_LINES + [dict(ACCOUNT_LINES[1])])
    with pytest.raises(cp.CorpusError, match="a2"):
        cp.load_corpus(paths["accounts"], paths["tweets"])


def test_unreadable_file_fatal(tmp_path):
    paths = write_corpus_files(tmp_path)
    with pytest.raises(cp.CorpusError, match="cannot read"):
        cp.load_corpus(tmp_path / "nope.jsonl", paths["tweets"])


def test_epoch_timestamp_normalized(tmp_path):
    paths = write_corpus_files(tmp_path)
    corpus = cp.load_corpus(paths["accounts"], paths["tweets"])
    assert corpus.accounts["a2"].created_at == datetime.fromtimestamp(1680000000, tz=timezone.utc)


def test_offset_timestamp_normalized_to_utc():
    parsed = cp.parse_instant("2023-01-01T02:00:00+02:00")
    assert parsed == datetime(2023, 1, 1, 0, 0, tzinfo=timezone.utc)
    assert cp.format_instant(parsed) == "2023-01-01T00:00:00Z"


def test_hashtags_normalized_at_load(tmp_path):
    paths = write_corpus_files(tmp_path)
    corpus = cp.load_corpus(paths["accounts"], paths["tweets"])
    assert corpus.tweets["t1"].hashtags == ("btc",)


@pytest.mark.parametrize("raw,expected", [("# btc", "btc"), ("# #eth", "eth")])
def test_spaced_hashtag_prefix_loads_normalized(tmp_path, raw, expected):
    tweets = [{**TWEET_LINES[0], "hashtags": [raw]}, *TWEET_LINES[1:]]
    paths = write_corpus_files(tmp_path, tweets=tweets)
    corpus = cp.load_corpus(paths["accounts"], paths["tweets"], paths["edges"])
    assert corpus.tweets["t1"].hashtags == (expected,)
    assert cp.validate(corpus).empty
    exported = cp.export_corpus(corpus, tmp_path / "roundtrip")
    assert cp.load_corpus(exported["accounts"], exported["tweets"], exported["edges"]) == corpus


@given(st.text(alphabet=st.sampled_from("#  \t\u3000\x85aAzZİΣς") | st.characters()))
def test_normalize_hashtag_is_idempotent(tag):
    once = cp.normalize_hashtag(tag)
    assert cp.normalize_hashtag(once) == once


def test_validate_clean(tmp_path):
    paths = write_corpus_files(tmp_path)
    corpus = cp.load_corpus(paths["accounts"], paths["tweets"], paths["edges"])
    assert cp.validate(corpus).empty


def test_validate_reply_missing_target():
    corpus = corpus_of([account("a1")], [tweet("t1", "a1", kind="reply")])
    report = cp.validate(corpus)
    assert "reply-missing-target" in report.rules()


def test_validate_dangling_author(tmp_path):
    lines = TWEET_LINES + [{**TWEET_LINES[0], "tweet_id": "t9", "author_id": "ghost"}]
    paths = write_corpus_files(tmp_path, tweets=lines)
    corpus = cp.load_corpus(paths["accounts"], paths["tweets"])
    assert corpus.n_tweets == 4  # dangling tweets are kept
    report = cp.validate(corpus)
    assert [v.rule for v in report] == ["dangling-author"]
    assert report.violations[0].line == 4


def test_validate_ordering_by_file_line(tmp_path):
    lines = [{**TWEET_LINES[0], "tweet_id": "t8", "author_id": "ghost2"}] + TWEET_LINES \
        + [{**TWEET_LINES[0], "tweet_id": "t9", "author_id": "ghost1"}]
    paths = write_corpus_files(tmp_path, tweets=lines)
    corpus = cp.load_corpus(paths["accounts"], paths["tweets"])
    report = cp.validate(corpus)
    assert [v.line for v in report] == [1, 5]


def test_self_follow_and_duplicate_edges_flagged(tmp_path):
    edges = [{"source": "a1", "target": "a1"},
             {"source": "a1", "target": "a2"},
             {"source": "a1", "target": "a2"}]
    paths = write_corpus_files(tmp_path, edges=edges)
    corpus = cp.load_corpus(paths["accounts"], paths["tweets"], paths["edges"])
    assert len(corpus.follow_edges) == 1
    assert sorted(corpus.load_report.rules()) == ["duplicate-edge", "self-follow"]


def test_labels_loaded_and_unknown_member_flagged(tmp_path):
    paths = write_corpus_files(tmp_path, labels=[("a1", "bot"), ("a2", "human"),
                                                 ("ghost", "bot")])
    corpus = cp.load_corpus(paths["accounts"], paths["tweets"], paths["edges"],
                            paths["labels"])
    assert corpus.partition["bot"] == frozenset({"a1"})
    assert corpus.partition["human"] == frozenset({"a2"})
    assert "partition-unknown-member" in corpus.load_report.rules()


def test_invalid_utf8_label_row_is_a_located_violation(tmp_path):
    paths = write_corpus_files(tmp_path)
    label_path = tmp_path / "labels.csv"
    label_path.write_bytes(b"account_id,group_name\r\na1,bot\r\n\r\na3,bot\xff\r\na2,human\r\n")
    corpus = cp.load_corpus(paths["accounts"], paths["tweets"], None, label_path)
    assert corpus.partition.groups == {"bot": frozenset({"a1"}), "human": frozenset({"a2"})}
    assert [(v.rule, v.line) for v in corpus.load_report] == [("bad-label-row", 4)]


def test_overlapping_label_flagged_first_wins(tmp_path):
    paths = write_corpus_files(tmp_path, labels=[("a1", "bot"), ("a1", "human")])
    corpus = cp.load_corpus(paths["accounts"], paths["tweets"], None, paths["labels"])
    assert corpus.partition.group_of("a1") == "bot"
    assert "partition-overlap" in corpus.load_report.rules()


def test_round_trip_identity(tmp_path):
    paths = write_corpus_files(tmp_path, labels=[("a1", "bot"), ("a2", "human")])
    original = cp.load_corpus(paths["accounts"], paths["tweets"], paths["edges"],
                              paths["labels"])
    exported = cp.export_corpus(original, tmp_path / "roundtrip")
    reloaded = cp.load_corpus(exported["accounts"], exported["tweets"],
                              exported["edges"], exported["labels"])
    assert reloaded == original
    assert reloaded.load_report.empty


def test_load_deterministic(tmp_path):
    paths = write_corpus_files(tmp_path, labels=[("a1", "bot")])
    load = lambda: cp.load_corpus(paths["accounts"], paths["tweets"],
                                  paths["edges"], paths["labels"])
    first, second = load(), load()
    assert first == second
    out_a = cp.export_corpus(first, tmp_path / "da")
    out_b = cp.export_corpus(second, tmp_path / "db")
    for key in out_a:
        assert out_a[key].read_bytes() == out_b[key].read_bytes()


def test_index_consistency(tmp_path):
    paths = write_corpus_files(tmp_path)
    corpus = cp.load_corpus(paths["accounts"], paths["tweets"])
    for author, ids in corpus.tweets_by_author.items():
        direct = [t for t in corpus.tweets.values() if t.author_id == author]
        assert len(ids) == len(direct)


def test_field_aliases(tmp_path):
    accounts = [{"id": "a1", "screen_name": "alice", "created_at": "2019-03-01T12:00:00Z",
                 "follower_count": 10, "following_count": 4, "tweet_count": 3}]
    tweets = [{"id": "t1", "user_id": "a1", "created_at": "2023-01-01T00:00:00Z",
               "text": "hi", "kind": "original"}]
    a_path = write_jsonl(tmp_path / "a.jsonl", accounts)
    t_path = write_jsonl(tmp_path / "t.jsonl", tweets)
    aliases = {
        "accounts": {"account_id": "id", "handle": "screen_name"},
        "tweets": {"tweet_id": "id", "author_id": "user_id"},
    }
    corpus = cp.load_corpus(a_path, t_path, field_aliases=aliases)
    assert corpus.accounts["a1"].handle == "alice"
    assert corpus.tweets["t1"].author_id == "a1"
    # Each renamed field is read from the record as written, so names can swap.
    aliases["accounts"] = {"account_id": "id", "handle": "description",
                           "description": "handle"}
    write_jsonl(a_path, [{**accounts[0], "handle": "the bio", "description": "alice"}])
    corpus = cp.load_corpus(a_path, t_path, field_aliases=aliases)
    assert (corpus.accounts["a1"].handle, corpus.accounts["a1"].description) == \
        ("alice", "the bio")


def test_non_string_kind_is_bad_kind(tmp_path):
    paths = write_corpus_files(tmp_path, tweets=[*TWEET_LINES, {**TWEET_LINES[0],
                                                               "tweet_id": "t4", "kind": []}])
    corpus = cp.load_corpus(paths["accounts"], paths["tweets"])
    assert [(v.rule, v.line) for v in corpus.load_report] == [("bad-kind", 4)]


def test_boolean_account_id_is_a_bad_field(tmp_path):
    accounts = [*ACCOUNT_LINES, {**ACCOUNT_LINES[0], "account_id": True}]
    paths = write_corpus_files(tmp_path, accounts=accounts)
    corpus = cp.load_corpus(paths["accounts"], paths["tweets"])
    assert "True" not in corpus.accounts
    assert [(v.rule, v.line) for v in corpus.load_report] == [("bad-field:account_id", 3)]


@pytest.mark.parametrize("key,value", [("in_reply_to_account", ["b"]),
                                       ("in_reply_to_account", False),
                                       ("referenced_account", {"id": "a1"}),
                                       ("referenced_account", 1.5)])
def test_non_identifier_target_is_a_bad_field(tmp_path, key, value):
    tweets = [*TWEET_LINES, {**TWEET_LINES[0], "tweet_id": "t4", key: value}]
    paths = write_corpus_files(tmp_path, tweets=tweets)
    corpus = cp.load_corpus(paths["accounts"], paths["tweets"])
    assert "t4" not in corpus.tweets
    assert [(v.rule, v.line) for v in corpus.load_report] == [(f"bad-field:{key}", 4)]


def test_integer_and_blank_targets_keep_their_meaning(tmp_path):
    tweets = [{**TWEET_LINES[1], "in_reply_to_account": 7},
              {**TWEET_LINES[2], "referenced_account": "  a1 "},
              {**TWEET_LINES[0], "tweet_id": "t4", "in_reply_to_account": "  "}]
    paths = write_corpus_files(tmp_path, tweets=tweets)
    corpus = cp.load_corpus(paths["accounts"], paths["tweets"])
    assert corpus.load_report.empty
    assert corpus.tweets["t2"].in_reply_to_account == "7"
    assert corpus.tweets["t3"].referenced_account == "a1"
    assert corpus.tweets["t4"].in_reply_to_account is None


def test_cap_tweets_keeps_most_recent():
    tweets = [tweet(f"t{i}", "a1", created=f"2023-01-0{i}T00:00:00Z") for i in range(1, 6)]
    corpus = corpus_of([account("a1")], tweets)
    capped = cp.cap_tweets(corpus, 2)
    assert sorted(capped.tweets) == ["t4", "t5"]
    assert capped.tweets_by_author["a1"] == ("t4", "t5")
    with pytest.raises(ValueError):
        cp.cap_tweets(corpus, 0)


def test_merge_corpora_disjoint_and_collision():
    one = corpus_of([account("a1")], [tweet("t1", "a1")], groups={"bot": {"a1"}})
    two = corpus_of([account("b1")], [tweet("u1", "b1")], groups={"human": {"b1"}})
    merged = cp.merge_corpora(one, two)
    assert merged.n_accounts == 2
    assert merged.partition.names == ("bot", "human")
    with pytest.raises(cp.CorpusError):
        cp.merge_corpora(one, one)


def test_merge_and_cap_keep_look_alike_values_apart():
    # (1,) and (True,) are equal tuples that are written differently, and a
    # list cannot be hashed: each must keep a code of its own.
    tags = [(1,), (True,), ["a", 1.5], ("a",)]

    def part(prefix, day, values):
        return cp.make_corpus([], [dataclasses.replace(
            tweet(f"{prefix}{i}", f"u{i}", created=f"2023-01-0{day}T00:00:00Z"), hashtags=value)
            for i, value in enumerate(values)])

    merged = cp.merge_corpora(part("x", 1, tags), part("y", 2, tags[::-1]))
    assert [repr(t.hashtags) for t in merged.table.rows()] == [repr(v) for v in tags + tags[::-1]]
    capped = cp.cap_tweets(merged, 1)
    assert capped.table.ids == ["y0", "y1", "y2", "y3"]
    assert [repr(t.hashtags) for t in capped.table.rows()] == [repr(v) for v in tags[::-1]]


def test_cap_tweets_keeps_line_numbers(tmp_path):
    lines = TWEET_LINES + [{**TWEET_LINES[0], "tweet_id": "t0", "author_id": "ghost"}]
    paths = write_corpus_files(tmp_path, tweets=lines)
    capped = cp.cap_tweets(cp.load_corpus(paths["accounts"], paths["tweets"]), 1)
    assert list(capped.tweets) == ["t0", "t2", "t3"]
    assert capped.line_numbers["tweets"] == ("tweets.jsonl", array("Q", [4, 2, 3]))
    assert [(v.rule, v.file, v.line, v.identifier) for v in cp.validate(capped)] == \
        [("dangling-author", "tweets.jsonl", 4, "t0")]


def test_merge_corpora_keeps_load_reports(tmp_path):
    one_dir, two_dir = tmp_path / "one", tmp_path / "two"
    one_dir.mkdir()
    two_dir.mkdir()
    one = write_corpus_files(one_dir, tweets=[*TWEET_LINES, {"tweet_id": "t4"}],
                             edges=({"source": "a1", "target": "a1"},))
    two = write_corpus_files(two_dir,
                             accounts=[{**a, "account_id": "b" + a["account_id"]}
                                       for a in ACCOUNT_LINES] + [{"account_id": "b9"}],
                             tweets=[{**TWEET_LINES[0], "tweet_id": "u1", "author_id": "ba1"}])
    parts = [cp.load_corpus(p["accounts"], p["tweets"], p["edges"]) for p in (one, two)]
    merged = cp.merge_corpora(*parts)
    assert len(merged.load_report) == 3
    assert list(merged.load_report) == sorted(
        [*parts[0].load_report, *parts[1].load_report], key=cp.Violation.sort_key)
    assert merged.line_numbers == {}


def test_every_table_builder_codes_each_value_once(tmp_path):
    # The per-distinct-value stages cost what they do only if no value list
    # holds a value twice.
    bots = sn.fox8_preset(seed=2, n_bots=30, n_humans=0)
    preset = sn.fox8_preset(seed=2, n_bots=30, n_humans=20)
    paths = cp.export_corpus(preset, tmp_path)
    loaded = cp.load_corpus(paths["accounts"], paths["tweets"], paths["edges"], paths["labels"])
    tables = {
        "synth": bots.table,
        "merge": preset.table,
        "records": cp.make_corpus(preset.accounts.values(), preset.tweets.values()).table,
        "load": loaded.table,
        "cap": cp.cap_tweets(preset, 3).table,
    }
    for builder, table in tables.items():
        assert table == preset.table or builder in ("synth", "cap"), builder
        for name in ("account_ids", "texts", "hashtag_lists", "url_lists", "languages", "kinds"):
            values = getattr(table, name)
            assert len(set(values)) == len(values), (builder, name)


def test_loaded_records_are_slotted_and_frozen(tmp_path):
    paths = write_corpus_files(tmp_path)
    corpus = cp.load_corpus(paths["accounts"], paths["tweets"], paths["edges"])
    records = [corpus.accounts["a1"], corpus.tweets["t1"], next(iter(corpus.follow_edges))]
    for record in records:
        assert not hasattr(record, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, dataclasses.fields(record)[0].name, "x")
        copy = type(record)(**dataclasses.asdict(record))
        assert copy == record and hash(copy) == hash(record)


def test_equal_values_in_one_load_share_one_object(tmp_path):
    tweets = [*TWEET_LINES, {**TWEET_LINES[0], "tweet_id": "t4", "hashtags": ["btc"]}]
    paths = write_corpus_files(tmp_path, tweets=tweets)
    corpus = cp.load_corpus(paths["accounts"], paths["tweets"], paths["edges"])
    first, again = corpus.tweets["t1"], corpus.tweets["t4"]
    assert first.text is again.text
    assert first.author_id is again.author_id is corpus.accounts["a1"].account_id
    assert first.hashtags is again.hashtags
    assert first.kind is again.kind
    assert corpus.tweets["t2"].in_reply_to_account is corpus.accounts["a2"].account_id
    assert next(iter(corpus.follow_edges)).target is corpus.accounts["a2"].account_id


@pytest.mark.parametrize("enabled", [True, False])
def test_load_leaves_the_collector_as_it_found_it(tmp_path, enabled, monkeypatch):
    # Also export_corpus and fox8_preset, which pause it the same way; each
    # is checked on success and on an error raised while the collector is off.
    paths = write_corpus_files(tmp_path)
    dup = write_jsonl(tmp_path / "dup.jsonl", TWEET_LINES + [TWEET_LINES[0]])
    # A text JSON cannot encode; make_corpus keeps it as it is, export fails on it.
    unwritable = cp.make_corpus([], [dataclasses.replace(tweet("t1", "a1"), text=object())])
    seen = []
    format_instant = cp.format_instant
    monkeypatch.setattr(cp, "format_instant",
                        lambda dt: seen.append(gc.isenabled()) or format_instant(dt))
    was_enabled = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        corpus = cp.load_corpus(paths["accounts"], paths["tweets"], paths["edges"])
        assert gc.isenabled() is enabled
        with pytest.raises(cp.CorpusError):
            cp.load_corpus(paths["accounts"], dup)
        assert gc.isenabled() is enabled
        cp.export_corpus(corpus, tmp_path / "out")
        assert gc.isenabled() is enabled and seen and not any(seen)
        with pytest.raises(TypeError):
            cp.export_corpus(unwritable, tmp_path / "out")
        assert gc.isenabled() is enabled
        sn.fox8_preset(seed=1, n_bots=6, n_humans=3, bot_fields={"follow_degree_mean": 2.0})
        assert gc.isenabled() is enabled
        with pytest.raises(ValueError, match="unsatisfiable"):
            sn.fox8_preset(seed=1, n_bots=6, n_humans=3, bot_fields={"follow_degree_mean": 5.5})
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


GOOD_ACCOUNT = {"handle": "h", "created_at": "2020-01-01T00:00:00Z",
                "follower_count": 1, "following_count": 1, "tweet_count": 1}
GOOD_TWEET = {"author_id": "x0", "created_at": "2023-01-01T00:00:00Z",
              "text": "hi", "kind": "original"}

# One line of a JSONL file: mostly records whose id comes from a small pool,
# so ids sometimes repeat; else a record that breaks the schema, an
# undecodable line or a blank line.
LINE = st.tuples(st.sampled_from(["record"] * 12 + ["schema", "json", "utf8", "blank"]),
                 st.integers(0, 99))


def render_line(kind, n, id_key, good) -> bytes:
    if kind == "record":
        return json.dumps({**good, id_key: f"x{n}"}).encode()
    if kind == "schema":
        return json.dumps({**good, id_key: "bad", "created_at": "not a time"}).encode()
    return {"json": b'{"cut": ', "utf8": b'{"x": "\xff"}', "blank": b"   "}[kind]


# Exactly 10% undecodable is tolerated; one more line past it is fatal.
@example(accounts=[("record", n) for n in range(9)] + [("json", 0)], tweets=[],
         good_header=True)
@example(accounts=[("record", n) for n in range(8)] + [("utf8", 0)] * 2, tweets=[],
         good_header=True)
@given(accounts=st.lists(LINE, max_size=24), tweets=st.lists(LINE, max_size=24),
       good_header=st.sampled_from([True, True, True, False]))
@settings(max_examples=150, derandomize=True, deadline=None)
def test_load_is_fatal_exactly_on_the_fatal_cases(accounts, tweets, good_header):
    fatal = not good_header
    dropped = set()
    kept = {}
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, lines, id_key, good in (("accounts.jsonl", accounts, "account_id", GOOD_ACCOUNT),
                                          ("tweets.jsonl", tweets, "tweet_id", GOOD_TWEET)):
            paths[name] = Path(tmp) / name
            paths[name].write_bytes(b"".join(render_line(kind, n, id_key, good) + b"\n"
                                             for kind, n in lines))
            counted = [(i, kind) for i, (kind, _) in enumerate(lines, 1) if kind != "blank"]
            undecodable = sum(kind in ("json", "utf8") for _, kind in counted)
            ids = [n for kind, n in lines if kind == "record"]
            fatal |= 10 * undecodable > len(counted) or len(ids) != len(set(ids))
            dropped |= {(name, i) for i, kind in counted if kind != "record"}
            kept[name] = array("Q", [i for i, kind in counted if kind == "record"])
        labels = Path(tmp) / "labels.csv"
        labels.write_text("account_id,group_name\n" if good_header else "account,group\n",
                          encoding="utf-8")

        def load():
            return cp.load_corpus(paths["accounts.jsonl"], paths["tweets.jsonl"],
                                  label_path=labels)

        if fatal:
            with pytest.raises(cp.CorpusError):
                load()
            return
        corpus = load()
    assert {(v.file, v.line) for v in corpus.load_report} == dropped
    assert corpus.line_numbers == {"accounts": ("accounts.jsonl", kept["accounts.jsonl"]),
                                   "tweets": ("tweets.jsonl", kept["tweets.jsonl"])}


# A value that is not a string where the format says string is a bad field;
# absent, null and "" keep their meaning.
@pytest.mark.parametrize("section,key,value,rule", [
    ("tweets", "urls", [{"u": 1}, None], "bad-field:entities"),
    ("tweets", "urls", ["https://a.com/", 3], "bad-field:entities"),
    ("tweets", "hashtags", [["x"], 7], "bad-field:entities"),
    ("tweets", "hashtags", ["ok", None], "bad-field:entities"),
    ("tweets", "text", {"k": [1, 2]}, "bad-field:text"),
    ("tweets", "text", 5, "bad-field:text"),
    ("tweets", "text", False, "bad-field:text"),
    ("tweets", "language", 3, "bad-field:language"),
    ("tweets", "language", 0, "bad-field:language"),
    ("tweets", "language", ["en"], "bad-field:language"),
    ("accounts", "handle", 5, "bad-field:handle"),
    ("accounts", "handle", 0, "bad-field:handle"),
    ("accounts", "description", {"bio": "x"}, "bad-field:description"),
    ("accounts", "description", [], "bad-field:description"),
])
def test_non_string_value_is_a_bad_field(tmp_path, section, key, value, rule):
    if section == "tweets":
        lines = {"tweets": [*TWEET_LINES, {**TWEET_LINES[0], "tweet_id": "t4", key: value}]}
    else:
        lines = {"accounts": [*ACCOUNT_LINES, {**ACCOUNT_LINES[0], "account_id": "a3",
                                               key: value}]}
    paths = write_corpus_files(tmp_path, **lines)
    corpus = cp.load_corpus(paths["accounts"], paths["tweets"])
    assert "t4" not in corpus.tweets and "a3" not in corpus.accounts
    assert [(v.rule, v.file, v.line) for v in corpus.load_report] == \
        [(rule, f"{section}.jsonl", len(lines[section]))]


@pytest.mark.parametrize("value", ["absent", None, ""])
def test_absent_null_and_empty_strings_keep_their_meaning(tmp_path, value):
    def put(record, key):
        record = dict(record)
        if value == "absent":
            record.pop(key, None)
        else:
            record[key] = value
        return record

    tweet_line = put({**TWEET_LINES[0], "text": "", "urls": ["", "https://a.com/"],
                      "hashtags": ["", "#x", " # "]}, "language")
    account_line = put(put(ACCOUNT_LINES[0], "handle"), "description")
    paths = write_corpus_files(tmp_path, accounts=[account_line, ACCOUNT_LINES[1]],
                               tweets=[tweet_line, *TWEET_LINES[1:]])
    corpus = cp.load_corpus(paths["accounts"], paths["tweets"])
    assert corpus.load_report.empty
    t1, a1 = corpus.tweets["t1"], corpus.accounts["a1"]
    assert (t1.text, t1.language, t1.urls, t1.hashtags) == ("", None, ("", "https://a.com/"), ("x",))
    assert (a1.handle, a1.description) == ("", "")


def test_new_string_checks_come_after_every_older_rule(tmp_path):
    bad_strings = {"text": 5, "language": 3, "urls": [1], "hashtags": [2]}
    tweets = [*TWEET_LINES,
              {**TWEET_LINES[0], **bad_strings, "tweet_id": "t4", "author_id": None},
              {**TWEET_LINES[0], **bad_strings, "tweet_id": "t5", "created_at": "soon"},
              {**TWEET_LINES[0], **bad_strings, "tweet_id": "t6", "referenced_account": 1.5},
              {**TWEET_LINES[0], "tweet_id": "t7", "text": 5, "urls": [1], "language": 3},
              {**TWEET_LINES[0], "tweet_id": "t8", "urls": [1], "language": 3}]
    accounts = [*ACCOUNT_LINES,
                {**ACCOUNT_LINES[0], "account_id": "a3", "handle": 5, "tweet_count": -1},
                {**ACCOUNT_LINES[0], "account_id": "a4", "handle": 5, "description": 6}]
    paths = write_corpus_files(tmp_path, accounts=accounts, tweets=tweets)
    corpus = cp.load_corpus(paths["accounts"], paths["tweets"])
    assert [(v.rule, v.line) for v in corpus.load_report] == [
        ("negative-count", 3), ("bad-field:handle", 4),
        ("missing-field:author_id", 4), ("bad-timestamp", 5),
        ("bad-field:referenced_account", 6), ("bad-field:text", 7),
        ("bad-field:entities", 8)]


@pytest.mark.parametrize("key", ["hashtags", "urls"])
@pytest.mark.parametrize("value", [0, 0.0, False, {}], ids=["0", "0.0", "false", "{}"])
def test_falsy_non_list_entities_are_a_bad_field(tmp_path, key, value):
    # Only absent, null and "" read as an empty list. The check comes after
    # every older one, so a line that also breaks an older rule keeps it.
    tweets = [*TWEET_LINES, {**TWEET_LINES[0], "tweet_id": "t4", key: value},
              {**TWEET_LINES[0], "tweet_id": "t5", key: value, "author_id": None},
              {**TWEET_LINES[0], "tweet_id": "t6", key: value, "language": 3}]
    paths = write_corpus_files(tmp_path, tweets=tweets)
    corpus = cp.load_corpus(paths["accounts"], paths["tweets"])
    assert sorted(corpus.tweets) == ["t1", "t2", "t3"]
    assert [(v.rule, v.line) for v in corpus.load_report] == [
        ("bad-field:entities", 4), ("missing-field:author_id", 5), ("bad-field:language", 6)]


TWEET_JSON = json.dumps({**TWEET_LINES[0], "tweet_id": "x-planted"})


@pytest.mark.parametrize("line", [
    '{"a":1} {}',
    TWEET_JSON + "x",
    "\ufeff" + TWEET_JSON,
    json.dumps([TWEET_LINES[0]]),
    json.dumps("tweet"),
    TWEET_JSON.replace("x-planted", "x\\ud800"),
], ids=["extra-object", "trailing-garbage", "bom", "array", "string", "lone-surrogate"])
def test_line_that_is_not_one_json_object_is_invalid_json(tmp_path, line):
    paths = write_corpus_files(tmp_path)
    lines = [json.dumps({**TWEET_LINES[0], "tweet_id": f"x{i}"}) for i in range(19)]
    lines.insert(5, line)
    tweet_path = tmp_path / "one_bad_line.jsonl"
    tweet_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    corpus = cp.load_corpus(paths["accounts"], tweet_path)
    assert corpus.n_tweets == 19
    assert [(v.rule, v.line) for v in corpus.load_report] == [("invalid-json", 6)]


def test_escaped_surrogate_pair_loads_as_its_character(tmp_path):
    paths = write_corpus_files(tmp_path)
    tweet_path = tmp_path / "pair.jsonl"
    tweet_path.write_text(TWEET_JSON.replace("x-planted", "x\\ud83d\\ude00") + "\n",
                          encoding="utf-8")
    corpus = cp.load_corpus(paths["accounts"], tweet_path)
    assert corpus.load_report.empty
    assert list(corpus.tweets) == ["x\U0001f600"]


# Pieces that make every kind of escape json.dumps writes: lone and paired
# surrogates, an astral character (a pair), a backslash, and a backslash
# before text that reads like a surrogate escape.
ESCAPE_PRONE_TEXT = st.lists(st.sampled_from(
    ["\ud800", "\udbff", "\udc00", "\udfff", "\U0001f600", "\\", "\\ud800", "\\uDC00",
     "d", "8", '"', "\xe9", "\n", "a"]), max_size=8).map("".join)


@settings(max_examples=300, deadline=None)
@given(key=ESCAPE_PRONE_TEXT, value=ESCAPE_PRONE_TEXT, upper=st.booleans())
@example(key="", value="\ud83d\ude00", upper=True)
@example(key="", value="\\\ud800", upper=False)
def test_line_is_invalid_json_exactly_when_it_decodes_to_a_lone_surrogate(key, value, upper):
    line = json.dumps({key: [value, "x"]})
    if upper:  # JSON allows upper-case hex digits in an escape
        line = re.sub(r"\\u([0-9a-f]{4})", lambda m: "\\u" + m.group(1).upper(), line)
    try:
        json.dumps(json.loads(line), ensure_ascii=False).encode("utf-8")
        lone = False
    except UnicodeEncodeError:
        lone = True
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "lines.jsonl"
        path.write_text("{}\n" * 10 + line + "\n", encoding="ascii")
        violations = []
        records, _ = cp._load_jsonl_records(path, lambda obj, share: obj, {}, violations, None)
    assert [(v.rule, v.line) for v in violations] == ([("invalid-json", 11)] if lone else [])
    assert len(records) == (10 if lone else 11)


@pytest.mark.parametrize("pad", ["\x0c", "\xa0", " \t\x0c\xa0\u3000"])
def test_object_padded_with_unicode_whitespace_loads(tmp_path, pad):
    paths = write_corpus_files(tmp_path)
    tweet_path = tmp_path / "padded.jsonl"
    tweet_path.write_text("".join(pad + json.dumps(t) + pad + "\n" for t in TWEET_LINES),
                          encoding="utf-8")
    corpus = cp.load_corpus(paths["accounts"], tweet_path)
    assert corpus.load_report.empty
    assert corpus == cp.load_corpus(paths["accounts"], paths["tweets"])


# Reference copies of the record parsers and parse_instant as they were before
# the one-pass loader, apart from ``share`` (an identity here), plus the later
# rule that a falsy non-list hashtags/urls value is bad. They coerce a
# non-string text, language, handle, description or hashtag/URL element with
# str(), which the loader now rejects, so the property below only draws strings
# for those fields.

def ref_parse_instant(value):
    if isinstance(value, bool):
        raise ValueError(f"not a timestamp: {value!r}")
    if isinstance(value, (int, float)):
        return datetime.fromtimestamp(value, tz=timezone.utc)
    if isinstance(value, str):
        text = value.strip()
        if text.endswith(("Z", "z")):
            text = text[:-1] + "+00:00"
        dt = datetime.fromisoformat(text)
        if dt.tzinfo is None:
            dt = dt.replace(tzinfo=timezone.utc)
        return dt.astimezone(timezone.utc)
    raise ValueError(f"not a timestamp: {value!r}")


def ref_optional_id(obj, key):
    value = obj.get(key)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise cp._RecordError(f"bad-field:{key}",
                              f"expected identifier, got {type(value).__name__}")
    return str(value).strip() or None


def ref_as_id(obj, key):
    value = ref_optional_id(obj, key)
    if value is None:
        raise cp._RecordError(f"missing-field:{key}")
    return value


def ref_as_count(obj, key):
    value = obj.get(key)
    if value is None:
        raise cp._RecordError(f"missing-field:{key}")
    if isinstance(value, bool) or not isinstance(value, int):
        raise cp._RecordError(f"bad-field:{key}", f"expected integer, got {value!r}")
    if value < 0:
        raise cp._RecordError("negative-count", f"{key}={value}")
    return value


def ref_as_instant(obj, key):
    value = obj.get(key)
    if value is None:
        raise cp._RecordError(f"missing-field:{key}")
    try:
        return ref_parse_instant(value)
    except (ValueError, OverflowError, OSError) as exc:
        raise cp._RecordError("bad-timestamp", str(exc)) from exc


def ref_parse_account(obj):
    return cp.Account(
        account_id=ref_as_id(obj, "account_id"),
        handle=str(obj.get("handle", "") or ""),
        created_at=ref_as_instant(obj, "created_at"),
        follower_count=ref_as_count(obj, "follower_count"),
        following_count=ref_as_count(obj, "following_count"),
        tweet_count=ref_as_count(obj, "tweet_count"),
        description=str(obj.get("description", "") or ""),
    )


def ref_parse_tweet(obj):
    kind = obj.get("kind")
    if kind is None:
        raise cp._RecordError("missing-field:kind")
    if not isinstance(kind, str) or kind not in cp.VALID_KINDS:
        raise cp._RecordError("bad-kind", f"kind={kind!r}")
    text = obj.get("text")
    if text is None:
        raise cp._RecordError("missing-field:text")
    raw_tags = obj.get("hashtags") or []
    raw_urls = obj.get("urls") or []
    if not isinstance(raw_tags, list) or not isinstance(raw_urls, list):
        raise cp._RecordError("bad-field:entities", "hashtags/urls must be lists")
    hashtags = tuple(t for t in (cp.normalize_hashtag(str(tag)) for tag in raw_tags) if t)
    language = obj.get("language")
    record = cp.Tweet(
        tweet_id=ref_as_id(obj, "tweet_id"),
        author_id=ref_as_id(obj, "author_id"),
        created_at=ref_as_instant(obj, "created_at"),
        text=str(text),
        kind=kind,
        in_reply_to_account=ref_optional_id(obj, "in_reply_to_account"),
        referenced_account=ref_optional_id(obj, "referenced_account"),
        hashtags=hashtags,
        urls=tuple(str(u) for u in raw_urls),
        language=str(language) if language not in (None, "") else None,
    )
    # Added to the reference with the loader's rule: a falsy value other than
    # absent, null and "" (0, 0.0, false, {}) is bad, checked after all else.
    for value in (obj.get("hashtags"), obj.get("urls")):
        if value not in (None, "") and not isinstance(value, list):
            raise cp._RecordError("bad-field:entities", "hashtags/urls must be lists")
    return record


def outcome(parse, obj):
    """What a parser makes of obj: its record (with the repr, which shows
    each datetime's tzinfo) or the rule and detail it raises."""
    try:
        record = parse(obj)
    except cp._RecordError as exc:
        return ("error", exc.rule, exc.detail)
    return ("record", record, repr(record))


JSON_SCALAR = (st.none() | st.booleans() | st.integers(-10**20, 10**20)
               | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=6))
JSON_VALUE = st.recursive(JSON_SCALAR, lambda inner: st.lists(inner, max_size=3)
                          | st.dictionaries(st.text(max_size=3), inner, max_size=3),
                          max_leaves=5)
ID_VALUE = (st.sampled_from(["a1", " a1 ", "", "  ", "0", "t-9"]) | st.integers(-5, 10**6)
            | JSON_VALUE)
STRING_OR_NULL = st.none() | st.sampled_from(["", " ", "en", "#BTC", "# #eth "]) | st.text(max_size=8)
INSTANT = (st.sampled_from(["2023-01-01T00:00:00Z", "2023-01-01T00:00:00z",
                            " 2023-01-01T00:00:00Z ", "2023-01-01T02:00:00+02:00",
                            "2023-01-01 00:00:00", "2023-02-30T00:00:00Z", "2023-01-01",
                            "last tuesday", ""])
           | st.integers(-10**12, 10**12) | st.floats(allow_nan=True) | JSON_VALUE)
COUNT = st.integers(-3, 10**6) | JSON_VALUE
ENTITIES = (st.none() | st.lists(STRING_OR_NULL.filter(lambda v: v is not None), max_size=3)
            | JSON_SCALAR)
KIND = st.sampled_from(sorted(cp.VALID_KINDS)) | JSON_VALUE

TWEET_FIELDS = {"tweet_id": ID_VALUE, "author_id": ID_VALUE, "created_at": INSTANT,
                "text": STRING_OR_NULL, "kind": KIND, "in_reply_to_account": ID_VALUE,
                "referenced_account": ID_VALUE, "hashtags": ENTITIES, "urls": ENTITIES,
                "language": STRING_OR_NULL}
ACCOUNT_FIELDS = {"account_id": ID_VALUE, "handle": STRING_OR_NULL, "created_at": INSTANT,
                  "follower_count": COUNT, "following_count": COUNT, "tweet_count": COUNT,
                  "description": STRING_OR_NULL}


def records(fields, good):
    """Objects keyed by record field names: each field is kept valid, dropped
    or drawn from its strategy, so some objects load and some break rules."""
    def build(choices):
        obj = dict(good)
        for key, (mode, value) in choices.items():
            if mode == "drop":
                obj.pop(key, None)
            elif mode == "draw":
                obj[key] = value
        return obj

    return st.fixed_dictionaries({
        key: st.tuples(st.sampled_from(["keep", "keep", "drop", "draw", "draw"]), strategy)
        for key, strategy in fields.items()}).map(build)


@given(tweet=records(TWEET_FIELDS, TWEET_LINES[1]),
       account=records(ACCOUNT_FIELDS, ACCOUNT_LINES[0]))
@settings(max_examples=600, derandomize=True, deadline=None)
def test_parsers_match_the_reference_parsers(tweet, account):
    assert outcome(parse_tweet, tweet) == outcome(ref_parse_tweet, tweet)
    assert outcome(lambda o: cp._parse_account(o, {}.setdefault), account) == \
        outcome(ref_parse_account, account)


def instant_outcome(parse, value):
    try:
        dt = parse(value)
    except (ValueError, OverflowError, OSError) as exc:
        return ("error", type(exc), str(exc))
    return ("instant", dt, repr(dt), dt.tzinfo)


# Strings at and near the "YYYY-MM-DDTHH:MM:SSZ" form export writes for whole
# seconds: a canonical instant with a few characters replaced, inserted or removed.
NEAR_CHARS = st.sampled_from(list("0123456789-:TtZz+ .,W\x00\xe9") + ["\udc80", "\u3000"])


@st.composite
def near_canonical(draw):
    dt = draw(st.datetimes())
    text = list(f"{dt.year:04d}-{dt.month:02d}-{dt.day:02d}T"
                f"{dt.hour:02d}:{dt.minute:02d}:{dt.second:02d}Z")
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(["replace", "replace", "insert", "delete"]))
        at = draw(st.integers(0, len(text) - 1)) if text else 0
        if op == "delete" and text:
            del text[at]
        elif op == "insert":
            text.insert(at, draw(NEAR_CHARS))
        elif text:
            text[at] = draw(NEAR_CHARS)
    return "".join(text)


@example("2023-01-01T00+01:00Z")
@example("2023-01-01T00:00:00z")
@example("2023-W01-1T00:00:00Z")
@example("20230101T00:00:00Z")
@given(near_canonical())
@settings(max_examples=2000, derandomize=True, deadline=None)
def test_parse_instant_matches_the_reference(value):
    assert instant_outcome(cp.parse_instant, value) == instant_outcome(ref_parse_instant, value)


@given(near_canonical())
@settings(max_examples=2000, derandomize=True, deadline=None)
def test_tweet_parser_reads_created_at_as_the_reference(value):
    # The tweet parser reads a string ending in Z itself and falls back to
    # parse_instant only when that read fails.
    obj = {**TWEET_LINES[1], "created_at": value}
    assert outcome(parse_tweet, obj) == outcome(ref_parse_tweet, obj)


# Reference copies of format_instant and of the JSONL part of export_corpus as
# they were before the line writer: json.dumps per record, built from getattr.

def ref_format_instant(dt):
    return dt.astimezone(timezone.utc).isoformat().replace("+00:00", "Z")


def ref_export_corpus(corpus, out):
    out.mkdir(parents=True, exist_ok=True)
    for name, records, kind in (("accounts.jsonl", corpus.accounts, cp.Account),
                                ("tweets.jsonl", corpus.tweets, cp.Tweet)):
        keys = [f.name for f in dataclasses.fields(kind)]
        with open(out / name, "w", encoding="utf-8") as fh:
            for record in (records[record_id] for record_id in sorted(records)):
                obj = {key: getattr(record, key) for key in keys}
                obj["created_at"] = ref_format_instant(record.created_at)
                fh.write(json.dumps(obj, ensure_ascii=False, sort_keys=True) + "\n")


AWARE_INSTANT = st.datetimes(
    min_value=datetime(1, 1, 2), max_value=datetime(9999, 12, 30),
    timezones=st.just(timezone.utc) | st.builds(timezone, st.timedeltas(
        min_value=-timedelta(hours=23, minutes=59), max_value=timedelta(hours=23, minutes=59))))
# Strings with what a JSON string encoder must escape or pass through.
EXPORT_TEXT = st.lists(st.sampled_from(['"', "\\", "\x00", "\n", "\x1f", "\x7f", "/", "\u00e9",
                                        "\u2028", "\U0001f916", ""]) | st.text(max_size=3),
                       max_size=4).map("".join)


@st.composite
def export_corpora(draw):
    """Corpora with every field drawn, ids all strings or all integers (a
    corpus with both cannot be sorted), entities as tuples or lists."""
    ident = st.integers(-3, 10**6) if draw(st.booleans()) else EXPORT_TEXT
    entities = st.lists(EXPORT_TEXT, max_size=3)
    accounts = draw(st.lists(st.builds(
        cp.Account, account_id=ident, handle=EXPORT_TEXT, created_at=AWARE_INSTANT,
        follower_count=st.integers(0, 10**6), following_count=st.integers(0, 10**6),
        tweet_count=st.integers(0, 10**6), description=EXPORT_TEXT),
        max_size=3, unique_by=lambda a: a.account_id))
    tweets = draw(st.lists(st.builds(
        cp.Tweet, tweet_id=ident, author_id=ident, created_at=AWARE_INSTANT, text=EXPORT_TEXT,
        kind=st.sampled_from(sorted(cp.VALID_KINDS)) | EXPORT_TEXT,
        in_reply_to_account=st.none() | ident, referenced_account=st.none() | ident,
        hashtags=entities.map(tuple) | entities, urls=entities.map(tuple),
        language=st.none() | EXPORT_TEXT),
        max_size=6, unique_by=lambda t: t.tweet_id))
    return cp.make_corpus(accounts, tweets)


# Values no loader makes, in one corpus: integer ids and counts that are not
# integers, and hashtags (1,) and (True,), which are equal tuples that encode
# differently; also a year below 1000, a non-UTC offset and microseconds.
ODD_CORPUS = cp.make_corpus(
    [cp.Account(7, None, datetime(999, 12, 31, 23, 0, 0, 5, tzinfo=timezone(timedelta(hours=-5))),
                True, 2.5, -1, ("bio",))],
    [cp.Tweet("t1", 7, datetime(2023, 1, 1, tzinfo=timezone(timedelta(hours=5, minutes=30))),
              "\u00e9 \"q\" \\ \u2028 \U0001f916", "original", None, 8, (1,), ("",), "\x00"),
     cp.Tweet("t2", 7, datetime(2023, 1, 1, 0, 0, 1, tzinfo=timezone.utc), "", "reply",
              9, None, (True,), (), None),
     cp.Tweet("t3", 7, datetime(2023, 1, 1, 0, 0, 2, tzinfo=timezone.utc), "x", "quote",
              None, None, ["a", 1.5], (None,), "en")])


@example(ODD_CORPUS)
@given(export_corpora())
@settings(max_examples=300, derandomize=True, deadline=None)
def test_export_writes_the_bytes_json_dumps_writes(corpus):
    with tempfile.TemporaryDirectory() as tmp:
        ref, new = Path(tmp) / "ref", Path(tmp) / "new"
        ref_export_corpus(corpus, ref)
        cp.export_corpus(corpus, new)
        for name in ("accounts.jsonl", "tweets.jsonl"):
            assert (new / name).read_bytes() == (ref / name).read_bytes()


@example(datetime(999, 12, 31, 23, 59, 59, 999999, tzinfo=timezone(timedelta(hours=-5))))
@example(datetime(2023, 1, 1, 12, tzinfo=timezone(timedelta(seconds=-1, microseconds=7))))
@given(AWARE_INSTANT)
@settings(max_examples=500, derandomize=True, deadline=None)
def test_format_instant_matches_the_reference(dt):
    text = cp.format_instant(dt)
    assert text == ref_format_instant(dt)
    assert cp.parse_instant(text) == dt


def test_format_instant_reads_a_naive_datetime_as_utc_in_any_local_zone():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "TZ": "EST5EDT,M3.2.0,M11.1.0",
           "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    code = ("from datetime import datetime, timezone\n"
            "from botsieve.corpus import format_instant, parse_instant\n"
            "naive = datetime(2023, 1, 1, 12)\n"
            "print(naive.astimezone(timezone.utc).hour, format_instant(naive),\n"
            "      format_instant(parse_instant('2023-01-01T12:00:00')))\n")
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    # 17: the local zone is in force (12:00 in New York is 17:00 UTC).
    assert result.stdout.split() == ["17", "2023-01-01T12:00:00Z", "2023-01-01T12:00:00Z"]


INDEX = "_author_index"


def test_per_author_index_is_built_on_first_use(tmp_path, monkeypatch):
    fragments = []
    merge = sn.merge_corpora

    def recording_merge(*parts):
        fragments.extend(parts)
        return merge(*parts)

    monkeypatch.setattr(sn, "merge_corpora", recording_merge)
    generated = sn.fox8_preset(seed=2, n_bots=20, n_humans=6)
    assert len(fragments) == 2
    paths = cp.export_corpus(generated, tmp_path)
    loaded = cp.load_corpus(paths["accounts"], paths["tweets"], paths["edges"], paths["labels"])
    made = cp.make_corpus(list(loaded.accounts.values()), list(loaded.tweets.values()))
    merged = cp.merge_corpora(made, cp.make_corpus([], []))
    for corpus in (*fragments, generated, loaded, made, merged):
        assert INDEX not in vars(corpus)

    # Reading the Tweet rows builds no index; the first tweets_of does, and
    # later calls build equal rows anew from that one index.
    author = next(iter(loaded.tweets.values())).author_id
    assert INDEX not in vars(loaded)
    first = loaded.tweets_of(author)
    index = vars(loaded)[INDEX]
    again = loaded.tweets_of(author)
    assert again == first and again is not first
    assert vars(loaded)[INDEX] is index
    authors = sorted({t.author_id for t in loaded.tweets.values()})
    assert loaded.tweets_by_author == {a: tuple(t.tweet_id for t in loaded.tweets_of(a))
                                       for a in authors}
    assert list(loaded.tweets_by_author) == authors
    assert made.tweets_by_author == loaded.tweets_by_author
    assert INDEX in vars(made) and INDEX not in vars(merged)
