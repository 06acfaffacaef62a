import json
from datetime import datetime, timezone

import pytest

from botsieve import corpus as cp
from conftest import account, corpus_of, tweet

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
    assert build_graph(corpus, "follow").edges == {}


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
