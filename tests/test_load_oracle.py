"""Frozen oracle for the tweet load, validate, export, cap and merge.

The ``ref_*`` functions are copies of the record-based corpus code as it stood
before the tweets became columns: ``_parse_tweet`` plus
``_load_jsonl_records``, ``make_corpus``, the tweet part of ``load_corpus``,
``validate``, ``export_corpus`` with ``_write_jsonl``, ``cap_tweets`` and
``merge_corpora``, over a ``RefCorpus`` that holds one ``Tweet`` record per
tweet. The property below loads drawn hostile ``tweets.jsonl`` files with both
and checks that the library reads, reports, validates, orders and writes them
as the reference does.
"""

from __future__ import annotations

import csv
import json
import multiprocessing
import os
import tempfile
import threading
from array import array
from contextlib import contextmanager
from datetime import timedelta
from dataclasses import dataclass, field, fields
from functools import cached_property
from itertools import repeat
from operator import attrgetter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from botsieve import contentstats
from botsieve import corpus as cp
from botsieve.corpus import (MALFORMED_FATAL_FRACTION, VALID_KINDS, Account, CorpusError,
                             FollowEdge, GroupPartition, Tweet, ValidationReport, Violation,
                             _as_instant, _decode, _encode_json, _encode_str, _gc_paused,
                             _identifier, _iter_lines, _load_labels, _not_a_string,
                             _parse_account, _parse_edge, _RecordError, format_instant,
                             normalize_hashtag)
from conftest import parse_tweet


@dataclass(frozen=True)
class RefCorpus:
    accounts: dict
    tweets: dict
    follow_edges: frozenset
    partition: GroupPartition
    load_report: ValidationReport = field(compare=False, default_factory=ValidationReport)
    line_numbers: dict = field(compare=False, default_factory=dict)

    @cached_property
    def _author_index(self):
        index = {}
        for tweet in self.tweets.values():
            index.setdefault(tweet.author_id, []).append(tweet)
        order = attrgetter("created_at", "tweet_id")
        for tweets in index.values():
            tweets.sort(key=order)
        return {author: tuple(tweets) for author, tweets in sorted(index.items())}

    def tweets_of(self, account_id):
        return self._author_index.get(account_id, ())


def ref_make_corpus(accounts, tweets, edges=(), partition=None, load_report=None,
                    line_numbers=None):
    account_index = {}
    for acct in accounts:
        if acct.account_id in account_index:
            raise CorpusError(f"duplicate account_id: {acct.account_id}")
        account_index[acct.account_id] = acct
    tweet_index = {}
    for tweet in tweets:
        if tweet.tweet_id in tweet_index:
            raise CorpusError(f"duplicate tweet_id: {tweet.tweet_id}")
        tweet_index[tweet.tweet_id] = tweet
    return RefCorpus(
        accounts=account_index,
        tweets=tweet_index,
        follow_edges=frozenset(edges),
        partition=partition or GroupPartition(),
        load_report=load_report or ValidationReport(),
        line_numbers=line_numbers or {},
    )


def ref_parse_tweet(obj, share):
    get = obj.get
    kind = get("kind")
    if kind is None:
        raise _RecordError("missing-field:kind")
    if type(kind) is not str or kind not in VALID_KINDS:
        raise _RecordError("bad-kind", f"kind={kind!r}")
    text = get("text")
    if text is None:
        raise _RecordError("missing-field:text")
    raw_tags = get("hashtags")
    raw_urls = get("urls")
    if (raw_tags and type(raw_tags) is not list) or (raw_urls and type(raw_urls) is not list):
        raise _RecordError("bad-field:entities", "hashtags/urls must be lists")
    tweet_id = get("tweet_id")
    tweet_id = tweet_id.strip() if type(tweet_id) is str else _identifier(tweet_id, "tweet_id")
    if not tweet_id:
        raise _RecordError("missing-field:tweet_id")
    author_id = get("author_id")
    author_id = (author_id.strip() if type(author_id) is str
                 else _identifier(author_id, "author_id"))
    if not author_id:
        raise _RecordError("missing-field:author_id")
    created_at = _as_instant(get("created_at"), "created_at")
    reply_to = get("in_reply_to_account")
    reply_to = (reply_to.strip() if type(reply_to) is str
                else _identifier(reply_to, "in_reply_to_account"))
    referenced = get("referenced_account")
    referenced = (referenced.strip() if type(referenced) is str
                  else _identifier(referenced, "referenced_account"))
    if type(text) is not str:
        raise _not_a_string(text, "text")
    hashtags = []
    for tag in raw_tags or ():
        if type(tag) is not str:
            raise _not_a_string(tag, "entities")
        tag = normalize_hashtag(tag)
        if tag:
            hashtags.append(tag)
    for url in raw_urls or ():
        if type(url) is not str:
            raise _not_a_string(url, "entities")
    language = get("language")
    if language is not None and type(language) is not str:
        raise _not_a_string(language, "language")
    if ((type(raw_tags) is not list and raw_tags not in (None, ""))
            or (type(raw_urls) is not list and raw_urls not in (None, ""))):
        raise _RecordError("bad-field:entities", "hashtags/urls must be lists")
    hashtags = tuple(hashtags)
    urls = tuple(raw_urls or ())
    return Tweet(
        tweet_id, share(author_id, author_id), created_at, share(text, text),
        share(kind, kind),
        share(reply_to, reply_to) if reply_to else None,
        share(referenced, referenced) if referenced else None,
        share(hashtags, hashtags), share(urls, urls),
        share(language, language) if language else None,
    )


def ref_load_jsonl_records(path, parse, aliases, violations, share):
    records = []
    lines = array("Q")
    add_record = records.append
    add_line = lines.append
    total = 0
    malformed = 0
    first_bad = None
    fname = path.name
    for lineno, text in _iter_lines(path):
        total += 1
        obj = None
        if text is not None:
            try:
                obj, end = _decode(text)
            except (ValueError, RecursionError):
                pass
            else:
                if end != len(text):
                    obj = None
        if type(obj) is not dict:
            malformed += 1
            if first_bad is None:
                first_bad = lineno
            violations.append(Violation("invalid-json", file=fname, line=lineno))
            continue
        if aliases:
            obj = {**obj, **{canonical: obj.get(name) for canonical, name in aliases.items()}}
        try:
            add_record(parse(obj, share))
        except _RecordError as exc:
            violations.append(
                Violation(exc.rule, file=fname, line=lineno, detail=exc.detail)
            )
            continue
        add_line(lineno)
    if total and malformed > MALFORMED_FATAL_FRACTION * total:
        raise CorpusError(
            f"{fname}: {malformed} of {total} lines are not valid JSON records "
            f"(first offending line: {first_bad})"
        )
    return records, lines


def ref_load_corpus(account_path, tweet_path, edge_path, label_path, field_aliases):
    """load_corpus with the reference tweet parser (aliases assumed well formed)."""
    aliases = field_aliases or {}
    with _gc_paused():
        violations = []
        share = {}.setdefault
        account_path = Path(account_path)
        tweet_path = Path(tweet_path)
        accounts, account_lines = ref_load_jsonl_records(
            account_path, _parse_account, aliases.get("accounts", {}), violations, share)
        tweets, tweet_lines = ref_load_jsonl_records(
            tweet_path, ref_parse_tweet, aliases.get("tweets", {}), violations, share)

        edges = []
        edge_path = Path(edge_path)
        seen_pairs = set()
        edge_records, edge_lines = ref_load_jsonl_records(
            edge_path, _parse_edge, aliases.get("edges", {}), violations, share)
        for edge, lineno in zip(edge_records, edge_lines):
            if edge.source == edge.target:
                violations.append(
                    Violation("self-follow", file=edge_path.name, line=lineno,
                              identifier=edge.source)
                )
                continue
            pair = (edge.source, edge.target)
            if pair in seen_pairs:
                violations.append(
                    Violation("duplicate-edge", file=edge_path.name, line=lineno,
                              identifier=f"{edge.source}->{edge.target}")
                )
                continue
            seen_pairs.add(pair)
            edges.append(edge)

        known = {a.account_id for a in accounts}
        partition = _load_labels(Path(label_path), known, violations)

        violations.sort(key=Violation.sort_key)
        return ref_make_corpus(
            accounts, tweets, edges, partition,
            load_report=ValidationReport(tuple(violations)),
            line_numbers={"accounts": (account_path.name, account_lines),
                          "tweets": (tweet_path.name, tweet_lines)},
        )


def ref_validate(corpus):
    violations = []

    def located(kind):
        records = getattr(corpus, kind)
        file, lines = corpus.line_numbers.get(kind, (None, repeat(None, len(records))))
        return zip(records.values(), repeat(file, len(records)), lines, strict=True)

    for acct, file, line in located("accounts"):
        if min(acct.follower_count, acct.following_count, acct.tweet_count) < 0:
            violations.append(Violation("negative-count", file, line, acct.account_id))

    for tweet, file, line in located("tweets"):
        loc = {"file": file, "line": line, "identifier": tweet.tweet_id}
        if tweet.kind == "reply" and tweet.in_reply_to_account is None:
            violations.append(Violation("reply-missing-target", **loc))
        if tweet.kind in ("retweet", "quote") and tweet.referenced_account is None:
            violations.append(Violation("reference-missing-target", **loc))
        if tweet.kind != "reply" and tweet.in_reply_to_account is not None:
            violations.append(Violation("unexpected-reply-target", **loc))
        if tweet.kind in ("original", "reply") and tweet.referenced_account is not None:
            violations.append(Violation("unexpected-reference-target", **loc))
        if tweet.author_id not in corpus.accounts:
            violations.append(Violation("dangling-author", detail=tweet.author_id, **loc))
        for tag in tweet.hashtags:
            if tag != normalize_hashtag(tag) or not tag:
                violations.append(Violation("hashtag-not-normalized", detail=tag, **loc))

    for edge in sorted(corpus.follow_edges, key=lambda e: (e.source, e.target)):
        if edge.source == edge.target:
            violations.append(Violation("self-follow", identifier=edge.source))

    seen = {}
    for name, members in corpus.partition.groups.items():
        for member in sorted(members):
            if member in seen:
                violations.append(
                    Violation("partition-overlap", identifier=member,
                              detail=f"{seen[member]} and {name}")
                )
            seen[member] = name
            if member not in corpus.accounts:
                violations.append(Violation("partition-unknown-member", identifier=member))

    violations.sort(key=Violation.sort_key)
    return ValidationReport(tuple(violations))


def ref_write_jsonl(path, records, kind):
    keys = sorted(f.name for f in fields(kind))
    heads = ["{" + _encode_str(keys[0]) + ": "] + [", " + _encode_str(k) + ": " for k in keys[1:]]
    at = keys.index("created_at")
    get = attrgetter(*keys)
    encode_str = _encode_str
    encode_json = _encode_json
    with open(path, "w", encoding="utf-8") as fh:
        write = fh.write
        for record in records:
            values = list(get(record))
            values[at] = format_instant(values[at])
            parts = []
            add = parts.append
            for head, value in zip(heads, values):
                add(head)
                if type(value) is str:
                    add(encode_str(value))
                elif value is None:
                    add("null")
                elif type(value) is tuple:
                    try:
                        add("[" + ", ".join(map(encode_str, value)) + "]")
                    except TypeError:
                        add(encode_json(value))
                else:
                    add(encode_json(value))
            add("}\n")
            write("".join(parts))


def ref_export_corpus(corpus, out_dir):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "accounts": out / cp.ACCOUNTS_FILE,
        "tweets": out / cp.TWEETS_FILE,
        "edges": out / cp.EDGES_FILE,
        "labels": out / cp.LABELS_FILE,
    }
    with _gc_paused():
        for name, records, kind in (("accounts", corpus.accounts, Account),
                                    ("tweets", corpus.tweets, Tweet)):
            ref_write_jsonl(paths[name], map(records.__getitem__, sorted(records)), kind)
        with open(paths["edges"], "w", encoding="utf-8") as fh:
            for edge in sorted(corpus.follow_edges, key=lambda e: (e.source, e.target)):
                fh.write(json.dumps({"source": edge.source, "target": edge.target},
                                    sort_keys=True) + "\n")
        with open(paths["labels"], "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["account_id", "group_name"])
            for name in corpus.partition.names:
                for member in sorted(corpus.partition[name]):
                    writer.writerow([member, name])
    return paths


def ref_merge_corpora(*parts):
    accounts = []
    tweets = []
    edges = set()
    groups = {}
    for part in parts:
        accounts.extend(part.accounts.values())
        tweets.extend(part.tweets.values())
        edges.update(part.follow_edges)
        for name, members in part.partition.groups.items():
            groups.setdefault(name, set()).update(members)
    partition = GroupPartition({n: frozenset(m) for n, m in groups.items()})
    violations = sorted((v for part in parts for v in part.load_report), key=Violation.sort_key)
    return ref_make_corpus(accounts, tweets, edges, partition,
                           load_report=ValidationReport(tuple(violations)))


def ref_cap_tweets(corpus, max_per_account):
    if max_per_account < 1:
        raise ValueError("max_per_account must be >= 1")
    keep = set()
    for tweets in corpus._author_index.values():
        keep.update([tweet.tweet_id for tweet in tweets[-max_per_account:]])
    kept = sorted(keep)
    line_numbers = dict(corpus.line_numbers)
    if "tweets" in line_numbers:
        file, lines = line_numbers["tweets"]
        line_of = {tid: n for tid, n in zip(corpus.tweets, lines) if tid in keep}
        line_numbers["tweets"] = (file, array(lines.typecode, (line_of[tid] for tid in kept)))
    return ref_make_corpus(
        list(corpus.accounts.values()),
        [corpus.tweets[tid] for tid in kept],
        corpus.follow_edges,
        corpus.partition,
        load_report=corpus.load_report,
        line_numbers=line_numbers,
    )


# ---------------------------------------------------------------------------
# The property

ACCOUNT_LINES = [
    {"account_id": "a0", "handle": "h0", "created_at": "2020-01-01T00:00:00Z",
     "follower_count": 1, "following_count": 2, "tweet_count": 3},
    {"account_id": "a1", "handle": "h1", "created_at": 1577836800,
     "follower_count": 0, "following_count": 0, "tweet_count": 0, "description": "bio"},
    {"account_id": "7", "handle": "h7", "created_at": "2020-01-01T00:00:00Z",
     "follower_count": 5, "following_count": 5, "tweet_count": 5},
]
EDGE_LINES = [{"source": "a0", "target": "a1"}, {"source": "a1", "target": "7"}]
LABELS = "account_id,group_name\na0,bot\na1,bot\n7,human\n"

# Each field: (values a loader keeps, values that break a rule or test an
# edge). Ids collide often, and some are integers, booleans, blank or padded.
# The instants are naive, offset, lowercase-z, epoch and fractional; the first
# six are one instant, so one author's tweets tie on created_at.
FIELDS = {
    "tweet_id": (st.sampled_from(["t1", "t2", " t3 ", "t10", "t11", "T1"]) | st.integers(0, 30),
                 st.sampled_from([True, False, "   ", "", 1.5, [1], None])),
    "author_id": (st.sampled_from(["a0", "a1", "7", "x9", " a0 ", 7]),
                  st.sampled_from([True, "  ", "", {}, None])),
    "created_at": (st.sampled_from([
        "2023-01-01T00:00:00Z", "2023-01-01T00:00:00z", "2023-01-01T02:00:00+02:00",
        "2023-01-01 00:00:00", 1672531200, 1672531200.0, "2023-01-01T00:00:00.000001Z",
        1672531200.5, " 2023-01-02T00:00:00Z "]),
        st.sampled_from(["2023-02-30T00:00:00Z", "soon", True, None, 10**20])),
    "kind": (st.sampled_from(["original", "reply", "retweet", "quote"]),
             st.sampled_from([None, "tweet", "Reply", 5, ["reply"]])),
    "text": (st.sampled_from(["hi", "", "As an AI language model", "\u00e9 \"q\" \\  "]),
             st.sampled_from([None, 5, ["hi"], True])),
    "hashtags": (st.lists(st.sampled_from(["# #ETH ", "#BTC", "btc", "#", " ", "\u00c9t\u00e9"]),
                          max_size=3),
                 st.sampled_from([None, "", 0, 0.0, False, {}, "x", [1], ["#a", None], [[]]])),
    "urls": (st.lists(st.sampled_from(["https://fox8.news/a", "", "not a url"]), max_size=2),
             st.sampled_from([None, "", 0, False, {}, "https://x.org", [None], [5]])),
    "language": (st.sampled_from(["en", "es", None, "", "en-GB"]), st.sampled_from([3, ["en"]])),
    "in_reply_to_account": (st.sampled_from([None, "a0", "a1", "x9", "", "  ", 7]),
                            st.sampled_from([True, 2.5, ["a0"]])),
    "referenced_account": (st.sampled_from([None, "a0", "a1", "x9", "", "  ", 7]),
                           st.sampled_from([True, 2.5, ["a0"]])),
}
ALIASES = {"tweets": {"tweet_id": "id", "text": "full_text"}}
BAD_LINES = [b'{"tweet_id": "t1", ', b"[1, 2]", b'"text"', b'{"text": "\xff\xfe"}',
             b"\xff", b'{"a": 1} {"b": 2}', b"   ", b"nul"]


@st.composite
def tweet_objects(draw, aliased):
    obj = {}
    for key, (good, odd) in FIELDS.items():
        mode = draw(st.integers(0, 19))
        if mode < 18:
            obj[key] = draw(good)
        elif mode == 18:
            obj[key] = draw(odd)
    if aliased:
        for canonical, name in ALIASES["tweets"].items():
            # A canonical name left in an aliased file reads as absent.
            if canonical in obj and draw(st.integers(0, 5)):
                obj[name] = obj.pop(canonical)
    return obj


@st.composite
def tweet_files(draw):
    aliased = draw(st.booleans())
    lines = []
    for _ in range(draw(st.integers(0, 24))):
        if draw(st.integers(0, 15)) == 0:
            lines.append(draw(st.sampled_from(BAD_LINES)))
        else:
            obj = draw(tweet_objects(aliased))
            lines.append(json.dumps(obj, ensure_ascii=draw(st.booleans())).encode("utf-8"))
    return aliased, b"".join(line + b"\n" for line in lines)


def outcome(load):
    try:
        return ("ok", load())
    except CorpusError as exc:
        return ("error", str(exc))


def records(corpus):
    """(id, record, repr) for each tweet in insertion order; the repr shows
    each created_at's tzinfo."""
    return [(tid, tweet, repr(tweet)) for tid, tweet in corpus.tweets.items()]


def assert_same(mine, ref):
    assert records(mine) == records(ref)
    assert mine.line_numbers == ref.line_numbers
    assert mine.load_report.to_rows() == ref.load_report.to_rows()
    assert cp.validate(mine).to_rows() == ref_validate(ref).to_rows()
    authors = {t.author_id for t in ref.tweets.values()} | {"a0", "nobody"}
    for author in sorted(authors):
        assert mine.tweets_of(author) == ref.tweets_of(author)


# A fragment to merge with: records no loader makes alone, ids disjoint from
# every drawn id.
OTHER_TWEETS = [
    Tweet("m1", "a0", cp.parse_instant("2023-01-01T00:00:00Z"), "hi", "reply", None, "a1",
          ("#BTC",), ("https://fox8.news/m",), "en"),
    Tweet("m2", "z1", cp.parse_instant("2022-01-01T00:00:00Z"), "hi", "original",
          "a0", None, (), (), None),
]


def parsed(parse, obj):
    """The record parse makes of obj (with its repr, which shows the
    created_at tzinfo), or the rule and detail it raises."""
    try:
        record = parse(obj)
    except _RecordError as exc:
        return ("error", exc.rule, exc.detail)
    return ("record", record, repr(record))


@given(tweet_objects(aliased=False))
@settings(max_examples=300, derandomize=True, deadline=None)
def test_one_tweet_object_parses_as_the_reference(obj):
    assert parsed(parse_tweet, obj) == parsed(lambda o: ref_parse_tweet(o, {}.setdefault), obj)


def write_files(tmp: Path, tweet_bytes: bytes) -> tuple:
    """The four corpus files under tmp, with the given tweets.jsonl; their paths."""
    paths = {"accounts": tmp / "accounts.jsonl", "tweets": tmp / "tweets.jsonl",
             "edges": tmp / "edges.jsonl", "labels": tmp / "labels.csv"}
    paths["accounts"].write_text("".join(json.dumps(o) + "\n" for o in ACCOUNT_LINES))
    paths["edges"].write_text("".join(json.dumps(o) + "\n" for o in EDGE_LINES))
    paths["labels"].write_text(LABELS)
    paths["tweets"].write_bytes(tweet_bytes)
    return (paths["accounts"], paths["tweets"], paths["edges"], paths["labels"])


@contextmanager
def split_into(ranges: int):
    """Load tweets.jsonl of any size in ``ranges`` byte ranges (1: in one
    process), as on a machine with that many usable cores."""
    with mock.patch.object(cp, "_SPLIT_MIN_BYTES", 0), \
            mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(ranges))):
        yield
    assert multiprocessing.active_children() == []


@given(tweet_files(), st.integers(1, 3))
@settings(max_examples=250, derandomize=True, deadline=None)
def test_load_and_export_match_the_frozen_reference(drawn, ranges):
    aliased, tweet_bytes = drawn
    aliases = ALIASES if aliased else None
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        args = write_files(tmp, tweet_bytes)
        with split_into(ranges):
            mine = outcome(lambda: cp.load_corpus(*args, field_aliases=aliases))
        ref = outcome(lambda: ref_load_corpus(*args, aliases))
        if ref[0] == "error":
            assert mine == ref
            return
        mine, ref = mine[1], ref[1]
        assert_same(mine, ref)

        out_mine = cp.export_corpus(mine, tmp / "mine")
        out_ref = ref_export_corpus(ref, tmp / "ref")
        for name, path in out_ref.items():
            assert out_mine[name].read_bytes() == path.read_bytes(), name

    for k in (1, 2):
        assert_same(cp.cap_tweets(mine, k), ref_cap_tweets(ref, k))

    other = (cp.make_corpus([], OTHER_TWEETS), ref_make_corpus([], OTHER_TWEETS))
    merged = outcome(lambda: cp.merge_corpora(mine, other[0]))
    ref_merged = outcome(lambda: ref_merge_corpora(ref, other[1]))
    assert merged[0] == ref_merged[0] == "ok"
    assert_same(merged[1], ref_merged[1])


def test_records_without_an_author_match_the_reference():
    # Records no loader makes: an author of None, next to a known and an
    # unknown author, and a corpus with no accounts at all.
    accounts = [Account("a1", "h1", cp.parse_instant(0), 0, 0, 0)]
    at = cp.parse_instant("2023-01-01T00:00:00Z")
    tweets = [Tweet("t1", "a1", at, "hi", "original"), Tweet("t2", None, at, "yo", "original"),
              Tweet("t3", "x9", at, "hi", "reply", "a1"), Tweet("t4", None, at, "hi", "original")]
    for accounts, tweets in ((accounts, tweets), ([], tweets[1:2])):
        mine, ref = cp.make_corpus(accounts, tweets), ref_make_corpus(accounts, tweets)
        assert records(mine) == records(ref)
        assert cp.validate(mine).to_rows() == ref_validate(ref).to_rows()
        # The reference's index cannot sort None among ids; its order is this.
        for author in (None, "a1", "x9"):
            assert mine.tweets_of(author) == tuple(sorted(
                (t for t in tweets if t.author_id == author),
                key=attrgetter("created_at", "tweet_id")))
        point = contentstats.TernaryPoint
        assert contentstats.group_mix_points(mine, ["a1", "x9"]) == (
            {"a1": point(100.0, 0.0, 0.0), "x9": point(0.0, 100.0, 0.0)} if accounts else {})
        with tempfile.TemporaryDirectory() as tmp:
            out_mine = cp.export_corpus(mine, Path(tmp) / "mine")
            out_ref = ref_export_corpus(ref, Path(tmp) / "ref")
            assert out_mine["tweets"].read_bytes() == out_ref["tweets"].read_bytes()
    assert mine.tweets_by_author == {None: ("t2",)}


def test_export_across_chunks_matches_the_reference():
    # More rows than two export chunks, with values that recur across chunks
    # and ones that are new in each: every chunk encodes its own values.
    n = 2 * cp._EXPORT_CHUNK + 37
    start = cp.parse_instant("2023-01-01T00:00:00Z")
    kinds = ("original", "reply", "retweet", "quote")
    tweets = [Tweet(f"t{i:06d}", f"a{i % 7}", start + timedelta(seconds=i, microseconds=i % 3),
                    f"text {i % 5000}", kinds[i % 4], f"a{i % 3}" if i % 4 == 1 else None,
                    f"a{i % 5}" if i % 4 > 1 else None, ("btc", f"t{i % 11}")[:i % 3],
                    (f"https://x{i % 9000}.org/",) if i % 2 else (), ("en", None, "es")[i % 3])
              for i in reversed(range(n))]
    mine, ref = cp.make_corpus([], tweets), ref_make_corpus([], tweets)
    with tempfile.TemporaryDirectory() as tmp:
        out_mine = cp.export_corpus(mine, Path(tmp) / "mine")
        out_ref = ref_export_corpus(ref, Path(tmp) / "ref")
        assert out_mine["tweets"].read_bytes() == out_ref["tweets"].read_bytes()


# ---------------------------------------------------------------------------
# Split loads: lines at a range boundary

def tweet_line(i, width=120, **fields) -> bytes:
    """A valid tweet line (tweet t<i> by a0), padded with spaces to ``width``
    bytes with its newline; ``fields`` replace or add fields."""
    obj = {"tweet_id": f"t{i}", "author_id": "a0", "created_at": "2023-01-01T00:00:00Z",
           "kind": "original", "text": f"hi {i}", **fields}
    return json.dumps(obj).encode().ljust(width - 1) + b"\n"


def loads(tmp: Path, tweet_bytes: bytes, ranges=2, starts=None):
    """The outcome of loading tweet_bytes sequentially and in ``ranges``
    ranges; ``starts`` are the range starts the split must use."""
    args = write_files(tmp, tweet_bytes)
    sequential = outcome(lambda: cp.load_corpus(*args))
    with split_into(ranges):
        if starts is not None:
            assert cp._range_starts(args[1]) == starts
        split = outcome(lambda: cp.load_corpus(*args))
    return sequential, split


def assert_same_load(sequential, split):
    """The same outcome, down to the table's codes, line numbers and reports."""
    assert split[0] == sequential[0]
    if sequential[0] == "error":
        assert split == sequential
        return
    mine, ref = split[1], sequential[1]
    assert records(mine) == records(ref)
    assert mine.line_numbers == ref.line_numbers
    assert mine.load_report.to_rows() == ref.load_report.to_rows()
    assert cp.validate(mine).to_rows() == cp.validate(ref).to_rows()
    for name, value in vars(ref.table).items():
        if isinstance(value, np.ndarray):
            assert np.array_equal(getattr(mine.table, name), value), name
        else:
            assert getattr(mine.table, name) == value, name


# 20 lines of 120 bytes split in two at byte 1200, the start of line 11; the
# first range is read through line 11 (index 10), whose end is the boundary.
LAST, FIRST = 10, 11
BOUNDARY = [0, 11 * 120]
BOUNDARY_LINES = {
    "bad line": lambda i: b"{\"tweet_id\": ".ljust(119) + b"\n",
    "blank line": lambda i: b" " * 119 + b"\n",
    "validate violation": lambda i: tweet_line(i, kind="reply", author_id="x9"),
}


@pytest.mark.parametrize("at", [(LAST,), (FIRST,), (LAST, FIRST)])
@pytest.mark.parametrize("case", sorted(BOUNDARY_LINES))
def test_line_at_a_range_boundary_loads_as_in_one_process(tmp_path, case, at):
    lines = [BOUNDARY_LINES[case](i) if i in at else tweet_line(i) for i in range(20)]
    sequential, split = loads(tmp_path, b"".join(lines), starts=BOUNDARY)
    assert_same_load(sequential, split)
    corpus = split[1]
    loaded = [i + 1 for i in range(20) if case == "validate violation" or i not in at]
    assert list(corpus.line_numbers["tweets"][1]) == loaded
    located = {"bad line": corpus.load_report, "blank line": (),
               "validate violation": cp.validate(corpus)}[case]
    assert sorted({v.line for v in located}) == [i + 1 for i in at if case != "blank line"]


def test_duplicate_id_across_a_range_boundary_is_fatal(tmp_path):
    lines = [tweet_line(FIRST if i == LAST else i) for i in range(20)]
    sequential, split = loads(tmp_path, b"".join(lines), starts=BOUNDARY)
    assert split == sequential == ("error", f"duplicate tweet_id: t{FIRST}")


def test_missing_final_newline_at_a_range_boundary(tmp_path):
    # The second range is the last line alone, which has no newline.
    tweet_bytes = tweet_line(0, width=400) + tweet_line(1).rstrip(b"\n")
    sequential, split = loads(tmp_path, tweet_bytes, starts=[0, 400])
    assert_same_load(sequential, split)
    assert list(split[1].line_numbers["tweets"][1]) == [1, 2]


def test_three_ranges_number_lines_across_blank_and_bad_lines(tmp_path):
    lines = [tweet_line(i) for i in range(30)]
    for i in (3, 9, 10, 19, 20, 29):
        lines[i] = BOUNDARY_LINES["blank line" if i % 2 else "bad line"](i)
    sequential, split = loads(tmp_path, b"".join(lines)[:-1], ranges=3,
                              starts=[0, 10 * 120, 20 * 120])
    assert_same_load(sequential, split)
    assert [v.line for v in split[1].load_report] == [11, 21]


def test_bad_lines_over_a_tenth_of_one_range_but_not_of_the_file_load(tmp_path):
    # 3 bad lines of the 20 in the second range, 3 of the 40 in the file.
    lines = [tweet_line(i) for i in range(40)]
    for i in (25, 30, 35):
        lines[i] = BOUNDARY_LINES["bad line"](i)
    sequential, split = loads(tmp_path, b"".join(lines), starts=[0, 21 * 120])
    assert sequential[0] == "ok"
    assert_same_load(sequential, split)


def test_bad_lines_over_a_tenth_of_the_file_abort_at_the_first(tmp_path):
    lines = [tweet_line(i) for i in range(20)]
    for i in (12, 15, 18):
        lines[i] = BOUNDARY_LINES["bad line"](i)
    sequential, split = loads(tmp_path, b"".join(lines), starts=BOUNDARY)
    assert split == sequential == ("error", "tweets.jsonl: 3 of 20 lines are not valid JSON "
                                            "records (first offending line: 13)")


def test_split_load_runs_no_caller_code_in_its_workers(tmp_path):
    # A worker must leave through os._exit: a caller's finally (as in a
    # launcher that writes its records when the program ends) runs once.
    args = write_files(tmp_path, b"".join(tweet_line(i) for i in range(20)))
    marker = tmp_path / "finally.txt"
    with split_into(3):
        try:
            corpus = cp.load_corpus(*args)
        finally:
            with open(marker, "a", encoding="ascii") as fh:
                fh.write(f"{os.getpid()}\n")
    assert corpus.n_tweets == 20
    assert marker.read_text(encoding="ascii").split() == [str(os.getpid())]


@pytest.mark.parametrize("failing", [0, 1, 2])
def test_error_in_any_range_is_raised_and_leaves_no_worker(tmp_path, failing):
    args = write_files(tmp_path, b"".join(tweet_line(i) for i in range(30))[:-1])
    starts = [0, 10 * 120, 20 * 120]
    read = cp._read_jsonl

    def read_or_fail(path, *rest):
        if path.name == "tweets.jsonl" and rest[-2] == starts[failing]:
            raise CorpusError(f"range {failing}")
        return read(path, *rest)

    with split_into(3), mock.patch.object(cp, "_read_jsonl", read_or_fail):
        assert cp._range_starts(args[1]) == starts
        assert outcome(lambda: cp.load_corpus(*args)) == ("error", f"range {failing}")


def test_tweets_read_from_a_pipe_load_in_one_process(tmp_path):
    tweet_bytes = b"".join(tweet_line(i) for i in range(20))
    args = write_files(tmp_path, tweet_bytes)
    fifo = tmp_path / "fifo" / "tweets.jsonl"
    fifo.parent.mkdir()
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(tweet_bytes,))
    writer.start()
    try:
        with split_into(2):
            assert cp._range_starts(fifo) == [0]
            piped = outcome(lambda: cp.load_corpus(args[0], fifo, *args[2:]))
    finally:
        writer.join()
    assert_same_load(outcome(lambda: cp.load_corpus(*args)), piped)
