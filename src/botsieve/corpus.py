"""Offline social-media corpus: loading, validation, indexing, export.

A corpus is four files (accounts.jsonl, tweets.jsonl, edges.jsonl,
labels.csv) loaded into an immutable in-memory ``Corpus``, whose tweets are
one columnar ``TweetTable``, coded row by row as the lines are parsed.
Loading is tolerant: lines that decode but fail the record schema are
dropped and reported; lines that do not decode at all (not UTF-8, not one
JSON object, or holding a lone surrogate) are fatal once they exceed 10% of
a file. Duplicate identifiers are always fatal. Everything downstream treats
the corpus as read-only.

A tweets.jsonl is split at line boundaries into one byte range per usable
core, so no more processes than cores; forked workers read all ranges but the
first, and their rows are folded into one row coder in range order, so the
corpus is the one a sequential load gives. One usable core, no fork, a file
that is not regular or one below _SPLIT_MIN_BYTES keep the load in one
process. wait4 then reports the largest peak RSS among it and its workers.
"""

from __future__ import annotations

import csv
import gc
import json
import os
import re
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from datetime import datetime, timezone
from functools import cached_property
from operator import attrgetter
from pathlib import Path
from stat import S_ISREG

import numpy as np

# CorpusError, the tweet record, its kind codes and its table are public here too.
from .readers import CorpusError, _csv_records, _iter_lines
from .table import (_CODED, _EPOCH, _MICROSECOND, KINDS, ORIGINAL, QUOTE, REPLY, RETWEET,
                    VALID_KINDS, Tweet, TweetRows, TweetTable, _join, _row_coder)

ACCOUNTS_FILE = "accounts.jsonl"
TWEETS_FILE = "tweets.jsonl"
EDGES_FILE = "edges.jsonl"
LABELS_FILE = "labels.csv"

# Fraction of undecodable lines (per file) above which loading aborts.
MALFORMED_FATAL_FRACTION = 0.10
# A smaller tweets.jsonl loads in one process; see _range_starts.
_SPLIT_MIN_BYTES = 48 << 20


# One decoder for every line; see _read_jsonl.
_decode = json.JSONDecoder().raw_decode
# Every escape of a line that decodes, from its start. Group 1 is empty but for a
# surrogate escape outside a high-low pair: a lone surrogate no output can hold.
_escapes = re.compile(r"\\u[dD][89abAB][0-9a-fA-F]{2}\\u[dD][c-fC-F][0-9a-fA-F]{2}"
                      r"|\\(u[dD][89a-fA-F])|\\.").findall
_fromisoformat = datetime.fromisoformat

# The encoder json.dumps(value, ensure_ascii=False, sort_keys=True) would build
# anew on every call (its arguments are not the defaults), and the string
# encoder it uses; see _encode_value.
_encode_json = json.JSONEncoder(ensure_ascii=False, sort_keys=True).encode
_encode_str = json.encoder.encode_basestring
# Tweet rows export_corpus formats at a time; see _write_tweets. Larger chunks
# export no faster, and their temporaries outlive the export as freed heap.
_EXPORT_CHUNK = 1024


@contextmanager
def _gc_paused():
    """Pause the cyclic collector; on exit, re-enable it only if it was on at entry."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def parse_instant(value) -> datetime:
    """Parse an ISO-8601 string or epoch seconds into a UTC datetime."""
    if isinstance(value, bool):
        raise ValueError(f"not a timestamp: {value!r}")
    if isinstance(value, (int, float)):
        return datetime.fromtimestamp(value, tz=timezone.utc)
    if isinstance(value, str):
        text = value.strip()
        if text.endswith(("Z", "z")):
            text = text[:-1] + "+00:00"
        dt = _fromisoformat(text)
        if dt.tzinfo is None:
            dt = dt.replace(tzinfo=timezone.utc)
        return dt.astimezone(timezone.utc)
    raise ValueError(f"not a timestamp: {value!r}")


def format_instant(dt: datetime) -> str:
    """Canonical ISO-8601 form with a Z suffix; inverse of parse_instant.

    A naive datetime is read as UTC, as parse_instant reads a string
    without an offset.
    """
    if dt.tzinfo is not timezone.utc:
        if dt.utcoffset() is None:
            dt = dt.replace(tzinfo=timezone.utc)
        dt = dt.astimezone(timezone.utc)
    return dt.isoformat().replace("+00:00", "Z")


def normalize_hashtag(tag: str) -> str:
    """Lowercase, trim whitespace and drop the leading run of '#' and
    whitespace, so "# #ETH " becomes "eth". Idempotent."""
    tag = tag.strip().lstrip("#")
    while tag[:1].isspace():
        tag = tag.lstrip().lstrip("#")
    return tag.lower()


@dataclass(frozen=True, slots=True)
class Account:
    account_id: str
    handle: str
    created_at: datetime
    follower_count: int
    following_count: int
    tweet_count: int
    description: str = ""


@dataclass(frozen=True, slots=True)
class FollowEdge:
    source: str
    target: str


@dataclass(frozen=True)
class GroupPartition:
    """Named, pairwise-disjoint account sets driving group comparisons."""

    groups: dict[str, frozenset[str]] = field(default_factory=dict)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self.groups)

    def group_of(self, account_id: str) -> str | None:
        for name, members in self.groups.items():
            if account_id in members:
                return name
        return None

    def __contains__(self, name: str) -> bool:
        return name in self.groups

    def __getitem__(self, name: str) -> frozenset[str]:
        return self.groups[name]


@dataclass(frozen=True)
class Violation:
    """One broken rule, anchored to a file/line or an identifier."""

    rule: str
    file: str | None = None
    line: int | None = None
    identifier: str | None = None
    detail: str = ""

    def sort_key(self):
        return (self.file or "", self.line if self.line is not None else -1,
                self.identifier or "", self.rule)


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...] = ()

    def __len__(self) -> int:
        return len(self.violations)

    def __iter__(self):
        return iter(self.violations)

    @property
    def empty(self) -> bool:
        return not self.violations

    def rules(self) -> list[str]:
        return [v.rule for v in self.violations]

    def to_rows(self) -> list[tuple]:
        return [(v.file or "", "" if v.line is None else v.line,
                 v.identifier or "", v.rule, v.detail) for v in self.violations]


@dataclass(frozen=True)
class Corpus:
    """Immutable snapshot of one corpus. Treat every field as read-only.

    Accounts are slotted ``Account`` records keyed by id. The tweets live only
    in ``table``, one columnar ``TweetTable`` (built by ``table``'s one row
    coder, which merge and cap fold their parts through). ``tweets`` (a read-only
    ``tweet_id -> Tweet`` Mapping), ``tweets_of`` and ``tweets_by_author`` are
    views that build ``Tweet`` rows from it on each access; the analysis
    stages read the columns. Within one ``load_corpus`` call, equal
    identifiers, texts, kinds, languages and hashtag/URL tuples are one
    object. ``line_numbers`` maps ``"accounts"`` and ``"tweets"`` to the file
    name and an array of the line each record was read from, in the order of
    ``accounts`` and of the table's rows; ``validate()`` locates records by
    it. A corpus not read from files has none.

    The per-author index is built on first use and then kept: the table's
    rows in (author, created_at, tweet_id) order. ``rows_of`` returns one
    author's run of it, ``tweets_of`` that run's ``Tweet`` rows, and
    ``tweets_by_author`` the runs' tweet ids, authors sorted by id.
    """

    accounts: dict[str, Account]
    table: TweetTable
    follow_edges: frozenset[FollowEdge]
    partition: GroupPartition
    load_report: ValidationReport = field(compare=False, default_factory=ValidationReport)
    line_numbers: dict[str, tuple[str, array]] = field(compare=False, default_factory=dict)

    @property
    def tweets(self) -> TweetRows:
        return TweetRows(self.table)

    @cached_property
    def _author_index(self) -> tuple[np.ndarray, np.ndarray]:
        """(order, bounds): the rows sorted by (author code, created_at, tweet
        id), and the rows of author code c as order[bounds[c]:bounds[c + 1]]."""
        table = self.table
        order = np.lexsort((table.created_us, table.author))
        author, created = table.author[order], table.created_us[order]
        # Runs of rows that tie on (author, created_at) go in tweet-id order.
        tied = np.flatnonzero((author[1:] == author[:-1]) & (created[1:] == created[:-1]))
        for run in np.split(tied, np.flatnonzero(np.diff(tied) != 1) + 1) if tied.size else ():
            start, stop = run[0], run[-1] + 2
            order[start:stop] = sorted(order[start:stop].tolist(), key=table.ids.__getitem__)
        return order, np.searchsorted(author, np.arange(len(table.account_ids) + 1))

    def rows_of(self, account_id) -> np.ndarray:
        """The account's tweet rows in (created_at, tweet_id) order."""
        order, bounds = self._author_index
        code = self.table.account_code.get(account_id)
        return order[:0] if code is None else order[bounds[code]:bounds[code + 1]]

    def tweets_of(self, account_id) -> tuple[Tweet, ...]:
        return tuple(self.table.rows(self.rows_of(account_id)))

    @property
    def tweets_by_author(self) -> dict[str, tuple[str, ...]]:
        """Tweet ids per author, in the index's order, authors sorted by id."""
        codes = np.flatnonzero(np.bincount(self.table.author))  # the codes that occur, sorted
        authors = sorted(self.table.account_ids[code] for code in codes.tolist())
        return {author: tuple(self.table.values("tweet_id", self.rows_of(author)))
                for author in authors}

    @property
    def n_accounts(self) -> int:
        return len(self.accounts)

    @property
    def n_tweets(self) -> int:
        return len(self.table)


def make_corpus(accounts, tweets, edges=(), partition=None, load_report=None,
                line_numbers=None) -> Corpus:
    """Index records into a Corpus; duplicate account/tweet ids are fatal.

    ``tweets`` is a TweetTable or an iterable of ``Tweet`` records, which are
    transposed into one.
    """
    account_index: dict[str, Account] = {}
    for acct in accounts:
        if acct.account_id in account_index:
            raise CorpusError(f"duplicate account_id: {acct.account_id}")
        account_index[acct.account_id] = acct
    table = tweets
    if not isinstance(tweets, TweetTable):
        coder = _row_coder()
        table = coder.finish(list(map(coder.tweet, tweets)))
    # A dict of the ids takes less memory than a set of them.
    if len(dict.fromkeys(table.ids)) != len(table):
        seen = set()
        for tweet_id in table.ids:
            if tweet_id in seen:
                raise CorpusError(f"duplicate tweet_id: {tweet_id}")
            seen.add(tweet_id)
    return Corpus(
        accounts=account_index,
        table=table,
        follow_edges=frozenset(edges),
        partition=partition or GroupPartition(),
        load_report=load_report or ValidationReport(),
        line_numbers=line_numbers or {},
    )


class _RecordError(Exception):
    def __init__(self, rule: str, detail: str = ""):
        super().__init__(rule)
        self.rule = rule
        self.detail = detail


def _identifier(value, key) -> str | None:
    """A string or integer identifier (not a boolean); None when absent or blank."""
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise _RecordError(f"bad-field:{key}", f"expected identifier, got {type(value).__name__}")
    return str(value).strip() or None


def _as_count(value, key) -> int:
    if value is None:
        raise _RecordError(f"missing-field:{key}")
    if isinstance(value, bool) or not isinstance(value, int):
        raise _RecordError(f"bad-field:{key}", f"expected integer, got {value!r}")
    if value < 0:
        raise _RecordError("negative-count", f"{key}={value}")
    return value


def _as_instant(value, key) -> datetime:
    if value is None:
        raise _RecordError(f"missing-field:{key}")
    try:
        return parse_instant(value)
    except (ValueError, OverflowError, OSError) as exc:
        raise _RecordError("bad-timestamp", str(exc)) from exc


def _not_a_string(value, key) -> _RecordError:
    return _RecordError(f"bad-field:{key}", f"expected string, got {type(value).__name__}")


# The parsers read each field once, in a fixed order: the first failing check
# names the line's rule. An exact str takes the inline branch; any other value
# goes through the general helper. ``share`` is ``dict.setdefault`` of the
# load's value table (called as share(v, v)), so equal values become one object.

def _parse_account(obj, share) -> Account:
    get = obj.get
    account_id = get("account_id")
    account_id = (account_id.strip() if type(account_id) is str
                  else _identifier(account_id, "account_id"))
    if not account_id:
        raise _RecordError("missing-field:account_id")
    created_at = _as_instant(get("created_at"), "created_at")
    followers = _as_count(get("follower_count"), "follower_count")
    following = _as_count(get("following_count"), "following_count")
    tweet_count = _as_count(get("tweet_count"), "tweet_count")
    handle = get("handle")
    if handle is None:
        handle = ""
    elif type(handle) is not str:
        raise _not_a_string(handle, "handle")
    description = get("description")
    if description is None:
        description = ""
    elif type(description) is not str:
        raise _not_a_string(description, "description")
    return Account(share(account_id, account_id), handle, created_at, followers, following,
                   tweet_count, description)


def _tweet_loader(account_ids):
    """(parse, coder) for one tweets.jsonl.

    ``parse(obj, share)`` reads one tweet object with the checks of the other
    parsers, adds its row to ``coder``, a ``_row_coder``, and returns its tweet
    id; a line it rejects adds nothing. ``coder.finish(ids)`` makes the
    TweetTable of the parsed rows. ``account_ids`` are coded first, so the id
    table shares their strings. Each distinct raw hashtag list is normalized once.
    """
    coder = _row_coder(account_ids)
    # Memos, raw list -> list code: the coder's own for URL lists, which are coded as read.
    raw_hashtags: dict = {}
    add, url_codes = coder.add, coder.codes["url_lists"]

    def hashtags_code(raw_tags):
        hashtags = []
        for tag in raw_tags:
            if type(tag) is not str:
                raise _not_a_string(tag, "entities")
            tag = normalize_hashtag(tag)
            if tag:
                hashtags.append(tag)
        return raw_hashtags.setdefault(tuple(raw_tags), coder.hashtags(tuple(hashtags)))

    def urls_code(raw_urls):
        for url in raw_urls:
            if type(url) is not str:
                raise _not_a_string(url, "entities")
        return coder.urls(tuple(raw_urls))

    def parse(obj, share):
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
        created_at = get("created_at")
        created_us = None
        if type(created_at) is str and created_at[-1:] == "Z":
            # A UTC string as parse_instant reads it, without its two calls.
            try:
                created_us = (_fromisoformat(created_at) - _EPOCH) // _MICROSECOND
            except (TypeError, ValueError):
                pass
        if created_us is None:
            created_us = (_as_instant(created_at, "created_at") - _EPOCH) // _MICROSECOND
        reply_to = get("in_reply_to_account")
        reply_to = (reply_to.strip() if type(reply_to) is str
                    else _identifier(reply_to, "in_reply_to_account"))
        referenced = get("referenced_account")
        referenced = (referenced.strip() if type(referenced) is str
                      else _identifier(referenced, "referenced_account"))
        if type(text) is not str:
            raise _not_a_string(text, "text")
        # A raw list already seen is read from its memo; any other goes
        # through the checks (an unhashable one always fails them).
        hashtags = 0
        if raw_tags:
            try:
                hashtags = raw_hashtags[tuple(raw_tags)]
            except (KeyError, TypeError):
                hashtags = hashtags_code(raw_tags)
        urls = 0
        if raw_urls:
            try:
                urls = url_codes[tuple(raw_urls)]
            except (KeyError, TypeError):
                urls = urls_code(raw_urls)
        language = get("language")
        if language is not None and type(language) is not str:
            raise _not_a_string(language, "language")
        # Absent, null and "" read as an empty list. Any other falsy non-list
        # (0, 0.0, false, {}) is checked last, so that every line an older check
        # drops keeps that check's rule.
        if ((type(raw_tags) is not list and raw_tags not in (None, ""))
                or (type(raw_urls) is not list and raw_urls not in (None, ""))):
            raise _RecordError("bad-field:entities", "hashtags/urls must be lists")
        add(author_id, reply_to or None, referenced or None, kind, created_us, text, hashtags,
            urls, language or None)
        return tweet_id

    return parse, coder


def _parse_edge(obj, share) -> FollowEdge:
    get = obj.get
    source = get("source")
    source = source.strip() if type(source) is str else _identifier(source, "source")
    if not source:
        raise _RecordError("missing-field:source")
    target = get("target")
    target = target.strip() if type(target) is str else _identifier(target, "target")
    if not target:
        raise _RecordError("missing-field:target")
    return FollowEdge(share(source, source), share(target, target))


def _read_jsonl(path: Path, parse, aliases, violations, share, start=0, n_lines=None):
    """Parse the lines ``_iter_lines(path, start, n_lines)`` yields into their
    records and an array of their line numbers; ``parse(obj, share)`` returns
    one record (for tweets, the id of the row it added to the columns). Every
    other line adds one violation, ``invalid-json`` if it does not decode.

    A line decodes as one ``raw_decode`` that must end at the end of the
    stripped line. That accepts exactly what ``json.loads`` accepts: the strip
    has already removed every whitespace character JSON allows around a value.
    """
    records = []
    lines = array("Q")
    add_record = records.append
    add_line = lines.append
    fname = path.name
    for lineno, text in _iter_lines(path, start, n_lines):
        obj = None
        if text is not None:
            try:
                obj, end = _decode(text)
            except (ValueError, RecursionError):
                # Besides bad JSON: integers past the digit limit, deep nesting.
                obj = None
            else:
                # Only a \ud or \uD escape can decode to a surrogate; "\\" is the cheap test.
                if end != len(text) or "\\" in text and (
                        "\\ud" in text or "\\uD" in text) and any(_escapes(text)):
                    obj = None
        if type(obj) is not dict:
            violations.append(Violation("invalid-json", file=fname, line=lineno))
            continue
        if aliases:
            # Read every renamed field from the original object, so that
            # swapped names resolve correctly.
            obj = {**obj, **{canonical: obj.get(name) for canonical, name in aliases.items()}}
        try:
            add_record(parse(obj, share))
        except _RecordError as exc:
            violations.append(
                Violation(exc.rule, file=fname, line=lineno, detail=exc.detail)
            )
            continue
        add_line(lineno)
    return records, lines


def _check_decodable(fname: str, n_records: int, violations) -> None:
    """Abort when more than MALFORMED_FATAL_FRACTION of a file's non-blank
    lines, its ``n_records`` records and its ``violations``, are invalid-json."""
    bad = [v.line for v in violations if v.rule == "invalid-json"]
    if len(bad) > MALFORMED_FATAL_FRACTION * (n_records + len(violations)):
        raise CorpusError(f"{fname}: {len(bad)} of {n_records + len(violations)} lines are not "
                          f"valid JSON records (first offending line: {bad[0]})")


def _load_jsonl_records(path: Path, parse, aliases, violations, share):
    """The records of one JSONL file and their line numbers (see
    ``_read_jsonl``); >10% undecodable is fatal."""
    first = len(violations)
    records, lines = _read_jsonl(path, parse, aliases, violations, share)
    _check_decodable(path.name, len(records), violations[first:])
    return records, lines


def _range_starts(path: Path) -> list[int]:
    """Where the byte ranges tweets.jsonl loads in start, at line starts, one
    per usable core; [0], one process, with one usable core, no fork, or a file
    that is not regular or is below _SPLIT_MIN_BYTES."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    starts = [0]
    try:
        info = os.stat(path)
        if cores > 1 and hasattr(os, "fork") and S_ISREG(info.st_mode) and (
                info.st_size >= _SPLIT_MIN_BYTES):
            with open(path, "rb") as fh:
                for k in range(1, cores):
                    fh.seek(info.st_size * k // cores)
                    fh.readline()
                    if starts[-1] < fh.tell() < info.st_size:
                        starts.append(fh.tell())
    except OSError:  # reading the file reports it
        return [0]
    return starts


def _count_lines(path: Path, start: int, stop: int) -> int:
    """The physical lines in bytes [start, stop) of path, which end at a line end."""
    with open(path, "rb") as fh:
        fh.seek(start)
        return sum(fh.read(min(stop - at, 1 << 20)).count(b"\n")
                   for at in range(start, stop, 1 << 20))


def _load_tweets(path: Path, parse, coder, aliases, violations):
    """tweets.jsonl read as _load_jsonl_records reads it, ``parse`` adding its
    rows to ``coder``: the ids and line numbers of the rows.

    Over more than one range (see _range_starts), this process reads the first
    and a forked worker each other one. A worker sends back its ids, its line
    numbers counted from its range's start, violations, line count and
    ``coder.part()``, folded into ``coder`` in range order: every code is the
    one a sequential read gives. The 10% rule applies to the whole file.
    """
    starts = _range_starts(path)
    if len(starts) == 1:
        return _load_jsonl_records(path, parse, aliases, violations, None)
    import multiprocessing
    import pickle

    stops = [*starts[1:], None]

    def read(k):
        n_lines = None if stops[k] is None else _count_lines(path, starts[k], stops[k])
        found = []
        return *_read_jsonl(path, parse, aliases, found, None, starts[k], n_lines), found, n_lines

    def work(fd, k):
        with open(fd, "wb") as pipe:
            try:
                part = (*read(k), coder.part())
            except BaseException as exc:  # raised again in the parent
                part = exc
            pickle.dump(part, pipe, pickle.HIGHEST_PROTOCOL)

    # fork, not spawn: a worker starts from this process's accounts and coder.
    # It calls no BLAS, so numpy's BLAS threads cannot deadlock it, and it
    # ends through os._exit, so no caller's finally runs in it.
    context = multiprocessing.get_context("fork")
    workers = []
    ids, lines, offset, first = [], array("Q"), 0, len(violations)
    try:
        for k in range(1, len(starts)):
            fd, worker_fd = os.pipe()
            pipe = open(fd, "rb")
            worker = context.Process(target=work, args=(worker_fd, k))
            try:
                worker.start()
            finally:
                os.close(worker_fd)
            workers.append((worker, pipe))
        # Each part is folded as it comes; a worker's is unpickled as it streams in.
        for k in range(len(starts)):
            part = read(k) if k == 0 else pickle.load(workers[k - 1][1])
            if isinstance(part, BaseException):
                raise part
            part_ids, part_lines, found, n_lines, *rows = part
            if rows:
                coder.fold(*rows[0])
            ids += part_ids
            lines.frombytes((np.frombuffer(part_lines, dtype=np.uint64) + offset).tobytes())
            violations += [replace(v, line=v.line + offset) for v in found]
            offset += n_lines or 0
    except BaseException:
        for worker, _ in workers:
            worker.terminate()
        raise
    finally:
        for worker, pipe in workers:
            worker.join()
            pipe.close()
    _check_decodable(path.name, len(ids), violations[first:])
    return ids, lines


def _load_labels(path: Path, known_accounts, violations) -> GroupPartition:
    fname = path.name
    groups: dict[str, set[str]] = {}
    assigned: dict[str, str] = {}
    for lineno, row in _csv_records(path, ("account_id", "group_name")):
        account_id = row.get("account_id", "").strip()
        group = row.get("group_name", "").strip()
        if not account_id or not group:
            violations.append(Violation("bad-label-row", file=fname, line=lineno))
            continue
        if account_id not in known_accounts:
            violations.append(
                Violation("partition-unknown-member", file=fname, line=lineno,
                          identifier=account_id)
            )
            continue
        if account_id in assigned:
            if assigned[account_id] != group:
                violations.append(
                    Violation("partition-overlap", file=fname, line=lineno,
                              identifier=account_id,
                              detail=f"already in {assigned[account_id]}")
                )
            continue
        assigned[account_id] = group
        groups.setdefault(group, set()).add(account_id)
    return GroupPartition({name: frozenset(members) for name, members in groups.items()})


def load_corpus(account_path, tweet_path, edge_path=None, label_path=None,
                field_aliases=None) -> Corpus:
    """Load a corpus from JSONL/CSV files into an immutable Corpus.

    ``field_aliases`` maps canonical field names to the names used in the
    files, per section: ``{"accounts": {"account_id": "id"}, "tweets": {...}}``.
    Line-level problems end up in ``corpus.load_report``; duplicated
    identifiers and files with >10% undecodable lines raise CorpusError.
    """
    aliases = field_aliases or {}
    if not isinstance(aliases, dict) or not all(
            isinstance(m, dict) and all(isinstance(v, str) for v in m.values())
            for m in aliases.values()):
        raise CorpusError("field aliases must be an object of {canonical: input name} objects")
    violations: list[Violation] = []
    # One object per distinct value for this load only. Keys are only
    # str and tuples of str, so equal keys are interchangeable (unlike
    # 1 == 1.0 == True). Called as share(value, value).
    share = {}.setdefault

    account_path = Path(account_path)
    tweet_path = Path(tweet_path)
    accounts, account_lines = _load_jsonl_records(
        account_path, _parse_account, aliases.get("accounts", {}), violations, share)
    parse_tweet, coder = _tweet_loader([a.account_id for a in accounts])
    tweet_ids, tweet_lines = _load_tweets(
        tweet_path, parse_tweet, coder, aliases.get("tweets", {}), violations)

    edges: set[FollowEdge] = set()
    if edge_path is not None:
        edge_path = Path(edge_path)
        edge_records, edge_lines = _load_jsonl_records(
            edge_path, _parse_edge, aliases.get("edges", {}), violations, share)
        for edge, lineno in zip(edge_records, edge_lines):
            if edge.source == edge.target:
                violations.append(Violation("self-follow", file=edge_path.name,
                                            line=lineno, identifier=edge.source))
            elif edge in edges:
                violations.append(Violation("duplicate-edge", file=edge_path.name, line=lineno,
                                            identifier=f"{edge.source}->{edge.target}"))
            else:
                edges.add(edge)

    known = {a.account_id for a in accounts}
    partition = GroupPartition()
    if label_path is not None:
        partition = _load_labels(Path(label_path), known, violations)

    violations.sort(key=Violation.sort_key)
    return make_corpus(
        accounts, coder.finish(tweet_ids), edges, partition,
        load_report=ValidationReport(tuple(violations)),
        line_numbers={"accounts": (account_path.name, account_lines),
                      "tweets": (tweet_path.name, tweet_lines)},
    )


def validate(corpus: Corpus) -> ValidationReport:
    """Check every type invariant on an in-memory corpus (pure)."""
    violations: list[Violation] = []

    file, lines = corpus.line_numbers.get("accounts", (None, None))
    for index, acct in enumerate(corpus.accounts.values()):
        if min(acct.follower_count, acct.following_count, acct.tweet_count) < 0:
            violations.append(Violation("negative-count", file,
                                        None if lines is None else lines[index], acct.account_id))

    # Each tweet check is one mask over the rows; only flagged rows are walked,
    # and each emits its violations in the order of the checks.
    table = corpus.table
    kind = table.kind
    is_reply = kind == REPLY
    has_reply_to = table.reply_to >= 0
    has_referenced = table.referenced >= 0
    known = np.array([a in corpus.accounts for a in table.account_ids], dtype=bool)
    bad_tags = [[tag for tag in tags if tag != normalize_hashtag(tag) or not tag]
                for tags in table.hashtag_lists]
    checks = {
        "reply-missing-target": is_reply & ~has_reply_to,
        "reference-missing-target": ((kind == RETWEET) | (kind == QUOTE)) & ~has_referenced,
        "unexpected-reply-target": ~is_reply & has_reply_to,
        "unexpected-reference-target": ((kind == ORIGINAL) | is_reply) & has_referenced,
        "dangling-author": ~known[table.author],
        "hashtag-not-normalized": np.array(list(map(bool, bad_tags)), dtype=bool)[table.hashtags],
    }
    file, lines = corpus.line_numbers.get("tweets", (None, None))
    for row in np.flatnonzero(np.logical_or.reduce(list(checks.values()))).tolist():
        loc = {"file": file, "line": None if lines is None else lines[row],
               "identifier": table.ids[row]}
        details = {"dangling-author": [table.account_ids[table.author[row]]],
                   "hashtag-not-normalized": bad_tags[table.hashtags[row]]}
        violations += [Violation(rule, detail=detail, **loc)
                       for rule, mask in checks.items() if mask[row]
                       for detail in details.get(rule, [""])]

    self_follows = [edge.source for edge in corpus.follow_edges if edge.source == edge.target]
    violations += [Violation("self-follow", identifier=source) for source in sorted(self_follows)]

    seen: dict[str, str] = {}
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


def _encode_value(value) -> str:
    """``value`` as json.dumps(value, ensure_ascii=False, sort_keys=True)
    writes it. A str, None or tuple of str is encoded here; any other value
    goes through the encoder json.dumps would use."""
    if type(value) is str:
        return _encode_str(value)
    if value is None:
        return "null"
    if type(value) is tuple:
        try:
            # _encode_str raises TypeError on anything but a str.
            return "[" + ", ".join(map(_encode_str, value)) + "]"
        except TypeError:
            pass
    return _encode_json(value)


def _write_lines(fh, values: dict) -> None:
    """Write one JSON object per row, keys sorted; ``values`` maps each key to
    the encoded values of the rows, in row order."""
    keys = sorted(values)
    line = "{" + ", ".join(_encode_str(key) + ": %s" for key in keys) + "}\n"
    fh.writelines(map(line.__mod__, zip(*(values[key] for key in keys))))


def _write_tweets(path: Path, table: TweetTable) -> None:
    """Write the table's rows in tweet-id order, in the form ``export_corpus``
    documents. The rows are formatted _EXPORT_CHUNK at a time: each distinct
    value in a chunk is encoded once, and ``created_at`` for the whole chunk at
    once."""
    order = np.array(sorted(range(len(table)), key=table.ids.__getitem__), dtype=np.intp)
    with open(path, "w", encoding="utf-8") as fh:
        for start in range(0, len(order), _EXPORT_CHUNK):
            rows = order[start:start + _EXPORT_CHUNK]
            stamps = np.datetime_as_string(table.created_us[rows].astype("datetime64[us]"),
                                           unit="us").tolist()
            # format_instant's form: the microseconds only when nonzero.
            values = {"created_at": ['"' + stamp.removesuffix(".000000") + 'Z"'
                                     for stamp in stamps],
                      "tweet_id": map(_encode_value, table.values("tweet_id", rows))}
            for name, (column, values_name) in _CODED.items():
                codes, inverse = np.unique(getattr(table, column)[rows], return_inverse=True)
                listing = getattr(table, values_name)
                encoded = [_encode_value(None if code < 0 else listing[code])
                           for code in codes.tolist()]
                values[name] = map(encoded.__getitem__, inverse.tolist())
            _write_lines(fh, values)


def export_corpus(corpus: Corpus, out_dir) -> dict[str, Path]:
    """Write the corpus back out as canonical, sorted JSONL/CSV files.

    Accounts and tweets are written in id order, one record per line: exactly
    ``json.dumps(record, sort_keys=True, ensure_ascii=False)`` with the default
    separators (``", "`` and ``": "``) over every field, ``created_at`` as
    ``format_instant``. Edges are ``json.dumps({"source", "target"},
    sort_keys=True)`` lines sorted by (source, target); ``labels.csv`` lists
    the groups by name, each group's members in sorted order.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "accounts": out / ACCOUNTS_FILE,
        "tweets": out / TWEETS_FILE,
        "edges": out / EDGES_FILE,
        "labels": out / LABELS_FILE,
    }
    # Writing creates no reference cycles; a collection would only walk the heap.
    with _gc_paused():
        accounts = list(map(corpus.accounts.__getitem__, sorted(corpus.accounts)))
        values = {f.name: map(_encode_value, map(attrgetter(f.name), accounts))
                  for f in fields(Account)}
        values["created_at"] = (_encode_str(format_instant(a.created_at)) for a in accounts)
        with open(paths["accounts"], "w", encoding="utf-8") as fh:
            _write_lines(fh, values)
        _write_tweets(paths["tweets"], corpus.table)
        with open(paths["edges"], "w", encoding="utf-8") as fh:
            for edge in sorted(corpus.follow_edges, key=lambda e: (e.source, e.target)):
                fh.write(json.dumps({"source": edge.source, "target": edge.target},
                                    sort_keys=True) + "\n")
        with open(paths["labels"], "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["account_id", "group_name"])
            for name in sorted(corpus.partition.names):
                for member in sorted(corpus.partition[name]):
                    writer.writerow([member, name])
    return paths


def merge_corpora(*parts: Corpus) -> Corpus:
    """Union disjoint corpus fragments; colliding identifiers are fatal.

    The tweet tables are joined in order. The parts' load reports are joined
    into one. The merged corpus keeps no line numbers, so ``validate()``
    locates its records by identifier only.
    """
    accounts: list[Account] = []
    edges: set[FollowEdge] = set()
    groups: dict[str, set[str]] = {}
    for part in parts:
        accounts.extend(part.accounts.values())
        edges.update(part.follow_edges)
        for name, members in part.partition.groups.items():
            groups.setdefault(name, set()).update(members)
    partition = GroupPartition({n: frozenset(m) for n, m in groups.items()})
    violations = sorted((v for part in parts for v in part.load_report), key=Violation.sort_key)
    table = _join([(part.table, None) for part in parts])
    return make_corpus(accounts, table, edges, partition,
                       load_report=ValidationReport(tuple(violations)))


def cap_tweets(corpus: Corpus, max_per_account: int) -> Corpus:
    """Keep only each author's ``max_per_account`` most recent tweets, in
    tweet-id order; the load report and line numbers carry over."""
    if max_per_account < 1:
        raise ValueError("max_per_account must be >= 1")
    order, bounds = corpus._author_index
    table = corpus.table
    # The index is ordered by (created_at, tweet_id) within each author's run;
    # keep the rows at most max_per_account from their run's end.
    run_end = bounds[table.author[order] + 1]
    keep = order[run_end - np.arange(len(order)) <= max_per_account]
    kept = sorted(keep.tolist(), key=table.ids.__getitem__)
    line_numbers = dict(corpus.line_numbers)
    if "tweets" in line_numbers:
        file, lines = line_numbers["tweets"]
        line_numbers["tweets"] = (file, array(lines.typecode, [lines[row] for row in kept]))
    return make_corpus(
        list(corpus.accounts.values()),
        _join([(table, kept)]),
        corpus.follow_edges,
        corpus.partition,
        load_report=corpus.load_report,
        line_numbers=line_numbers,
    )
