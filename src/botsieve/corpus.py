"""Offline social-media corpus: loading, validation, indexing, export.

A corpus is four files (accounts.jsonl, tweets.jsonl, edges.jsonl,
labels.csv) loaded into an immutable in-memory ``Corpus``. Loading is
tolerant: lines that decode but fail the record schema are dropped and
reported; lines that do not decode at all are fatal once they exceed 10%
of a file. Duplicate identifiers are always fatal. Everything downstream
treats the corpus as read-only.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

VALID_KINDS = frozenset({"original", "reply", "retweet", "quote"})

ACCOUNTS_FILE = "accounts.jsonl"
TWEETS_FILE = "tweets.jsonl"
EDGES_FILE = "edges.jsonl"
LABELS_FILE = "labels.csv"

# Fraction of undecodable lines (per file) above which loading aborts.
MALFORMED_FATAL_FRACTION = 0.10


class CorpusError(ValueError):
    """Fatal input problem: unreadable file, duplicate id, broken schema."""


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
        dt = datetime.fromisoformat(text)
        if dt.tzinfo is None:
            dt = dt.replace(tzinfo=timezone.utc)
        return dt.astimezone(timezone.utc)
    raise ValueError(f"not a timestamp: {value!r}")


def format_instant(dt: datetime) -> str:
    """Canonical ISO-8601 form with a Z suffix; inverse of parse_instant."""
    return dt.astimezone(timezone.utc).isoformat().replace("+00:00", "Z")


def normalize_hashtag(tag: str) -> str:
    """Lowercase and strip any leading '#' from a hashtag."""
    return tag.strip().lstrip("#").lower()


@dataclass(frozen=True)
class Account:
    account_id: str
    handle: str
    created_at: datetime
    follower_count: int
    following_count: int
    tweet_count: int
    description: str = ""


@dataclass(frozen=True)
class Tweet:
    tweet_id: str
    author_id: str
    created_at: datetime
    text: str
    kind: str
    in_reply_to_account: str | None = None
    referenced_account: str | None = None
    hashtags: tuple[str, ...] = ()
    urls: tuple[str, ...] = ()
    language: str | None = None


@dataclass(frozen=True)
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

    def __bool__(self) -> bool:
        return bool(self.violations)

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
    """Immutable, indexed snapshot of one corpus. Treat every field as read-only."""

    accounts: dict[str, Account]
    tweets: dict[str, Tweet]
    follow_edges: frozenset[FollowEdge]
    partition: GroupPartition
    tweets_by_author: dict[str, tuple[str, ...]] = field(compare=False, default_factory=dict)
    load_report: ValidationReport = field(compare=False, default_factory=ValidationReport)
    provenance: dict[tuple[str, str], tuple[str, int]] = field(compare=False, default_factory=dict)

    def __post_init__(self):
        index: dict[str, list[str]] = {}
        for tweet in self.tweets.values():
            index.setdefault(tweet.author_id, []).append(tweet.tweet_id)
        for author, ids in index.items():
            ids.sort(key=lambda tid: (self.tweets[tid].created_at, tid))
        object.__setattr__(
            self, "tweets_by_author", {a: tuple(ids) for a, ids in sorted(index.items())}
        )

    def tweets_of(self, account_id: str) -> tuple[Tweet, ...]:
        return tuple(self.tweets[tid] for tid in self.tweets_by_author.get(account_id, ()))

    @property
    def n_accounts(self) -> int:
        return len(self.accounts)

    @property
    def n_tweets(self) -> int:
        return len(self.tweets)


def make_corpus(accounts, tweets, edges=(), partition=None, load_report=None,
                provenance=None) -> Corpus:
    """Index records into a Corpus; duplicate account/tweet ids are fatal."""
    account_index: dict[str, Account] = {}
    for acct in accounts:
        if acct.account_id in account_index:
            raise CorpusError(f"duplicate account_id: {acct.account_id}")
        account_index[acct.account_id] = acct
    tweet_index: dict[str, Tweet] = {}
    for tweet in tweets:
        if tweet.tweet_id in tweet_index:
            raise CorpusError(f"duplicate tweet_id: {tweet.tweet_id}")
        tweet_index[tweet.tweet_id] = tweet
    return Corpus(
        accounts=account_index,
        tweets=tweet_index,
        follow_edges=frozenset(edges),
        partition=partition or GroupPartition(),
        load_report=load_report or ValidationReport(),
        provenance=provenance or {},
    )


class _RecordError(Exception):
    def __init__(self, rule: str, detail: str = ""):
        super().__init__(rule)
        self.rule = rule
        self.detail = detail


def _optional_id(obj, key) -> str | None:
    """A string or integer identifier (not a boolean); None when absent or blank."""
    value = obj.get(key)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise _RecordError(f"bad-field:{key}", f"expected identifier, got {type(value).__name__}")
    return str(value).strip() or None


def _as_id(obj, key) -> str:
    value = _optional_id(obj, key)
    if value is None:
        raise _RecordError(f"missing-field:{key}")
    return value


def _as_count(obj, key) -> int:
    value = obj.get(key)
    if value is None:
        raise _RecordError(f"missing-field:{key}")
    if isinstance(value, bool) or not isinstance(value, int):
        raise _RecordError(f"bad-field:{key}", f"expected integer, got {value!r}")
    if value < 0:
        raise _RecordError("negative-count", f"{key}={value}")
    return value


def _as_instant(obj, key) -> datetime:
    value = obj.get(key)
    if value is None:
        raise _RecordError(f"missing-field:{key}")
    try:
        return parse_instant(value)
    except (ValueError, OverflowError, OSError) as exc:
        raise _RecordError("bad-timestamp", str(exc)) from exc


def _parse_account(obj) -> Account:
    return Account(
        account_id=_as_id(obj, "account_id"),
        handle=str(obj.get("handle", "") or ""),
        created_at=_as_instant(obj, "created_at"),
        follower_count=_as_count(obj, "follower_count"),
        following_count=_as_count(obj, "following_count"),
        tweet_count=_as_count(obj, "tweet_count"),
        description=str(obj.get("description", "") or ""),
    )


def _parse_tweet(obj) -> Tweet:
    kind = obj.get("kind")
    if kind is None:
        raise _RecordError("missing-field:kind")
    if not isinstance(kind, str) or kind not in VALID_KINDS:
        raise _RecordError("bad-kind", f"kind={kind!r}")
    text = obj.get("text")
    if text is None:
        raise _RecordError("missing-field:text")
    raw_tags = obj.get("hashtags") or []
    raw_urls = obj.get("urls") or []
    if not isinstance(raw_tags, list) or not isinstance(raw_urls, list):
        raise _RecordError("bad-field:entities", "hashtags/urls must be lists")
    hashtags = tuple(t for t in (normalize_hashtag(str(tag)) for tag in raw_tags) if t)
    language = obj.get("language")
    return Tweet(
        tweet_id=_as_id(obj, "tweet_id"),
        author_id=_as_id(obj, "author_id"),
        created_at=_as_instant(obj, "created_at"),
        text=str(text),
        kind=kind,
        in_reply_to_account=_optional_id(obj, "in_reply_to_account"),
        referenced_account=_optional_id(obj, "referenced_account"),
        hashtags=hashtags,
        urls=tuple(str(u) for u in raw_urls),
        language=str(language) if language not in (None, "") else None,
    )


def _iter_lines(path: Path):
    """Yield (line_number, stripped_text_or_None) for each non-blank physical
    line; None marks a line that is not UTF-8."""
    try:
        handle = open(path, "rb")
    except OSError as exc:
        raise CorpusError(f"cannot read {path}: {exc}") from exc
    with handle:
        for lineno, raw in enumerate(handle, start=1):
            try:
                text = raw.decode("utf-8").strip()
            except UnicodeDecodeError:
                yield lineno, None
                continue
            if text:
                yield lineno, text


def _load_jsonl_records(path: Path, parse, aliases, violations):
    """Parse one JSONL file; returns [(line, record)]. >10% undecodable is fatal."""
    records = []
    total = 0
    malformed = 0
    first_bad: int | None = None
    fname = path.name
    for lineno, text in _iter_lines(path):
        total += 1
        try:
            obj = json.loads(text) if text is not None else None
        except (ValueError, RecursionError):
            # Besides bad JSON: integers past the digit limit, deep nesting.
            obj = None
        if not isinstance(obj, dict):
            malformed += 1
            if first_bad is None:
                first_bad = lineno
            violations.append(Violation("invalid-json", file=fname, line=lineno))
            continue
        if aliases:
            # Read every renamed field from the original object, so that
            # swapped names resolve correctly.
            obj = {**obj, **{canonical: obj.get(name) for canonical, name in aliases.items()}}
        try:
            records.append((lineno, parse(obj)))
        except _RecordError as exc:
            violations.append(
                Violation(exc.rule, file=fname, line=lineno, detail=exc.detail)
            )
    if total and malformed > MALFORMED_FATAL_FRACTION * total:
        raise CorpusError(
            f"{fname}: {malformed} of {total} lines are not valid JSON records "
            f"(first offending line: {first_bad})"
        )
    return records


def _text_lines(path):
    """(line, text) for each line of a list or settings file that is neither
    blank nor a #-comment; a line that is not UTF-8 is an error at path:line."""
    for lineno, text in _iter_lines(Path(path)):
        if text is None:
            raise CorpusError(f"{path}:{lineno}: not UTF-8")
        if not text.startswith("#"):
            yield lineno, text


def _csv_row(text: str | None) -> list[str]:
    """One CSV record on one line; [] when the line is not UTF-8 (None) or not CSV."""
    try:
        return next(csv.reader([text]))
    except csv.Error:
        return []


def _csv_records(path, required: tuple[str, ...]):
    """(line, {column: value}) for each line after a header that names every
    ``required`` column; the dict is empty when a line is not UTF-8 or not CSV."""
    lines = _iter_lines(Path(path))
    fields = _csv_row(next(lines, (None, None))[1])
    if not set(required) <= set(fields):
        raise CorpusError(f"{path}: header must contain {','.join(required)}")
    return ((lineno, dict(zip(fields, _csv_row(text)))) for lineno, text in lines)


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
    provenance: dict[tuple[str, str], tuple[str, int]] = {}

    account_path = Path(account_path)
    tweet_path = Path(tweet_path)
    account_records = _load_jsonl_records(
        account_path, _parse_account, aliases.get("accounts", {}), violations)
    accounts = []
    for lineno, acct in account_records:
        accounts.append(acct)
        provenance[("account", acct.account_id)] = (account_path.name, lineno)

    tweet_records = _load_jsonl_records(
        tweet_path, _parse_tweet, aliases.get("tweets", {}), violations)
    tweets = []
    for lineno, tweet in tweet_records:
        tweets.append(tweet)
        provenance[("tweet", tweet.tweet_id)] = (tweet_path.name, lineno)

    edges: list[FollowEdge] = []
    if edge_path is not None:
        edge_path = Path(edge_path)
        seen_pairs = set()

        def parse_edge(obj):
            return FollowEdge(source=_as_id(obj, "source"), target=_as_id(obj, "target"))

        for lineno, edge in _load_jsonl_records(edge_path, parse_edge, aliases.get("edges", {}),
                                                violations):
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
    partition = GroupPartition()
    if label_path is not None:
        partition = _load_labels(Path(label_path), known, violations)

    violations.sort(key=Violation.sort_key)
    return make_corpus(
        accounts, tweets, edges, partition,
        load_report=ValidationReport(tuple(violations)),
        provenance=provenance,
    )


def validate(corpus: Corpus) -> ValidationReport:
    """Check every type invariant on an in-memory corpus (pure)."""
    violations: list[Violation] = []

    def where(kind: str, identifier: str) -> dict:
        file, line = corpus.provenance.get((kind, identifier), (None, None))
        return {"file": file, "line": line, "identifier": identifier}

    for acct in corpus.accounts.values():
        if min(acct.follower_count, acct.following_count, acct.tweet_count) < 0:
            violations.append(Violation("negative-count", **where("account", acct.account_id)))

    for tweet in corpus.tweets.values():
        loc = where("tweet", tweet.tweet_id)
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


def _account_to_obj(acct: Account) -> dict:
    return {
        "account_id": acct.account_id,
        "handle": acct.handle,
        "created_at": format_instant(acct.created_at),
        "follower_count": acct.follower_count,
        "following_count": acct.following_count,
        "tweet_count": acct.tweet_count,
        "description": acct.description,
    }


def _tweet_to_obj(tweet: Tweet) -> dict:
    return {
        "tweet_id": tweet.tweet_id,
        "author_id": tweet.author_id,
        "created_at": format_instant(tweet.created_at),
        "text": tweet.text,
        "kind": tweet.kind,
        "in_reply_to_account": tweet.in_reply_to_account,
        "referenced_account": tweet.referenced_account,
        "hashtags": list(tweet.hashtags),
        "urls": list(tweet.urls),
        "language": tweet.language,
    }


def export_corpus(corpus: Corpus, out_dir) -> dict[str, Path]:
    """Write the corpus back out as canonical, sorted JSONL/CSV files."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "accounts": out / ACCOUNTS_FILE,
        "tweets": out / TWEETS_FILE,
        "edges": out / EDGES_FILE,
        "labels": out / LABELS_FILE,
    }
    with open(paths["accounts"], "w", encoding="utf-8") as fh:
        for account_id in sorted(corpus.accounts):
            fh.write(json.dumps(_account_to_obj(corpus.accounts[account_id]),
                                ensure_ascii=False, sort_keys=True) + "\n")
    with open(paths["tweets"], "w", encoding="utf-8") as fh:
        for tweet_id in sorted(corpus.tweets):
            fh.write(json.dumps(_tweet_to_obj(corpus.tweets[tweet_id]),
                                ensure_ascii=False, sort_keys=True) + "\n")
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


def merge_corpora(*parts: Corpus) -> Corpus:
    """Union disjoint corpus fragments; colliding identifiers are fatal."""
    accounts: list[Account] = []
    tweets: list[Tweet] = []
    edges: set[FollowEdge] = set()
    groups: dict[str, set[str]] = {}
    for part in parts:
        accounts.extend(part.accounts.values())
        tweets.extend(part.tweets.values())
        edges.update(part.follow_edges)
        for name, members in part.partition.groups.items():
            groups.setdefault(name, set()).update(members)
    partition = GroupPartition({n: frozenset(m) for n, m in groups.items()})
    return make_corpus(accounts, tweets, edges, partition)


def cap_tweets(corpus: Corpus, max_per_account: int) -> Corpus:
    """Keep only each author's ``max_per_account`` most recent tweets; the
    load report and provenance carry over."""
    if max_per_account < 1:
        raise ValueError("max_per_account must be >= 1")
    keep: set[str] = set()
    for tweet_ids in corpus.tweets_by_author.values():
        # tweets_by_author is ordered by (created_at, tweet_id).
        keep.update(tweet_ids[-max_per_account:])
    return make_corpus(
        list(corpus.accounts.values()),
        [corpus.tweets[tid] for tid in sorted(keep)],
        corpus.follow_edges,
        corpus.partition,
        load_report=corpus.load_report,
        provenance=corpus.provenance,
    )
