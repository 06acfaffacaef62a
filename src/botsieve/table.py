"""The tweets of a corpus in memory: the ``Tweet`` record and the columnar
``TweetTable`` that holds every tweet as numpy code columns.

One row coder, ``_row_coder``, builds every table from rows: the lines
``corpus`` loads, the ``Tweet`` records of ``make_corpus``, the tweets
``synthnet`` generates, and for merge and cap the rows of existing tables,
which ``_join`` folds through it. ``corpus`` re-exports the public names
here. A table is immutable once built; its ``Tweet`` rows are built on access.
"""

from __future__ import annotations

import struct
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field, fields
from datetime import datetime, timedelta, timezone
from functools import cached_property
from types import SimpleNamespace

import numpy as np

# Tweet kinds in code order: TweetTable.kind holds ORIGINAL..QUOTE for them.
KINDS = ("original", "reply", "retweet", "quote")
ORIGINAL, REPLY, RETWEET, QUOTE = range(len(KINDS))
VALID_KINDS = frozenset(KINDS)
# Interaction kinds a graph is built over (graphlab.build_graph).
EDGE_KINDS = ("follow", "reply", "retweet")

# Tweet instants are stored as UTC microseconds since the epoch.
_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_MICROSECOND = timedelta(microseconds=1)


@dataclass(frozen=True, slots=True)
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


def _instant_us(dt: datetime) -> int:
    """UTC microseconds since the epoch; a naive datetime reads as UTC."""
    if dt.tzinfo is not timezone.utc and dt.utcoffset() is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return (dt - _EPOCH) // _MICROSECOND


# The code columns of a TweetTable and their dtypes; see TweetTable.
_DTYPES = {"author": np.int32, "reply_to": np.int32, "referenced": np.int32, "kind": np.int8,
           "created_us": np.int64, "text": np.int32, "hashtags": np.int32, "urls": np.int32,
           "language": np.int32}
# Tweet field -> (its code column, the TweetTable list the codes index).
_CODED = {"author_id": ("author", "account_ids"), "text": ("text", "texts"),
          "kind": ("kind", "kinds"), "in_reply_to_account": ("reply_to", "account_ids"),
          "referenced_account": ("referenced", "account_ids"),
          "hashtags": ("hashtags", "hashtag_lists"), "urls": ("urls", "url_lists"),
          "language": ("language", "languages")}
_TWEET_FIELDS = tuple(f.name for f in fields(Tweet))
# One packed row of a _row_coder, the columns in _DTYPES order.
_ROW = np.dtype(list(_DTYPES.items()))


@dataclass(frozen=True, eq=False)
class TweetTable:
    """Every tweet of a corpus as columns, one row per tweet in insertion order.

    ``ids`` holds the tweet ids; ``row_of``, built on first use, maps each to
    its row. The columns are read-only numpy arrays:

    - ``author``, ``reply_to``, ``referenced``: int32 codes into
      ``account_ids`` (``account_code`` maps an id to its code). Every author
      has a code, even None in a corpus not read from files; -1 is no target;
    - ``kind``: int8 codes into ``kinds``, which starts with ``KINDS``;
    - ``created_us``: int64 UTC microseconds since the epoch;
    - ``text``, ``hashtags``, ``urls``, ``language``: int32 codes into the
      distinct-value lists ``texts``, ``hashtag_lists``, ``url_lists`` and
      ``languages`` (where None stands for no language).

    A list may hold values no row uses: a capped table keeps all of its
    source's. Two tables compare equal when they hold the same rows.
    """

    ids: list
    account_ids: list
    account_code: dict
    author: np.ndarray
    reply_to: np.ndarray
    referenced: np.ndarray
    kind: np.ndarray
    kinds: list
    created_us: np.ndarray
    text: np.ndarray
    texts: list
    hashtags: np.ndarray
    hashtag_lists: list
    urls: np.ndarray
    url_lists: list
    language: np.ndarray
    languages: list
    # URL-list code -> its domains, filled as linkmap's stages first need them.
    url_domains: dict = field(default_factory=dict, init=False, repr=False)

    def __len__(self) -> int:
        return len(self.ids)

    @cached_property
    def row_of(self) -> dict:
        return dict(zip(self.ids, range(len(self.ids))))

    def __eq__(self, other):
        if not isinstance(other, TweetTable):
            return NotImplemented
        return TweetRows(self) == TweetRows(other)

    def values(self, name: str, rows=None) -> list:
        """The ``Tweet`` field ``name`` of the given rows (all rows if None),
        with ``created_at`` as UTC microseconds."""
        rows = np.arange(len(self.ids)) if rows is None else np.asarray(rows, dtype=np.intp)
        if name == "tweet_id":
            return [self.ids[row] for row in rows.tolist()]
        if name == "created_at":
            return self.created_us[rows].tolist()
        column, values = _CODED[name]
        values = getattr(self, values)
        if values is self.account_ids:
            values = [*values, None]  # the code -1
        return [values[code] for code in getattr(self, column)[rows].tolist()]

    def rows(self, rows=None) -> list[Tweet]:
        """``Tweet`` records of the given rows (all rows if None), built anew
        on each call."""
        values = {name: self.values(name, rows) for name in _TWEET_FIELDS}
        values["created_at"] = [_EPOCH + timedelta(microseconds=us) for us in values["created_at"]]
        return list(map(Tweet, *values.values()))

    def account_mask(self, account_ids) -> np.ndarray:
        """Boolean array over account codes, True at the codes of
        ``account_ids`` (ids the table does not hold are ignored). It ends
        with one extra False, so a code column indexes it with -1 as False."""
        mask = np.zeros(len(self.account_ids) + 1, dtype=bool)
        mask[[code for code in map(self.account_code.get, account_ids) if code is not None]] = True
        return mask

    def tally(self, column: str, rows, elements) -> Counter:
        """Per element, how many times the given rows (a mask or index) hold it
        in their lists of the list-code column ``column``; ``elements`` maps
        each list code the rows use to the elements of its list."""
        tally: Counter = Counter()
        for code, n in enumerate(np.bincount(getattr(self, column)[rows]).tolist()):
            for element in elements[code] if n else ():
                tally[element] += n
        return tally


def top_k(counts: Mapping, k: int) -> list[tuple]:
    """The k (key, count) items of ``counts`` with the largest counts, ties by key."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return sorted(counts.items(), key=lambda item: (-item[1], item[0]))[:k]


class _Own:
    """Key of a value that gets a code of its own: one that is not None, a
    str or a tuple of str. Equal such values may be written differently, as
    (1,) and (True,) are, and some cannot be hashed."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


def _key(value):
    """``value`` as a code dict keys it: itself when it is None, a str or a
    tuple of str, else an ``_Own`` of it."""
    own = type(value) is tuple and all(type(v) is str for v in value)
    return value if own or value is None or type(value) is str else _Own(value)


def _code(codes: dict, value) -> int:
    """The code of ``value`` in ``codes``; a new value gets the next code."""
    return codes.setdefault(_key(value), len(codes))


def _row_coder(account_ids=()) -> SimpleNamespace:
    """The builder of one TweetTable, row by row; ``account_ids`` get the first codes.

    - ``add(author, reply_to, referenced, kind, created_us, text, hashtags, urls,
      language)`` codes one row: each value is its own key (see ``_key``), a
      None target is -1 and a None language 0;
    - ``hashtags(tags)`` and ``urls(urls)`` give the list codes ``add`` takes;
    - ``tweet(record)`` adds a ``Tweet`` and returns its tweet id;
    - ``part()`` gives the packed rows and the account and value lists so far,
      and ``fold(*part)`` adds another coder's part, or any packed ``_ROW``
      rows with their account ids and value keys: its codes are mapped
      through this coder's, so values new here get codes in first-seen order;
    - ``finish(ids)`` makes the table. ``codes`` holds the value code dicts,
      seeded alike for every table: the kinds in KINDS order; the empty
      hashtag and URL lists and no language at code 0.
    """
    account_code = {account_id: code for code, account_id in enumerate(dict.fromkeys(account_ids))}
    codes = {"kinds": dict(zip(KINDS, range(len(KINDS)))), "texts": {},
             "hashtag_lists": {(): 0}, "url_lists": {(): 0}, "languages": {None: 0}}
    kinds, texts, hashtag_lists, url_lists, languages = codes.values()
    # Each row's codes are packed in _DTYPES order: one call per row, not one per column.
    pack_row = struct.Struct("=" + "".join({np.int8: "b", np.int32: "i", np.int64: "q"}[dtype]
                                           for dtype in _DTYPES.values())).pack
    packed = bytearray()
    add_row, account = packed.extend, account_code.setdefault

    def add(author, reply_to, referenced, kind, created_us, text, hashtags, urls, language):
        add_row(pack_row(
            account(author, len(account_code)),
            -1 if reply_to is None else account(reply_to, len(account_code)),
            -1 if referenced is None else account(referenced, len(account_code)),
            kinds.setdefault(kind, len(kinds)), created_us, texts.setdefault(text, len(texts)),
            hashtags, urls,
            0 if language is None else languages.setdefault(language, len(languages))))

    def tweet(record: Tweet):
        add(record.author_id, record.in_reply_to_account, record.referenced_account,
            _key(record.kind), _instant_us(record.created_at), _key(record.text),
            _code(hashtag_lists, record.hashtags), _code(url_lists, record.urls),
            _key(record.language))
        return record.tweet_id

    def fold(rows, account_ids, values) -> None:
        maps = {"account_ids": [*(account(a, len(account_code)) for a in account_ids), -1]}
        for (name, own), keys in zip(codes.items(), values):
            maps[name] = [own.setdefault(key, len(own)) for key in keys]
        table = np.frombuffer(rows, dtype=_ROW)  # a view that writes through to rows
        for column, listing in _CODED.values():
            table[column] = np.array(maps[listing])[table[column]]
        add_row(memoryview(rows).cast("B"))

    def finish(ids) -> TweetTable:
        columns = {name: np.frombuffer(packed, dtype=_ROW)[name].copy() for name in _DTYPES}
        packed.clear()
        for column in columns.values():
            column.setflags(write=False)
        lists = {name: [key.value if type(key) is _Own else key for key in keys]
                 for name, keys in codes.items()}
        return TweetTable(ids=ids, account_ids=list(account_code), account_code=account_code,
                          **lists, **columns)

    return SimpleNamespace(
        add=add, tweet=tweet, finish=finish, codes=codes, fold=fold,
        part=lambda: (packed, list(account_code), [list(keys) for keys in codes.values()]),
        hashtags=lambda tags: hashtag_lists.setdefault(tags, len(hashtag_lists)),
        urls=lambda urls: url_lists.setdefault(urls, len(url_lists)))


def _join(parts) -> TweetTable:
    """One TweetTable of the rows of the given (table, rows) parts, in order
    (rows None: all of them). Each part's rows are packed and folded through
    one row coder, with its value lists re-keyed (see ``_key``)."""
    coder, ids = _row_coder(), []
    for table, rows in parts:
        ids += table.ids if rows is None else map(table.ids.__getitem__, rows)
        rows = slice(None) if rows is None else np.asarray(rows, dtype=np.intp)
        coder.fold(np.rec.fromarrays([getattr(table, name)[rows] for name in _DTYPES], dtype=_ROW),
                   table.account_ids,
                   [[_key(value) for value in getattr(table, name)] for name in coder.codes])
    return coder.finish(ids)


class TweetRows(Mapping):
    """Read-only ``tweet_id -> Tweet`` view of a TweetTable, in row order.

    Every access builds new ``Tweet`` records: they compare equal to the ones
    an earlier access built, but are not the same objects. ``values()`` and
    ``items()`` build all rows at once and return lists.
    """

    __slots__ = ("table",)

    def __init__(self, table: TweetTable):
        self.table = table

    def __getitem__(self, tweet_id) -> Tweet:
        return self.table.rows([self.table.row_of[tweet_id]])[0]

    def __contains__(self, tweet_id) -> bool:
        return tweet_id in self.table.row_of

    def __iter__(self):
        return iter(self.table.ids)

    def __len__(self) -> int:
        return len(self.table)

    def values(self) -> list[Tweet]:
        return self.table.rows(range(len(self.table)))

    def items(self) -> list[tuple[str, Tweet]]:
        return list(zip(self.table.ids, self.values()))
