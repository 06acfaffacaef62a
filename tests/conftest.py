"""Shared corpus-building helpers for the test suite."""

from __future__ import annotations

from botsieve.corpus import (Account, FollowEdge, GroupPartition, Tweet, _tweet_loader,
                             make_corpus, parse_instant)


def account(account_id, followers=10, following=5, tweet_count=3,
            created="2020-06-01T00:00:00Z", handle=None, description=""):
    return Account(
        account_id=account_id,
        handle=handle or f"user_{account_id}",
        created_at=parse_instant(created),
        follower_count=followers,
        following_count=following,
        tweet_count=tweet_count,
        description=description,
    )


def tweet(tweet_id, author, kind="original", text="hello world",
          created="2023-01-01T00:00:00Z", reply_to=None, ref=None,
          hashtags=(), urls=(), language="en"):
    return Tweet(
        tweet_id=tweet_id,
        author_id=author,
        created_at=parse_instant(created),
        text=text,
        kind=kind,
        in_reply_to_account=reply_to,
        referenced_account=ref,
        hashtags=tuple(hashtags),
        urls=tuple(urls),
        language=language,
    )


def corpus_of(accounts, tweets, edges=(), groups=None):
    partition = GroupPartition(
        {name: frozenset(members) for name, members in (groups or {}).items()}
    )
    return make_corpus(accounts, tweets, [FollowEdge(*e) for e in edges], partition)


def parse_tweet(obj):
    """One tweet object read as the loader reads it, as a ``Tweet`` record."""
    parse, coder = _tweet_loader(())
    return coder.finish([parse(obj, {}.setdefault)]).rows([0])[0]


def edges_of(graph):
    """A graph's edges as a (source, target) -> weight dict of identifiers;
    every end must lie in the graph's node set."""
    assert (graph.source >= 0).all() and (graph.target >= 0).all()
    return dict(zip(zip(graph.nodes[graph.source].tolist(), graph.nodes[graph.target].tolist()),
                    graph.weight.tolist()))
