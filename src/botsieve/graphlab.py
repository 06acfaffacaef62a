"""Interaction graphs and coordination metrics.

Builds directed follow/reply/retweet graphs over account identifiers and
computes the numbers that expose engineered coordination: degree summaries,
the largest weakly connected component, and within/cross-group pair
interaction rates. A graph is its sorted node identifiers and its edges as
arrays of positions in them, and each metric is a few array operations with
no Python loop over the edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat
from typing import NamedTuple

import numpy as np

from .corpus import REPLY, RETWEET, Corpus, GroupPartition
from .table import EDGE_KINDS


class InteractionGraph(NamedTuple):
    """Directed graph for one interaction kind; edge weights count repeats.
    ``nodes`` holds the sorted node identifiers (an object array); ``source``
    and ``target`` are positions in it, in (source, target) order, and -1
    marks an end outside ``nodes``. Build one with ``from_edges``."""

    edge_kind: str
    nodes: np.ndarray
    source: np.ndarray
    target: np.ndarray
    weight: np.ndarray

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        return len(self.weight)

    @classmethod
    def from_edges(cls, edge_kind: str, nodes, edges: dict) -> InteractionGraph:
        """The graph over the distinct identifiers ``nodes`` whose edges are
        ``edges``, a (source, target) -> weight dict."""
        nodes = np.fromiter(sorted(nodes), dtype=object, count=len(nodes))
        position = dict(zip(nodes, range(len(nodes))))
        ends = np.fromiter(map(position.get, chain.from_iterable(edges), repeat(-1)),
                           dtype=np.int64, count=2 * len(edges)).reshape(-1, 2)
        weight = np.fromiter(edges.values(), dtype=np.int64, count=len(edges))
        order = np.lexsort((ends[:, 1], ends[:, 0]))
        return cls(edge_kind, nodes, ends[order, 0], ends[order, 1], weight[order])


def build_graph(corpus: Corpus, edge_kind: str,
                node_restriction=None) -> InteractionGraph:
    """Build one interaction graph from the corpus.

    follow: one edge per follow record. reply: author -> replied-to account.
    retweet: author -> retweeted account (quotes are excluded — too rare to
    matter). With a node restriction, both endpoints must lie inside it and
    the node set is exactly the restriction; otherwise nodes are all corpus
    accounts plus any referenced endpoints. Self-interactions are dropped.
    Tweets whose author is missing from the account table are skipped.
    """
    if edge_kind not in EDGE_KINDS:
        raise ValueError(f"edge_kind must be one of {EDGE_KINDS}, got {edge_kind!r}")
    restriction = frozenset(node_restriction) if node_restriction is not None else None

    if edge_kind == "follow":
        edges = {(e.source, e.target): 1 for e in corpus.follow_edges
                 if e.target is not None and e.source != e.target
                 and (restriction is None or (e.source in restriction and e.target in restriction))}
    else:
        # Each edge is one (author, target) code pair counted by np.unique:
        # account authors only, and with a restriction both ends inside it.
        table = corpus.table
        kind, target = ((REPLY, table.reply_to) if edge_kind == "reply"
                        else (RETWEET, table.referenced))
        authors = table.account_mask(
            corpus.accounts if restriction is None
            else [a for a in restriction if a in corpus.accounts])
        targets = target >= 0 if restriction is None else table.account_mask(restriction)[target]
        keep = (table.kind == kind) & authors[table.author] & targets & (table.author != target)
        n = len(table.account_ids)
        pairs, weights = np.unique(table.author[keep].astype(np.int64) * n + target[keep],
                                   return_counts=True)
        ids = table.account_ids
        edges = {(ids[pair // n], ids[pair % n]): weight
                 for pair, weight in zip(pairs.tolist(), weights.tolist())}

    nodes = (restriction if restriction is not None
             else frozenset(corpus.accounts).union(chain.from_iterable(edges)))
    return InteractionGraph.from_edges(edge_kind, nodes, edges)


@dataclass(frozen=True)
class DegreeSummary:
    mean_in: float
    sd_in: float
    mean_out: float
    sd_out: float
    in_histogram: dict[int, int]
    out_histogram: dict[int, int]


def degree_stats(graph: InteractionGraph) -> DegreeSummary:
    """Unweighted in/out degree means, population SDs, and histograms.

    Every node counts, including degree-0 ones; over a closed node set the
    two means coincide (each edge contributes one in- and one out-degree).
    """
    if not graph.n_nodes:
        return DegreeSummary(0.0, 0.0, 0.0, 0.0, {}, {})
    # Position -1 (outside the node set) lands in bin 0, which is dropped.
    ins, outs = (np.bincount(ends + 1, minlength=graph.n_nodes + 1)[1:]
                 for ends in (graph.target, graph.source))
    return DegreeSummary(
        mean_in=float(ins.mean()), sd_in=float(ins.std()),
        mean_out=float(outs.mean()), sd_out=float(outs.std()),
        in_histogram=_histogram(ins), out_histogram=_histogram(outs))


def _histogram(degrees: np.ndarray) -> dict[int, int]:
    return {degree: n for degree, n in enumerate(np.bincount(degrees).tolist()) if n}


def largest_wcc(graph: InteractionGraph) -> frozenset[str]:
    """Largest weakly connected component; size ties go to the component
    containing the smallest identifier."""
    if not graph.n_nodes:
        return frozenset()
    inside = (graph.source >= 0) & (graph.target >= 0)
    a, b = graph.source[inside], graph.target[inside]
    # Union-find on arrays: each round hooks the larger of every edge's two
    # roots under the smaller, then jumps pointers until every label is a root.
    # A component's root is then its smallest position, that is its smallest
    # identifier, so the first maximum of the sizes keeps the tie rule.
    label = np.arange(graph.n_nodes)
    while not np.array_equal(label[a], label[b]):
        np.minimum.at(label, np.maximum(label[a], label[b]), np.minimum(label[a], label[b]))
        jumped = label[label]
        while not np.array_equal(jumped, label):
            label, jumped = jumped, jumped[jumped]
    return frozenset(graph.nodes[label == np.bincount(label).argmax()])


@dataclass(frozen=True)
class PairRateMatrix:
    """rates[i][j] = fraction of ordered (u in group i, v in group j, u != v)
    pairs connected by at least one edge u -> v."""

    groups: tuple[str, ...]
    rates: np.ndarray
    counts: np.ndarray

    def rate(self, source_group: str, target_group: str) -> float:
        return float(self.rates[self.groups.index(source_group),
                                self.groups.index(target_group)])


def pair_rate_matrix(graph: InteractionGraph, partition: GroupPartition) -> PairRateMatrix:
    """Within/cross-group pair interaction rates over ordered pairs.

    Denominators: n_i * (n_i - 1) on the diagonal, n_i * n_j off it. Edge
    existence is what counts; weights are ignored.
    """
    names = partition.names
    if not names:
        raise ValueError("partition has no groups")
    # Group index per node position; k is no group, and the last slot is
    # read by position -1. A member of two groups counts in the later one.
    k = len(names)
    group = np.full(graph.n_nodes + 1, k)
    sizes = []
    for index, name in enumerate(names):
        members = partition[name]
        if not members:
            raise ValueError(f"group {name!r} is empty")
        missing = members.difference(graph.nodes)
        if missing:
            raise ValueError(f"group {name!r} has members outside the graph, "
                             f"e.g. {sorted(missing)[0]!r}")
        if len(members) < 2:
            raise ValueError(f"group {name!r} has fewer than 2 members; within-rate undefined")
        sizes.append(len(members))
        group[np.searchsorted(graph.nodes, np.fromiter(members, object, len(members)))] = index

    cells = group[graph.source] * (k + 1) + group[graph.target]
    counts = np.bincount(cells, minlength=(k + 1) ** 2).reshape(k + 1, k + 1)[:k, :k]
    sizes = np.array(sizes)
    return PairRateMatrix(groups=names, rates=counts / (np.outer(sizes, sizes) - np.diag(sizes)),
                          counts=counts)
