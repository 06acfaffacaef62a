"""Interaction graphs and coordination metrics.

Builds directed follow/reply/retweet graphs over account identifiers and
computes the numbers that expose engineered coordination: degree summaries,
the largest weakly connected component, and within/cross-group pair
interaction rates.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .corpus import REPLY, RETWEET, Corpus, GroupPartition

EDGE_KINDS = ("follow", "reply", "retweet")


@dataclass(frozen=True)
class InteractionGraph:
    """Directed graph for one interaction kind; edge weights count repeats."""

    edge_kind: str
    nodes: frozenset[str]
    edges: dict[tuple[str, str], int] = field(default_factory=dict)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        return len(self.edges)


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

    if restriction is not None:
        nodes = restriction
    else:
        nodes = frozenset(corpus.accounts).union(chain.from_iterable(edges))
    return InteractionGraph(edge_kind=edge_kind, nodes=nodes, edges=edges)


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
    if not graph.nodes:
        return DegreeSummary(0.0, 0.0, 0.0, 0.0, {}, {})
    in_deg = dict.fromkeys(graph.nodes, 0)
    out_deg = dict.fromkeys(graph.nodes, 0)
    for (source, target) in graph.edges:
        if source in out_deg:
            out_deg[source] += 1
        if target in in_deg:
            in_deg[target] += 1
    order = sorted(graph.nodes)
    ins = np.array([in_deg[n] for n in order], dtype=float)
    outs = np.array([out_deg[n] for n in order], dtype=float)
    return DegreeSummary(
        mean_in=float(ins.mean()),
        sd_in=float(ins.std()),
        mean_out=float(outs.mean()),
        sd_out=float(outs.std()),
        in_histogram=dict(sorted(Counter(in_deg.values()).items())),
        out_histogram=dict(sorted(Counter(out_deg.values()).items())),
    )


def largest_wcc(graph: InteractionGraph) -> frozenset[str]:
    """Largest weakly connected component; size ties go to the component
    containing the smallest identifier."""
    if not graph.nodes:
        return frozenset()
    neighbors: dict[str, set[str]] = {node: set() for node in graph.nodes}
    for (source, target) in graph.edges:
        if source in neighbors and target in neighbors:
            neighbors[source].add(target)
            neighbors[target].add(source)
    seen: set[str] = set()
    best: frozenset[str] = frozenset()
    # Starts are visited in sorted order, so each component is first reached
    # via its smallest member; keeping strictly-larger components therefore
    # resolves size ties toward the smallest-member component.
    for start in sorted(graph.nodes):
        if start in seen:
            continue
        component = {start}
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for neighbor in neighbors[node]:
                if neighbor not in component:
                    component.add(neighbor)
                    frontier.append(neighbor)
        seen.update(component)
        if len(component) > len(best):
            best = frozenset(component)
    return best


@dataclass(frozen=True)
class PairRateMatrix:
    """rates[i][j] = fraction of ordered (u in group i, v in group j, u != v)
    pairs connected by at least one edge u -> v."""

    groups: tuple[str, ...]
    rates: np.ndarray
    counts: np.ndarray

    def rate(self, source_group: str, target_group: str) -> float:
        i = self.groups.index(source_group)
        j = self.groups.index(target_group)
        return float(self.rates[i, j])


def pair_rate_matrix(graph: InteractionGraph, partition: GroupPartition) -> PairRateMatrix:
    """Within/cross-group pair interaction rates over ordered pairs.

    Denominators: n_i * (n_i - 1) on the diagonal, n_i * n_j off it. Edge
    existence is what counts; weights are ignored.
    """
    names = partition.names
    if not names:
        raise ValueError("partition has no groups")
    membership: dict[str, int] = {}
    sizes = []
    for index, name in enumerate(names):
        members = partition[name]
        if not members:
            raise ValueError(f"group {name!r} is empty")
        missing = members - graph.nodes
        if missing:
            raise ValueError(
                f"group {name!r} has members outside the graph, e.g. {sorted(missing)[0]!r}"
            )
        if len(members) < 2:
            raise ValueError(f"group {name!r} has fewer than 2 members; within-rate undefined")
        sizes.append(len(members))
        for member in members:
            membership[member] = index

    k = len(names)
    counts = np.zeros((k, k), dtype=np.int64)
    for (source, target) in graph.edges:
        i = membership.get(source)
        j = membership.get(target)
        if i is not None and j is not None:
            counts[i, j] += 1

    denominators = np.empty((k, k), dtype=float)
    for i in range(k):
        for j in range(k):
            denominators[i, j] = sizes[i] * (sizes[i] - 1) if i == j else sizes[i] * sizes[j]
    return PairRateMatrix(groups=names, rates=counts / denominators, counts=counts)
