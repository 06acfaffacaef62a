import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from botsieve import graphlab as gl
from botsieve.corpus import GroupPartition
from conftest import account, corpus_of, edges_of, tweet


def reply_corpus():
    accounts = [account(a) for a in "ABC"]
    tweets = [tweet(f"t{i}", "A", kind="reply", reply_to="B") for i in range(3)]
    tweets.append(tweet("t9", "A", kind="reply", reply_to="C"))
    return corpus_of(accounts, tweets)


def test_reply_edges_accumulate_weight():
    graph = gl.build_graph(reply_corpus(), "reply")
    assert edges_of(graph)[("A", "B")] == 3
    assert edges_of(graph)[("A", "C")] == 1


def test_restriction_drops_outside_edges():
    graph = gl.build_graph(reply_corpus(), "reply", node_restriction={"A", "B"})
    assert set(edges_of(graph)) == {("A", "B")}
    assert frozenset(graph.nodes) == frozenset({"A", "B"})


def test_quote_excluded_from_retweet_graph():
    corpus = corpus_of(
        [account("A"), account("B")],
        [tweet("t1", "A", kind="quote", ref="B"),
         tweet("t2", "A", kind="retweet", ref="B")],
    )
    graph = gl.build_graph(corpus, "retweet")
    assert edges_of(graph) == {("A", "B"): 1}


def test_follow_graph_from_edges_and_self_loop_dropped():
    corpus = corpus_of([account("A"), account("B")], [], edges=[("A", "B")])
    graph = gl.build_graph(corpus, "follow")
    assert edges_of(graph) == {("A", "B"): 1}
    assert frozenset(graph.nodes) == frozenset({"A", "B"})


def test_dangling_author_tweets_skipped():
    corpus = corpus_of([account("A")], [tweet("t1", "ghost", kind="reply", reply_to="A")])
    graph = gl.build_graph(corpus, "reply")
    assert edges_of(graph) == {}


def test_bad_kind_rejected():
    with pytest.raises(ValueError):
        gl.build_graph(reply_corpus(), "likes")


def test_degree_stats_chain():
    corpus = corpus_of(
        [account(a) for a in "ABC"],
        [], edges=[("A", "B"), ("B", "C")],
    )
    summary = gl.degree_stats(gl.build_graph(corpus, "follow"))
    assert summary.mean_in == pytest.approx(2 / 3)
    assert summary.mean_out == pytest.approx(2 / 3)
    assert summary.in_histogram == {0: 1, 1: 2}


def test_degree_stats_complete_digraph():
    nodes = "ABCD"
    edges = [(u, v) for u in nodes for v in nodes if u != v]
    corpus = corpus_of([account(a) for a in nodes], [], edges=edges)
    summary = gl.degree_stats(gl.build_graph(corpus, "follow"))
    assert summary.mean_in == 3.0
    assert summary.mean_out == 3.0
    assert summary.sd_in == 0.0
    assert summary.sd_out == 0.0


def test_degree_stats_empty_graph():
    graph = gl.InteractionGraph.from_edges("follow", frozenset(), {})
    summary = gl.degree_stats(graph)
    assert summary.mean_in == 0.0
    assert summary.in_histogram == {}


def test_degree_counts_distinct_edges_not_weights():
    graph = gl.build_graph(reply_corpus(), "reply", node_restriction={"A", "B"})
    summary = gl.degree_stats(graph)
    assert summary.mean_out == pytest.approx(0.5)  # one edge over two nodes


@given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=40))
@settings(max_examples=150)
def test_handshake_identity(pairs):
    edges = {(f"n{u}", f"n{v}") for u, v in pairs if u != v}
    nodes = frozenset(f"n{i}" for i in range(10))
    graph = gl.InteractionGraph.from_edges("follow", nodes, {e: 1 for e in edges})
    summary = gl.degree_stats(graph)
    total_in = sum(d * c for d, c in summary.in_histogram.items())
    total_out = sum(d * c for d, c in summary.out_histogram.items())
    assert total_in == total_out == len(edges)


@given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=30),
       st.sets(st.integers(0, 7), min_size=1))
@settings(max_examples=100)
def test_restriction_equals_deleting_nodes(pairs, keep):
    accounts = [account(f"n{i}") for i in range(8)]
    tweets = [
        tweet(f"t{j}", f"n{u}", kind="reply", reply_to=f"n{v}")
        for j, (u, v) in enumerate(pairs) if u != v
    ]
    corpus = corpus_of(accounts, tweets)
    restriction = {f"n{i}" for i in keep}
    restricted = gl.build_graph(corpus, "reply", node_restriction=restriction)
    full = gl.build_graph(corpus, "reply")
    expected = {
        edge: w for edge, w in edges_of(full).items()
        if edge[0] in restriction and edge[1] in restriction
    }
    assert edges_of(restricted) == expected
    assert frozenset(restricted.nodes) == frozenset(restriction)


def test_largest_wcc_picks_biggest():
    corpus = corpus_of(
        [account(a) for a in "ABCDE"],
        [], edges=[("A", "B"), ("C", "D"), ("E", "D")],
    )
    assert gl.largest_wcc(gl.build_graph(corpus, "follow")) == frozenset({"C", "D", "E"})


def test_largest_wcc_singleton_and_empty():
    graph = gl.InteractionGraph.from_edges("follow", frozenset({"A"}), {})
    assert gl.largest_wcc(graph) == frozenset({"A"})
    assert gl.largest_wcc(gl.InteractionGraph.from_edges("follow", frozenset(), {})) == frozenset()


def test_largest_wcc_tie_breaks_to_smallest_member():
    graph = gl.InteractionGraph.from_edges(
        "follow", frozenset({"a", "d", "b", "c"}), {("d", "c"): 1, ("a", "b"): 1})
    assert gl.largest_wcc(graph) == frozenset({"a", "b"})


def brute_force_components(nodes, edges):
    """Transitive closure over the symmetrized adjacency matrix."""
    order = sorted(nodes)
    index = {n: i for i, n in enumerate(order)}
    n = len(order)
    reach = np.eye(n, dtype=bool)
    for s, t in edges:
        reach[index[s], index[t]] = True
        reach[index[t], index[s]] = True
    while True:
        nxt = reach | (reach @ reach)
        if (nxt == reach).all():
            break
        reach = nxt
    components = []
    seen = set()
    for i in range(n):
        if i in seen:
            continue
        members = frozenset(order[j] for j in np.flatnonzero(reach[i]))
        seen.update(index[m] for m in members)
        components.append(members)
    return components


def test_wcc_agrees_with_brute_force_on_random_digraphs():
    rng = np.random.default_rng(5)
    for _ in range(60):
        n = int(rng.integers(1, 30))
        nodes = [f"n{i:02d}" for i in range(n)]
        n_edges = int(rng.integers(0, max(1, 2 * n)))
        edges = {
            (nodes[int(rng.integers(n))], nodes[int(rng.integers(n))])
            for _ in range(n_edges)
        }
        edges = {(s, t) for s, t in edges if s != t}
        graph = gl.InteractionGraph.from_edges("follow", frozenset(nodes), {e: 1 for e in edges})
        components = brute_force_components(nodes, edges)
        best_size = max(len(c) for c in components)
        candidates = [c for c in components if len(c) == best_size]
        expected = min(candidates, key=min)
        assert gl.largest_wcc(graph) == expected


def test_pair_rate_within_group_example():
    corpus = corpus_of(
        [account("A"), account("B")],
        [tweet("t1", "A", kind="reply", reply_to="B")],
    )
    graph = gl.build_graph(corpus, "reply")
    matrix = gl.pair_rate_matrix(graph, GroupPartition({"X": frozenset({"A", "B"})}))
    assert matrix.rate("X", "X") == pytest.approx(0.5)


def test_pair_rate_no_cross_edges():
    corpus = corpus_of(
        [account(a) for a in "ABCD"],
        [tweet("t1", "A", kind="reply", reply_to="B"),
         tweet("t2", "C", kind="reply", reply_to="D")],
    )
    graph = gl.build_graph(corpus, "reply")
    partition = GroupPartition({"X": frozenset({"A", "B"}), "Y": frozenset({"C", "D"})})
    matrix = gl.pair_rate_matrix(graph, partition)
    assert matrix.rate("X", "Y") == 0.0
    assert matrix.rate("Y", "X") == 0.0
    assert matrix.rate("X", "X") == pytest.approx(0.5)


def test_pair_rate_invariant_under_relabeling():
    base_edges = [("A", "B"), ("C", "A"), ("B", "D")]
    mapping = {"A": "zz9", "B": "k01", "C": "m42", "D": "aa0"}

    def build(rename):
        name = (lambda x: mapping[x]) if rename else (lambda x: x)
        corpus = corpus_of(
            [account(name(a)) for a in "ABCD"],
            [tweet(f"t{i}", name(s), kind="reply", reply_to=name(t))
             for i, (s, t) in enumerate(base_edges)],
        )
        partition = GroupPartition({
            "X": frozenset({name("A"), name("B")}),
            "Y": frozenset({name("C"), name("D")}),
        })
        return gl.pair_rate_matrix(gl.build_graph(corpus, "reply"), partition)

    assert np.array_equal(build(False).rates, build(True).rates)


def test_pair_rate_small_group_errors():
    corpus = corpus_of([account("A"), account("B")],
                       [tweet("t1", "A", kind="reply", reply_to="B")])
    graph = gl.build_graph(corpus, "reply")
    with pytest.raises(ValueError, match="fewer than 2"):
        gl.pair_rate_matrix(graph, GroupPartition({"X": frozenset({"A"})}))
    with pytest.raises(ValueError, match="outside the graph"):
        gl.pair_rate_matrix(
            graph, GroupPartition({"X": frozenset({"A", "Z"})}))


def test_largest_wcc_on_a_long_shuffled_path():
    # A 20,000-node path whose hops run in shuffled identifier order, so any
    # method that spreads labels one hop per round needs 20,000 rounds; next
    # to it a 3-node component that holds the smallest identifier.
    rng = np.random.default_rng(11)
    path = [f"p{i:05d}" for i in rng.permutation(20_000)]
    edges = {(s, t): 1 for s, t in zip(path, path[1:])}
    edges.update({("a", "b"): 1, ("c", "b"): 2})
    graph = gl.InteractionGraph.from_edges("follow", frozenset(path) | {"a", "b", "c"}, edges)
    assert gl.largest_wcc(graph) == frozenset(path)
