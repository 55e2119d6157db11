"""Girvan-Newman recovers planted structure and tracks modularity.

The satellite property test: on synthetic quotient graphs with two planted
dense clusters joined by a single weak bridge, the modularity-optimal
Girvan-Newman partition must recover the planted two-community split —
across a sweep of seeded random cluster sizes and densities.
"""

import random

import pytest

from repro.analysis import (
    CommunityResult,
    QuotientGraph,
    edge_betweenness,
    girvan_newman_communities,
    modularity,
)
from repro.pipeline.store import decode_dataclass, encode_dataclass


def planted_two_cluster_graph(
    seed: int, size_a: int, size_b: int, p_extra: float = 0.6
) -> tuple[QuotientGraph, frozenset, frozenset]:
    """Two dense clusters (ring + random chords) and one bridge edge."""
    rng = random.Random(seed)
    a = [f"a{i}" for i in range(size_a)]
    b = [f"b{i}" for i in range(size_b)]
    q = QuotientGraph()
    for cluster in (a, b):
        for i, node in enumerate(cluster):  # ring keeps the cluster connected
            q.add_edge(node, cluster[(i + 1) % len(cluster)], 2.0)
        for u in cluster:  # seeded random chords densify it
            for v in cluster:
                if u < v and rng.random() < p_extra:
                    q.add_edge(u, v, 2.0)
    q.add_edge(a[0], b[0], 1.0)  # the single weak bridge
    return q, frozenset(a), frozenset(b)


@pytest.mark.parametrize(
    "seed,size_a,size_b",
    [(0, 5, 5), (1, 6, 4), (2, 7, 7), (3, 4, 8), (4, 5, 9)],
)
def test_planted_two_cluster_partition_is_recovered(seed, size_a, size_b):
    q, a, b = planted_two_cluster_graph(seed, size_a, size_b)
    result = girvan_newman_communities(q)
    assert set(result.communities) == {a, b}
    # the planted split beats the trivial one-community partition
    assert result.modularity > modularity(q, [a | b])
    # and it is exactly the modularity of the recovered partition
    assert result.modularity == pytest.approx(modularity(q, [a, b]))


def test_levels_track_the_dendrogram():
    q, a, b = planted_two_cluster_graph(0, 5, 5)
    result = girvan_newman_communities(q)
    counts = [level.n_communities for level in result.levels]
    assert counts == sorted(counts)  # strictly coarser to finer
    assert counts[0] == 1  # bridge keeps the initial graph connected
    assert counts[-1] == q.node_count  # sweep ends at isolated nodes
    removed = [level.removed_edges for level in result.levels]
    assert removed == sorted(removed)
    assert result.best is max(result.levels, key=lambda lv: lv.modularity)


def test_max_communities_stops_the_sweep():
    q, a, b = planted_two_cluster_graph(0, 5, 5)
    result = girvan_newman_communities(q, max_communities=2)
    assert result.levels[-1].n_communities == 2
    assert set(result.levels[-1].communities) == {a, b}


def test_girvan_newman_is_deterministic():
    q, _, _ = planted_two_cluster_graph(2, 7, 7)
    first = girvan_newman_communities(q)
    second = girvan_newman_communities(q)
    assert first.communities == second.communities
    assert [lv.modularity for lv in first.levels] == [
        lv.modularity for lv in second.levels
    ]


def test_community_of_and_len():
    q, a, b = planted_two_cluster_graph(1, 6, 4)
    result = girvan_newman_communities(q)
    assert result.community_of("a0") == a
    assert result.community_of("b0") == b
    assert len(result) == 2
    assert result.summary().startswith("CommunityResult(")
    with pytest.raises(KeyError, match="not in the graph"):
        result.community_of("zz")


def test_dict_round_trip_keeps_the_best_partition_in_order():
    q, a, b = planted_two_cluster_graph(1, 6, 4)
    result = girvan_newman_communities(q)
    again = decode_dataclass(
        encode_dataclass(result, CommunityResult), CommunityResult
    )
    assert again.levels == result.levels
    assert again.communities == result.communities
    assert again.modularity == result.modularity
    assert again.community_of("a0") == a
    assert again.community_of("b0") == b


def test_modularity_validates_partitions():
    q, a, b = planted_two_cluster_graph(0, 5, 5)
    with pytest.raises(ValueError, match="two communities"):
        modularity(q, [a, a | b])
    with pytest.raises(ValueError, match="does not cover"):
        modularity(q, [a])


def test_edge_betweenness_on_a_path():
    q = QuotientGraph()
    q.add_edge("a", "b")
    q.add_edge("b", "c")
    scores = edge_betweenness(q)
    # both edges carry two of the three shortest paths (a-b, a-c / b-c, a-c)
    assert scores[("a", "b")] == pytest.approx(2.0)
    assert scores[("b", "c")] == pytest.approx(2.0)


def test_real_model_communities(control_quotient):
    result = girvan_newman_communities(control_quotient)
    assert isinstance(result, CommunityResult)
    covered = set().union(*result.communities)
    assert covered == set(control_quotient.nodes)
    # microphysics and its aerosol driver are tightly coupled: one community
    assert result.community_of("micro_mg") == result.community_of(
        "microp_aero"
    )
    assert result.modularity > 0.0
