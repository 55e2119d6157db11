"""The incremental Girvan-Newman sweep is exactly the recompute-everything one.

``girvan_newman_communities`` keeps each edge's betweenness across
removals and re-runs Brandes only in the component(s) a removal touched.
The reference below is the straightforward sweep it replaced, with its
own copy of the Brandes edge accumulation: full edge betweenness before
every removal, components and modularity after every removal.  Both must
produce equal dendrograms (``==``, not ``approx``) on seeded random
graphs with several components, isolated nodes, tied scores and unequal
weights, and on the control model's quotient graph.
"""

import random
from collections import deque

import pytest

from repro.analysis import (
    QuotientGraph,
    edge_betweenness,
    girvan_newman_communities,
    modularity,
)
from repro.analysis.communities import CommunityLevel
from repro.obs import disable_tracing, enable_tracing, get_metrics


def _components(adj):
    seen, out = set(), []
    for start in sorted(adj):
        if start in seen:
            continue
        comp, queue = {start}, deque([start])
        seen.add(start)
        while queue:
            for w in adj[queue.popleft()]:
                if w not in seen:
                    seen.add(w)
                    comp.add(w)
                    queue.append(w)
        out.append(frozenset(comp))
    return out


def reference_edge_betweenness(adj):
    """Brandes edge betweenness from every source in sorted order, each
    source's BFS and dependency accumulation written out."""
    scores = {}
    for node in adj:
        for other in adj[node]:
            scores.setdefault((node, other) if node < other else (other, node), 0.0)
    for source in sorted(adj):
        stack, preds = [], {v: [] for v in adj}
        sigma, dist = {v: 0.0 for v in adj}, {source: 0}
        sigma[source] = 1.0
        queue = deque([source])
        while queue:
            v = queue.popleft()
            stack.append(v)
            for w in adj[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    queue.append(w)
                if dist[w] == dist[v] + 1:
                    sigma[w] += sigma[v]
                    preds[w].append(v)
        delta = {v: 0.0 for v in adj}
        while stack:
            w = stack.pop()
            for v in preds[w]:
                share = (sigma[v] / sigma[w]) * (1.0 + delta[w])
                scores[(v, w) if v < w else (w, v)] += share
                delta[v] += share
    return {pair: score / 2.0 for pair, score in scores.items()}


def reference_girvan_newman(q, max_communities=None):
    """``(levels, best)`` of the sweep that recomputes everything."""
    adj = {node: list(q.neighbors(node)) for node in q.nodes}

    def record(removed):
        comms = _components(adj)
        comms.sort(key=lambda c: (-len(c), sorted(c)[0]))
        return CommunityLevel(tuple(comms), modularity(q, comms), removed)

    levels = [record(0)]
    removed = 0
    while any(adj[v] for v in adj):
        if max_communities is not None and levels[-1].n_communities >= max_communities:
            break
        scores = reference_edge_betweenness(adj)
        u, v = min(scores, key=lambda pair: (-scores[pair], pair))
        adj[u].remove(v)
        adj[v].remove(u)
        removed += 1
        level = record(removed)
        if level.n_communities > levels[-1].n_communities:
            levels.append(level)
    best = max(levels, key=lambda lv: (lv.modularity, -lv.removed_edges))
    return levels, best


def random_graph(seed):
    """Several random components plus isolated nodes.  Names are numbered
    so that their sorted order is not their numeric order (``m10`` sorts
    before ``m9``); weights repeat (ties) and differ, and some pairs carry
    an edge both ways."""
    rng = random.Random(seed)
    q = QuotientGraph()
    names = [f"m{i}" for i in rng.sample(range(200), rng.randint(8, 26))]
    rng.shuffle(names)
    cut = sorted(rng.sample(range(1, len(names)), rng.randint(1, 3)))
    groups = [names[i:j] for i, j in zip([0, *cut], [*cut, len(names)])]
    for group in groups:
        if len(group) == 1:
            q.add_node(group[0], 1)  # an isolated node
            continue
        shape = rng.choice(("ring", "random", "clique"))
        for i, u in enumerate(group):
            for j, v in enumerate(group):
                if i == j:
                    continue
                if shape == "ring":
                    linked = j == (i + 1) % len(group)
                elif shape == "clique":
                    linked = i < j
                else:
                    linked = rng.random() < 0.3
                if linked:
                    q.add_edge(u, v, rng.choice((1.0, 1.0, 2.0, 3.5)))
    for _ in range(rng.randint(0, 2)):
        q.add_node(f"iso{rng.randint(0, 99)}", 1)
    return q


@pytest.mark.parametrize("seed", range(0, 40, 5))
def test_edge_betweenness_matches_the_reference(seed):
    q = random_graph(seed)
    adj = {node: q.neighbors(node) for node in q.nodes}
    assert edge_betweenness(q) == reference_edge_betweenness(adj)


@pytest.mark.parametrize("seed", range(40))
def test_random_graphs_match_the_recomputing_sweep(seed):
    q = random_graph(seed)
    levels, best = reference_girvan_newman(q)
    result = girvan_newman_communities(q)
    assert result.levels == levels
    assert result.best == best


@pytest.mark.parametrize("seed,limit", [(3, 2), (7, 3), (11, 5), (19, 1)])
def test_max_communities_matches_the_recomputing_sweep(seed, limit):
    q = random_graph(seed)
    levels, best = reference_girvan_newman(q, max_communities=limit)
    result = girvan_newman_communities(q, max_communities=limit)
    assert result.levels == levels
    assert result.best == best


def test_tied_scores_break_to_the_smallest_name_pair():
    # a ring: every edge ties, so the removal order is the name order
    q = QuotientGraph()
    ring = ["m10", "m9", "m100", "m2", "m1", "m20"]
    for u, v in zip(ring, ring[1:] + ring[:1]):
        q.add_edge(u, v)
    levels, best = reference_girvan_newman(q)
    assert girvan_newman_communities(q).levels == levels


def test_control_quotient_graph_matches_the_recomputing_sweep(control_quotient):
    levels, best = reference_girvan_newman(control_quotient)
    result = girvan_newman_communities(control_quotient)
    assert result.levels == levels
    assert result.best == best
    assert len(levels) == 34 and levels[-1].removed_edges == 109


def test_span_and_counter_report_the_work(control_quotient):
    """One ``analysis.communities`` span per sweep, carrying its removals,
    levels and Brandes single-source runs; the same run count lands in
    ``analysis.brandes_sources``."""
    before = get_metrics().counters()
    enable_tracing()
    try:
        girvan_newman_communities(control_quotient)
    finally:
        spans = disable_tracing()
    (span,) = [s for s in spans if s.name == "analysis.communities"]
    work = {k: span.attrs[k] for k in ("removals", "levels", "brandes_sources")}
    assert work == {"removals": 109, "levels": 34, "brandes_sources": 1681}
    delta = get_metrics().counter_delta(before)
    assert delta["analysis.brandes_sources"] == 1681
