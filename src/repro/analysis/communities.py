"""Girvan-Newman community detection with modularity tracking (paper §5.2).

The paper partitions the module quotient graph into communities by
iteratively removing the edge with the highest betweenness (Girvan-Newman)
and keeps the partition maximizing Newman's modularity; Algorithm 5.4 then
refines the root-cause suspect set community by community.

The implementation is pure Python and fully deterministic: edge betweenness
comes from Brandes' algorithm over unweighted shortest paths (hop counts —
the convention Girvan-Newman itself uses), ties in the edge-removal choice
break lexicographically, and modularity is evaluated with the *original*
symmetrized edge weights, so heavier couplings pull modules into the same
community even though path counting ignores them.

The sweep keeps each edge's betweenness across removals.  An edge's score
sums the dependencies of the sources in its own connected component only,
so removing ``(u, v)`` changes the scores of the component(s) now holding
``u`` and ``v`` and of no other: those are re-run from scratch, from their
sources in sorted order, which is the order a full recomputation adds them
in, so every score is bit-identical to one.  The component count can only
grow when ``v`` is no longer reachable from ``u``, so only then are the
components and the modularity of a new level computed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Union

from ..graphs.metagraph import MetaGraph
from ..obs import get_metrics, get_tracer
from .quotient import QuotientGraph, quotient_graph

__all__ = [
    "CommunityLevel",
    "CommunityResult",
    "edge_betweenness",
    "girvan_newman_communities",
    "modularity",
]

GraphLike = Union[QuotientGraph, MetaGraph]


def as_quotient(graph: GraphLike) -> QuotientGraph:
    """Pass a :class:`QuotientGraph` through; collapse a :class:`MetaGraph`."""
    if isinstance(graph, QuotientGraph):
        return graph
    return quotient_graph(graph)


def _undirected_adjacency(
    graph: QuotientGraph,
) -> dict[str, list[str]]:
    return {node: graph.neighbors(node) for node in graph.nodes}


def brandes_sssp(
    adj: Mapping[str, list[str]], source: str
) -> tuple[list[str], dict[str, list[str]], dict[str, float]]:
    """Brandes' single-source stage: BFS shortest paths with path counts.

    Returns ``(stack, preds, sigma)`` — nodes in non-decreasing distance
    order, each node's shortest-path predecessors, and its shortest-path
    count.  Both the edge-betweenness sweep here and the node betweenness
    in :mod:`repro.analysis.centrality` accumulate dependencies over this
    common traversal.
    """
    preds: dict[str, list[str]] = {v: [] for v in adj}
    sigma: dict[str, float] = dict.fromkeys(adj, 0.0)
    dist: dict[str, int] = {source: 0}
    sigma[source] = 1.0
    # the BFS queue, never popped: the nodes in the order they are reached
    stack: list[str] = [source]
    for v in stack:
        # v's predecessors were all visited before it: sigma[v] is final
        below, paths = dist[v] + 1, sigma[v]
        for w in adj[v]:
            if w not in dist:
                dist[w] = below
                stack.append(w)
            elif dist[w] != below:
                continue
            sigma[w] += paths
            preds[w].append(v)
    return stack, preds, sigma


def _accumulate_edges(
    adj: Mapping[str, list[str]],
    sources: Iterable[str],
    scores: dict[tuple[str, str], float],
) -> None:
    """Add each source's Brandes dependencies, in order, onto the edges.

    ``scores`` maps every ``(u, v)`` pair (``u < v``) the sources reach to
    its running sum; per source an edge gains at most one share, so the
    sum is the sources' shares added in ``sources`` order.
    """
    for source in sources:
        stack, preds, sigma = brandes_sssp(adj, source)
        delta = dict.fromkeys(stack, 0.0)
        for w in reversed(stack):
            paths, carried = sigma[w], 1.0 + delta[w]
            for v in preds[w]:
                share = (sigma[v] / paths) * carried
                scores[(v, w) if v < w else (w, v)] += share
                delta[v] += share


def _zero_scores(adj: Mapping[str, list[str]]) -> dict[tuple[str, str], float]:
    """``{(u, v): 0.0}`` for every undirected edge of ``adj`` (``u < v``)."""
    return {(u, v) if u < v else (v, u): 0.0 for u in adj for v in adj[u]}


def edge_betweenness(
    graph: GraphLike,
    adjacency: Optional[Mapping[str, list[str]]] = None,
) -> dict[tuple[str, str], float]:
    """Brandes edge betweenness over unweighted undirected shortest paths.

    Returns ``{(u, v): score}`` with ``u < v``.  ``adjacency`` overrides the
    graph's own neighbour lists.
    """
    q = as_quotient(graph)
    adj = dict(adjacency) if adjacency is not None else _undirected_adjacency(q)
    scores = _zero_scores(adj)
    _accumulate_edges(adj, sorted(adj), scores)
    # each undirected path counted from both endpoints
    return {pair: score / 2.0 for pair, score in scores.items()}


def _component(adj: Mapping[str, list[str]], start: str) -> frozenset[str]:
    """The nodes reachable from ``start``."""
    seen = {start}
    queue = [start]
    for v in queue:
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return frozenset(seen)


def _components(adj: Mapping[str, list[str]]) -> list[frozenset[str]]:
    seen: set[str] = set()
    out: list[frozenset[str]] = []
    for start in sorted(adj):
        if start not in seen:
            out.append(_component(adj, start))
            seen |= out[-1]
    return out


def modularity(
    graph: GraphLike, communities: Iterable[Iterable[str]]
) -> float:
    """Newman's weighted modularity of a partition of the graph's nodes.

    ``Q = Σ_c [ w_in(c)/W - (w_deg(c)/(2W))² ]`` with ``W`` the total
    symmetrized edge weight, ``w_in(c)`` the weight inside community ``c``
    and ``w_deg(c)`` the symmetrized degree weight of its members.
    """
    q = as_quotient(graph)
    return _modularity(q.nodes, list(q.undirected_edges()), communities)


def _modularity(
    nodes: list[str],
    edges: list[tuple[str, str, float]],
    communities: Iterable[Iterable[str]],
) -> float:
    """:func:`modularity` given the graph's ``nodes`` and its
    ``undirected_edges()``, which Girvan-Newman lists once for all levels."""
    total = sum(weight for _, _, weight in edges)
    if total <= 0.0:
        return 0.0
    member_of: dict[str, int] = {}
    for index, community in enumerate(communities):
        for name in community:
            if name in member_of:
                raise ValueError(f"module {name!r} appears in two communities")
            member_of[name] = index
    missing = set(nodes) - set(member_of)
    if missing:
        raise ValueError(
            f"partition does not cover modules: {sorted(missing)[:5]}"
        )
    n_comms = max(member_of.values(), default=-1) + 1
    w_in = [0.0] * n_comms
    w_deg = [0.0] * n_comms
    for u, v, weight in edges:
        cu, cv = member_of[u], member_of[v]
        w_deg[cu] += weight
        w_deg[cv] += weight
        if cu == cv:
            w_in[cu] += weight
    return sum(
        w_in[c] / total - (w_deg[c] / (2.0 * total)) ** 2
        for c in range(n_comms)
    )


@dataclass(frozen=True)
class CommunityLevel:
    """One level of the Girvan-Newman dendrogram."""

    communities: tuple[frozenset[str], ...]
    modularity: float
    removed_edges: int  #: edges removed from the graph to reach this level

    @property
    def n_communities(self) -> int:
        return len(self.communities)


@dataclass
class CommunityResult:
    """The dendrogram plus the modularity-optimal partition.

    ``levels`` records every distinct partition the edge-removal sweep
    produced (coarsest first); ``best`` is the level maximizing modularity
    (earliest level on ties, i.e. the coarsest of the equally good ones).
    """

    levels: list[CommunityLevel]
    best: CommunityLevel
    _member_of: dict[str, frozenset[str]] = field(
        init=False, default_factory=dict, repr=False
    )

    def __post_init__(self) -> None:
        for community in self.best.communities:
            for name in community:
                self._member_of[name] = community

    @property
    def communities(self) -> tuple[frozenset[str], ...]:
        """The best partition's communities, largest first."""
        return self.best.communities

    @property
    def modularity(self) -> float:
        return self.best.modularity

    def community_of(self, name: str) -> frozenset[str]:
        """The best-partition community containing ``name``."""
        try:
            return self._member_of[name]
        except KeyError:
            raise KeyError(f"module {name!r} is not in the graph") from None

    def __len__(self) -> int:
        return len(self.best.communities)

    def summary(self) -> str:
        sizes = sorted(
            (len(c) for c in self.best.communities), reverse=True
        )
        return (
            f"CommunityResult({len(sizes)} communities, "
            f"modularity={self.best.modularity:.3f}, sizes={sizes})"
        )


def girvan_newman_communities(
    graph: GraphLike,
    *,
    max_communities: Optional[int] = None,
) -> CommunityResult:
    """Girvan-Newman community detection with per-level modularity.

    Repeatedly removes the highest-betweenness edge (lexicographic smallest
    on ties) from the undirected view of ``graph``, recording a dendrogram
    level every time the component count grows, until every edge is gone or
    ``max_communities`` components exist.  The returned
    :class:`CommunityResult` exposes every level and the modularity-optimal
    partition.  Runs under an ``analysis.communities`` span and counts its
    Brandes single-source runs in ``analysis.brandes_sources``.
    """
    q = as_quotient(graph)
    if q.node_count == 0:
        raise ValueError("cannot detect communities of an empty graph")
    with get_tracer().span("analysis.communities") as span:
        adj = {node: list(neigh) for node, neigh in _undirected_adjacency(q).items()}
        # raw sums: halving is exact, so it keeps the order and the ties
        scores = _zero_scores(adj)
        _accumulate_edges(adj, adj, scores)  # the nodes come sorted
        sources = len(adj)
        nodes, edges = q.nodes, list(q.undirected_edges())

        def record(comms: list[frozenset[str]], removed: int) -> CommunityLevel:
            comms.sort(key=lambda c: (-len(c), min(c)))
            return CommunityLevel(
                communities=tuple(comms),
                modularity=_modularity(nodes, edges, comms),
                removed_edges=removed,
            )

        levels = [record(_components(adj), 0)]
        removed = 0
        while scores:
            if (
                max_communities is not None
                and levels[-1].n_communities >= max_communities
            ):
                break
            # max betweenness, ties to the lexicographically smallest pair
            u, v = min(scores, key=lambda pair: (-scores[pair], pair))
            adj[u].remove(v)
            adj[v].remove(u)
            del scores[(u, v)]
            removed += 1
            held = [_component(adj, u)]
            if v not in held[0]:
                held.append(_component(adj, v))
            for comp in held:
                if len(comp) == 1:
                    continue  # an isolated node has no edge to score
                sub = {node: adj[node] for node in sorted(comp)}
                scores.update(_zero_scores(sub))
                _accumulate_edges(sub, sub, scores)
                sources += len(sub)
            if len(held) == 2:  # v split off: one more community
                comms = [c for c in levels[-1].communities if u not in c]
                levels.append(record(comms + held, removed))
        span.annotate(removals=removed, levels=len(levels), brandes_sources=sources)
    get_metrics().inc("analysis.brandes_sources", sources)

    best = max(
        levels, key=lambda lv: (lv.modularity, -lv.removed_edges)
    )
    return CommunityResult(levels=levels, best=best)
