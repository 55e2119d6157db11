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
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Union

from ..graphs.metagraph import MetaGraph
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
    stack: list[str] = []
    preds: dict[str, list[str]] = {v: [] for v in adj}
    sigma: dict[str, float] = {v: 0.0 for v in adj}
    dist: dict[str, int] = {source: 0}
    sigma[source] = 1.0
    queue: deque[str] = deque([source])
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
    return stack, preds, sigma


def edge_betweenness(
    graph: GraphLike,
    adjacency: Optional[Mapping[str, list[str]]] = None,
) -> dict[tuple[str, str], float]:
    """Brandes edge betweenness over unweighted undirected shortest paths.

    Returns ``{(u, v): score}`` with ``u < v``.  ``adjacency`` overrides the
    graph's own neighbour lists (the Girvan-Newman loop passes its
    progressively thinned adjacency).
    """
    q = as_quotient(graph)
    adj = dict(adjacency) if adjacency is not None else _undirected_adjacency(q)
    betweenness: dict[tuple[str, str], float] = {}
    for node in adj:
        for other in adj[node]:
            pair = (node, other) if node < other else (other, node)
            betweenness.setdefault(pair, 0.0)

    for source in sorted(adj):
        stack, preds, sigma = brandes_sssp(adj, source)
        # dependency accumulation, credited to edges
        delta: dict[str, float] = {v: 0.0 for v in adj}
        while stack:
            w = stack.pop()
            for v in preds[w]:
                share = (sigma[v] / sigma[w]) * (1.0 + delta[w])
                pair = (v, w) if v < w else (w, v)
                betweenness[pair] += share
                delta[v] += share
    # each undirected path counted from both endpoints
    return {pair: score / 2.0 for pair, score in betweenness.items()}


def _components(adj: Mapping[str, list[str]]) -> list[frozenset[str]]:
    seen: set[str] = set()
    out: list[frozenset[str]] = []
    for start in sorted(adj):
        if start in seen:
            continue
        comp = {start}
        queue = deque([start])
        seen.add(start)
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    comp.add(w)
                    queue.append(w)
        out.append(frozenset(comp))
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
    total = q.total_undirected_weight()
    if total <= 0.0:
        return 0.0
    member_of: dict[str, int] = {}
    for index, community in enumerate(communities):
        for name in community:
            if name in member_of:
                raise ValueError(f"module {name!r} appears in two communities")
            member_of[name] = index
    missing = set(q.nodes) - set(member_of)
    if missing:
        raise ValueError(
            f"partition does not cover modules: {sorted(missing)[:5]}"
        )
    n_comms = max(member_of.values(), default=-1) + 1
    w_in = [0.0] * n_comms
    w_deg = [0.0] * n_comms
    for u, v, weight in q.undirected_edges():
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
    partition.
    """
    q = as_quotient(graph)
    if q.node_count == 0:
        raise ValueError("cannot detect communities of an empty graph")
    adj = {node: list(neigh) for node, neigh in _undirected_adjacency(q).items()}

    def record(removed: int) -> CommunityLevel:
        comms = _components(adj)
        comms.sort(key=lambda c: (-len(c), sorted(c)[0]))
        return CommunityLevel(
            communities=tuple(comms),
            modularity=modularity(q, comms),
            removed_edges=removed,
        )

    levels = [record(0)]
    removed = 0
    while any(adj[v] for v in adj):
        if (
            max_communities is not None
            and levels[-1].n_communities >= max_communities
        ):
            break
        scores = edge_betweenness(q, adj)
        # max betweenness, ties to the lexicographically smallest pair
        u, v = min(scores, key=lambda pair: (-scores[pair], pair))
        adj[u].remove(v)
        adj[v].remove(u)
        removed += 1
        level = record(removed)
        if level.n_communities > levels[-1].n_communities:
            levels.append(level)

    best = max(
        levels, key=lambda lv: (lv.modularity, -lv.removed_edges)
    )
    return CommunityResult(levels=levels, best=best)
