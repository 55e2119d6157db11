"""The quotient (module-level) graph of a variable metagraph (paper §5).

The refinement stage reasons about *modules*, not individual variables: the
paper collapses the variable-dependency metagraph into its quotient graph —
one node per Fortran module, one directed edge per pair of modules linked by
at least one cross-module variable edge, weighted by how many variable edges
the pair carries.  Community detection, centralities and the degree
statistics of Table 1 all operate on this graph, so it is the shared
substrate of :mod:`repro.analysis` and :mod:`repro.refine`.

:class:`QuotientGraph` is deliberately independent of :class:`MetaGraph`
construction: it can be built from any metagraph via :func:`quotient_graph`
or assembled directly (``add_edge``) for synthetic community tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from ..graphs.metagraph import MetaGraph

__all__ = ["QuotientGraph", "quotient_graph"]


class QuotientGraph:
    """Directed, weighted module-level graph.

    ``weight(u, v)`` counts the variable-dependency edges flowing from
    module ``u`` into module ``v``; ``node_size(m)`` the variable nodes
    module ``m`` contributed.  Undirected views (``undirected_weight``,
    ``neighbors``) serve community detection, which ignores direction.
    """

    def __init__(self) -> None:
        self._nodes: dict[str, int] = {}
        self._out: dict[str, dict[str, float]] = {}
        self._in: dict[str, dict[str, float]] = {}

    # ------------------------------------------------------------ mutation
    def add_node(self, name: str, size: int = 0) -> None:
        """Get-or-create a module node, accumulating its variable count."""
        self._nodes[name] = self._nodes.get(name, 0) + size
        self._out.setdefault(name, {})
        self._in.setdefault(name, {})

    def add_edge(self, src: str, dst: str, weight: float = 1.0) -> None:
        """Accumulate ``weight`` onto the directed edge ``src -> dst``."""
        if src == dst:
            return  # intra-module flow is the node, not an edge
        if weight <= 0:
            raise ValueError(f"edge weight must be positive, got {weight}")
        self.add_node(src)
        self.add_node(dst)
        self._out[src][dst] = self._out[src].get(dst, 0.0) + weight
        self._in[dst][src] = self._in[dst].get(src, 0.0) + weight

    # ------------------------------------------------------------- queries
    @property
    def nodes(self) -> list[str]:
        """Module names, sorted (the canonical iteration order)."""
        return sorted(self._nodes)

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    @property
    def edge_count(self) -> int:
        """Number of directed edges."""
        return sum(len(dsts) for dsts in self._out.values())

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def __iter__(self) -> Iterator[str]:
        return iter(self.nodes)

    def node_size(self, name: str) -> int:
        """Variable nodes the module contributed to the metagraph."""
        return self._nodes[name]

    def weight(self, src: str, dst: str) -> float:
        """Directed edge weight (0.0 when absent)."""
        return self._out.get(src, {}).get(dst, 0.0)

    def undirected_weight(self, u: str, v: str) -> float:
        """Symmetrized weight: ``weight(u, v) + weight(v, u)``."""
        return self.weight(u, v) + self.weight(v, u)

    def successors(self, name: str) -> list[str]:
        return sorted(self._out[name])

    def predecessors(self, name: str) -> list[str]:
        return sorted(self._in[name])

    def neighbors(self, name: str) -> list[str]:
        """Distinct modules adjacent in either direction, sorted."""
        return sorted(set(self._out[name]) | set(self._in[name]))

    def in_weight(self, name: str) -> float:
        """Total weight of incoming edges."""
        return sum(self._in[name].values())

    def out_weight(self, name: str) -> float:
        """Total weight of outgoing edges."""
        return sum(self._out[name].values())

    def in_degree(self, name: str) -> int:
        return len(self._in[name])

    def out_degree(self, name: str) -> int:
        return len(self._out[name])

    def degree(self, name: str) -> int:
        """Undirected degree: number of distinct neighbours."""
        return len(set(self._out[name]) | set(self._in[name]))

    def edges(self) -> Iterator[tuple[str, str, float]]:
        """Directed ``(src, dst, weight)`` triples in sorted order."""
        for src in self.nodes:
            for dst in sorted(self._out[src]):
                yield src, dst, self._out[src][dst]

    def undirected_edges(self) -> Iterator[tuple[str, str, float]]:
        """Each undirected pair once (``u < v``) with symmetrized weight."""
        seen: set[tuple[str, str]] = set()
        for src in self.nodes:
            for dst in self.neighbors(src):
                pair = (src, dst) if src < dst else (dst, src)
                if pair in seen:
                    continue
                seen.add(pair)
                yield pair[0], pair[1], self.undirected_weight(*pair)

    def subgraph(self, keep: Iterable[str]) -> "QuotientGraph":
        """The induced subgraph on ``keep`` (unknown names ignored)."""
        wanted = {name for name in keep if name in self._nodes}
        sub = QuotientGraph()
        for name in sorted(wanted):
            sub.add_node(name, self._nodes[name])
        for src, dst, weight in self.edges():
            if src in wanted and dst in wanted:
                sub.add_edge(src, dst, weight)
        return sub


def quotient_graph(graph: MetaGraph) -> QuotientGraph:
    """Collapse a variable :class:`MetaGraph` to its module quotient.

    Every metagraph node contributes to its module's ``node_size``; every
    cross-module variable edge adds unit weight to the corresponding
    directed module edge.  Intra-module edges vanish (they are the node).
    """
    q = QuotientGraph()
    for node in graph:
        q.add_node(node.module, 1)
    for (src_mod, _, _), (dst_mod, _, _) in graph.edges():
        if src_mod != dst_mod:
            q.add_edge(src_mod, dst_mod, 1.0)
    return q
