"""Weighted set cover with reachability anchors: the selection optimizer.

Culprit selection is cast as a minimum-weight set-cover MILP: choose the
cheapest module set such that **every** selected evidence variable is
covered by at least one chosen module that can reach it within
``depth_cap`` BFS levels of its coverage-filtered backward slice, subject
to the *anchor* constraints — modules within the anchor radius of the
strongest evidence variables are forced into every solution (the sharpest
part of the failure signal points at them; this is Algorithm 5.4's
protection rule promoted from a sampling guard into a hard MILP
constraint).  Minimality is what tells a culprit from a conduit: one
module explaining three deviating variables beats three single-purpose
hub modules.

:class:`BranchAndBoundSolver` solves it: a deterministic pure-python
branch-and-bound.  It branches on the uncovered element with the fewest
remaining coverers, bounds with the classic per-element density lower
bound, and warm-starts from :func:`greedy_cover` — a community-aware
greedy whose incumbent keeps the gap metric (``selection.warm_start_gap``)
honest.  All tie-breaks are lexicographic, so the node count and the
optimum are platform- and hash-seed-independent (property-tested in
``tests/selection``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

from ..errors import ReproError

__all__ = [
    "BranchAndBoundSolver",
    "InfeasibleSelectionError",
    "SelectionError",
    "SetCoverProblem",
    "SetCoverSolution",
    "greedy_cover",
]

#: cost differences below this are ties (broken lexicographically)
_EPS = 1e-9


class SelectionError(ReproError):
    """Raised when culprit selection cannot run or cannot finish."""


class InfeasibleSelectionError(SelectionError):
    """A cover is impossible: some element has no candidate coverer."""

    def __init__(self, elements):
        self.elements = tuple(sorted(elements))
        super().__init__(
            "no candidate module covers evidence variable(s): "
            + ", ".join(self.elements)
        )


@dataclass(frozen=True)
class SetCoverProblem:
    """A weighted set-cover instance over modules and evidence variables.

    ``elements`` are the evidence variables to explain; ``coverers`` maps
    each element to the modules able to cover it (its depth-capped slice);
    ``weights`` prices each module; ``forced`` fixes the anchor modules
    into every solution; ``groups`` (module → community index) guides the
    greedy warm start toward community-coherent covers.
    """

    elements: tuple[str, ...]
    coverers: Mapping[str, frozenset[str]]
    weights: Mapping[str, float]
    forced: frozenset[str] = frozenset()
    groups: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        missing = [e for e in self.elements if e not in self.coverers]
        if missing:
            raise ValueError(f"elements without coverer sets: {missing}")

    @property
    def candidates(self) -> tuple[str, ...]:
        """Every module the instance can choose from, sorted."""
        out = set(self.forced)
        for e in self.elements:
            out.update(self.coverers[e])
        return tuple(sorted(out))

    def validate(self) -> None:
        """Raise :class:`InfeasibleSelectionError` on uncoverable elements."""
        bad = [e for e in self.elements if not self.coverers[e]]
        if bad:
            raise InfeasibleSelectionError(bad)

    def cost(self, modules) -> float:
        """Total weight of ``modules``, summed in sorted order."""
        return sum(self.weights.get(m, 1.0) for m in sorted(modules))


@dataclass(frozen=True)
class SetCoverSolution:
    """A cover, its cost, and how the solver got there."""

    #: chosen modules (including the forced anchors), sorted
    modules: tuple[str, ...]
    cost: float
    #: True when the solver proved optimality (False on node-limit stops)
    optimal: bool
    #: branch-and-bound nodes expanded
    nodes_explored: int
    #: cost of the greedy warm-start incumbent
    warm_start_cost: float
    solver: str

    @property
    def warm_start_gap(self) -> float:
        """How much the exact solve improved on the greedy warm start."""
        return self.warm_start_cost - self.cost


def greedy_cover(problem: SetCoverProblem) -> tuple[str, ...]:
    """Community-guided greedy cover: the branch-and-bound warm start.

    Starts from the forced anchors, then repeatedly takes the module with
    the best cost-per-newly-covered-element density — preferring, at equal
    density, modules from a community already represented in the partial
    cover (the modularity-optimal partition groups tightly coupled
    modules, and real culprits sit in the community the anchors already
    flagged), then lexicographically smaller names.  Deterministic;
    raises :class:`InfeasibleSelectionError` when no cover exists.
    """
    problem.validate()
    chosen = set(problem.forced)
    uncovered = {
        e for e in problem.elements if not (problem.coverers[e] & chosen)
    }
    communities = {problem.groups.get(m) for m in chosen}
    while uncovered:
        best: Optional[tuple[float, int, str]] = None
        for m in problem.candidates:
            if m in chosen:
                continue
            gain = sum(1 for e in uncovered if m in problem.coverers[e])
            if gain == 0:
                continue
            density = problem.weights.get(m, 1.0) / gain
            outside = 0 if problem.groups.get(m) in communities else 1
            key = (density, outside, m)
            if best is None or key < best:
                best = key
        if best is None:  # pragma: no cover - validate() precludes this
            raise InfeasibleSelectionError(uncovered)
        module = best[2]
        chosen.add(module)
        communities.add(problem.groups.get(module))
        uncovered = {
            e for e in uncovered if module not in problem.coverers[e]
        }
    return tuple(sorted(chosen))


class BranchAndBoundSolver:
    """Deterministic pure-python branch-and-bound for weighted set cover.

    Complete element-branching: each node picks the uncovered element with
    the fewest surviving coverers and branches on *which* coverer handles
    it, banning earlier siblings in later branches so no cover is
    enumerated twice.  The density lower bound ``Σ_e min_m w(m)/|cov(m)|``
    prunes, the :func:`greedy_cover` incumbent warm-starts, and
    ``node_limit`` bounds the worst case (the solution is then flagged
    non-optimal rather than wrong).
    """

    name = "branch-and-bound"

    def __init__(self, node_limit: int = 200_000):
        if node_limit < 1:
            raise ValueError(f"node_limit must be >= 1, got {node_limit}")
        self.node_limit = node_limit

    def solve(self, problem: SetCoverProblem) -> SetCoverSolution:
        problem.validate()
        warm = greedy_cover(problem)
        warm_cost = problem.cost(warm)
        weights = problem.weights
        coverers = problem.coverers

        best: tuple[str, ...] = warm
        best_cost = warm_cost
        nodes = 0
        truncated = False

        def lower_bound(uncovered, banned) -> float:
            bound = 0.0
            for e in sorted(uncovered):
                options = coverers[e] - banned
                if not options:
                    return float("inf")
                bound += min(
                    weights.get(m, 1.0)
                    / sum(1 for x in uncovered if m in coverers[x])
                    for m in sorted(options)
                )
            return bound

        def search(chosen: set, cost: float, uncovered: set, banned: frozenset):
            nonlocal best, best_cost, nodes, truncated
            if truncated:
                return
            nodes += 1
            if nodes >= self.node_limit:
                truncated = True
                return
            if not uncovered:
                key = tuple(sorted(chosen))
                if cost < best_cost - _EPS or (
                    abs(cost - best_cost) <= _EPS and key < best
                ):
                    best, best_cost = key, cost
                return
            if cost + lower_bound(uncovered, banned) >= best_cost - _EPS:
                return
            # branch on the most constrained element, then on its coverers
            # cheapest first; banning earlier siblings keeps branches disjoint
            element = min(
                uncovered, key=lambda e: (len(coverers[e] - banned), e)
            )
            options = sorted(
                coverers[element] - banned,
                key=lambda m: (weights.get(m, 1.0), m),
            )
            for i, module in enumerate(options):
                search(
                    chosen | {module},
                    cost + weights.get(module, 1.0),
                    {e for e in uncovered if module not in coverers[e]},
                    banned | frozenset(options[:i]),
                )

        forced_cost = problem.cost(problem.forced)
        uncovered = {
            e
            for e in problem.elements
            if not (coverers[e] & problem.forced)
        }
        search(set(problem.forced), forced_cost, uncovered, frozenset())
        return SetCoverSolution(
            modules=best,
            cost=best_cost,
            optimal=not truncated,
            nodes_explored=nodes,
            warm_start_cost=warm_cost,
            solver=self.name,
        )
