"""``select_culprits``: evidence → anchored set cover → culprit modules.

The orchestration layer of :mod:`repro.selection` and the programmatic
face of the pipeline's ``selection`` stage.  Given the slicing stage's
:class:`~repro.slicing.RankedSlice`, it

1. runs the robust evidence selection
   (:func:`repro.selection.select_affected_variables`) over the slice's
   ECT-failing variable weights;
2. scores modules from exactly those variables through the slice's
   per-variable depth table (:func:`repro.slicing.module_scores`);
3. builds the anchored :class:`~repro.selection.setcover.SetCoverProblem`
   — candidates restricted to the ranked slice, coverage within
   ``depth_cap`` BFS levels, module weight ``1 / (1 + score)`` so strong
   slice evidence is cheap to keep, anchors forced — and solves it with
   :class:`~repro.selection.setcover.BranchAndBoundSolver`;
4. returns a :class:`SelectionResult` ordered strongest evidence first,
   ready to warm-start :func:`repro.refine.refine_slice`.

Instrumented via :mod:`repro.obs`: a ``selection.solve`` span plus the
``selection.solves`` / ``selection.nodes_explored`` counters and the
``selection.warm_start_gap`` distribution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

from ..obs import get_metrics, get_tracer
from ..slicing import RankedSlice, module_scores
from .evidence import EvidenceSelection, select_affected_variables
from .setcover import BranchAndBoundSolver, SetCoverProblem
from .spec import SelectionSpec

__all__ = [
    "SelectionResult",
    "SelectionSpec",
    "select_culprits",
]


@dataclass(frozen=True)
class SelectionResult:
    """The selected culprit modules and the optimization that chose them."""

    #: selected modules, strongest slice evidence first
    modules: tuple[str, ...]
    #: the solver's minimum-weight cover (anchors included), sorted
    cover: tuple[str, ...]
    #: modules forced by anchor reachability, sorted
    anchors: tuple[str, ...]
    #: the evidence selection the cover explains
    evidence: Optional[EvidenceSelection]
    #: evidence variables that could not be sliced or covered (no seeds,
    #: or nothing within ``depth_cap``) — excluded from the cover
    dropped_variables: tuple[str, ...] = ()
    #: per-module slice scores of the selected modules
    scores: Mapping[str, float] = field(default_factory=dict)
    cost: float = 0.0
    warm_start_cost: float = 0.0
    optimal: bool = True
    nodes_explored: int = 0
    solver: str = ""

    def __len__(self) -> int:
        return len(self.modules)

    def __contains__(self, module: str) -> bool:
        return module in self.modules

    def __bool__(self) -> bool:
        return bool(self.modules)

    @property
    def warm_start_gap(self) -> float:
        """Cost the exact solve shaved off the greedy warm start."""
        return self.warm_start_cost - self.cost

    def summary(self) -> str:
        head = ", ".join(self.modules[:6])
        return (
            f"SelectionResult({len(self.modules)} modules via {self.solver}"
            f"{'' if self.optimal else ' (node limit)'}: {head}"
            f"{'...' if len(self.modules) > 6 else ''})"
        )

    @classmethod
    def empty(cls, evidence: Optional[EvidenceSelection] = None) -> "SelectionResult":
        """The no-evidence selection: nothing selected, nothing solved."""
        return cls(modules=(), cover=(), anchors=(), evidence=evidence)


def select_culprits(
    ranked: RankedSlice,
    *,
    communities=None,
    spec: Optional[SelectionSpec] = None,
) -> SelectionResult:
    """Optimization-based culprit selection over one ranked slice.

    ``ranked`` (the slicing stage's :class:`~repro.slicing.RankedSlice`)
    supplies everything the cover needs: its ECT-failing
    ``variable_weights`` are the evidence population, its ``depths``
    table places every module relative to each evidence variable, and
    its ``modules`` are the candidate pool — anchor modules stay
    candidates regardless, their reachability constraint outranks the
    cap.  ``communities`` (a :class:`~repro.analysis.CommunityResult`)
    guides the solver's greedy warm start.  Deterministic for a fixed
    :class:`SelectionSpec`.
    """
    spec = spec or SelectionSpec()
    evidence = select_affected_variables(
        ranked.variable_weights,
        method=spec.method,
        strength=spec.strength,
        min_variables=spec.min_variables,
        max_variables=spec.max_variables,
        anchor_variables=spec.anchor_variables,
    )
    if not evidence.variables:
        return SelectionResult.empty(evidence)

    depths = ranked.depths
    scores = module_scores(depths, evidence.weights)
    pool = set(ranked.modules)
    anchors: set[str] = set()
    for name in evidence.anchors:
        for module, depth in depths.get(name, {}).items():
            if depth <= spec.anchor_depth:
                anchors.add(module)

    coverers: dict[str, frozenset[str]] = {}
    dropped: list[str] = []
    for name in evidence.variables:
        near = {
            module
            for module, depth in depths.get(name, {}).items()
            if depth <= spec.depth_cap
            and (module in pool or module in anchors)
        }
        if near:
            coverers[name] = frozenset(near)
        else:
            dropped.append(name)
    if not coverers:
        return SelectionResult.empty(evidence)

    module_weights = {
        module: 1.0 / (1.0 + scores.get(module, 0.0))
        for covered in coverers.values()
        for module in covered
    }
    for module in anchors:
        module_weights.setdefault(
            module, 1.0 / (1.0 + scores.get(module, 0.0))
        )
    groups: dict[str, int] = {}
    if communities is not None:
        ordered = [tuple(sorted(c)) for c in communities.communities]
        for module in module_weights:
            groups[module] = next(
                (i for i, c in enumerate(ordered) if module in c), -1
            )

    problem = SetCoverProblem(
        elements=tuple(
            name for name in evidence.variables if name in coverers
        ),
        coverers=coverers,
        weights=module_weights,
        forced=frozenset(anchors),
        groups=groups,
    )
    solver = BranchAndBoundSolver(node_limit=spec.node_limit)

    tracer = get_tracer()
    metrics = get_metrics()
    with tracer.span(
        "selection.solve",
        lambda: {
            "solver": solver.name,
            "elements": len(problem.elements),
            "candidates": len(problem.candidates),
            "anchors": len(anchors),
        },
    ) as span:
        solution = solver.solve(problem)
        span.annotate(
            modules=len(solution.modules),
            nodes_explored=solution.nodes_explored,
            optimal=solution.optimal,
        )
    metrics.inc("selection.solves")
    metrics.inc("selection.nodes_explored", solution.nodes_explored)

    modules = sorted(
        solution.modules, key=lambda m: (-scores.get(m, 0.0), m)
    )
    return SelectionResult(
        modules=tuple(modules),
        cover=solution.modules,
        anchors=tuple(sorted(anchors)),
        evidence=evidence,
        dropped_variables=tuple(dropped),
        scores={m: float(scores.get(m, 0.0)) for m in modules},
        cost=solution.cost,
        warm_start_cost=solution.warm_start_cost,
        optimal=solution.optimal,
        nodes_explored=solution.nodes_explored,
        solver=solution.solver,
    )
