"""Hybrid backward slicing: metagraph BFS intersected with coverage.

This is the paper's §4.3 search-space reduction, live: starting from the
output variables a consistency test flags, walk the variable-dependency
metagraph *backward* (``MetaGraph.reachable_from(..., reverse=True)``) to
everything that could have fed them, intersect with the executed-line
coverage of the failing configuration (statically reachable but never
executed code cannot be the cause), and rank the surviving modules.

Three layers:

:func:`backward_slice`
    The pure graph operation: reverse-BFS closure of a seed set with
    per-node depths, optionally coverage-filtered.  Deterministic, cheap,
    and independent of any model run.

:func:`module_scores`
    The one scoring rule, ``score(m) = Σ_v w(v) · decay^depth_v(m)``:
    each output variable's evidence, attenuated per BFS level between
    the module and the variable.  The slice, the selection stage and the
    refinement stage all rank modules with it, each with its own weights.

:func:`slice_failing_runs`
    The pipeline operation and the only place that slices: given the
    accepted :class:`Ensemble` and the ECT-failing experimental runs, it
    slices backward from every output field's seed nodes once, keeping
    the coverage-filtered module depths per field (``RankedSlice.depths``),
    weights the fields by how far outside the accepted distribution they
    fall (invariant violations dominate), and scores each module from the
    most-affected fields.  Chaotic error growth makes *every* variable
    fail after a step or two, so set intersection alone cannot localize;
    the magnitude-times-distance ranking is what turns a
    80%-of-the-code reachable set into a slice below half the modules
    that still contains the injected bug (the integration suite holds it
    to that for all five registered patches).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from ..graphs.metagraph import MetaGraph, NodeKey
from ..obs import get_tracer
from .seeds import module_file_map, output_field_seeds

__all__ = [
    "BackwardSlice",
    "RankedSlice",
    "backward_slice",
    "module_scores",
    "slice_failing_runs",
    "variable_weights",
]

#: z-score assigned to a violated bit-invariant channel (sd == 0 but the
#: experimental value moved) and to a non-finite experimental value: far
#: above any finite spread, below overflow
_INVARIANT_Z = 1.0e6


@dataclass
class BackwardSlice:
    """The reverse closure of a seed set, with per-node BFS depths."""

    seeds: frozenset[NodeKey]
    #: node -> minimum reverse-BFS distance from any seed
    depths: dict[NodeKey, int] = field(default_factory=dict)
    #: nodes discovered by BFS but rejected by the coverage filter
    unexecuted: frozenset[NodeKey] = frozenset()

    @property
    def nodes(self) -> frozenset[NodeKey]:
        return frozenset(self.depths)

    def modules(self) -> frozenset[str]:
        """Fortran modules with at least one node in the slice."""
        return frozenset(key[0] for key in self.depths)

    def module_depths(self) -> dict[str, int]:
        """``{module: min depth of any of its nodes}``."""
        out: dict[str, int] = {}
        for (module, _, _), depth in self.depths.items():
            if depth < out.get(module, math.inf):
                out[module] = depth
        return out

    def __len__(self) -> int:
        return len(self.depths)

    def __contains__(self, key: NodeKey) -> bool:
        return key in self.depths


def _executed_nodes(
    graph: MetaGraph, coverage, module_files: Optional[Mapping[str, str]]
) -> Optional[frozenset[NodeKey]]:
    """The nodes a coverage filter keeps, or None when nothing filters.

    A node is kept only if its module's file was executed and — when the
    node carries source lines — at least one of its lines executed.
    """
    if coverage is None or module_files is None:
        return None
    executed = {
        name: frozenset(coverage.executed_lines(name))
        for name in coverage.files()
    }

    def keep(key: NodeKey, node) -> bool:
        lines = executed.get(module_files.get(key[0]))
        if lines is None:
            return False
        return not node.lines or bool(node.lines & lines)

    return frozenset(
        key for key, node in graph.nodes.items() if keep(key, node)
    )


def _reverse_bfs(
    graph: MetaGraph,
    seeds: Iterable[NodeKey],
    kept: Optional[frozenset[NodeKey]],
) -> BackwardSlice:
    """Reverse BFS from ``seeds`` that never enters a node outside ``kept``."""
    seed_keys = frozenset(seeds)
    depths: dict[NodeKey, int] = {}
    rejected: set[NodeKey] = set()
    queue: deque[tuple[NodeKey, int]] = deque(
        (key, 0) for key in seed_keys if key in graph.nodes
    )
    while queue:
        key, depth = queue.popleft()
        if key in depths or key in rejected:
            continue
        if kept is not None and key not in kept:
            rejected.add(key)
            continue
        depths[key] = depth
        for pred in graph.predecessors(key):
            if pred not in depths and pred not in rejected:
                queue.append((pred, depth + 1))
    return BackwardSlice(
        seeds=seed_keys, depths=depths, unexecuted=frozenset(rejected)
    )


def backward_slice(
    graph: MetaGraph,
    seeds: "Iterable[NodeKey] | str",
    *,
    coverage=None,
    module_files: Optional[Mapping[str, str]] = None,
) -> BackwardSlice:
    """Reverse-BFS closure of ``seeds`` over ``graph``, coverage-filtered.

    Parameters
    ----------
    graph:
        The variable-dependency :class:`MetaGraph`.
    seeds:
        Node keys to start from, or a canonical variable name resolved via
        :meth:`MetaGraph.find`.
    coverage:
        Optional :class:`~repro.runtime.CoverageTrace`.  When given
        (together with ``module_files``), a reached node is kept only if
        its module's file was executed *and* — when the node carries
        source lines — at least one of its lines executed.  Rejected
        nodes are recorded on ``unexecuted`` and the BFS does **not**
        continue through them: data cannot have flowed through code that
        never ran.
    module_files:
        ``{fortran module: filename}`` (see
        :func:`repro.slicing.module_file_map`), required to interpret
        ``coverage``.
    """
    if isinstance(seeds, str):
        seeds = graph.find(seeds)
    return _reverse_bfs(
        graph, seeds, _executed_nodes(graph, coverage, module_files)
    )


def module_scores(
    depths: Mapping[str, Mapping[str, int]],
    weights: Mapping[str, float],
    decay: float = 0.5,
) -> dict[str, float]:
    """``score(m) = Σ_v w(v) · decay^depth_v(m)`` for every reached module.

    ``depths`` is a per-variable module-depth table
    (``RankedSlice.depths``), ``weights`` the evidence of each variable.
    Each module sums its terms in the iteration order of ``weights``
    (float addition is order-sensitive); a variable without a depth
    entry contributes nothing.
    """
    scores: dict[str, float] = {}
    for name, weight in weights.items():
        for module, depth in depths.get(name, {}).items():
            scores[module] = scores.get(module, 0.0) + weight * (decay ** depth)
    return scores


@dataclass
class RankedSlice:
    """A ranked module slice: the root-cause search space.

    ``modules`` is the slice proper — the highest-scoring modules, capped
    below ``max_module_fraction`` of the graph's modules.  ``ranking``
    keeps every scored module for inspection and ``variable_weights`` the
    deviation weight of every ECT-failing output field (the ranking
    scores the ``top_k`` strongest).  ``depths`` is the coverage-filtered
    module-depth table of every output field with seed nodes: the one
    slice the selection and refinement stages score from.
    """

    modules: list[str]
    ranking: list[tuple[str, float]]
    variable_weights: dict[str, float]
    #: output field -> {module: min reverse-BFS depth of its nodes}
    depths: dict[str, dict[str, int]]
    total_modules: int

    def __contains__(self, module: str) -> bool:
        return module in self.modules

    def __len__(self) -> int:
        return len(self.modules)

    @property
    def fraction(self) -> float:
        """Slice size as a fraction of all graph modules."""
        return len(self.modules) / self.total_modules if self.total_modules else 0.0

    def summary(self) -> str:
        head = ", ".join(self.modules[:6])
        return (
            f"RankedSlice({len(self.modules)}/{self.total_modules} modules "
            f"[{self.fraction:.0%}]: {head}{'...' if len(self.modules) > 6 else ''})"
        )


def variable_weights(
    ensemble,
    runs: Sequence,
    failing: Optional[Iterable[str]] = None,
) -> dict[str, float]:
    """Log-damped z-score per output field: how far outside the accepted
    distribution the experimental runs fall, invariants dominating.

    The evidence layer shared by :func:`slice_failing_runs` and the
    refinement stage (:mod:`repro.refine`): every output field whose
    experimental values deviate gets a weight ``log1p(Σ z)``, where a
    violated bit-invariant column (ensemble spread exactly zero but the
    experimental value moved) or a non-finite experimental value counts
    as a fixed huge z so it dominates any finite spread.  ``failing``,
    when given, restricts the result to those field names (``@first``
    suffixes are normalized away).
    """
    names = ensemble.variable_names
    mean = ensemble.mean()
    sd = ensemble.std()
    z_total = np.zeros(len(names))
    for run in runs:
        vec = ensemble.run_vector(run)
        dev = np.abs(vec - mean)
        with np.errstate(divide="ignore", invalid="ignore"):
            z = np.where(sd > 0, dev / np.where(sd > 0, sd, 1.0), 0.0)
        broken = ((sd == 0) & (dev > 0)) | ~np.isfinite(vec)
        z = np.where(broken, _INVARIANT_Z, z)
        z_total += np.minimum(z, _INVARIANT_Z)
    allowed = None
    if failing is not None:
        allowed = {name.replace("@first", "") for name in failing}
    weights: dict[str, float] = {}
    for i, name in enumerate(names):
        base = name.replace("@first", "")
        if allowed is not None and base not in allowed:
            continue
        if z_total[i] <= 0:
            continue
        w = float(np.log1p(min(z_total[i], 2 * _INVARIANT_Z)))
        if w > weights.get(base, 0.0):
            weights[base] = w
    return weights


def slice_failing_runs(
    ensemble,
    runs: Sequence,
    *,
    graph: Optional[MetaGraph] = None,
    source=None,
    coverage=None,
    ect_result=None,
    top_k: int = 8,
    decay: float = 0.5,
    max_module_fraction: float = 0.45,
) -> RankedSlice:
    """The hybrid backward slice for a set of ECT-failing runs.

    Parameters
    ----------
    ensemble:
        The accepted :class:`~repro.ensemble.Ensemble` (defines the
        distribution and the variable layout).
    runs:
        The experimental :class:`~repro.runtime.RunResult` values the
        consistency test failed.
    graph:
        The control model's :class:`MetaGraph`; built from ``source``
        when omitted.
    source:
        The control :class:`ModelSource`; built from ``ensemble.spec.model``
        when omitted.  Supplies the ``outfld`` seed map and the
        module-to-file map.
    coverage:
        Executed-line evidence (:class:`CoverageTrace`) of the failing
        configuration; falls back to the merged coverage of ``runs``,
        then to the ensemble's.
    ect_result:
        Optional :class:`~repro.ect.EctResult`; when given, only its
        ``failing_variables`` carry weight.
    top_k:
        Number of most-affected output variables the ranking scores.
    decay:
        Per-BFS-level attenuation of a variable's evidence (0 < decay <= 1).
    max_module_fraction:
        Hard cap on the slice size as a fraction of all graph modules
        (default 0.45 — the acceptance bar is "below half the modules").
    """
    if not runs:
        raise ValueError("slice_failing_runs needs at least one failing run")
    if not 0.0 < decay <= 1.0:
        raise ValueError(f"decay must be in (0, 1], got {decay}")
    if not 0.0 < max_module_fraction <= 1.0:
        raise ValueError(
            f"max_module_fraction must be in (0, 1], got {max_module_fraction}"
        )
    with get_tracer().span("slicing.slice") as span:
        if source is None:
            from ..model.builder import build_model_source

            source = build_model_source(ensemble.spec.model)
        if graph is None:
            from ..graphs import build_metagraph

            graph = build_metagraph(source)
        if coverage is None:
            merged = None
            for run in runs:
                if run.coverage:
                    merged = (
                        run.coverage
                        if merged is None
                        else merged.merged(run.coverage)
                    )
            coverage = merged if merged is not None else (
                ensemble.coverage if ensemble.coverage else None
            )
        kept = _executed_nodes(graph, coverage, module_file_map(source))
        depths = {
            name: _reverse_bfs(graph, seeds, kept).module_depths()
            for name, seeds in output_field_seeds(source, graph).items()
            if seeds
        }

        failing = (
            list(ect_result.failing_variables)
            if ect_result is not None
            else None
        )
        weights = variable_weights(ensemble, runs, failing)
        top = sorted(weights.items(), key=lambda kv: (-kv[1], kv[0]))[:top_k]
        scores = module_scores(depths, dict(top), decay)
        ranking = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
        total = len(graph.modules())
        cap = max(1, math.floor(max_module_fraction * total))
        if cap >= total:
            cap = total - 1 if total > 1 else 1  # "slice" must exclude something
        modules = [module for module, _ in ranking[:cap]]
        span.annotate(fields=len(depths), modules=len(modules))
    return RankedSlice(
        modules=modules,
        ranking=ranking,
        variable_weights=weights,
        depths=depths,
        total_modules=total,
    )
