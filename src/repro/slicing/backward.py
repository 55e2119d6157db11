"""Hybrid backward slicing: metagraph BFS intersected with coverage.

This is the paper's §4.3 search-space reduction, live: starting from the
output variables a consistency test flags, walk the variable-dependency
metagraph *backward* (``MetaGraph.reachable_from(..., reverse=True)``) to
everything that could have fed them, intersect with the executed-line
coverage of the failing configuration (statically reachable but never
executed code cannot be the cause), and rank the surviving modules.

Two layers:

:func:`backward_slice`
    The pure graph operation: reverse-BFS closure of a seed set with
    per-node depths, optionally coverage-filtered.  Deterministic, cheap,
    and independent of any model run.

:func:`slice_failing_runs`
    The pipeline operation: given the accepted :class:`Ensemble` and the
    ECT-failing experimental runs, weight output variables by how far
    outside the accepted distribution they fall (invariant violations
    dominate), slice backward from the most-affected variables' seed
    nodes, and score each module by proximity — ``score(m) = Σ_v w(v) ·
    decay^depth_v(m)``.  Chaotic error growth makes *every* variable fail
    after a step or two, so set intersection alone cannot localize; the
    magnitude-times-distance ranking is what turns a 80%-of-the-code
    reachable set into a slice below half the modules that still contains
    the injected bug (the integration suite holds it to that for all five
    registered patches).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from ..graphs.metagraph import MetaGraph, NodeKey
from .seeds import module_file_map, output_field_seeds

__all__ = [
    "BackwardSlice",
    "RankedSlice",
    "backward_slice",
    "slice_failing_runs",
    "variable_weights",
]

#: z-score assigned to a violated bit-invariant channel (sd == 0 but the
#: experimental value moved): far above any finite spread, below overflow
_INVARIANT_Z = 1.0e6


def _executed_lines_by_file(coverage) -> dict[str, frozenset[int]]:
    """Normalize a CoverageTrace or CoverageReport to {file: executed lines}."""
    if coverage is None:
        return {}
    if hasattr(coverage, "filenames"):  # CoverageReport
        names = coverage.filenames()
    else:  # CoverageTrace
        names = coverage.files()
    return {
        name: frozenset(coverage.executed_lines(name)) for name in names
    }


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

    def scopes(self) -> frozenset[tuple[str, str]]:
        """``(module, scope)`` pairs represented in the slice."""
        return frozenset((key[0], key[1]) for key in self.depths)

    def __len__(self) -> int:
        return len(self.depths)

    def __contains__(self, key: NodeKey) -> bool:
        return key in self.depths


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
        Optional :class:`~repro.runtime.CoverageTrace` or
        :class:`~repro.coverage.CoverageReport`.  When given (together
        with ``module_files``), a reached node is kept only if its
        module's file was executed *and* — when the node carries source
        lines — at least one of its lines executed.  Rejected nodes are
        recorded on ``unexecuted`` and the BFS does **not** continue
        through them: data cannot have flowed through code that never ran.
    module_files:
        ``{fortran module: filename}`` (see
        :func:`repro.slicing.module_file_map`), required to interpret
        ``coverage``.
    """
    if isinstance(seeds, str):
        seed_keys = frozenset(graph.find(seeds))
    else:
        seed_keys = frozenset(seeds)
    executed = _executed_lines_by_file(coverage)
    filtering = coverage is not None and module_files is not None

    def keep(key: NodeKey) -> bool:
        if not filtering:
            return True
        filename = module_files.get(key[0])
        if filename is None or filename not in executed:
            return False
        node = graph.nodes.get(key)
        if node is None or not node.lines:
            return True
        return bool(node.lines & executed[filename])

    depths: dict[NodeKey, int] = {}
    rejected: set[NodeKey] = set()
    queue: deque[tuple[NodeKey, int]] = deque(
        (key, 0) for key in seed_keys if key in graph.nodes
    )
    while queue:
        key, depth = queue.popleft()
        if key in depths or key in rejected:
            continue
        if not keep(key):
            rejected.add(key)
            continue
        depths[key] = depth
        for pred in graph.predecessors(key):
            if pred not in depths and pred not in rejected:
                queue.append((pred, depth + 1))
    return BackwardSlice(
        seeds=seed_keys, depths=depths, unexecuted=frozenset(rejected)
    )


@dataclass
class RankedSlice:
    """A ranked module/scope slice: the root-cause search space.

    ``modules`` is the slice proper — the highest-scoring modules, capped
    below ``max_module_fraction`` of the graph's modules.  ``ranking``
    keeps every scored module for inspection, ``variable_weights`` the
    evidence each output variable contributed, and ``slices`` the
    per-variable :class:`BackwardSlice` objects (with node depths) so a
    report can descend from modules to scopes to source lines.
    """

    modules: list[str]
    ranking: list[tuple[str, float]]
    variable_weights: dict[str, float]
    slices: dict[str, BackwardSlice]
    total_modules: int

    def __contains__(self, module: str) -> bool:
        return module in self.modules

    def __len__(self) -> int:
        return len(self.modules)

    @property
    def fraction(self) -> float:
        """Slice size as a fraction of all graph modules."""
        return len(self.modules) / self.total_modules if self.total_modules else 0.0

    def scopes(self) -> list[tuple[str, str]]:
        """Sorted (module, scope) pairs of sliced nodes in slice modules."""
        keep = set(self.modules)
        out: set[tuple[str, str]] = set()
        for sl in self.slices.values():
            out.update(
                (m, s) for (m, s) in sl.scopes() if m in keep
            )
        return sorted(out)

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
    experimental value moved) counts as a fixed huge z so it dominates
    any finite spread.  ``failing``, when given, restricts the result to
    those field names (``@first`` suffixes are normalized away).
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
        z = np.where((sd == 0) & (dev > 0), _INVARIANT_Z, z)
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
    evidence=None,
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
        Executed-line evidence (:class:`CoverageTrace` or
        :class:`CoverageReport`) of the failing configuration; falls back
        to the merged coverage of ``runs``, then to the ensemble's.
    ect_result:
        Optional :class:`~repro.ect.EctResult`; when given, only its
        ``failing_variables`` are candidate seeds.
    top_k:
        Number of most-affected output variables to slice from.
    decay:
        Per-BFS-level attenuation of a variable's evidence (0 < decay <= 1).
    max_module_fraction:
        Hard cap on the slice size as a fraction of all graph modules
        (default 0.45 — the acceptance bar is "below half the modules").
    evidence:
        Explicit affected-variable override: an
        :class:`~repro.selection.EvidenceSelection` (anything with an
        ordered ``variables`` attribute works).  When given, the internal
        top-k most-deviant-variable heuristic (and the ``ect_result``
        seed filter) is bypassed and exactly these output fields are
        sliced from, each weighted by its own deviation evidence
        (``@first`` suffixes are normalized; fields with no deviation or
        no seed nodes contribute nothing).  This is the injection point
        for :mod:`repro.refine` and the :mod:`repro.selection` stage.
    """
    requested_names = None if evidence is None else list(evidence.variables)
    if not runs:
        raise ValueError("slice_failing_runs needs at least one failing run")
    if not 0.0 < decay <= 1.0:
        raise ValueError(f"decay must be in (0, 1], got {decay}")
    if not 0.0 < max_module_fraction <= 1.0:
        raise ValueError(
            f"max_module_fraction must be in (0, 1], got {max_module_fraction}"
        )
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
                    run.coverage if merged is None else merged.merged(run.coverage)
                )
        coverage = merged if merged is not None else (
            ensemble.coverage if ensemble.coverage else None
        )
    module_files = module_file_map(source)
    seed_map = output_field_seeds(source, graph)

    if requested_names is not None:
        weights = variable_weights(ensemble, runs, None)
        requested: list[str] = []
        for name in requested_names:
            base = name.replace("@first", "")
            if base not in requested:
                requested.append(base)
        top = [
            (name, weights[name]) for name in requested if weights.get(name)
        ]
    else:
        failing = (
            list(ect_result.failing_variables)
            if ect_result is not None
            else None
        )
        weights = variable_weights(ensemble, runs, failing)
        top = sorted(weights.items(), key=lambda kv: (-kv[1], kv[0]))[:top_k]

    scores: dict[str, float] = {}
    slices: dict[str, BackwardSlice] = {}
    for name, weight in top:
        seeds = seed_map.get(name)
        if not seeds:
            continue
        sl = backward_slice(
            graph, seeds, coverage=coverage, module_files=module_files
        )
        slices[name] = sl
        for module, depth in sl.module_depths().items():
            scores[module] = scores.get(module, 0.0) + weight * (decay ** depth)

    ranking = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    total = len(graph.modules())
    cap = max(1, math.floor(max_module_fraction * total))
    if cap >= total:
        cap = total - 1 if total > 1 else 1  # "slice" must exclude something
    modules = [module for module, _ in ranking[:cap]]
    return RankedSlice(
        modules=modules,
        ranking=ranking,
        variable_weights=dict(top),
        slices=slices,
        total_modules=total,
    )
