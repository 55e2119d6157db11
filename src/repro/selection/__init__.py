"""repro.selection — optimization-based culprit selection.

The bridge between slicing and refinement: instead of handing Algorithm
5.4 the whole ranked slice (top-k evidence, ~45% of the modules) to prune
iteratively, select the culprit candidates *up front* as the optimum of a
small, exactly-solved combinatorial program:

1. **Evidence** (:mod:`repro.selection.evidence`) — robust median/MAD (or
   LASSO-style soft-threshold) selection of the genuinely affected output
   variables, replacing the slicer's fixed top-k cut.
2. **Set cover** (:mod:`repro.selection.setcover`) — the minimum-weight
   module set covering all selected evidence, subject to
   slice-reachability constraints (a module covers a variable only within
   ``depth_cap`` BFS levels of its coverage-filtered backward slice;
   modules near the strongest evidence are anchored into every solution).
   Solved exactly by a deterministic pure-python branch-and-bound
   warm-started from a community-guided greedy cover.
3. **Stage** — ``root_cause_pipeline`` runs this as the ``selection``
   stage between slicing and refinement, so ``refine_slice`` starts from
   the set-cover optimum instead of the full slice: fewer candidate
   modules in, fewer exclusion iterations, tighter localizations out.

>>> from repro.selection import SelectionSpec, select_culprits
>>> from repro.slicing import slice_failing_runs
>>> ranked = slice_failing_runs(ensemble, failing_runs, ect_result=verdict)
>>> result = select_culprits(ranked, communities=communities,
...                          spec=SelectionSpec())
>>> result.modules  # minimum-weight cover, strongest evidence first

Names are exported lazily: the knobs (:mod:`repro.selection.spec`) import
without the evidence statistics or the solver.
"""

from __future__ import annotations

from .._lazy import lazy_exports

_EXPORTS, __getattr__, __dir__ = lazy_exports(__name__, {
    ".evidence": ("EvidenceSelection", "select_affected_variables"),
    ".select": ("SelectionResult", "select_culprits"),
    ".setcover": (
        "BranchAndBoundSolver", "InfeasibleSelectionError", "SelectionError",
        "SetCoverProblem", "SetCoverSolution", "greedy_cover",
    ),
    ".spec": ("EVIDENCE_METHODS", "SelectionSpec"),
})

__all__ = sorted(_EXPORTS)
