"""repro — reproduction of Milroy et al., "Making Root Cause Analysis Feasible
for Large Code Bases: A Solution Approach for a Climate Model" (HPDC 2019).

The package implements the paper's full pipeline on a synthetic CESM-like
climate model:

* :mod:`repro.fortran` — Fortran-subset front end (preprocessor, lexer, parser).
* :mod:`repro.model` — the synthetic CAM-like model source and bug patches.
* :mod:`repro.runtime` — numerical interpreter, FPU/FMA model, PRNGs, coverage.
* :mod:`repro.ensemble` — accepted-ensemble and experimental-run generation.
* :mod:`repro.ect` — UF-CAM-ECT style PCA consistency testing.
* :mod:`repro.selection` — optimization-based culprit selection: robust
  (median/lasso) affected-variable evidence + anchored weighted set cover.
* :mod:`repro.errors` — the consolidated :class:`ReproError` hierarchy.
* :mod:`repro.graphs` — source-to-digraph metagraph construction.
* :mod:`repro.slicing` — hybrid backward slicing (coverage + BFS paths).
* :mod:`repro.analysis` — Girvan-Newman communities, centralities, degree stats.
* :mod:`repro.refine` — Algorithm 5.4 iterative refinement with sampling.
* :mod:`repro.experiments` — the paper's six experiments.
* :mod:`repro.pipeline` — end-to-end root cause analysis orchestration.
* :mod:`repro.reporting` — Table 1/2 and figure-series generation.
* :mod:`repro.obs` — tracing, metrics, and profiling across all layers.

The public, stable API is re-exported lazily here; importing ``repro`` is
cheap and does not build the model.
"""

from __future__ import annotations

from ._lazy import lazy_exports

__version__ = "1.0.0"

#: name -> (module, attribute) lazy export table
_LAZY_EXPORTS, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.fortran": ("parse_source",),
    "repro.model": (
        "build_model_source", "ModelConfig", "list_patches", "get_patch",
        "PatchError",
    ),
    "repro.runtime": (
        "run_model", "run_model_batch", "RunConfig", "RunResult", "FPConfig",
        "CoverageTrace", "Interpreter", "MemberBatch", "VecInterpreter",
        "VectorizationError",
    ),
    "repro.graphs": ("MetaGraph", "build_metagraph"),
    "repro.ensemble": ("Ensemble", "EnsembleSpec", "generate_ensemble"),
    "repro.ect": ("EctConfig", "EctResult", "UltraFastECT", "ect_test"),
    "repro.selection": (
        "select_affected_variables", "select_culprits", "EvidenceSelection",
        "SelectionSpec", "SelectionResult", "SetCoverProblem",
        "SelectionError", "InfeasibleSelectionError",
    ),
    # consolidated error hierarchy
    "repro.errors": ("ReproError",),
    "repro.slicing": (
        "backward_slice", "slice_failing_runs", "variable_weights",
        "RankedSlice",
    ),
    "repro.analysis": (
        "QuotientGraph", "quotient_graph", "CommunityResult",
        "girvan_newman_communities", "modularity", "degree_centrality",
        "betweenness_centrality", "closeness_centrality",
        "eigenvector_in_centrality", "degree_stats",
    ),
    "repro.refine": (
        "IterativeRefinement", "RefinementConfig", "RefinementResult",
        "refine_slice",
    ),
    # observability
    "repro.obs": (
        "Span", "Tracer", "MetricsRegistry", "enable_tracing",
        "disable_tracing", "get_tracer", "get_metrics", "round_wall",
        "runtime_info",
    ),
    "repro.experiments": (
        "ExperimentSpec", "get_experiment", "list_experiments",
        "run_experiment", "run_sweep",
    ),
    "repro.pipeline": (
        "Pipeline", "RootCauseAnalysis", "Stage", "accepted_ensemble",
        "root_cause_pipeline",
    ),
    "repro.reporting": (
        "LocalizationReport", "build_report", "centrality_table",
        "degree_table",
    ),
})

__all__ = ["__version__", *sorted(_LAZY_EXPORTS)]
