"""repro — reproduction of Milroy et al., "Making Root Cause Analysis Feasible
for Large Code Bases: A Solution Approach for a Climate Model" (HPDC 2019).

The package implements the paper's full pipeline on a synthetic CESM-like
climate model:

* :mod:`repro.fortran` — Fortran-subset front end (preprocessor, lexer, parser).
* :mod:`repro.model` — the synthetic CAM-like model source and bug patches.
* :mod:`repro.runtime` — numerical interpreter, FPU/FMA model, PRNGs, coverage.
* :mod:`repro.kgen` — kernel extraction and normalized-RMS comparison.
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

from importlib import import_module
from typing import Any

__version__ = "1.0.0"

#: name -> (module, attribute) lazy export table
_LAZY_EXPORTS: dict[str, tuple[str, str]] = {
    # front end
    "parse_source": ("repro.fortran", "parse_source"),
    # model
    "build_model_source": ("repro.model", "build_model_source"),
    "ModelConfig": ("repro.model", "ModelConfig"),
    "list_patches": ("repro.model", "list_patches"),
    "get_patch": ("repro.model", "get_patch"),
    "PatchError": ("repro.model", "PatchError"),
    # runtime
    "run_model": ("repro.runtime", "run_model"),
    "run_model_batch": ("repro.runtime", "run_model_batch"),
    "RunConfig": ("repro.runtime", "RunConfig"),
    "RunResult": ("repro.runtime", "RunResult"),
    "FPConfig": ("repro.runtime", "FPConfig"),
    "CoverageTrace": ("repro.runtime", "CoverageTrace"),
    "Interpreter": ("repro.runtime", "Interpreter"),
    "MemberBatch": ("repro.runtime", "MemberBatch"),
    "VecInterpreter": ("repro.runtime", "VecInterpreter"),
    "VectorizationError": ("repro.runtime", "VectorizationError"),
    # kernel extraction
    "Kernel": ("repro.kgen", "Kernel"),
    "KernelError": ("repro.kgen", "KernelError"),
    "KernelReport": ("repro.kgen", "KernelReport"),
    "extract_default_kernels": ("repro.kgen", "extract_default_kernels"),
    "extract_kernel": ("repro.kgen", "extract_kernel"),
    "verify_kernel": ("repro.kgen", "verify_kernel"),
    # graph
    "MetaGraph": ("repro.graphs", "MetaGraph"),
    "build_metagraph": ("repro.graphs", "build_metagraph"),
    # ensemble / ECT / selection
    "Ensemble": ("repro.ensemble", "Ensemble"),
    "EnsembleSpec": ("repro.ensemble", "EnsembleSpec"),
    "generate_ensemble": ("repro.ensemble", "generate_ensemble"),
    "EctConfig": ("repro.ect", "EctConfig"),
    "EctResult": ("repro.ect", "EctResult"),
    "UltraFastECT": ("repro.ect", "UltraFastECT"),
    "ect_test": ("repro.ect", "ect_test"),
    "select_affected_variables": ("repro.selection", "select_affected_variables"),
    "select_culprits": ("repro.selection", "select_culprits"),
    "EvidenceSelection": ("repro.selection", "EvidenceSelection"),
    "SelectionSpec": ("repro.selection", "SelectionSpec"),
    "SelectionResult": ("repro.selection", "SelectionResult"),
    "SetCoverProblem": ("repro.selection", "SetCoverProblem"),
    "SelectionError": ("repro.selection", "SelectionError"),
    "InfeasibleSelectionError": ("repro.selection", "InfeasibleSelectionError"),
    # consolidated error hierarchy
    "ReproError": ("repro.errors", "ReproError"),
    # slicing / analysis / refinement
    "backward_slice": ("repro.slicing", "backward_slice"),
    "slice_failing_runs": ("repro.slicing", "slice_failing_runs"),
    "variable_weights": ("repro.slicing", "variable_weights"),
    "RankedSlice": ("repro.slicing", "RankedSlice"),
    "QuotientGraph": ("repro.analysis", "QuotientGraph"),
    "quotient_graph": ("repro.analysis", "quotient_graph"),
    "CommunityResult": ("repro.analysis", "CommunityResult"),
    "girvan_newman_communities": ("repro.analysis", "girvan_newman_communities"),
    "modularity": ("repro.analysis", "modularity"),
    "degree_centrality": ("repro.analysis", "degree_centrality"),
    "betweenness_centrality": ("repro.analysis", "betweenness_centrality"),
    "closeness_centrality": ("repro.analysis", "closeness_centrality"),
    "eigenvector_in_centrality": ("repro.analysis", "eigenvector_in_centrality"),
    "degree_stats": ("repro.analysis", "degree_stats"),
    "IterativeRefinement": ("repro.refine", "IterativeRefinement"),
    "RefinementConfig": ("repro.refine", "RefinementConfig"),
    "RefinementResult": ("repro.refine", "RefinementResult"),
    "refine_slice": ("repro.refine", "refine_slice"),
    # observability
    "Span": ("repro.obs", "Span"),
    "Tracer": ("repro.obs", "Tracer"),
    "MetricsRegistry": ("repro.obs", "MetricsRegistry"),
    "enable_tracing": ("repro.obs", "enable_tracing"),
    "disable_tracing": ("repro.obs", "disable_tracing"),
    "get_tracer": ("repro.obs", "get_tracer"),
    "get_metrics": ("repro.obs", "get_metrics"),
    "round_wall": ("repro.obs", "round_wall"),
    "runtime_info": ("repro.obs", "runtime_info"),
    # experiments / pipeline / reporting
    "ExperimentSpec": ("repro.experiments", "ExperimentSpec"),
    "get_experiment": ("repro.experiments", "get_experiment"),
    "list_experiments": ("repro.experiments", "list_experiments"),
    "run_experiment": ("repro.experiments", "run_experiment"),
    "run_sweep": ("repro.experiments", "run_sweep"),
    "Pipeline": ("repro.pipeline", "Pipeline"),
    "RootCauseAnalysis": ("repro.pipeline", "RootCauseAnalysis"),
    "Stage": ("repro.pipeline", "Stage"),
    "accepted_ensemble": ("repro.pipeline", "accepted_ensemble"),
    "root_cause_pipeline": ("repro.pipeline", "root_cause_pipeline"),
    "LocalizationReport": ("repro.reporting", "LocalizationReport"),
    "build_report": ("repro.reporting", "build_report"),
    "centrality_table": ("repro.reporting", "centrality_table"),
    "degree_table": ("repro.reporting", "degree_table"),
}

__all__ = ["__version__", *sorted(_LAZY_EXPORTS)]


def __getattr__(name: str) -> Any:
    try:
        module_name, attr = _LAZY_EXPORTS[name]
    except KeyError as exc:  # pragma: no cover - defensive
        raise AttributeError(f"module 'repro' has no attribute {name!r}") from exc
    return getattr(import_module(module_name), attr)


def __dir__() -> list[str]:  # pragma: no cover - trivial
    return sorted(__all__)
