"""repro.refine — Algorithm 5.4 iterative slice refinement (paper §5.4).

The last reduction stage of the root-cause pipeline: take the ranked
backward slice (below half the modules, but plateaued), partition the
module quotient graph into communities, and iteratively *test* candidate
scope subsets against scoped consistency tests on the first rows of the
accepted ensemble — pruning every scope whose exclusion leaves the failure
signal intact, keeping the ones the signal collapses without.

>>> from repro.ensemble import generate_ensemble
>>> from repro.ect import UltraFastECT
>>> from repro.model import ModelConfig, build_model_source
>>> from repro.runtime import RunConfig, run_model
>>> from repro.analysis import girvan_newman_communities, quotient_graph
>>> from repro.graphs import build_metagraph
>>> from repro.slicing import slice_failing_runs
>>> from repro.refine import refine_slice
>>> ens = generate_ensemble(n=30)
>>> bad = ModelConfig(patches=("wsubbug",))
>>> runs = [run_model(ens.spec.experimental_config(i, model=bad))
...         for i in range(3)]
>>> verdict = UltraFastECT(ens).test(runs)       # inconsistent
>>> graph = build_metagraph(build_model_source(ModelConfig()))
>>> sl = slice_failing_runs(ens, runs, graph=graph, ect_result=verdict)
>>> comms = girvan_newman_communities(quotient_graph(graph))
>>> result = refine_slice(sl, ens, runs, communities=comms)
>>> "microp_aero" in result and len(result) <= 10
True

:class:`IterativeRefinement` is the fitted object (communities,
refinement ensemble) for refining many slices;
:func:`refine_slice` the one-shot wrapper; :class:`RefinementConfig` the
knobs; :class:`RefinementResult` the refined module set plus the full
iteration trajectory.  Names are exported lazily: the knobs
(:mod:`repro.refine.config`) import without numpy or the refiner.
"""

from __future__ import annotations

from .._lazy import lazy_exports

_EXPORTS, __getattr__, __dir__ = lazy_exports(__name__, {
    ".algorithm": (
        "IterativeRefinement", "RefinementResult", "RefinementStep",
        "refine_slice",
    ),
    ".config": ("RefinementConfig",),
})

__all__ = sorted(_EXPORTS)
