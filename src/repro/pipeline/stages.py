"""Stage adapters: the existing root-cause stack behind the DAG engine.

Every stage of the paper's workflow — build patched model → perturbed
ensemble → UF-ECT verdict → coverage-filtered slice → module communities →
set-cover selection → community-guided refinement → culprit report —
gains a thin :class:`~repro.pipeline.core.Stage` adapter here, so
:func:`repro.ensemble.generate_ensemble`, :func:`repro.ect.ect_test`,
:func:`repro.slicing.slice_failing_runs`,
:func:`repro.analysis.girvan_newman_communities`,
:func:`repro.selection.select_culprits` and
:func:`repro.refine.refine_slice` stop being hand-wired calls and become
cacheable, resumable, schedulable DAG nodes.

One store caches every stage: each stage's product (accepted ensemble,
experimental runs, ECT verdict, ranked slice, refinement trajectory,
report) is one payload in ``<store>/stages`` under the stage's
content-hashed key.  Each model pass is one entry: a stage the store
holds runs no model member, and one the store lacks runs its members as
one member-batched pass.

The experimental runs collect coverage, and their merged trace is the
executed-line evidence of the slice: no stage runs the model just to
collect coverage.  ``ranked_slice`` is the only stage that slices; it
stores one per-field module-depth table that ``selection`` and
``refined`` score from.

The pipeline pulls: a warm run decodes only the ``report`` entry, and
every other stage is decoded on first access to its value (see
:mod:`repro.pipeline.core`).  The source stages only build their trees;
the metagraph, the model runs and the slicer parse on first use.  Each
stage imports its implementation when it runs, and its codec resolves the
value type on first use, so compiling a pipeline imports only the config
dataclasses, and a warm run loads neither numpy nor the runtime.

Every cacheable stage value is stored by the one stage codec
(:func:`~repro.pipeline.store.encode_dataclass`), so a hit decodes to
exactly the value the stage computed.  The one difference: a decoded
run's ``outputs`` iterate in name order, and every consumer looks them
up by name.
"""

from __future__ import annotations

import dataclasses
import functools
from importlib import import_module
from typing import TYPE_CHECKING, Optional

from ..ect.config import EctConfig
from ..ensemble.backends import DEFAULT_BACKEND, check_backend
from ..ensemble.spec import EnsembleSpec
from ..model.builder import ModelConfig, ModelSource, build_model_source
from ..refine.config import RefinementConfig
from ..selection.spec import SelectionSpec
from .core import Pipeline, PipelineResult, Stage, StageContext
from .store import decode_dataclass, encode_dataclass

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..analysis import CommunityResult
    from ..ensemble import Ensemble
    from ..experiments import ExperimentSpec
    from ..refine import RefinementResult
    from ..reporting import LocalizationReport
    from ..runtime import RunResult
    from ..selection import SelectionResult
    from ..slicing import RankedSlice

__all__ = [
    "RootCauseAnalysis",
    "accepted_ensemble",
    "make_communities_stage",
    "make_ect_stage",
    "make_ensemble_stage",
    "make_selection_stage",
    "make_source_stage",
    "root_cause_pipeline",
]


def _codec(package: str, name: str, *, many: bool = False) -> dict:
    """The ``encode``/``decode`` slots of a stage whose value is a
    ``package.name`` (a list of them when ``many``).  The type resolves on
    the first encode or decode, so compiling a pipeline imports no stage
    implementation."""

    @functools.cache
    def cls():
        value_type = getattr(import_module(package, __package__), name)
        return list[value_type] if many else value_type

    return {
        "encode": lambda value: encode_dataclass(value, cls()),
        "decode": lambda payload: decode_dataclass(payload, cls()),
    }


# ------------------------------------------------------------ source stages
def make_source_stage(
    name: str, model: ModelConfig, parse_cache: Optional[dict] = None
) -> Stage:
    """Build one :class:`ModelSource` (cheap, never cached on disk).

    The stage fingerprints with the built tree's content digest, so any
    model-source or patch change transitively invalidates every
    downstream stage key.  It only builds the tree: every run evaluates
    it to compute the keys, and the first consumer that needs ASTs
    parses, through ``parse_cache`` when one is given (it never enters
    the key).
    """

    def build(ctx) -> ModelSource:
        source = build_model_source(model)
        source.parse_cache = parse_cache
        return source

    return Stage(
        name=name,
        func=build,
        params={"model": model},
        cacheable=False,
        fingerprint=lambda source: source.content_digest(),
    )


def make_metagraph_stage(source_input: str = "control_source") -> Stage:
    """Build the variable-dependency metagraph of the control tree."""

    def func(ctx: StageContext, **inputs):
        source = inputs[source_input]
        # parse first, so the front end loads under `model.parse` and the
        # stage's time falls in its two spans, the parse and `graphs.build`
        source.parse()
        from ..graphs import build_metagraph

        return build_metagraph(source)

    return Stage(
        name="metagraph",
        func=func,
        inputs=(source_input,),
        cacheable=False,
    )


# ---------------------------------------------------------- ensemble stage
def make_ensemble_stage(
    spec: EnsembleSpec,
    *,
    name: str = "control_ensemble",
    source_input: str = "control_source",
    backend: str = DEFAULT_BACKEND,
) -> Stage:
    """The accepted-ensemble stage, run on ``backend``.

    The backend is a *where* knob, not a *what* knob — ``vectorized`` and
    ``serial`` are bit-identical — so it stays out of the cache key; an
    unknown name raises :class:`~repro.ensemble.UnknownBackendError` here,
    before any stage runs.  The whole :class:`Ensemble` is one entry, so
    a hit runs no member.
    """
    check_backend(backend)

    def func(ctx: StageContext, **inputs) -> Ensemble:
        from ..ensemble.generate import generate_ensemble

        ensemble = generate_ensemble(
            spec, source=inputs[source_input], backend=backend
        )
        ctx.count_members(ensemble.n_members)
        ctx.annotate(backend=backend, n_members=ensemble.n_members)
        return ensemble

    return Stage(
        name=name,
        func=func,
        inputs=(source_input,),
        params={"spec": spec},
        **_codec("..ensemble", "Ensemble"),
    )


# ------------------------------------------------------ experimental stages
def make_experimental_runs_stage(
    spec: EnsembleSpec,
    model: ModelConfig,
    fp,
    n_runs: int,
    *,
    source_input: str,
    backend: str = DEFAULT_BACKEND,
) -> Stage:
    """K held-out experimental runs of the (possibly patched) build.

    The runs always collect coverage: their merged trace is the executed-
    line evidence of the slice.  They run together on ``backend`` (one
    member-batched pass by default), which stays out of the key as for
    ``control_ensemble``.
    """
    check_backend(backend)

    def func(ctx: StageContext, **inputs) -> list[RunResult]:
        from ..ensemble.backends import run_members

        jobs = [
            (i, dataclasses.replace(
                spec.experimental_config(i, model=model, fp=fp),
                collect_coverage=True,
            ))
            for i in range(n_runs)
        ]
        runs = dict(run_members(inputs[source_input], jobs, backend))
        ctx.count_members(len(jobs))
        return [runs[i] for i, _ in jobs]

    return Stage(
        name="experimental_runs",
        func=func,
        inputs=(source_input,),
        params={"spec": spec, "model": model, "fp": fp, "n_runs": n_runs},
        **_codec("..runtime", "RunResult", many=True),
    )


# ---------------------------------------------------------------- ECT stage
def make_ect_stage(ect: Optional[EctConfig] = None) -> Stage:
    """The UF-ECT verdict of the experimental runs against the ensemble."""
    ect_config = ect or EctConfig()

    def func(ctx: StageContext, control_ensemble, experimental_runs):
        from ..ect.core import UltraFastECT

        result = UltraFastECT(control_ensemble, ect_config).test(
            experimental_runs
        )
        ctx.annotate(
            consistent=result.consistent,
            failing_pcs=len(result.failing_pcs),
            invariant_violations=len(result.invariant_violations),
        )
        return result

    return Stage(
        name="ect",
        func=func,
        inputs=("control_ensemble", "experimental_runs"),
        params={"ect": ect_config},
        **_codec("..ect", "EctResult"),
    )


# -------------------------------------------------------------- slice stage
def make_slice_stage(
    *,
    top_k: int = 8,
    decay: float = 0.5,
    max_module_fraction: float = 0.45,
) -> Stage:
    """The coverage-filtered ranked backward slice of the failing runs.

    The pipeline's one slice: its value carries the module-depth table of
    every output field, which ``selection`` and ``refined`` score from.
    """

    def func(
        ctx: StageContext,
        control_ensemble,
        experimental_runs,
        ect,
        metagraph,
        control_source,
    ) -> RankedSlice:
        from ..slicing import slice_failing_runs

        ranked = slice_failing_runs(
            control_ensemble,
            experimental_runs,
            graph=metagraph,
            source=control_source,
            ect_result=ect,
            top_k=top_k,
            decay=decay,
            max_module_fraction=max_module_fraction,
        )
        ctx.annotate(slice_modules=len(ranked.modules))
        return ranked

    return Stage(
        name="ranked_slice",
        func=func,
        inputs=(
            "control_ensemble",
            "experimental_runs",
            "ect",
            "metagraph",
            "control_source",
        ),
        params={
            "top_k": top_k,
            "decay": decay,
            "max_module_fraction": max_module_fraction,
        },
        **_codec("..slicing", "RankedSlice"),
    )


# -------------------------------------------------------- communities stage
def make_communities_stage() -> Stage:
    """Girvan-Newman communities of the control module quotient graph.

    The pipeline's one community partition: ``selection`` groups its
    greedy warm start by it and ``refined`` samples exclusion candidates
    community by community.  It depends on the control metagraph alone,
    so every experiment on one control build shares this stage's key and
    a store computes the partition once.
    """

    def func(ctx: StageContext, metagraph) -> CommunityResult:
        from ..analysis import girvan_newman_communities, quotient_graph

        result = girvan_newman_communities(quotient_graph(metagraph))
        ctx.annotate(communities=len(result))
        return result

    return Stage(
        name="communities",
        func=func,
        inputs=("metagraph",),
        **_codec("..analysis", "CommunityResult"),
    )


# ---------------------------------------------------------- selection stage
def make_selection_stage(
    selection: Optional[SelectionSpec] = None,
) -> Stage:
    """Optimization-based culprit selection between slicing and refinement.

    Runs :func:`repro.selection.select_culprits`: robust evidence
    selection over the ranked slice's ECT-failing variable weights, then
    the anchored minimum-weight set cover over its candidate pool and
    depth table, warm-started from the ``communities`` stage's
    partition.  The refine stage consumes the result as its initial
    suspect set.
    """
    selection_spec = selection or SelectionSpec()

    def func(ctx: StageContext, ranked_slice, communities) -> SelectionResult:
        from ..selection.select import select_culprits

        result = select_culprits(
            ranked_slice, communities=communities, spec=selection_spec
        )
        ctx.annotate(
            selected_modules=len(result.modules),
            solver=result.solver,
            optimal=result.optimal,
            nodes_explored=result.nodes_explored,
        )
        return result

    return Stage(
        name="selection",
        func=func,
        inputs=("ranked_slice", "communities"),
        params={"selection": selection_spec},
        **_codec("..selection", "SelectionResult"),
    )


# ------------------------------------------------------------- refine stage
def make_refine_stage(refine: Optional[RefinementConfig] = None) -> Stage:
    """Algorithm 5.4 community-guided refinement of the ranked slice.

    The refiner fits on rows of the accepted ensemble already in memory,
    so this stage runs no model, and scores modules from the slice's
    depth table.
    """
    refine_config = refine or RefinementConfig()

    def func(
        ctx: StageContext,
        ranked_slice,
        selection,
        control_ensemble,
        experimental_runs,
        communities,
    ) -> RefinementResult:
        from ..refine.algorithm import refine_slice

        result = refine_slice(
            ranked_slice,
            control_ensemble,
            experimental_runs,
            communities=communities,
            config=refine_config,
            selection=selection,
        )
        ctx.annotate(
            refined_modules=len(result.modules),
            iterations=result.n_iterations,
        )
        return result

    return Stage(
        name="refined",
        func=func,
        inputs=(
            "ranked_slice",
            "selection",
            "control_ensemble",
            "experimental_runs",
            "communities",
        ),
        params={"refine": refine_config},
        **_codec("..refine", "RefinementResult"),
    )


# ------------------------------------------------------------- report stage
def make_report_stage(
    experiment_name: str,
    patch: Optional[str],
    fma: bool,
    target_modules: int,
) -> Stage:
    """The culprit report: verdict + localization, rendered by repro.reporting."""

    def func(
        ctx: StageContext, ect, ranked_slice, selection, refined, control_source
    ) -> LocalizationReport:
        from ..reporting.report import build_report

        report = build_report(
            experiment=experiment_name,
            patch=patch,
            fma=fma,
            source=control_source,
            verdict=ect,
            ranked=ranked_slice,
            refined=refined,
            target_modules=target_modules,
            selection=selection,
        )
        ctx.annotate(
            localized=report.localized,
            refined_modules=len(report.refined_modules),
        )
        return report

    return Stage(
        name="report",
        func=func,
        inputs=("ect", "ranked_slice", "selection", "refined", "control_source"),
        params={
            "experiment": experiment_name,
            "patch": patch,
            "fma": fma,
            "target_modules": target_modules,
        },
        **_codec("..reporting", "LocalizationReport"),
    )


# --------------------------------------------------------------- assemblies
def root_cause_pipeline(
    experiment: "ExperimentSpec",
    *,
    store_dir=None,
    backend: str = DEFAULT_BACKEND,
) -> Pipeline:
    """Compile one experiment into the full root-cause DAG.

    ``backend`` chooses *where* the accepted ensemble and the
    experimental runs run and never enters a cache key: both backends are
    bit-identical, so stage entries are shared across them.  An unknown
    backend, fewer than one experimental run, or a refinement ensemble
    larger than the accepted one raises ``ValueError`` here, before any
    stage runs.
    """
    spec = experiment.ensemble_spec()
    refine = experiment.refine or RefinementConfig()
    refine.check_fits(spec.n_members)
    if experiment.n_runs < 1:
        raise ValueError(
            f"an experiment needs at least one experimental run, got "
            f"n_runs={experiment.n_runs}"
        )
    exp_model = experiment.experimental_model()
    exp_fp = experiment.experimental_fp()
    # one parse cache per pipeline: the patched tree parses only the file
    # its patch changed and shares every other AST with the control tree
    parse_cache: dict = {}

    stages = [
        make_source_stage("control_source", spec.model, parse_cache),
        make_metagraph_stage(),
        make_ensemble_stage(spec, backend=backend),
    ]
    if exp_model == spec.model:
        source_input = "control_source"
    else:
        source_input = "patched_source"
        stages.append(
            make_source_stage("patched_source", exp_model, parse_cache)
        )
    stages += [
        make_experimental_runs_stage(
            spec,
            exp_model,
            exp_fp,
            experiment.n_runs,
            source_input=source_input,
            backend=backend,
        ),
        make_ect_stage(experiment.ect),
        make_slice_stage(),
        make_communities_stage(),
        make_selection_stage(getattr(experiment, "selection", None)),
        make_refine_stage(refine),
        make_report_stage(
            experiment.name,
            experiment.patch,
            getattr(experiment, "fma", False),
            experiment.target_modules,
        ),
    ]
    return Pipeline(stages, store_dir=store_dir)


def accepted_ensemble(
    spec: Optional[EnsembleSpec] = None,
    *,
    store_dir=None,
    backend: str = DEFAULT_BACKEND,
) -> Ensemble:
    """Generate (or resume from the store) one accepted ensemble.

    The single entry point callers outside the full root-cause DAG use —
    the test suite's session ensemble fixture and ad-hoc notebooks — so
    even standalone ensembles flow through the same build + ensemble
    stages and share the same store layout as full experiments.
    """
    spec = spec or EnsembleSpec()
    pipeline = Pipeline(
        [
            make_source_stage("control_source", spec.model),
            make_ensemble_stage(spec, backend=backend),
        ],
        store_dir=store_dir,
    )
    return pipeline.run()["control_ensemble"]


class RootCauseAnalysis:
    """End-to-end root cause analysis of one experiment, resumably.

    The facade the CLI (``python -m repro run <experiment>``) and the
    bench drive: resolve the experiment (by name through
    :func:`repro.experiments.get_experiment`, or an
    :class:`~repro.experiments.ExperimentSpec` directly), compile it to
    the stage DAG, and run it against one store.

    >>> from repro.pipeline import RootCauseAnalysis
    >>> result = RootCauseAnalysis("wsubbug", store_dir="store").run()
    >>> result["report"].localized
    True
    """

    def __init__(
        self,
        experiment: "ExperimentSpec | str",
        *,
        store_dir=None,
        backend: str = DEFAULT_BACKEND,
    ):
        if isinstance(experiment, str):
            from ..experiments import get_experiment

            experiment = get_experiment(experiment)
        self.experiment = experiment
        self.pipeline = root_cause_pipeline(
            experiment,
            store_dir=store_dir,
            backend=backend,
        )

    def run(self) -> PipelineResult:
        """Execute (or resume) the DAG; ``result["report"]`` is the verdict."""
        return self.pipeline.run()
