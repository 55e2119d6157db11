"""repro.experiments — the paper's six experiments as declarative specs.

Each :class:`ExperimentSpec` names one change under test — one of the
five single-file bug patches (``cldfrc-premib``, ``goffgratch``,
``mg-autoconv``, ``rand-mt``, ``wsubbug``) or whole-model FMA
contraction — plus every knob of the workflow that evaluates it
(ensemble size, perturbation magnitude, FP model, ECT and refinement
configs, the ≤ ``target_modules`` localization criterion).  Specs are
frozen data: :func:`repro.pipeline.root_cause_pipeline` compiles a spec
into the build → ensemble → ECT → slice → selection → refine → report
DAG, and
because stage cache keys are content hashes of the specs' knobs, every
experiment in a sweep sharing one store shares the one accepted-ensemble
stage (the control build is identical across them) — the expensive 30
member simulations run once for all six.

>>> from repro.experiments import get_experiment, run_experiment
>>> get_experiment("wsubbug").patch
'wsubbug'
>>> result = run_experiment("wsubbug", store_dir="store")
>>> result["report"].localized
True
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from ..ect.config import EctConfig
from ..ensemble.backends import DEFAULT_BACKEND
from ..ensemble.spec import EnsembleSpec
from ..errors import ReproError
from ..model.builder import ModelConfig
from ..refine.config import RefinementConfig
from ..runtime.config import FPConfig
from ..selection.spec import SelectionSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..pipeline import PipelineResult

__all__ = [
    "ExperimentSpec",
    "UnknownExperimentError",
    "get_experiment",
    "list_experiments",
    "run_experiment",
    "run_sweep",
]


class UnknownExperimentError(ReproError, KeyError):
    """Raised for an experiment name that is not registered.

    A ``KeyError`` (registry semantics) listing every known experiment,
    mirroring :class:`~repro.model.patches.UnknownPatchError`.
    """

    def __str__(self) -> str:  # avoid KeyError's repr-quoting of the message
        return self.args[0] if self.args else ""


@dataclass(frozen=True)
class ExperimentSpec:
    """One root-cause experiment, declaratively.

    ``patch`` selects a registered bug patch for the experimental build
    (None = the control build); ``fma`` turns on global FMA contraction
    in the experimental runs' FP model.  The remaining fields parameterize
    the pipeline stages; ``ect`` / ``refine`` / ``selection`` default to
    the library defaults when None.
    """

    name: str
    description: str = ""
    patch: Optional[str] = None
    fma: bool = False
    members: int = 30
    nsteps: int = 2
    n_runs: int = 3
    pertlim: float = 1.0e-14
    base_seed: int = 9100
    collect_coverage: bool = False
    ect: Optional[EctConfig] = None
    refine: Optional[RefinementConfig] = None
    #: optimization-based culprit selection knobs (None = defaults)
    selection: Optional[SelectionSpec] = None
    #: the paper's localization criterion: refined suspect set size cap
    target_modules: int = 10

    def ensemble_spec(self) -> EnsembleSpec:
        """The accepted (control) ensemble this experiment tests against.

        Always the unpatched default-FP build: the ensemble defines the
        accepted distribution, the change under test only enters the
        experimental runs.  Member coverage is off by default — slicing
        evidence comes from the experimental runs, which the pipeline
        always runs with coverage on, not from the members.
        """
        return EnsembleSpec(
            model=ModelConfig(),
            n_members=self.members,
            nsteps=self.nsteps,
            pertlim=self.pertlim,
            base_seed=self.base_seed,
            collect_coverage=self.collect_coverage,
        )

    def experimental_model(self) -> ModelConfig:
        """The build the experimental runs execute."""
        if self.patch is None:
            return ModelConfig()
        return ModelConfig(patches=(self.patch,))

    def experimental_fp(self) -> Optional[FPConfig]:
        """The experimental FP model override (None = the spec default)."""
        if self.fma:
            return FPConfig(fma=True)
        return None

    def with_(self, **changes) -> "ExperimentSpec":
        """A copy with the given fields replaced (sweep convenience)."""
        return dataclasses.replace(self, **changes)


def _bug(name: str, description: str) -> ExperimentSpec:
    return ExperimentSpec(name=name, description=description, patch=name)


#: the paper's six experiments: five single-file bug patches + global FMA
EXPERIMENTS: dict[str, ExperimentSpec] = {
    spec.name: spec
    for spec in (
        _bug(
            "cldfrc-premib",
            "cloud_fraction: perturbed minimum-RH bound in premib",
        ),
        _bug(
            "goffgratch",
            "wv_saturation: altered Goff-Gratch saturation pressure fit",
        ),
        _bug(
            "mg-autoconv",
            "micro_mg: perturbed autoconversion rate exponent",
        ),
        _bug(
            "rand-mt",
            "shr_random: degraded Mersenne-Twister tempering",
        ),
        _bug(
            "wsubbug",
            "microp_aero: wrong sub-grid vertical-velocity clamp",
        ),
        ExperimentSpec(
            name="fma",
            description=(
                "whole-model fused-multiply-add contraction (no single "
                "culprit module; detection via @first bit-invariants)"
            ),
            fma=True,
        ),
    )
}


def list_experiments() -> list[str]:
    """Registered experiment names, sorted."""
    return sorted(EXPERIMENTS)


def get_experiment(name: str) -> ExperimentSpec:
    """The registered :class:`ExperimentSpec` for ``name``."""
    try:
        return EXPERIMENTS[name]
    except KeyError:
        known = ", ".join(sorted(EXPERIMENTS))
        raise UnknownExperimentError(
            f"unknown experiment {name!r} (known: {known})"
        ) from None


def run_experiment(
    experiment: "ExperimentSpec | str",
    *,
    store_dir=None,
    backend: str = DEFAULT_BACKEND,
) -> "PipelineResult":
    """Compile and run (or resume) one experiment's pipeline."""
    from ..pipeline import RootCauseAnalysis

    return RootCauseAnalysis(
        experiment, store_dir=store_dir, backend=backend
    ).run()


def run_sweep(
    experiments: "list[ExperimentSpec | str] | None" = None,
    *,
    store_dir=None,
    backend: str = DEFAULT_BACKEND,
) -> "dict[str, PipelineResult]":
    """Run several experiments against one shared store.

    The control-ensemble stage key depends only on the (identical)
    ensemble spec, so the first experiment generates the 30 members and
    every later one resumes them from the store — the sweep's marginal
    cost per experiment is its experimental runs and analysis stages.
    The ``communities`` stage is shared the same way.  Every experiment
    compiles before the first one runs, so a bad spec anywhere in the
    sweep fails before any member runs.
    """
    from ..pipeline import RootCauseAnalysis

    analyses = [
        RootCauseAnalysis(
            get_experiment(e) if isinstance(e, str) else e,
            store_dir=store_dir,
            backend=backend,
        )
        for e in (experiments if experiments is not None else list_experiments())
    ]
    return {a.experiment.name: a.run() for a in analyses}
