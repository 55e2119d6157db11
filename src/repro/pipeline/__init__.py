"""repro.pipeline — the orchestrated, resumable root-cause DAG.

The paper's workflow — build patched CAM source → perturbed accepted
ensemble → UF-ECT verdict → coverage-filtered backward slice → module
communities → set-cover selection → community-guided refinement →
culprit report — as a typed stage DAG with
content-hashed cache keys, demand-driven execution (keys first, then a
pull from the sinks), a per-stage on-disk artifact store,
resume-from-cache and structured per-stage timing/status records.

Layers:

* :mod:`repro.pipeline.store` — :class:`ArtifactStore`: one ``.npz`` per
  stage result under its content-addressed key (atomic writes,
  ``allow_pickle=False``), with hit/miss/write counters.
* :mod:`repro.pipeline.core` — :class:`Stage`, :class:`Pipeline`,
  :class:`StageRecord`, :class:`PipelineResult`: the engine, agnostic of
  what the stages compute.
* :mod:`repro.pipeline.stages` — the adapters binding
  :func:`repro.ensemble.generate_ensemble`, :class:`repro.ect.UltraFastECT`,
  :func:`repro.slicing.slice_failing_runs` and
  :func:`repro.refine.refine_slice` into DAG nodes, plus the
  :class:`RootCauseAnalysis` facade.

Quickstart — localize the ``wsubbug`` patch, resumably:

>>> from repro.pipeline import RootCauseAnalysis
>>> result = RootCauseAnalysis("wsubbug", store_dir="store").run()
>>> result["report"].localized
True
>>> RootCauseAnalysis("wsubbug", store_dir="store").run().record(
...     "control_ensemble").status          # second run: all from cache
'hit'
"""

from __future__ import annotations

from .core import (
    Pipeline,
    PipelineError,
    PipelineResult,
    Stage,
    StageContext,
    StageError,
    StageRecord,
    config_token,
)
from .stages import RootCauseAnalysis, accepted_ensemble, root_cause_pipeline
from .store import ArtifactStore, StoreError, json_payload, payload_json

__all__ = [
    "ArtifactStore",
    "Pipeline",
    "PipelineError",
    "PipelineResult",
    "RootCauseAnalysis",
    "Stage",
    "StageContext",
    "StageError",
    "StageRecord",
    "StoreError",
    "accepted_ensemble",
    "config_token",
    "json_payload",
    "payload_json",
    "root_cause_pipeline",
]
