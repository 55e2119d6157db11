"""repro.ensemble — accepted-ensemble and experimental-run generation.

This is the statistical front half of the paper's consistency pipeline: a
set of N model runs that differ only in accepted ways (tiny
initial-temperature perturbations and independent PRNG seeds) defines the
distribution a change must stay inside to count as "the same climate".
:class:`EnsembleSpec` derives the N member configs deterministically from
one base seed, :func:`generate_ensemble` fans them out through a pluggable
execution backend (``vectorized`` by default, ``serial`` / ``process`` —
see :mod:`repro.ensemble.backends`) sharing one parsed
:class:`~repro.model.builder.ModelSource`, with an optional
content-addressed :class:`RunArtifact` disk cache making re-runs
incremental (coverage included), and the resulting :class:`Ensemble`
holds the member matrix plus merged coverage for the ECT / slicing
stages.  All backends are bit-identical; ``vectorized`` advances every
member in one numpy pass, ``serial`` is the scalar reference it falls
back to, and ``process`` spreads scalar members over cores.

Quickstart — does the ``cldfrc-premib`` bug patch change the climate?

>>> from repro.ensemble import EnsembleSpec, generate_ensemble
>>> from repro.ect import ect_test
>>> from repro.model import ModelConfig
>>> from repro.runtime import RunConfig, run_model
>>> ens = generate_ensemble(n=30)                     # accepted ensemble
>>> spec = ens.spec
>>> patched = ModelConfig(patches=("cldfrc-premib",))
>>> runs = [run_model(spec.experimental_config(i, model=patched))
...         for i in range(3)]
>>> ect_test(ens, runs).consistent                    # bug is flagged
False
>>> control = [run_model(spec.experimental_config(i)) for i in range(3)]
>>> ect_test(ens, control).consistent                 # held-out seeds pass
True
"""

from __future__ import annotations

from .artifact import RunArtifact
from .backends import (
    ExecutionBackend,
    InvalidBatchSizeError,
    ProcessBackend,
    SerialBackend,
    UnknownBackendError,
    VectorizedBackend,
    get_backend,
    list_backends,
    register_backend,
)
from .cache import MemberCache, member_cache_key
from .generate import Ensemble, EnsembleGenerator, generate_ensemble, run_vector
from .spec import EnsembleSpec

__all__ = [
    "Ensemble",
    "EnsembleGenerator",
    "EnsembleSpec",
    "ExecutionBackend",
    "InvalidBatchSizeError",
    "MemberCache",
    "ProcessBackend",
    "RunArtifact",
    "SerialBackend",
    "UnknownBackendError",
    "VectorizedBackend",
    "generate_ensemble",
    "get_backend",
    "list_backends",
    "member_cache_key",
    "register_backend",
    "run_vector",
]
