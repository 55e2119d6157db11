"""repro.ensemble — accepted-ensemble and experimental-run generation.

This is the statistical front half of the paper's consistency pipeline: a
set of N model runs that differ only in accepted ways (tiny
initial-temperature perturbations and independent PRNG seeds) defines the
distribution a change must stay inside to count as "the same climate".
:class:`EnsembleSpec` derives the N member configs deterministically from
one base seed, :func:`generate_ensemble` runs them against one parsed
:class:`~repro.model.builder.ModelSource`, and the resulting
:class:`Ensemble` holds the member matrix plus merged coverage for the
ECT / slicing stages; the pipeline store (:mod:`repro.pipeline`) caches
it as one stage entry.  The two backends (:mod:`repro.ensemble.backends`)
are bit-identical: ``vectorized``, the default, advances every member in
one numpy pass, and ``serial`` is the scalar reference it falls back to.
Names are exported lazily: :class:`EnsembleSpec` and the backend names
import without numpy or the runtime, which load on the first run.

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

from .._lazy import lazy_exports

_EXPORTS, __getattr__, __dir__ = lazy_exports(__name__, {
    ".backends": ("UnknownBackendError",),
    ".generate": ("Ensemble", "generate_ensemble", "run_vector"),
    ".spec": ("EnsembleSpec",),
})

__all__ = sorted(_EXPORTS)
