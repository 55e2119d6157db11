"""repro.errors — the consolidated exception hierarchy.

Every error the package raises on purpose derives from :class:`ReproError`,
so callers embedding the pipeline (services, notebooks, the CLI) can write
one ``except ReproError`` instead of importing eight scattered types::

    from repro.errors import ReproError

    try:
        run_experiment(name, store_dir=store)
    except ReproError as exc:
        ...  # every intentional repro failure lands here

The concrete classes keep living (and keep being importable) where they
always were — ``repro.model.patches.UnknownPatchError``,
``repro.pipeline.store.StoreError``, ... — this module re-exports them
lazily so ``import repro.errors`` stays cheap and free of import cycles.
Each class also keeps its historical builtin bases (``ValueError``,
``KeyError``, ``RuntimeError``) so existing ``except`` clauses continue to
match.

Two usage conventions the CLI maps onto exit codes (tested in
``tests/test_errors.py``):

* *usage errors* — unknown experiment/backend names, bad ensemble
  sizes or run counts — exit ``2`` (``EX_USAGE``) before any work runs;
* *analysis outcomes* — the pipeline ran but did not localize — exit
  ``1``; these are not exceptions at all.
"""

from __future__ import annotations

from ._lazy import lazy_exports

__all__ = [
    "FortranFrontEndError",
    "FortranRuntimeError",
    "InfeasibleSelectionError",
    "PatchError",
    "PipelineError",
    "ReproError",
    "SelectionError",
    "StageError",
    "StoreError",
    "UnknownBackendError",
    "UnknownExperimentError",
    "UnknownPatchError",
    "VectorizationError",
]


class ReproError(Exception):
    """Base class of every intentional error raised by :mod:`repro`.

    Concrete errors mix this in *alongside* their historical builtin base
    (``class StoreError(ReproError, ValueError)``), so both
    ``except ReproError`` and the pre-consolidation ``except ValueError``
    spellings keep working.
    """


#: name -> (module, attribute): the concrete classes, re-exported lazily
#: from their defining modules (importing them eagerly here would create
#: cycles — those modules import ReproError from this one)
_ERROR_EXPORTS, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.fortran.errors": ("FortranFrontEndError",),
    "repro.runtime.values": ("FortranRuntimeError", "VectorizationError"),
    "repro.model.patches": ("PatchError", "UnknownPatchError"),
    "repro.experiments": ("UnknownExperimentError",),
    "repro.ensemble.backends": ("UnknownBackendError",),
    "repro.pipeline.store": ("StoreError",),
    "repro.pipeline.core": ("PipelineError", "StageError"),
    "repro.selection.setcover": (
        "SelectionError", "InfeasibleSelectionError",
    ),
})
