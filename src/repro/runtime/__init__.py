"""Numerical runtime for the synthetic model: interpret, perturb, instrument.

This package executes the model the rest of the pipeline analyses statically:
an interpreter (:mod:`repro.runtime.interpreter`) that compiles each AST node
to a closure (:mod:`repro.runtime.compiler`) runs over the *same* cached
ASTs that :meth:`repro.model.builder.ModelSource.parse` shares with the
metagraph builder, so numbers and digraph always describe one build.
The stable entry point is :func:`run_model`; downstream modules
(``repro.ensemble``, ``repro.ect``, ``repro.slicing``)
consume only :class:`RunResult` and never touch evaluator internals.
:func:`run_model_batch` (:mod:`repro.runtime.vec`) is the member-batched
variant: one vectorized evaluation advances a whole ensemble and returns a
bit-identical :class:`RunResult` per member.

``RunConfig`` knobs
-------------------
``model``
    The :class:`repro.model.ModelConfig` to build and run — compset choice,
    bug-injection ``patches``, extra preprocessor ``macros``.  The default is
    the unpatched FC5 control build.
``nsteps``
    Number of ``cam_run_step`` time steps after ``cam_init`` (default 2; the
    paper's coverage/ensemble runs also use a handful of steps).
``pertlim``
    Initial-condition temperature perturbation magnitude, the paper's
    ensemble-generation knob (default 0.0 — the control trajectory).
``seed``
    Base seed of the reproducible stream-per-module PRNGs
    (:mod:`repro.runtime.prng`).  Identical configs give bit-identical runs.
``fp``
    The :class:`FPConfig` floating-point model (:mod:`repro.runtime.fpu`):
    ``fma`` turns on fused contraction of ``a*b + c`` patterns (optionally
    restricted to ``fma_modules``), ``flush_to_zero`` models ``-ftz``.  This
    is how patched-vs-unpatched *compiler flag* experiments diverge at the
    ULP level.
``collect_coverage``
    Record per-(file, line) execution counts into a
    :class:`CoverageTrace` (default True; turn off for speed inside large
    ensembles once coverage is known).
``max_statements``
    Hard budget on executed statements — a guard against runaway loops in
    badly patched models.

Every name here is exported lazily (:mod:`repro._lazy`): the knobs live in
the numpy-free :mod:`repro.runtime.config`, so an experiment or ensemble
spec imports neither numpy nor the interpreter until something runs.

>>> result = run_model(RunConfig(nsteps=1))
>>> vec = result.output_vector()          # name -> global-mean float
>>> sorted(result.coverage.files())[0]    # executed files only
'cam_comp.F90'
"""

from __future__ import annotations

from .._lazy import lazy_exports

_EXPORTS, __getattr__, __dir__ = lazy_exports(__name__, {
    ".batched_prng": ("BatchedPRNGStreams", "BatchedStream"),
    ".config": ("FPConfig", "RunConfig"),
    ".coverage": ("CoverageTrace",),
    ".fpu": ("FPU",),
    ".interpreter": ("History", "Interpreter", "run_model"),
    ".prng": ("PRNGStreams", "Stream"),
    ".result": ("RunResult",),
    ".values": (
        "DerivedValue", "FortranRuntimeError", "IntentViolationError",
        "MemberBatch", "Scope", "StatementLimitExceeded", "StopModel",
        "UndefinedNameError", "VectorizationError",
    ),
    ".vec": ("VecInterpreter", "run_model_batch"),
})

__all__ = sorted(_EXPORTS)
