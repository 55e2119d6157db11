"""Accepted-ensemble generation over the live interpreter.

``generate_ensemble`` expands an :class:`~repro.ensemble.spec.EnsembleSpec`
into N member runs on one of two backends
(:mod:`repro.ensemble.backends`): ``vectorized`` by default — one
member-batched pass for the whole ensemble — or ``serial``, the scalar
reference.  Both produce bit-identical members, so the backend choice
never changes the science.

The collected :class:`Ensemble` is the statistical object the ECT layer
consumes: a ``(n_members, n_variables)`` matrix of global-mean output
values over *two* snapshots per variable — the end-of-run state and the
end-of-first-step state (``<NAME>@first``), whose across-member
bit-invariants make ULP-level effects like FMA contraction testable —
plus the members' merged :class:`CoverageTrace` for the coverage/slicing
stages.  Caching is the pipeline store's job: the ``control_ensemble``
stage stores the whole :class:`Ensemble` as one entry.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ..model.builder import ModelSource, build_model_source
from ..obs import get_metrics, get_tracer
from ..runtime.coverage import CoverageTrace
from ..runtime.result import RunResult
from .backends import DEFAULT_BACKEND, check_backend, run_members
from .spec import EnsembleSpec

__all__ = ["Ensemble", "generate_ensemble"]

#: suffix marking the end-of-first-step snapshot half of the vector
FIRST_SUFFIX = "@first"


def run_vector(result: RunResult, names: Sequence[str]) -> np.ndarray:
    """One run's ensemble-space vector for the given variable names."""
    final_names = [n for n in names if not n.endswith(FIRST_SUFFIX)]
    first_names = [n[: -len(FIRST_SUFFIX)] for n in names if n.endswith(FIRST_SUFFIX)]
    out = np.empty(len(names), dtype=float)
    final = dict(
        zip(final_names, result.output_array(final_names, which="final"))
    )
    first = dict(
        zip(first_names, result.output_array(first_names, which="first"))
    )
    for i, name in enumerate(names):
        if name.endswith(FIRST_SUFFIX):
            out[i] = first[name[: -len(FIRST_SUFFIX)]]
        else:
            out[i] = final[name]
    return out


def _variable_names(result: RunResult) -> list[str]:
    names = list(result.outputs)
    return names + [f"{n}{FIRST_SUFFIX}" for n in names]


@dataclass
class Ensemble:
    """The accepted ensemble: the members' stacked matrix and coverage.

    ``matrix[i]`` is member ``i``'s vector over ``variable_names`` (end-state
    global means first, then the ``@first`` snapshot).  ``coverage`` is the
    merge of every member's trace.
    """

    spec: EnsembleSpec
    variable_names: list[str]
    matrix: np.ndarray
    coverage: CoverageTrace
    stats: dict = field(default_factory=dict)

    @property
    def n_members(self) -> int:
        return self.matrix.shape[0]

    def mean(self) -> np.ndarray:
        return self.matrix.mean(axis=0)

    def std(self, ddof: int = 1) -> np.ndarray:
        return self.matrix.std(axis=0, ddof=ddof)

    def run_vector(self, result: RunResult) -> np.ndarray:
        """An experimental run's vector aligned with ``variable_names``."""
        return run_vector(result, self.variable_names)

    def summary(self) -> str:
        sd = self.std()
        return (
            f"Ensemble(n={self.n_members}, variables={len(self.variable_names)}, "
            f"invariant={int(np.sum(sd == 0.0))})"
        )


def generate_ensemble(
    spec: Optional[EnsembleSpec] = None,
    *,
    n: Optional[int] = None,
    source: Optional[ModelSource] = None,
    backend: str = DEFAULT_BACKEND,
) -> Ensemble:
    """Run every member of ``spec`` and stack the result matrix.

    Parameters
    ----------
    spec:
        The ensemble specification; defaults to ``EnsembleSpec()`` — the
        unpatched FC5 control build.
    n:
        Convenience override of ``spec.n_members``
        (``generate_ensemble(n=30)``).
    source:
        An already-built :class:`ModelSource` matching ``spec.model``; built
        once here when omitted and shared (with its parse cache) by every
        member run.
    backend:
        ``"vectorized"`` (the default) runs the members in one batched
        pass, falling back to the scalar path for a batch it cannot
        express; ``"serial"`` is the scalar reference.  Both are
        bit-identical; any other name raises
        :class:`~repro.ensemble.backends.UnknownBackendError`.
    """
    check_backend(backend)
    spec = spec or EnsembleSpec()
    if n is not None:
        spec = dataclasses.replace(spec, n_members=n)
    if source is None:
        source = build_model_source(spec.model)
    elif source.config != spec.model:
        raise ValueError(
            "the provided ModelSource was built from a different ModelConfig "
            "than spec.model"
        )

    jobs = list(enumerate(spec.member_configs()))
    with get_tracer().span(
        "ensemble.generate",
        lambda: {"members": len(jobs), "backend": backend},
    ):
        results = dict(run_members(source, jobs, backend))
        get_metrics().inc("ensemble.members_run", len(jobs))
    members = [results[index] for index, _ in jobs]

    names = _variable_names(members[0])
    matrix = np.stack([run_vector(r, names) for r in members])
    coverage = CoverageTrace().merged(*(r.coverage for r in members))
    sd = matrix.std(axis=0, ddof=1)
    stats = {
        "backend": backend,
        "statements_per_member": [
            int(r.statements_executed) for r in members
        ],
        "invariant_variables": [
            names[j] for j in range(len(names)) if sd[j] == 0.0
        ],
    }
    return Ensemble(
        spec=spec,
        variable_names=names,
        matrix=matrix,
        coverage=coverage,
        stats=stats,
    )
