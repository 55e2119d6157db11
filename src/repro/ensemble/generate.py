"""Accepted-ensemble generation over the live interpreter.

``generate_ensemble`` expands an :class:`~repro.ensemble.spec.EnsembleSpec`
into N member runs.  It is a *coordinator*: member configs are derived from
the spec, members already present in the content-addressed artifact cache
are loaded (coverage included — a cache hit preserves the member's
:class:`CoverageTrace`), and the remaining misses run on one of two
backends (:mod:`repro.ensemble.backends`): ``vectorized`` by default — one
member-batched pass for the whole ensemble — or ``serial``, the scalar
reference.  Both produce bit-identical members, so the backend choice
never changes the science.

The collected :class:`Ensemble` is the statistical object the ECT layer
consumes: a ``(n_members, n_variables)`` matrix of global-mean output
values over *two* snapshots per variable — the end-of-run state and the
end-of-first-step state (``<NAME>@first``), whose across-member
bit-invariants make ULP-level effects like FMA contraction testable —
plus the members' merged :class:`CoverageTrace` for the coverage/slicing
stages.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from ..model.builder import ModelSource, build_model_source
from ..obs import get_metrics, get_tracer
from ..runtime import CoverageTrace, RunConfig, RunResult
from .artifact import RunArtifact
from .backends import DEFAULT_BACKEND, check_backend, run_members
from .cache import MemberCache, member_cache_key
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
    """The accepted ensemble: member results plus their stacked matrix.

    ``matrix[i]`` is member ``i``'s vector over ``variable_names`` (end-state
    global means first, then the ``@first`` snapshot).  ``coverage`` is the
    merge of every member's trace; per-member traces stay available on
    ``members[i].coverage``.
    """

    spec: EnsembleSpec
    variable_names: list[str]
    matrix: np.ndarray
    members: list[RunResult]
    coverage: CoverageTrace
    cache_hits: int = 0
    cache_misses: int = 0
    stats: dict = field(default_factory=dict)

    @property
    def n_members(self) -> int:
        return len(self.members)

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
            f"invariant={int(np.sum(sd == 0.0))}, "
            f"cache_hits={self.cache_hits}, cache_misses={self.cache_misses})"
        )


def generate_ensemble(
    spec: Optional[EnsembleSpec] = None,
    *,
    n: Optional[int] = None,
    source: Optional[ModelSource] = None,
    cache_dir: Optional[str | os.PathLike] = None,
    backend: str = DEFAULT_BACKEND,
    progress: Optional[Callable[[int, int], None]] = None,
) -> Ensemble:
    """Run (or load) every member of ``spec`` and stack the result matrix.

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
    cache_dir:
        Directory of the content-addressed member artifact cache.  Omit to
        disable caching.  Cached members keep their coverage: incremental
        re-runs never drop or recompute a member's trace.
    backend:
        ``"vectorized"`` (the default) runs the cache misses in one
        batched pass, falling back to the scalar path for a batch it
        cannot express; ``"serial"`` is the scalar reference.  Both are
        bit-identical; any other name raises
        :class:`~repro.ensemble.backends.UnknownBackendError`.
    progress:
        Optional ``callback(done, total)`` invoked as members complete
        (cache hits included).
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

    cache = MemberCache(cache_dir) if cache_dir is not None else None
    configs = spec.member_configs()
    total = len(configs)
    artifacts: list[Optional[RunArtifact]] = [None] * total
    done = 0

    def advance() -> None:
        nonlocal done
        done += 1
        if progress is not None:
            progress(done, total)

    metrics = get_metrics()
    with get_tracer().span(
        "ensemble.generate",
        lambda: {"members": total, "backend": backend,
                 "cached": cache is not None},
    ) as gen_span:
        # phase 1: satisfy what the artifact cache already holds
        misses: list[tuple[int, RunConfig]] = []
        for index, config in enumerate(configs):
            if cache is not None:
                key = member_cache_key(source, config)
                cached = cache.load_artifact(key)
                if cached is not None:
                    artifacts[index] = cached
                    advance()
                    continue
            misses.append((index, config))

        # phase 2: run the misses on the chosen backend
        if misses:
            for index, artifact in run_members(source, misses, backend):
                artifacts[index] = artifact
                if cache is not None:
                    cache.store_artifact(artifact)
                advance()
        metrics.inc("ensemble.members_run", len(misses))
        metrics.inc("ensemble.members_cached", total - len(misses))
        gen_span.annotate(members_run=len(misses),
                          members_cached=total - len(misses))

    members: list[RunResult] = [
        artifact.to_result(config)
        for artifact, config in zip(artifacts, configs)
    ]

    names = _variable_names(members[0])
    matrix = np.stack([run_vector(r, names) for r in members])
    coverage = CoverageTrace().merged(*(r.coverage for r in members))
    sd = matrix.std(axis=0, ddof=1)
    stats = {
        "backend": backend,
        "statements_per_member": [r.statements_executed for r in members],
        "invariant_variables": [
            names[j] for j in range(len(names)) if sd[j] == 0.0
        ],
    }
    return Ensemble(
        spec=spec,
        variable_names=names,
        matrix=matrix,
        members=members,
        coverage=coverage,
        cache_hits=cache.hits if cache is not None else 0,
        cache_misses=cache.misses if cache is not None else 0,
        stats=stats,
    )
