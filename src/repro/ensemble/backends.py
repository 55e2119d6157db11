"""Where ensemble members run: one batched pass, or one member at a time.

``generate_ensemble`` and the experimental-runs stage derive member
configs and hand them to :func:`run_members` under one of two backend
names:

``vectorized`` (the default)
    One member-batched interpreter pass (:mod:`repro.runtime.vec`) that
    advances every member at once over numpy arrays carrying a leading
    member axis.  Members whose configs differ in more than
    ``pertlim``/``seed`` fall into separate batches, and a batch the
    vectorized runtime cannot express runs member by member on the
    ``serial`` path instead.

``serial``
    Run members one after another in the calling thread.  The reference
    semantics ``vectorized`` must match bit-for-bit (a conformance test
    holds it to that), and the scalar path it falls back to.

Both map the same ``(index, RunConfig)`` list to bit-identical
:class:`~repro.runtime.RunResult` values, so the backend only decides how
fast an ensemble is produced.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from ..errors import ReproError
from ..obs import Span, get_metrics, get_tracer, new_span_id

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..model.builder import ModelSource
    from ..runtime import RunConfig, RunResult

__all__ = [
    "BACKENDS",
    "DEFAULT_BACKEND",
    "UnknownBackendError",
    "check_backend",
    "run_members",
]

#: every backend name, sorted
BACKENDS = ("serial", "vectorized")

#: the backend every entry point uses unless told otherwise
DEFAULT_BACKEND = "vectorized"


class UnknownBackendError(ReproError, ValueError, KeyError):
    """Raised for a backend name other than ``serial`` or ``vectorized``.

    Mirrors :class:`~repro.model.patches.UnknownPatchError`: a
    :class:`ValueError` (the error type an unknown backend has always
    raised) and a :class:`KeyError`, whose message names both backends so
    a typo in ``backend=`` or ``--backend`` fails before any member runs.
    """

    def __str__(self) -> str:  # avoid KeyError's repr-quoting of the message
        return self.args[0] if self.args else ""


def check_backend(name: str) -> str:
    """``name`` if it names a backend, else :class:`UnknownBackendError`."""
    if name not in BACKENDS:
        raise UnknownBackendError(
            f"unknown execution backend {name!r} "
            f"(known: {', '.join(BACKENDS)})"
        )
    return name


def run_members(
    source: ModelSource,
    jobs: list[tuple[int, RunConfig]],
    backend: str,
) -> Iterator[tuple[int, RunResult]]:
    """Yield ``(index, result)`` for every ``(index, config)`` job,
    running them on ``backend``.

    ``source`` is the shared built model every job runs against; the first
    run parses it, the rest reuse its cached ASTs.  The runtime is imported
    on the first run, not with this module.
    """
    if check_backend(backend) == "serial":
        for index, config in jobs:
            yield index, _serial_run(source, config)
        return
    from ..runtime.vec import batch_key

    groups: dict[RunConfig, list[tuple[int, RunConfig]]] = {}
    for index, config in jobs:
        groups.setdefault(batch_key(config), []).append((index, config))
    for batch in groups.values():
        results = _run_batch(source, batch)
        for (index, _), result in zip(batch, results):
            yield index, result


def _serial_run(source: ModelSource, config: RunConfig) -> RunResult:
    """One member on the scalar interpreter, under an ``ensemble.member``
    span."""
    from ..runtime.interpreter import run_model

    span = get_tracer().span(
        "ensemble.member",
        lambda: {"seed": config.seed, "nsteps": config.nsteps,
                 "backend": "serial"},
    )
    with span:
        result = run_model(config, source=source)
        span.annotate(statements=int(result.statements_executed))
        return result


def _run_batch(
    source: ModelSource, batch: list[tuple[int, RunConfig]]
) -> list[RunResult]:
    """One batch's results: one vectorized pass, or the serial path
    member by member when the pass raises ``VectorizationError``.

    The fallback is bit-identical, just slower, with each member under a
    real ``ensemble.member`` span.  Every fallen-back batch adds 1 to the
    ``vec.fallbacks`` counter and records the reason as the ``fallback``
    attribute of its ``ensemble.batch`` span.  Any other error (an
    exhausted statement budget, a model runtime error) propagates.
    """
    from ..runtime.values import VectorizationError
    from ..runtime.vec import run_model_batch

    tracer = get_tracer()
    configs = [config for _, config in batch]
    with tracer.span(
        "ensemble.batch",
        lambda: {"members": len(batch), "backend": "vectorized"},
    ) as batch_span:
        try:
            results = run_model_batch(configs, source=source)
        except VectorizationError as exc:
            get_metrics().inc("vec.fallbacks")
            batch_span.annotate(fallback=str(exc))
            return [_serial_run(source, config) for config in configs]
    if tracer.enabled:
        # one interpreter pass advanced the whole batch, so true
        # per-member walls don't exist; synthesize member spans with the
        # amortized share (flagged `estimated`) so the trace still
        # accounts for every member.
        _adopt_member_spans(tracer, batch_span, configs)
    return results


def _adopt_member_spans(tracer, batch_span, configs) -> None:
    finished = {s.span_id: s for s in tracer.finished()}
    done = finished.get(batch_span.span_id)
    if done is None:  # pragma: no cover - defensive
        return
    share = done.wall_s / len(configs)
    cpu_share = done.cpu_s / len(configs)
    tracer.adopt(
        Span(
            name="ensemble.member",
            span_id=new_span_id(),
            parent_id=batch_span.span_id,
            start=done.start + i * share,
            wall_s=share,
            cpu_s=cpu_share,
            attrs={
                "seed": config.seed,
                "nsteps": config.nsteps,
                "backend": "vectorized",
                "estimated": True,
            },
            pid=done.pid,
            thread_id=done.thread_id,
        )
        for i, config in enumerate(configs)
    )
