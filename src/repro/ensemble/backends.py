"""Pluggable execution backends for the ensemble member fan-out.

``generate_ensemble`` is a *coordinator*: it derives member configs,
consults the artifact cache, and hands the cache misses to an
:class:`ExecutionBackend` that decides **where** the interpreter runs.
Three backends ship:

``serial``
    Run members one after another in the calling thread.  The reference
    semantics every other backend must match bit-for-bit, and the scalar
    path ``vectorized`` falls back to.

``process``
    A :class:`concurrent.futures.ProcessPoolExecutor` that sidesteps the
    GIL.  Each worker keeps a per-process ``{model token: parsed
    ModelSource}`` cache, so a worker pays the build + parse cost once and
    then runs many members against the cached ASTs; under the ``fork``
    start method the workers additionally inherit the parent's already
    parsed source for free.  Workers return :class:`RunArtifact` values
    (plain arrays + counters), never interpreter internals, so the IPC
    payload stays small and version-stable.

``vectorized`` (the default)
    One member-batched interpreter pass (:mod:`repro.runtime.vec`) that
    advances every member at once over numpy arrays carrying a leading
    member axis.  Single-core and GIL-friendly, it beats the scalar
    backends by an order of magnitude on wide ensembles; members whose
    configs differ in more than ``pertlim``/``seed`` fall into separate
    batches automatically, and a batch the vectorized runtime cannot
    express runs member by member on the ``serial`` path instead.

Every backend maps the same ``(index, RunConfig)`` list to the same
artifacts — the interpreter is deterministic, so ``serial``, ``process``
and ``vectorized`` produce bit-identical ensembles (a conformance test
holds them to that).

Backends are looked up by name via :func:`get_backend`; the selection knob
on :class:`~repro.ensemble.spec.EnsembleSpec` / ``generate_ensemble`` and
the ``REPRO_ENSEMBLE_BACKEND`` environment variable both resolve through
the same registry, so new backends (e.g. a cluster dispatcher) only need
one ``register_backend`` call.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from concurrent.futures import FIRST_COMPLETED, wait
from typing import Callable, Iterator, Optional

from ..errors import ReproError
from ..model.builder import ModelConfig, ModelSource, build_model_source
from ..obs import Span, get_metrics, get_tracer, new_span_id
from ..runtime import RunConfig, VectorizationError, run_model
from .artifact import RunArtifact
from .cache import member_cache_key

__all__ = [
    "DEFAULT_BACKEND",
    "ExecutionBackend",
    "InvalidBatchSizeError",
    "ProcessBackend",
    "SerialBackend",
    "UnknownBackendError",
    "VectorizedBackend",
    "get_backend",
    "list_backends",
    "register_backend",
]


class UnknownBackendError(ReproError, ValueError, KeyError):
    """Raised for a backend name that is not registered.

    Mirrors :class:`~repro.model.patches.UnknownPatchError`: it subclasses
    :class:`ValueError` (the error type ``get_backend`` has always raised,
    so existing callers keep working) and :class:`KeyError` (for callers
    treating the registry as a mapping), and its message names every
    registered backend so a typo in ``backend=`` or the
    ``REPRO_ENSEMBLE_BACKEND`` environment variable fails fast and loudly
    instead of deep inside an ensemble generation.
    """

    def __str__(self) -> str:  # avoid KeyError's repr-quoting of the message
        return self.args[0] if self.args else ""

class InvalidBatchSizeError(ReproError, ValueError):
    """Raised for a nonsense vectorized batch size, wherever it came from.

    Mirrors :class:`UnknownBackendError`: a :class:`ValueError` whose
    message names the offending value *and its origin* (constructor
    argument, ``EnsembleSpec.vec_batch``, or the ``REPRO_VEC_BATCH``
    environment variable), so a typo'd knob fails fast at configuration
    time instead of deep inside a batched ensemble pass.
    """

    def __str__(self) -> str:  # keep the plain message, no repr-quoting
        return self.args[0] if self.args else ""


#: environment knob bounding the vectorized backend's batch width
VEC_BATCH_ENV_VAR = "REPRO_VEC_BATCH"


def validate_batch_size(value, origin: str) -> int:
    """``value`` as a positive int, or :class:`InvalidBatchSizeError`.

    ``origin`` names where the knob came from so the error message points
    at the right place to fix.
    """
    if isinstance(value, str):
        try:
            value = int(value.strip())
        except ValueError:
            raise InvalidBatchSizeError(
                f"invalid vectorized batch size {value!r} from {origin} "
                "(expected a positive integer)"
            ) from None
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise InvalidBatchSizeError(
            f"invalid vectorized batch size {value!r} from {origin} "
            "(expected a positive integer)"
        )
    return value


def resolve_vec_batch(*candidates) -> Optional[tuple[int, str]]:
    """The effective ``(batch size, origin)``: first non-None candidate
    (each a ``(value, origin)`` pair), then the ``REPRO_VEC_BATCH``
    environment variable, else None (one batch per uniform group)."""
    for value, origin in candidates:
        if value is not None:
            return validate_batch_size(value, origin), origin
    env = os.environ.get(VEC_BATCH_ENV_VAR)
    if env is not None and env.strip():
        origin = f"the {VEC_BATCH_ENV_VAR} environment variable"
        return validate_batch_size(env, origin), origin
    return None


#: environment knob consulted when neither the call nor the spec chooses
BACKEND_ENV_VAR = "REPRO_ENSEMBLE_BACKEND"

#: the fallback when nothing selects a backend (see ``resolve_backend_name``)
DEFAULT_BACKEND = "vectorized"


def _bare_artifact(source: ModelSource, config: RunConfig) -> RunArtifact:
    """Run one member and wrap it as an artifact (shared by all backends)."""
    result = run_model(config, source=source)
    return RunArtifact.from_result(result, member_cache_key(source, config))


def _run_artifact(
    source: ModelSource, config: RunConfig, backend: str
) -> RunArtifact:
    """One member under an ``ensemble.member`` span (in-process backends)."""
    span = get_tracer().span(
        "ensemble.member",
        lambda: {"seed": config.seed, "nsteps": config.nsteps,
                 "backend": backend},
    )
    with span:
        artifact = _bare_artifact(source, config)
        span.annotate(statements=int(artifact.statements_executed))
    return artifact


class ExecutionBackend(ABC):
    """Strategy interface: run member configs, yield artifacts as they land.

    ``run_members`` receives the shared built+parsed :class:`ModelSource`
    and ``(index, config)`` pairs; it yields ``(index, RunArtifact)`` in
    *completion* order (the coordinator reassembles member order).  A
    backend must produce exactly one artifact per submitted index and must
    be bit-identical to :class:`SerialBackend`.
    """

    #: registry name; subclasses set it
    name: str = ""

    @abstractmethod
    def run_members(
        self,
        source: ModelSource,
        jobs: list[tuple[int, RunConfig]],
    ) -> Iterator[tuple[int, RunArtifact]]:
        """Yield ``(index, artifact)`` for every job, in completion order."""

    def describe(self) -> str:
        return self.name


class SerialBackend(ExecutionBackend):
    """Reference backend: run members in submission order, inline."""

    name = "serial"

    def run_members(
        self,
        source: ModelSource,
        jobs: list[tuple[int, RunConfig]],
    ) -> Iterator[tuple[int, RunArtifact]]:
        for index, config in jobs:
            yield index, _run_artifact(source, config, self.name)


# --------------------------------------------------------------------------
# process backend: per-worker parsed-source cache
# --------------------------------------------------------------------------

#: per-process cache {model token: built+parsed ModelSource}.  Populated in
#: the parent before the pool starts so `fork` workers inherit a warm cache;
#: `spawn` workers fill it on their first member and reuse it afterwards.
_WORKER_SOURCES: dict[tuple, ModelSource] = {}


def _model_token(config: ModelConfig) -> tuple:
    """Hashable identity of a built source tree (compset, patches, macros)."""
    return (
        config.compset,
        tuple(config.patches),
        tuple(sorted(config.macros.items())),
    )


def _worker_source(model: ModelConfig) -> ModelSource:
    token = _model_token(model)
    source = _WORKER_SOURCES.get(token)
    if source is None:
        source = build_model_source(model)
        source.parse()
        _WORKER_SOURCES[token] = source
    return source


def _process_worker(job: tuple) -> tuple[int, RunArtifact, list]:
    """Top-level (picklable) worker: parse once per process, run many.

    ``job`` is ``(index, config, trace_parent)``.  ``trace_parent`` is
    ``None`` when the parent is not tracing; otherwise the parent span id
    (possibly ``""`` for "traced but rootless").  The worker never touches
    the process-global tracer — a ``fork`` child inherits the parent's
    enabled tracer and buffered spans, and recording into that copy would
    silently drop or duplicate spans.  Instead it builds the span
    standalone (:meth:`Span.measure`) and ships it back as a dict next to
    the artifact; the parent adopts it with span-id dedup.
    """
    index, config, trace_parent = job
    source = _worker_source(config.model)
    if trace_parent is None:
        return index, _bare_artifact(source, config), []
    span, artifact = Span.measure(
        "ensemble.member",
        lambda: _bare_artifact(source, config),
        parent_id=trace_parent or None,
        attrs={
            "seed": config.seed,
            "nsteps": config.nsteps,
            "backend": "process",
        },
    )
    span.attrs["statements"] = int(artifact.statements_executed)
    return index, artifact, [span.to_dict()]


class ProcessBackend(ExecutionBackend):
    """Process-pool fan-out with a per-worker parsed-source cache.

    Parameters
    ----------
    max_workers:
        Pool width (default ``min(n_jobs, os.cpu_count())``).
    mp_context:
        A :mod:`multiprocessing` context or start-method name
        (``"fork"``/``"spawn"``/``"forkserver"``); default is the
        platform's.  The spawn path requires ``repro`` to be importable in
        child processes (e.g. ``PYTHONPATH=src``), which the CI spawn leg
        guards.
    """

    name = "process"

    def __init__(
        self,
        max_workers: Optional[int] = None,
        mp_context=None,
    ):
        self.max_workers = max_workers
        if isinstance(mp_context, str):
            import multiprocessing

            mp_context = multiprocessing.get_context(mp_context)
        self.mp_context = mp_context

    def run_members(
        self,
        source: ModelSource,
        jobs: list[tuple[int, RunConfig]],
    ) -> Iterator[tuple[int, RunArtifact]]:
        from concurrent.futures import ProcessPoolExecutor

        # Warm the module-level cache in *this* process: fork children
        # inherit the parsed ASTs copy-on-write and never re-parse.  The
        # entry is evicted once the pool is gone — it is only needed while
        # children are being forked, and pinning every tree ever run would
        # leak a full parse per configuration in long sessions.
        token = _model_token(source.config)
        previous = _WORKER_SOURCES.get(token)
        _WORKER_SOURCES[token] = source
        source.parse()

        tracer = get_tracer()
        trace_parent = (
            (tracer.current_id() or "") if tracer.enabled else None
        )
        workers = self.max_workers or min(len(jobs), os.cpu_count() or 1)
        try:
            with ProcessPoolExecutor(
                max_workers=max(1, workers), mp_context=self.mp_context
            ) as pool:
                pending = {
                    pool.submit(
                        _process_worker, (index, config, trace_parent)
                    ): index
                    for index, config in jobs
                }
                while pending:
                    done, _ = wait(pending, return_when=FIRST_COMPLETED)
                    for future in done:
                        pending.pop(future)
                        index, artifact, spans = future.result()
                        if spans:
                            tracer.adopt(spans)
                        yield index, artifact
        finally:
            if previous is None:
                _WORKER_SOURCES.pop(token, None)
            else:
                _WORKER_SOURCES[token] = previous

    def describe(self) -> str:
        method = (
            self.mp_context.get_start_method()
            if self.mp_context is not None
            else "default"
        )
        return (
            f"process(max_workers={self.max_workers or 'auto'}, "
            f"start={method})"
        )


class VectorizedBackend(ExecutionBackend):
    """Member-batched backend: one interpreter pass advances every member.

    Jobs are grouped by everything :func:`repro.runtime.vec.run_model_batch`
    requires to be uniform (nsteps and fp model — the model build is
    already fixed by ``source``; coverage flag and statement budget may
    vary per lane since PR 9), so a mixed job list still runs correctly,
    just in one batch per group.

    Falls back to the scalar path: when ``run_model_batch`` raises
    :class:`~repro.runtime.VectorizationError` for a batch (a construct
    the member-batched runtime cannot express), that batch's members run
    one by one as :class:`SerialBackend` runs them — bit-identical, just
    slower, each under a real ``ensemble.member`` span.  Every such batch
    adds 1 to the ``vec.fallbacks`` counter and records the reason as the
    ``fallback`` attribute of its ``ensemble.batch`` span.  Any other
    error (an exhausted statement budget, a model runtime error)
    propagates.

    ``batch_size`` bounds how many members one interpreter pass carries
    (memory scales with the member axis); ``None`` defers to
    ``EnsembleSpec.vec_batch``, then the ``REPRO_VEC_BATCH`` environment
    variable, then "one batch per group".  A nonsense value — zero,
    negative, non-integer, an unparseable environment string — raises
    :class:`InvalidBatchSizeError` up front.
    """

    name = "vectorized"

    def __init__(self, batch_size: Optional[int] = None):
        if batch_size is not None:
            batch_size = validate_batch_size(
                batch_size, "VectorizedBackend(batch_size=)"
            )
        self.batch_size = batch_size

    def effective_batch_size(self) -> Optional[int]:
        """The batch bound this run will use (constructor, then env)."""
        resolved = resolve_vec_batch(
            (self.batch_size, "VectorizedBackend(batch_size=)")
        )
        return None if resolved is None else resolved[0]

    def run_members(
        self,
        source: ModelSource,
        jobs: list[tuple[int, RunConfig]],
    ) -> Iterator[tuple[int, RunArtifact]]:
        from ..runtime.vec import run_model_batch

        limit = self.effective_batch_size()
        groups: dict[tuple, list[tuple[int, RunConfig]]] = {}
        for index, config in jobs:
            token = (config.nsteps, config.fp)
            groups.setdefault(token, []).append((index, config))
        tracer = get_tracer()
        for group in groups.values():
            step = limit or len(group)
            for start in range(0, len(group), step):
                batch = group[start : start + step]
                artifacts = self._run_batch(
                    tracer, source, batch, run_model_batch
                )
                for (index, _), artifact in zip(batch, artifacts):
                    yield index, artifact

    def _run_batch(
        self, tracer, source, batch, run_model_batch
    ) -> list[RunArtifact]:
        """One batch's artifacts: one vectorized pass, or the serial path
        member by member when the pass raises ``VectorizationError``."""
        configs = [config for _, config in batch]
        with tracer.span(
            "ensemble.batch",
            lambda: {"members": len(batch), "backend": self.name},
        ) as batch_span:
            try:
                results = run_model_batch(configs, source=source)
            except VectorizationError as exc:
                get_metrics().inc("vec.fallbacks")
                batch_span.annotate(fallback=str(exc))
                return [
                    _run_artifact(source, config, SerialBackend.name)
                    for config in configs
                ]
        if tracer.enabled:
            # one interpreter pass advanced the whole batch, so true
            # per-member walls don't exist; synthesize member spans with
            # the amortized share (flagged `estimated`) so the trace still
            # accounts for every member.
            self._adopt_member_spans(tracer, batch_span, batch)
        return [
            RunArtifact.from_result(result, member_cache_key(source, config))
            for config, result in zip(configs, results)
        ]

    def describe(self) -> str:
        limit = self.effective_batch_size()
        return f"vectorized(batch={limit if limit is not None else 'auto'})"

    @staticmethod
    def _adopt_member_spans(tracer, batch_span, batch) -> None:
        finished = {s.span_id: s for s in tracer.finished()}
        done = finished.get(batch_span.span_id)
        if done is None:  # pragma: no cover - defensive
            return
        share = done.wall_s / len(batch)
        cpu_share = done.cpu_s / len(batch)
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
            for i, (_, config) in enumerate(batch)
        )


# --------------------------------------------------------------------------
# registry
# --------------------------------------------------------------------------

_BACKENDS: dict[str, Callable[..., ExecutionBackend]] = {}


def register_backend(
    name: str, factory: Callable[..., ExecutionBackend]
) -> None:
    """Register a backend factory under ``name`` (``factory(max_workers=)``)."""
    if name in _BACKENDS:
        raise ValueError(f"backend {name!r} is already registered")
    _BACKENDS[name] = factory


def list_backends() -> list[str]:
    """Names of all registered execution backends, sorted."""
    return sorted(_BACKENDS)


register_backend("serial", lambda max_workers=None: SerialBackend())
register_backend("process", ProcessBackend)
register_backend(
    "vectorized",
    lambda max_workers=None, batch_size=None: VectorizedBackend(
        batch_size=batch_size
    ),
)


def resolve_backend_name(*candidates: Optional[str]) -> str:
    """First non-None name among ``candidates``, the environment knob
    (``REPRO_ENSEMBLE_BACKEND``), and the package default."""
    for name in candidates:
        if name is not None:
            return name
    return os.environ.get(BACKEND_ENV_VAR) or DEFAULT_BACKEND


def get_backend(
    backend: "ExecutionBackend | str | None" = None,
    max_workers: Optional[int] = None,
) -> ExecutionBackend:
    """Resolve a backend instance from an instance, a name, or the default.

    Passing an :class:`ExecutionBackend` returns it unchanged (so callers
    can hand over a pre-configured pool) — combining an instance with
    ``max_workers`` is a :class:`ValueError` rather than a silently
    ignored knob; a string is looked up in the registry; ``None`` falls
    back to the ``REPRO_ENSEMBLE_BACKEND`` environment variable and then
    to ``"vectorized"``.  ``max_workers`` sizes the ``process`` pool; the
    other backends ignore it.  A name the registry does not know —
    wherever it came from, argument, spec or environment — raises
    :class:`UnknownBackendError` listing every registered backend.
    """
    if isinstance(backend, ExecutionBackend):
        if max_workers is not None:
            raise ValueError(
                "max_workers cannot override a pre-configured backend "
                "instance; construct the backend with the desired width "
                "instead"
            )
        return backend
    name = resolve_backend_name(backend)
    try:
        factory = _BACKENDS[name]
    except KeyError:
        known = ", ".join(list_backends())
        raise UnknownBackendError(
            f"unknown execution backend {name!r} (known: {known})"
        ) from None
    return factory(max_workers=max_workers)
