"""The typed stage DAG: content-hashed cache keys, demand-driven
execution, resume-from-cache, per-stage timing/status records.

A :class:`Stage` is one unit of the root-cause workflow — "generate the
accepted ensemble", "run the consistency test" — with a name, the names of
the upstream stages it consumes, a ``params`` mapping that *fully
determines its behaviour*, and (when cacheable) an ``encode``/``decode``
pair mapping its value to a payload (JSON text plus ndarrays) for the
:class:`~repro.pipeline.store.ArtifactStore`.

Cache keys are content hashes: a SHA-256 over the stage name, a
canonical-JSON token of its params (:func:`config_token`), a format
version, and the *fingerprints of its inputs* — so a changed
upstream stage (new patch, different ensemble size, edited model source)
transitively invalidates everything downstream, while an untouched prefix
of the DAG resumes from cache bit-identically.  Stage functions are
assumed pure given their params and inputs; the params mapping is that
contract.

:meth:`Pipeline.run` computes every key first (evaluating only the
``fingerprint`` stages), then pulls from the sinks: a stage is needed
only when a consumer must run, its entry being absent or undecodable.
Needed stages decode or run in dependency order (declaration order breaks
ties), so a warm run reads only the sink entries.  Its
:class:`PipelineResult` decodes other stages on first access, and its
:class:`StageRecord` list says for every stage whether it ``ran``, was a
cache ``hit``, was ``skipped`` or raised an ``error``, how long it took,
its store hits and misses and the model runs it executed — the
observability that makes resume semantics testable.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping, Optional, Sequence

from ..errors import ReproError
from ..obs import get_metrics, get_tracer, round_wall
from .store import ArtifactStore, find_nonfinite

__all__ = [
    "Pipeline",
    "PipelineError",
    "PipelineResult",
    "Stage",
    "StageContext",
    "StageError",
    "StageRecord",
    "config_token",
]

#: bump when key derivation changes incompatibly.  It governs keys only:
#: a payload whose shape drifts is a decode miss under its own key and is
#: recomputed once, so a codec change must not bump it
PIPELINE_FORMAT = 1


class PipelineError(ReproError, ValueError):
    """Raised for a structurally invalid pipeline (cycles, bad inputs)."""


class StageError(ReproError, RuntimeError):
    """A stage function raised; carries the records completed so far.

    The artifacts of every stage that finished *before* the failure are
    already in the store, so re-running the same pipeline resumes from
    them — the failure loses only the failing stage's own work.
    """

    def __init__(self, stage: str, cause: BaseException, records: list):
        super().__init__(f"pipeline stage {stage!r} failed: {cause}")
        self.stage = stage
        self.records = records


def config_token(value: Any) -> Any:
    """A deterministic JSON-safe token of a (possibly nested) config value.

    Dataclasses (``EnsembleSpec``, ``FPConfig``, ``RefinementConfig``,
    ...) are expanded field by field — a knob added to a config later
    automatically changes every key it participates in.  Sets are
    sorted and floats hex-exact, so -0.0 or rounding can never alias two
    configs.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: config_token(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, Mapping):
        return {str(k): config_token(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [config_token(v) for v in value]
    if isinstance(value, (frozenset, set)):
        return sorted(config_token(v) for v in value)
    if isinstance(value, bool) or value is None or isinstance(value, (str, int)):
        return value
    if isinstance(value, float):
        return float(value).hex()
    return repr(value)


@dataclass(frozen=True)
class Stage:
    """One DAG node (see module docstring).

    ``func(ctx, **inputs)`` computes the value; ``inputs`` are keyword
    arguments named after the upstream stages.  Cacheable stages must
    supply ``encode(value) -> payload`` and ``decode(payload) -> value``;
    ``fingerprint(value)``, when given, replaces the stage key as this
    stage's contribution to downstream keys (used by non-cacheable stages
    whose *content* matters downstream, e.g. the built model source
    contributing its content digest).  A fingerprint stage is evaluated
    before any downstream key is known, on every run, so it must stay
    cheap.
    """

    name: str
    func: Callable[..., Any]
    inputs: tuple[str, ...] = ()
    params: Mapping[str, Any] = field(default_factory=dict)
    cacheable: bool = True
    encode: Optional[Callable[[Any], Mapping]] = None
    decode: Optional[Callable[[Mapping], Any]] = None
    fingerprint: Optional[Callable[[Any], str]] = None

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("_", "a").isalnum():
            raise PipelineError(
                f"stage name must be a non-empty identifier, got {self.name!r}"
            )
        if not isinstance(self.inputs, tuple):
            object.__setattr__(self, "inputs", tuple(self.inputs))
        if self.cacheable and (self.encode is None or self.decode is None):
            raise PipelineError(
                f"cacheable stage {self.name!r} needs encode and decode"
            )

    def key(self, input_fingerprints: Mapping[str, str]) -> str:
        """The content hash identifying this stage's output."""
        h = hashlib.sha256()
        h.update(b"repro-pipeline-stage\x00")
        h.update(str(PIPELINE_FORMAT).encode())
        h.update(self.name.encode())
        token = {
            "params": config_token(dict(self.params)),
            "inputs": [
                [name, input_fingerprints[name]] for name in self.inputs
            ],
        }
        try:
            h.update(
                json.dumps(token, sort_keys=True, allow_nan=False).encode()
            )
        except ValueError as exc:
            # config_token hex-encodes floats, so a NaN here means a raw
            # non-finite snuck into params — which would hash as the
            # non-canonical token `NaN` and never match its own recompute
            where = find_nonfinite(token)
            raise PipelineError(
                f"stage {self.name!r} cache token carries a non-finite "
                f"float at {where or '<unknown>'}"
            ) from exc
        return h.hexdigest()


@dataclass
class StageRecord:
    """What happened to one stage in one :meth:`Pipeline.run`."""

    name: str
    key: str
    #: ``"ran"``; ``"hit"`` (decoded from the store, or left there untouched
    #: with ``store_hits == 0``); ``"skipped"`` (not needed and not stored:
    #: no span, function not called); or ``"error"``
    status: str = "ran"
    cacheable: bool = True
    wall_s: float = 0.0
    #: store loads this stage answered from disk / missed
    store_hits: int = 0
    store_misses: int = 0
    #: model runs this stage executed (0 when its entry was a hit)
    member_misses: int = 0
    #: free-form annotations from the stage function (``ctx.annotate``)
    info: dict = field(default_factory=dict)
    #: trace span id of this stage's execution ("" when tracing is off)
    span_id: str = ""
    #: metrics counters that moved while this stage executed
    metrics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {**dataclasses.asdict(self), "wall_s": round_wall(self.wall_s)}


class StageContext:
    """What a running stage sees of its pipeline: its own record.

    ``annotate`` attaches structured details to the stage record;
    ``count_members`` books the model runs the stage executed.  Model
    runs are cached at stage granularity only: a stage whose entry the
    store holds runs nothing.
    """

    def __init__(self, record: StageRecord):
        self.record = record

    def annotate(self, **info: Any) -> None:
        self.record.info.update(info)

    def count_members(self, runs: int) -> None:
        self.record.member_misses += runs


@dataclass
class PipelineResult:
    """Stage values plus the per-stage execution records of one run.

    ``outputs`` holds the stages the run evaluated; indexing ``pull``s any
    other stage on first access, decoding it from the same store.
    """

    outputs: dict[str, Any]
    records: list[StageRecord]
    store_stats: Optional[dict] = None
    terminal: str = ""
    pull: Optional[Callable[[str], Any]] = field(
        default=None, repr=False, compare=False
    )

    def __getitem__(self, stage: str) -> Any:
        if stage not in self.outputs and self.pull is not None:
            return self.pull(stage)
        return self.outputs[stage]

    @property
    def value(self) -> Any:
        """The terminal stage's value (the last stage in dependency order)."""
        return self[self.terminal]

    def record(self, stage: str) -> StageRecord:
        for rec in self.records:
            if rec.name == stage:
                return rec
        raise KeyError(stage)

    def timings(self) -> dict[str, float]:
        """``{stage: wall seconds}`` in execution order."""
        return {rec.name: round_wall(rec.wall_s) for rec in self.records}

    def counters(self) -> dict[str, int]:
        """Store traffic and model runs summed over every stage."""
        names = ("store_hits", "store_misses", "member_misses")
        return {n: sum(getattr(rec, n) for rec in self.records) for n in names}

    def to_dict(self) -> dict:
        return {
            "stages": [rec.to_dict() for rec in self.records],
            "store": self.store_stats,
            "wall_by_stage": self.timings(),
            "counters": self.counters(),
        }


class Pipeline:
    """Demand-driven stage DAG over one artifact store (module docstring).

    ``store_dir`` roots the store: ``<store_dir>/stages`` holds one
    payload per stage key.  ``None`` disables caching entirely (every
    stage runs).
    """

    def __init__(
        self,
        stages: Sequence[Stage],
        store_dir: "str | Path | None" = None,
    ):
        if not stages:
            raise PipelineError("a pipeline needs at least one stage")
        names = [stage.name for stage in stages]
        dupes = {n for n in names if names.count(n) > 1}
        if dupes:
            raise PipelineError(f"duplicate stage names: {sorted(dupes)}")
        by_name = {stage.name: stage for stage in stages}
        for stage in stages:
            unknown = [i for i in stage.inputs if i not in by_name]
            if unknown:
                raise PipelineError(
                    f"stage {stage.name!r} consumes unknown stages: {unknown}"
                )
        self.stages = tuple(self._topological(stages, by_name))
        self._consumers = {
            s.name: [c.name for c in self.stages if s.name in c.inputs]
            for s in self.stages
        }
        self.store_dir = Path(store_dir) if store_dir is not None else None

    @staticmethod
    def _topological(
        stages: Sequence[Stage], by_name: Mapping[str, Stage]
    ) -> list[Stage]:
        """Kahn's algorithm; declaration order breaks ties (deterministic)."""
        order = {stage.name: i for i, stage in enumerate(stages)}
        indegree = {stage.name: len(stage.inputs) for stage in stages}
        dependents: dict[str, list[str]] = {stage.name: [] for stage in stages}
        for stage in stages:
            for upstream in stage.inputs:
                dependents[upstream].append(stage.name)
        ready = sorted(
            (n for n, d in indegree.items() if d == 0), key=order.__getitem__
        )
        out: list[Stage] = []
        while ready:
            name = ready.pop(0)
            out.append(by_name[name])
            changed = False
            for dep in dependents[name]:
                indegree[dep] -= 1
                if indegree[dep] == 0:
                    ready.append(dep)
                    changed = True
            if changed:
                ready.sort(key=order.__getitem__)
        if len(out) != len(stages):
            stuck = sorted(n for n, d in indegree.items() if d > 0)
            raise PipelineError(f"pipeline has a dependency cycle: {stuck}")
        return out

    def stage(self, name: str) -> Stage:
        for stage in self.stages:
            if stage.name == name:
                return stage
        raise KeyError(name)

    def keys(self) -> dict[str, str]:
        """Static stage keys, ignoring value fingerprints of dynamic stages.

        Exact for every stage whose transitive inputs all fingerprint by
        key (the default); stages downstream of a custom ``fingerprint``
        get their true key only at run time.  Useful for tests asserting
        key-sharing across pipelines.
        """
        fps: dict[str, str] = {}
        out: dict[str, str] = {}
        for stage in self.stages:
            key = stage.key({i: fps[i] for i in stage.inputs})
            out[stage.name] = key
            fps[stage.name] = key
        return out

    def open_store(self) -> Optional[ArtifactStore]:
        """The artifact store under ``store_dir``, created when absent (None
        without a ``store_dir``); an ``OSError`` when ``store_dir`` cannot
        hold one, e.g. because it is a file."""
        if self.store_dir is None:
            return None
        return ArtifactStore(self.store_dir / "stages")

    def run(self) -> PipelineResult:
        """Compute every key, then decode or run what the sinks need."""
        store = self.open_store()

        tracer, metrics = get_tracer(), get_metrics()
        by_name = {stage.name: stage for stage in self.stages}
        # status "" marks a stage this run has not touched yet
        records = {
            s.name: StageRecord(s.name, "", status="", cacheable=s.cacheable)
            for s in self.stages
        }
        values: dict[str, Any] = {}

        def tally() -> dict:
            """The clock and every counter a record books, as of now."""
            return {
                **metrics.counters(),
                "wall_s": time.perf_counter(),
                "store_hits": store.hits if store else 0,
                "store_misses": store.misses if store else 0,
            }

        def since(before: dict) -> dict:
            return {k: v - before.get(k, 0) for k, v in tally().items()}

        def settle(record: StageRecord, before: dict, upstream: dict) -> None:
            """Book what moved since ``before``, less the upstream pulls."""
            moved = {k: v - upstream.get(k, 0) for k, v in since(before).items()}
            for name in ("wall_s", "store_hits", "store_misses"):
                setattr(record, name, getattr(record, name) + moved.pop(name))
            record.metrics = {k: v for k, v in moved.items() if v}

        def pull(name: str) -> Any:
            if name not in values:
                evaluate(by_name[name])
            return values[name]

        def evaluate(stage: Stage) -> None:
            """Decode ``stage`` from the store, else pull its inputs and run it."""
            record = records[stage.name]
            ctx = StageContext(record)
            span = tracer.span(f"stage:{stage.name}", {"key": record.key[:12]})
            record.span_id = span.span_id
            before, upstream = tally(), {}
            with span:
                hit = None
                if store is not None and stage.cacheable:
                    # a 1-tuple, so a stored None is a hit too; an entry
                    # that fails to decode is a miss and the stage runs
                    hit = store.load(
                        record.key, lambda payload: (stage.decode(payload),)
                    )
                if hit is not None:
                    (value,) = hit
                    record.status = "hit"
                else:
                    mark = tally()
                    inputs = {i: pull(i) for i in stage.inputs}
                    upstream = since(mark)
                    try:
                        value = stage.func(ctx, **inputs)
                    except Exception as exc:
                        record.status = "error"
                        settle(record, before, upstream)
                        span.annotate(status="error")
                        touched = [records[s.name] for s in self.stages
                                   if records[s.name].status]
                        raise StageError(stage.name, exc, touched) from exc
                    record.status = "ran"
                    if store is not None and stage.cacheable:
                        store.save(record.key, stage.encode(value))
                span.annotate(status=record.status)
            settle(record, before, upstream)
            values[stage.name] = value

        stored: set[str] = set()
        with tracer.span(
            "pipeline.run",
            lambda: {"stages": len(self.stages), "cached": store is not None},
        ):
            # keys first: only fingerprint stages are evaluated to know them
            fingerprints: dict[str, str] = {}
            for stage in self.stages:
                key = stage.key({i: fingerprints[i] for i in stage.inputs})
                records[stage.name].key = fingerprints[stage.name] = key
                if stage.fingerprint is not None:
                    fingerprints[stage.name] = stage.fingerprint(pull(stage.name))
                if store is not None and stage.cacheable and key in store:
                    stored.add(stage.name)
            # then pull: walking back from the sinks, a stage is needed
            # when a consumer must run, and must run itself when unstored
            needed, must_run = [], set()
            for stage in reversed(self.stages):
                users = self._consumers[stage.name]
                if not users or any(u in must_run for u in users):
                    needed.append(stage.name)
                    if stage.name not in stored:
                        must_run.add(stage.name)
            for name in reversed(needed):
                pull(name)
        for record in records.values():
            if not record.status:
                record.status = "hit" if record.name in stored else "skipped"

        return PipelineResult(
            outputs=values,
            records=list(records.values()),
            store_stats=store.stats() if store is not None else None,
            terminal=self.stages[-1].name,
            pull=pull,
        )
