"""Hierarchical spans and the process-global tracer.

A :class:`Span` is one timed region of the root-cause workflow — a
pipeline stage, one ensemble member, one refinement iteration — with a
name, free-form ``attrs``, wall and CPU time, and a parent id that
reconstructs the hierarchy.  The :class:`Tracer` keeps a *thread-local*
span stack (spans opened on different threads nest correctly without
seeing each other) and a process-wide list of finished spans.

The tracer is **disabled by default and free when disabled**: ``span()``
returns a shared no-op handle before evaluating any attributes — pass
``attrs`` as a callable at hot call sites and it is never invoked unless
tracing is on.  Enabling happens explicitly (``enable_tracing()``, or the
CLI's ``--trace`` / ``--profile`` flags).

Spans built outside a ``with tracer.span(...)`` block — the estimated
per-member spans of a member-batched ensemble pass — enter the trace
through :meth:`Tracer.adopt`, which deduplicates by span id, so a span
arrives in the trace exactly once however often it is handed over.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional

__all__ = [
    "Span",
    "Tracer",
    "disable_tracing",
    "enable_tracing",
    "get_tracer",
    "new_span_id",
    "round_wall",
    "runtime_info",
]

#: decimals every serialized wall-clock figure is rounded to — the one
#: rounding convention ``StageRecord``/``PipelineResult``/exports share
WALL_DECIMALS = 4


def round_wall(seconds: float) -> float:
    """``seconds`` rounded to the repo-wide wall-clock precision."""
    return round(float(seconds), WALL_DECIMALS)


def runtime_info() -> dict:
    """The environment attrs bundle stamped on trace roots and benches.

    Makes timing trajectories interpretable across machines: python and
    numpy versions, CPU count, platform triple, and the repro version.
    """
    import platform

    import numpy as np

    from .. import __version__

    return {
        "repro": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
    }


#: process-local monotonic span counter; ids embed the pid, so traces of
#: different processes appended to one file can never collide
_COUNTER = itertools.count(1)


def new_span_id() -> str:
    return f"{os.getpid():x}-{next(_COUNTER):x}"


@dataclass
class Span:
    """One finished timed region (see module docstring)."""

    name: str
    span_id: str
    parent_id: Optional[str] = None
    #: epoch seconds at entry (``time.time``) — aligns spans across processes
    start: float = 0.0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    attrs: dict = field(default_factory=dict)
    pid: int = 0
    thread_id: int = 0

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "wall_s": round_wall(self.wall_s),
            "cpu_s": round_wall(self.cpu_s),
            "attrs": dict(self.attrs),
            "pid": self.pid,
            "thread_id": self.thread_id,
        }

    @classmethod
    def from_dict(cls, doc: Mapping) -> "Span":
        return cls(
            name=str(doc["name"]),
            span_id=str(doc["span_id"]),
            parent_id=doc.get("parent_id"),
            start=float(doc.get("start", 0.0)),
            wall_s=float(doc.get("wall_s", 0.0)),
            cpu_s=float(doc.get("cpu_s", 0.0)),
            attrs=dict(doc.get("attrs") or {}),
            pid=int(doc.get("pid", 0)),
            thread_id=int(doc.get("thread_id", 0)),
        )


class _NullHandle:
    """The shared no-op span handle the disabled tracer returns."""

    __slots__ = ()
    span_id = ""

    def annotate(self, **attrs: Any) -> None:
        pass

    def __enter__(self) -> "_NullHandle":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False


NULL_SPAN = _NullHandle()


class _SpanHandle:
    """Live context-manager handle of one open span."""

    __slots__ = (
        "_tracer",
        "name",
        "span_id",
        "parent_id",
        "attrs",
        "_start",
        "_wall0",
        "_cpu0",
    )

    def __init__(self, tracer: "Tracer", name: str, parent_id, attrs: dict):
        self._tracer = tracer
        self.name = name
        self.span_id = new_span_id()
        self.parent_id = parent_id
        self.attrs = attrs

    def annotate(self, **attrs: Any) -> None:
        self.attrs.update(attrs)

    def __enter__(self) -> "_SpanHandle":
        stack = self._tracer._stack()
        if self.parent_id is None and stack:
            self.parent_id = stack[-1].span_id
        if self.parent_id in (None, ""):
            # a root span: stamp the environment bundle so every exported
            # trace is interpretable on its own
            self.parent_id = None
            merged = dict(self._tracer.root_attrs)
            merged.update(self.attrs)
            self.attrs = merged
        stack.append(self)
        self._start = time.time()
        self._wall0 = time.perf_counter()
        self._cpu0 = time.process_time()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        wall = time.perf_counter() - self._wall0
        cpu = time.process_time() - self._cpu0
        stack = self._tracer._stack()
        if stack and stack[-1] is self:
            stack.pop()
        elif self in stack:  # pragma: no cover - defensive
            stack.remove(self)
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self._tracer._record(
            Span(
                name=self.name,
                span_id=self.span_id,
                parent_id=self.parent_id,
                start=self._start,
                wall_s=wall,
                cpu_s=cpu,
                attrs=self.attrs,
                pid=os.getpid(),
                thread_id=threading.get_ident(),
            )
        )
        return False


class Tracer:
    """Span collector with thread-local stacks (see module docstring)."""

    def __init__(self) -> None:
        self.enabled = False
        self.root_attrs: dict = {}
        self._finished: list[Span] = []
        self._seen: set[str] = set()
        self._lock = threading.Lock()
        self._local = threading.local()

    # ------------------------------------------------------------ lifecycle
    def enable(self, **root_attrs: Any) -> None:
        """Turn tracing on with a fresh span buffer.

        Every *root* span (no parent) automatically carries
        :func:`runtime_info` plus ``root_attrs``.
        """
        with self._lock:
            self._finished = []
            self._seen = set()
        self.root_attrs = {**runtime_info(), **root_attrs}
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    # ------------------------------------------------------------- recording
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(
        self,
        name: str,
        attrs: "Mapping | Callable[[], Mapping] | None" = None,
        parent_id: Optional[str] = None,
        **extra: Any,
    ):
        """A context-manager handle for one region, or a shared no-op.

        ``attrs`` may be a mapping or a zero-argument callable; the
        callable form is never invoked while the tracer is disabled, so
        hot call sites pay exactly one attribute check.
        """
        if not self.enabled:
            return NULL_SPAN
        merged = dict(attrs() if callable(attrs) else (attrs or {}))
        if extra:
            merged.update(extra)
        return _SpanHandle(self, name, parent_id, merged)

    def current_id(self) -> Optional[str]:
        """Id of the innermost open span on this thread, or None."""
        stack = self._stack()
        return stack[-1].span_id if stack else None

    def _record(self, span: Span) -> None:
        with self._lock:
            if span.span_id not in self._seen:
                self._seen.add(span.span_id)
                self._finished.append(span)

    def adopt(self, spans) -> int:
        """Merge externally built :class:`Span` objects (the vectorized
        backend's estimated member spans); duplicates — by span id — are
        dropped.  Returns the number actually added."""
        added = 0
        with self._lock:
            for span in spans:
                if span.span_id not in self._seen:
                    self._seen.add(span.span_id)
                    self._finished.append(span)
                    added += 1
        return added

    # -------------------------------------------------------------- queries
    def finished(self) -> list[Span]:
        """A snapshot of every finished span, oldest first."""
        with self._lock:
            return list(self._finished)

    def drain(self) -> list[Span]:
        """Return every finished span and clear the buffer (dedup memory
        is kept until the next :meth:`enable`)."""
        with self._lock:
            spans, self._finished = self._finished, []
        return spans

    def __len__(self) -> int:
        with self._lock:
            return len(self._finished)


#: the process-global tracer every instrumented layer consults
_TRACER = Tracer()


def get_tracer() -> Tracer:
    return _TRACER


def enable_tracing(**root_attrs: Any) -> Tracer:
    """Enable the global tracer (fresh buffer) and return it."""
    _TRACER.enable(**root_attrs)
    return _TRACER


def disable_tracing() -> list[Span]:
    """Disable the global tracer; returns (and clears) its spans."""
    spans = _TRACER.drain()
    _TRACER.disable()
    return spans
