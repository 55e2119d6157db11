"""repro.obs — dependency-free tracing, metrics, and profiling.

Three pieces, threaded through every layer of the stack:

* :mod:`repro.obs.trace` — hierarchical :class:`Span`s with a
  context-manager/decorator API on a process-global :class:`Tracer`
  (thread-local stacks, span-id-deduplicated adoption, zero overhead
  while disabled).
* :mod:`repro.obs.metrics` — always-on counters in a
  :class:`MetricsRegistry` unifying the store / ensemble /
  interpreter / refinement telemetry under one dotted namespace.
* :mod:`repro.obs.export` — JSONL traces, a Chrome ``trace_event``
  converter, span summaries, and the hottest-modules profile table.

See ``docs/observability.md`` for the end-to-end walkthrough.
"""

from .export import (
    chrome_trace,
    hot_modules,
    read_trace,
    render_profile,
    render_summary,
    summarize_spans,
    write_chrome_trace,
    write_trace,
)
from .metrics import MetricsRegistry, get_metrics
from .trace import (
    NULL_SPAN,
    WALL_DECIMALS,
    Span,
    Tracer,
    disable_tracing,
    enable_tracing,
    get_tracer,
    new_span_id,
    round_wall,
    runtime_info,
)

__all__ = [
    "MetricsRegistry",
    "NULL_SPAN",
    "Span",
    "Tracer",
    "WALL_DECIMALS",
    "chrome_trace",
    "disable_tracing",
    "enable_tracing",
    "get_metrics",
    "get_tracer",
    "hot_modules",
    "new_span_id",
    "read_trace",
    "render_profile",
    "render_summary",
    "round_wall",
    "runtime_info",
    "summarize_spans",
    "write_chrome_trace",
    "write_trace",
]
