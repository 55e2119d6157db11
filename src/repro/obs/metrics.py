"""Process-wide counters.

One :class:`MetricsRegistry` unifies the telemetry previously scattered
across `ArtifactStore`, the ensemble generator and the interpreters
behind a dotted namespace:

====================================  =========================================
``store.hits/misses/writes``          pipeline artifact-store traffic
``model.parses``                      source trees actually parsed
``ensemble.members_run``              members run per ensemble generation
``interpreter.runs/statements``       scalar-interpreter work
``vec.batches/members``               vectorized passes and the members in them
``vec.mask_collapses``                divergent conditions run under a mask
``vec.lane_regions/lane_iterations``  loop executions run as lane regions
``vec.lane_fallbacks``                planned loops a guard ran per iteration
``vec.fallbacks``                     vectorized batches re-run scalar
``analysis.brandes_sources``          Girvan-Newman Brandes single-source runs
``selection.solves``                  set-cover solves
``selection.nodes_explored``          branch-and-bound nodes over those solves
``refine.iters``                      Algorithm 5.4 candidate evaluations
``ect.tests``                         consistency tests performed
====================================  =========================================

Metrics are always on: increments are lock-guarded dict ops, far below
noise on any instrumented path, so there is no enable/disable knob to
get wrong.

The counters/delta pair turns the registry into per-region telemetry:
``before = m.counters()`` ... ``m.counter_delta(before)`` yields only
the counters that moved, which is what `StageRecord.metrics` stores.
"""

from __future__ import annotations

import threading
from typing import Mapping, Optional

__all__ = ["MetricsRegistry", "get_metrics"]


class MetricsRegistry:
    """Counters under one lock (see module doc)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}

    def inc(self, name: str, value: float = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def counters(self) -> dict[str, float]:
        with self._lock:
            return dict(self._counters)

    def counter_delta(self, before: Optional[Mapping] = None) -> dict[str, float]:
        """Counters that moved since ``before`` (a prior ``counters()``
        mapping), as a flat nonzero dict."""
        base = before or {}
        delta = {}
        for name, value in self.counters().items():
            moved = value - base.get(name, 0)
            if moved:
                delta[name] = moved
        return delta

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()


#: the process-global registry every instrumented layer writes to
_METRICS = MetricsRegistry()


def get_metrics() -> MetricsRegistry:
    return _METRICS
