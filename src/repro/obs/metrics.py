"""Process-wide counters, gauges, and fixed-bucket histograms.

One :class:`MetricsRegistry` unifies the telemetry previously scattered
across `ArtifactStore`, the ensemble generator, and the bench script
behind a dotted namespace:

=========================  ==================================================
``store.hits/misses/writes``        pipeline artifact-store traffic
``ensemble.members_run``            members run per ensemble generation
``interpreter.runs/statements``     scalar-interpreter work
``vec.batches/mask_collapses``      vectorized-runtime work and divergence
``vec.lane_regions/lane_iterations`` loop executions run as lane regions
``vec.lane_fallbacks``              planned loops a guard ran per iteration
``vec.fallbacks``                   vectorized batches re-run scalar
``analysis.brandes_sources``        Girvan-Newman Brandes single-source runs
``refine.iters``                    Algorithm 5.4 candidate evaluations
``ect.tests``                       consistency tests performed
=========================  ==================================================

Metrics are always on: increments are lock-guarded dict ops, far below
noise on any instrumented path, so there is no enable/disable knob to
get wrong.

The snapshot/delta pair turns the registry into per-region telemetry:
``before = m.snapshot()`` ... ``m.counter_delta(before)`` yields only
the counters that moved, which is what `StageRecord.metrics` stores.
"""

from __future__ import annotations

import bisect
import threading
from typing import Mapping, Optional, Sequence

__all__ = ["DEFAULT_BUCKETS", "MetricsRegistry", "get_metrics"]

#: histogram bucket upper bounds (seconds-flavored, powers of ~10/3)
DEFAULT_BUCKETS = (0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0)


class MetricsRegistry:
    """Counters + gauges + histograms under one lock (see module doc)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        # name -> (bucket_bounds, per-bucket counts [len(bounds)+1 for +inf],
        #          total count, running sum)
        self._hists: dict[str, tuple[tuple, list, int, float]] = {}

    # -------------------------------------------------------------- writers
    def inc(self, name: str, value: float = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        with self._lock:
            self._gauges[name] = value

    def observe(
        self, name: str, value: float, buckets: Sequence[float] = DEFAULT_BUCKETS
    ) -> None:
        with self._lock:
            entry = self._hists.get(name)
            if entry is None:
                bounds = tuple(buckets)
                entry = (bounds, [0] * (len(bounds) + 1), 0, 0.0)
            bounds, counts, count, total = entry
            counts[bisect.bisect_left(bounds, value)] += 1
            self._hists[name] = (bounds, counts, count + 1, total + value)

    # -------------------------------------------------------------- readers
    def counters(self) -> dict[str, float]:
        with self._lock:
            return dict(self._counters)

    def snapshot(self) -> dict:
        """Full JSON-safe dump: counters, gauges, and histogram summaries."""
        with self._lock:
            hists = {
                name: {
                    "buckets": list(bounds),
                    "counts": list(counts),
                    "count": count,
                    "sum": total,
                }
                for name, (bounds, counts, count, total) in self._hists.items()
            }
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": hists,
            }

    def counter_delta(self, before: Optional[Mapping] = None) -> dict[str, float]:
        """Counters that moved since ``before`` (a prior ``snapshot()`` or
        ``counters()`` mapping), as a flat nonzero dict."""
        base: Mapping = {}
        if before:
            base = before["counters"] if "counters" in before else before
        delta = {}
        for name, value in self.counters().items():
            moved = value - base.get(name, 0)
            if moved:
                delta[name] = moved
        return delta

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._hists.clear()


#: the process-global registry every instrumented layer writes to
_METRICS = MetricsRegistry()


def get_metrics() -> MetricsRegistry:
    return _METRICS
