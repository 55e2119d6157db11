"""The unified run artifact: everything one member run produces, on disk.

A :class:`RunArtifact` is the single currency between the execution
backends, the member cache and the downstream pipeline stages: the output
snapshots (end-of-run and ``@first``), the run's :class:`CoverageTrace`,
the execution counters, and the content hash (``config_key``) of the
configuration that produced it.  Backends return artifacts (plain
arrays and counters, never interpreter internals), the cache stores and
loads them verbatim, and ``generate_ensemble`` rehydrates them
into :class:`~repro.runtime.RunResult` values — which keeps coverage
cached alongside outputs instead of being recomputed or dropped on
incremental re-runs.

The serialized form is a flat ``{name: ndarray}`` mapping (one ``.npz``
per artifact) so it round-trips through :func:`numpy.savez_compressed`
with ``allow_pickle=False`` — no code execution on load, ever.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from ..errors import ReproError
from ..runtime import CoverageTrace, RunConfig, RunResult

__all__ = ["ArtifactError", "RunArtifact"]

#: bump when the payload layout changes incompatibly
ARTIFACT_FORMAT = 2

_OUT_PREFIX = "out::"
_FIRST_PREFIX = "first::"


class ArtifactError(ReproError, ValueError):
    """Raised when a serialized artifact payload cannot be decoded."""


@dataclass
class RunArtifact:
    """One member run's persistable product (see module docstring)."""

    config_key: str
    outputs: dict[str, np.ndarray]
    first_outputs: dict[str, np.ndarray]
    coverage: CoverageTrace
    statements_executed: int
    prng_draws: int
    meta: dict = field(default_factory=dict)

    # ------------------------------------------------------------ conversion
    @classmethod
    def from_result(cls, result: RunResult, config_key: str) -> "RunArtifact":
        """Wrap a live :class:`RunResult` (arrays are shared, not copied)."""
        return cls(
            config_key=config_key,
            outputs=dict(result.outputs),
            first_outputs=dict(result.first_outputs),
            coverage=result.coverage,
            statements_executed=result.statements_executed,
            prng_draws=result.prng_draws,
        )

    def to_result(self, config: RunConfig) -> RunResult:
        """Rehydrate the :class:`RunResult` for ``config``.

        The caller vouches that ``config`` is the configuration hashed into
        ``config_key`` — the cache layer verifies this by construction
        (the key addresses the entry), the backends by assignment.
        """
        return RunResult(
            config=config,
            outputs=dict(self.outputs),
            coverage=self.coverage,
            statements_executed=self.statements_executed,
            prng_draws=self.prng_draws,
            first_outputs=dict(self.first_outputs),
        )

    # --------------------------------------------------------- serialization
    def to_payload(self) -> dict[str, np.ndarray]:
        """Flat ``{name: ndarray}`` mapping for ``np.savez`` round-trips."""
        payload: dict[str, np.ndarray] = {
            "format": np.array([ARTIFACT_FORMAT], dtype=np.int64),
            "config_key": np.array([self.config_key]),
            "meta": np.array(
                [self.statements_executed, self.prng_draws], dtype=np.int64
            ),
        }
        for name, value in self.outputs.items():
            payload[f"{_OUT_PREFIX}{name}"] = np.asarray(value)
        for name, value in self.first_outputs.items():
            payload[f"{_FIRST_PREFIX}{name}"] = np.asarray(value)
        if self.coverage.counts:
            items = sorted(self.coverage.counts.items())
            payload["cov_files"] = np.array([k[0] for k, _ in items])
            payload["cov_lines"] = np.array(
                [k[1] for k, _ in items], dtype=np.int64
            )
            payload["cov_counts"] = np.array(
                [count for _, count in items], dtype=np.int64
            )
        return payload

    @classmethod
    def from_payload(cls, data: Mapping[str, np.ndarray]) -> "RunArtifact":
        """Decode a payload produced by :meth:`to_payload`.

        Raises :class:`ArtifactError` on any structural mismatch — the
        cache treats that as a miss and re-runs the member.
        """
        try:
            fmt = int(np.asarray(data["format"])[0])
            if fmt != ARTIFACT_FORMAT:
                raise ArtifactError(
                    f"artifact format {fmt} != expected {ARTIFACT_FORMAT}"
                )
            config_key = str(np.asarray(data["config_key"])[0])
            meta = np.asarray(data["meta"])
            statements, draws = int(meta[0]), int(meta[1])
            outputs: dict[str, np.ndarray] = {}
            first_outputs: dict[str, np.ndarray] = {}
            for full in data:
                if full.startswith(_OUT_PREFIX):
                    outputs[full[len(_OUT_PREFIX):]] = np.asarray(data[full])
                elif full.startswith(_FIRST_PREFIX):
                    first_outputs[full[len(_FIRST_PREFIX):]] = np.asarray(
                        data[full]
                    )
            counts: dict[tuple[str, int], int] = {}
            if "cov_files" in data:
                for fname, line, count in zip(
                    np.asarray(data["cov_files"]),
                    np.asarray(data["cov_lines"]),
                    np.asarray(data["cov_counts"]),
                ):
                    counts[(str(fname), int(line))] = int(count)
        except ArtifactError:
            raise
        except (KeyError, ValueError, IndexError, TypeError) as exc:
            raise ArtifactError(f"malformed artifact payload: {exc}") from exc
        return cls(
            config_key=config_key,
            outputs=outputs,
            first_outputs=first_outputs,
            coverage=CoverageTrace(counts),
            statements_executed=statements,
            prng_draws=draws,
        )
