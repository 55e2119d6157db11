"""Content-addressed on-disk cache of ensemble member run artifacts.

A member's cache key is a SHA-256 over everything that determines its
numbers: the *patched* compiled source text (so a new bug patch or any
model-source edit invalidates automatically), every runtime knob of its
:class:`~repro.runtime.RunConfig` — including the **full**
:class:`~repro.runtime.FPConfig` floating-point model and the
coverage-enablement flag, so cache hits can never cross numerically or
observationally distinct configurations — and a format version.  Values
are :class:`~repro.ensemble.artifact.RunArtifact` payloads (one ``.npz``
per member: output snapshots, ``@first`` snapshots, coverage counts, run
counters), so coverage is cached alongside outputs and incremental
re-runs preserve it.

The FP token is derived generically from the ``FPConfig`` dataclass
fields: a field added to ``FPConfig`` in a later PR automatically changes
the hash instead of being silently omitted (the regression that motivated
this layout).

Writes go through a temp file + ``os.replace`` so a crashed run never
leaves a truncated entry behind, and concurrent generators racing on the
same key simply both win.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
import zipfile
from pathlib import Path
from typing import Optional

import numpy as np

from ..model.builder import ModelSource
from ..obs import get_metrics, get_tracer
from ..runtime import FPConfig, RunConfig, RunResult
from .artifact import ArtifactError, RunArtifact

__all__ = ["MemberCache", "member_cache_key"]

#: bump when the serialized layout or run semantics change incompatibly.
#: 2: RunArtifact payloads (adds format/config_key fields) + generic FP token.
CACHE_FORMAT = 2


def _json_safe(value):
    """Make dataclass field values deterministic JSON (sets sorted, floats
    hex-exact so -0.0/rounding can never alias two configs)."""
    if isinstance(value, (frozenset, set)):
        return sorted(_json_safe(v) for v in value)
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in sorted(value.items())}
    if isinstance(value, bool) or value is None or isinstance(value, (str, int)):
        return value
    if isinstance(value, float):
        return float(value).hex()
    return repr(value)


def _fp_token(fp: FPConfig) -> dict:
    """Every FPConfig field, generically: new knobs can't be missed."""
    return {
        f.name: _json_safe(getattr(fp, f.name))
        for f in dataclasses.fields(fp)
    }


def member_cache_key(source: ModelSource, config: RunConfig) -> str:
    """The content hash identifying one run of one built source tree."""
    h = hashlib.sha256()
    h.update(b"repro-ensemble-member\x00")
    h.update(str(CACHE_FORMAT).encode())
    # the source identity is memoized per ModelSource instance, so deriving
    # N member keys hashes the ~40-file tree once, not N times
    h.update(source.content_digest().encode())
    token = {
        "nsteps": config.nsteps,
        "pertlim": float(config.pertlim).hex(),
        "seed": config.seed,
        "fp": _fp_token(config.fp),
        "collect_coverage": bool(config.collect_coverage),
        "max_statements": config.max_statements,
    }
    h.update(json.dumps(token, sort_keys=True).encode())
    return h.hexdigest()


class MemberCache:
    """Load/store :class:`RunArtifact` values under content-addressed keys."""

    def __init__(self, directory: str | os.PathLike):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.npz"

    def load_artifact(self, key: str) -> Optional[RunArtifact]:
        """The cached artifact for ``key``, or None on miss/corruption,
        under a ``member_cache.load`` span with the ``bytes`` read."""
        path = self._path(key)
        with get_tracer().span("member_cache.load", {"bytes": 0}) as span:
            if not path.exists():
                self._miss()
                return None
            try:
                # the loader owns the handle, so a corrupt body numpy
                # rejects after opening the file still closes it
                with open(path, "rb") as handle:
                    span.annotate(bytes=os.fstat(handle.fileno()).st_size)
                    with np.load(handle, allow_pickle=False) as data:
                        artifact = RunArtifact.from_payload(data)
            except (
                OSError,
                EOFError,  # zero-length/truncated file
                zipfile.BadZipFile,  # zip magic but corrupt body
                ArtifactError,
                KeyError,
                ValueError,
                IndexError,
            ):
                self._miss()
                return None
        if artifact.config_key != key:
            # a renamed/mangled entry: never serve it under the wrong key
            self._miss()
            return None
        self.hits += 1
        get_metrics().inc("member_cache.hits")
        return artifact

    def _miss(self) -> None:
        self.misses += 1
        get_metrics().inc("member_cache.misses")

    def load(self, key: str, config: RunConfig) -> Optional[RunResult]:
        """The cached result for ``key`` rehydrated for ``config``."""
        artifact = self.load_artifact(key)
        if artifact is None:
            return None
        return artifact.to_result(config)

    def store_artifact(self, artifact: RunArtifact) -> None:
        """Persist ``artifact`` under its own content key (atomic write),
        under a ``member_cache.store`` span with the ``bytes`` written."""
        payload = artifact.to_payload()
        fd, tmp = tempfile.mkstemp(
            dir=self.directory, prefix=".tmp-", suffix=".npz"
        )
        try:
            try:
                handle = os.fdopen(fd, "wb")
            except BaseException:
                os.close(fd)  # fdopen failed: the raw fd is still ours
                raise
            with get_tracer().span("member_cache.store") as span, handle:
                np.savez_compressed(handle, **payload)
                span.annotate(bytes=handle.tell())
            os.replace(tmp, self._path(artifact.config_key))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def store(self, key: str, result: RunResult) -> None:
        """Persist ``result`` under ``key`` (compat shim over artifacts)."""
        self.store_artifact(RunArtifact.from_result(result, key))
