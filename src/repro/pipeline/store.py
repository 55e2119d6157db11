"""On-disk per-stage artifact store with hit/miss counters.

One pipeline stage result is one ``.npz`` file under the stage's
content-addressed cache key, following the conventions of
:mod:`repro.ensemble.artifact`: flat ``{name: ndarray}`` payloads written
with ``allow_pickle=False`` (no code execution on load, ever) through a
temp file + ``os.replace`` so a killed pipeline never leaves a truncated
entry behind — which is exactly what makes resume-from-cache safe after a
crash mid-stage.

Anything JSON-serializable rides along as a single-element string array
under a reserved key (:func:`json_payload` / :func:`payload_json`), so
stage adapters can mix structured metadata (module lists, weights,
refinement steps) with bulk arrays (ensemble matrices, PC scores) in one
payload.  Every entry also carries the key it was saved under, so a
valid file copied or renamed onto another key loads as a miss.

The store counts ``hits`` / ``misses`` / ``writes``; the pipeline surfaces
per-stage deltas in its :class:`~repro.pipeline.core.StageRecord` values,
so resume behavior is observable and testable instead of inferred from
wall clock.
"""

from __future__ import annotations

import json
import os
import tempfile
import zipfile
from pathlib import Path
from typing import Any, Mapping, Optional

import numpy as np

from ..errors import ReproError
from ..obs import get_metrics

__all__ = [
    "ArtifactStore",
    "StoreError",
    "find_nonfinite",
    "json_payload",
    "payload_json",
]

#: reserved payload key carrying the JSON side-channel
JSON_KEY = "__json__"
#: reserved payload key naming the store key an entry was saved under
OWNER_KEY = "__key__"


class StoreError(ReproError, ValueError):
    """Raised when a stage payload cannot be encoded or decoded."""


def find_nonfinite(obj: Any, path: str = "$") -> Optional[str]:
    """JSONPath-ish location of the first NaN/Infinity in ``obj``, or None.

    Used to turn the bare ``ValueError`` from ``json.dumps(...,
    allow_nan=False)`` into an error that names the offending field —
    ``NaN`` would otherwise serialize as the *non-JSON* token ``NaN``,
    produce a payload ``payload_json`` cannot read back, and (in cache
    keys) hash unequal to every re-computation of itself.
    """
    if isinstance(obj, float) and not np.isfinite(obj):
        return path
    if isinstance(obj, dict):
        for key, value in obj.items():
            found = find_nonfinite(value, f"{path}.{key}")
            if found is not None:
                return found
    elif isinstance(obj, (list, tuple)):
        for i, value in enumerate(obj):
            found = find_nonfinite(value, f"{path}[{i}]")
            if found is not None:
                return found
    return None


def json_payload(
    obj: Any, arrays: Optional[Mapping[str, np.ndarray]] = None
) -> dict[str, np.ndarray]:
    """A store payload carrying ``obj`` as JSON plus optional bulk arrays.

    ``obj`` must be strictly JSON-serializable — NaN/Infinity raise
    :class:`StoreError` naming the offending field rather than writing a
    payload the loader would reject; array names must not collide with
    the reserved JSON key.  The JSON text is canonical (sorted keys), so
    identical objects always produce byte-identical payload entries.
    """
    try:
        text = json.dumps(obj, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        where = find_nonfinite(obj)
        raise StoreError(
            "payload JSON carries a non-finite float at "
            f"{where or '<unknown>'}; drop or encode the value (e.g. as a "
            "string) before storing"
        ) from exc
    payload: dict[str, np.ndarray] = {JSON_KEY: np.array([text])}
    for name, value in (arrays or {}).items():
        if name in (JSON_KEY, OWNER_KEY):
            raise StoreError(f"array name {name!r} is reserved")
        payload[name] = np.asarray(value)
    return payload


def payload_json(payload: Mapping[str, np.ndarray]) -> Any:
    """The JSON object a :func:`json_payload` payload carries."""
    try:
        return json.loads(str(np.asarray(payload[JSON_KEY])[0]))
    except (KeyError, IndexError, ValueError) as exc:
        raise StoreError(f"payload carries no valid JSON entry: {exc}") from exc


class ArtifactStore:
    """Load/store flat ndarray payloads under content-addressed keys.

    The same conventions as the ensemble member cache: atomic writes,
    ``allow_pickle=False`` loads, corruption handled as a miss (the stage
    simply re-runs).  ``hits`` / ``misses`` / ``writes`` count every
    :meth:`load` / :meth:`save` outcome since construction;
    :meth:`stats` snapshots them for stage records.
    """

    def __init__(self, directory: str | os.PathLike):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.writes = 0

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.npz"

    def __contains__(self, key: str) -> bool:
        return self._path(key).exists()

    def load(self, key: str) -> Optional[dict[str, np.ndarray]]:
        """The payload stored under ``key``, or None on miss/corruption.

        An entry that does not name ``key`` as its own (copied or renamed
        from another key, or written before entries carried their key) is
        a miss too.  Arrays are materialized before the file closes, so
        the returned mapping is independent of the store.
        """
        path = self._path(key)
        if not path.exists():
            self._miss()
            return None
        try:
            with np.load(path, allow_pickle=False) as data:
                payload = {name: np.asarray(data[name]) for name in data.files}
            owner = payload.pop(OWNER_KEY)
        except (OSError, EOFError, zipfile.BadZipFile, ValueError, KeyError):
            self._miss()
            return None
        if owner.shape != (1,) or str(owner[0]) != key:
            self._miss()  # never serve an entry under another key
            return None
        self.hits += 1
        get_metrics().inc("store.hits")
        return payload

    def _miss(self) -> None:
        self.misses += 1
        get_metrics().inc("store.misses")

    def save(self, key: str, payload: Mapping[str, np.ndarray]) -> None:
        """Persist ``payload`` under ``key`` (atomic write), stamped with
        ``key`` itself so :meth:`load` can tell a misplaced entry."""
        payload = {**payload, OWNER_KEY: np.array([key])}
        fd, tmp = tempfile.mkstemp(
            dir=self.directory, prefix=".tmp-", suffix=".npz"
        )
        try:
            try:
                handle = os.fdopen(fd, "wb")
            except BaseException:
                os.close(fd)  # fdopen failed: the raw fd is still ours
                raise
            with handle:
                np.savez_compressed(
                    handle, **{k: np.asarray(v) for k, v in payload.items()}
                )
            os.replace(tmp, self._path(key))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.writes += 1
        get_metrics().inc("store.writes")

    def stats(self) -> dict[str, int]:
        """Counter snapshot: ``{"hits", "misses", "writes", "entries"}``."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "entries": sum(
                1 for p in self.directory.iterdir() if p.suffix == ".npz"
            ),
        }
