"""On-disk per-stage artifact store with hit/miss counters.

One pipeline stage result is one entry, ``<key>.npz``, under the stage's
content-addressed cache key: a deflated zip holding a ``__key__`` member
(the key the entry was saved under, UTF-8), a ``__json__`` member (the
payload's JSON text, UTF-8) and one ``<name>.npy`` member per bulk array,
written and read with :mod:`numpy.lib.format` and ``allow_pickle=False``
(no code execution on load, ever) — the layout ``np.savez_compressed``
writes, with the two text members stored as plain UTF-8.  Writes go
through a temp file + ``os.replace``, so a killed pipeline never leaves a
truncated entry behind — which is exactly what makes resume-from-cache
safe after a crash mid-stage.

A payload is ``{"__json__": text, name: ndarray, ...}``: anything
JSON-serializable rides along as the JSON text (:func:`json_payload` /
:func:`payload_json`), so one payload mixes structured metadata with bulk
arrays.  numpy is imported only for an entry that has arrays, so saving
or loading a JSON-only entry (a report) needs no numpy.  On top sits the
one stage codec, :func:`encode_dataclass` / :func:`decode_dataclass`,
driven by a dataclass's declared field types.  Because every entry names
its own key, a valid file copied or renamed onto another key loads as a
miss, and so does an entry of the older all-arrays layout (no ``__key__``
member): it is recomputed once.

The store counts ``hits`` / ``misses`` / ``writes``; the pipeline surfaces
per-stage deltas in its :class:`~repro.pipeline.core.StageRecord` values,
so resume behavior is observable and testable instead of inferred from
wall clock.  Every load and save runs under a ``store.load`` /
``store.save`` span carrying the ``bytes`` it moved.
"""

from __future__ import annotations

import collections.abc
import dataclasses
import functools
import json
import math
import os
import sys
import tempfile
import types
import typing
import zipfile
import zlib
from pathlib import Path
from typing import Any, Callable, Mapping, Optional

from ..errors import ReproError
from ..obs import get_metrics, get_tracer

__all__ = [
    "ArtifactStore",
    "StoreError",
    "decode_dataclass",
    "encode_dataclass",
    "find_nonfinite",
    "json_payload",
    "payload_json",
]

#: reserved payload key (and entry member) carrying the JSON text
JSON_KEY = "__json__"
#: reserved entry member naming the store key an entry was saved under
OWNER_KEY = "__key__"
#: entry member suffix of a payload array
ARRAY_SUFFIX = ".npy"
#: name prefix of a save's temp file, which is never an entry
TMP_PREFIX = ".tmp-"


class StoreError(ReproError, ValueError):
    """Raised when a stage payload cannot be encoded or decoded."""


#: what a decode raises on a payload it cannot read: the entry is a miss
DECODE_ERRORS = (StoreError, ValueError, KeyError, IndexError, TypeError)


def _numpy():
    """numpy when something already imported it, else None.  A numpy value
    (an array, a numpy scalar) cannot exist before that, so the codec asks
    this instead of importing numpy for values that are plain Python."""
    return sys.modules.get("numpy")


def find_nonfinite(obj: Any, path: str = "$") -> Optional[str]:
    """JSONPath-ish location of the first NaN/Infinity in ``obj``, or None.

    Used to turn the bare ``ValueError`` from ``json.dumps(...,
    allow_nan=False)`` into an error that names the offending field —
    ``NaN`` would otherwise serialize as the *non-JSON* token ``NaN``,
    produce a payload ``payload_json`` cannot read back, and (in cache
    keys) hash unequal to every re-computation of itself.
    """
    if isinstance(obj, float) and not math.isfinite(obj):
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


def json_payload(obj: Any, arrays: Optional[Mapping[str, Any]] = None) -> dict:
    """A store payload carrying ``obj`` as JSON plus optional bulk arrays.

    ``obj`` must be strictly JSON-serializable — NaN/Infinity raise
    :class:`StoreError` naming the offending field rather than writing a
    payload the loader would reject; array names must not collide with
    the reserved names.  The JSON text, ``payload["__json__"]``, is
    canonical (sorted keys), so identical objects always produce
    byte-identical payload entries.
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
    payload: dict[str, Any] = {JSON_KEY: text}
    if arrays:
        import numpy as np

        for name, value in arrays.items():
            if name in (JSON_KEY, OWNER_KEY):
                raise StoreError(f"array name {name!r} is reserved")
            payload[name] = np.asarray(value)
    return payload


def payload_json(payload: Mapping[str, Any]) -> Any:
    """The JSON object a :func:`json_payload` payload carries."""
    try:
        text = payload[JSON_KEY]
        if not isinstance(text, str):
            raise TypeError(f"JSON text is a {type(text).__name__}")
        return json.loads(text)
    except (KeyError, TypeError, ValueError) as exc:
        raise StoreError(f"payload carries no valid JSON entry: {exc}") from exc


# ---------------------------------------------------------- dataclass codec
#: JSON scalar types, each with the Python values it accepts ...
_SCALARS = {bool: (bool,), int: (int,), str: (str,), float: (int, float)}
#: ... and the numpy scalar types it accepts besides
_NUMPY_SCALARS = {bool: ("bool_",), int: ("integer",), str: (),
                  float: ("integer", "floating")}


@functools.lru_cache(maxsize=None)
def _accepted(tp: type, np: Any) -> tuple[tuple[type, ...], tuple[type, ...]]:
    """``(bool types, tp's types)``: the value types that count as a bool
    and those a field declared ``tp`` accepts, while numpy is ``np``
    (None: not imported yet, so no numpy scalar exists)."""

    def types(t: type) -> tuple[type, ...]:
        if np is None:
            return _SCALARS[t]
        return _SCALARS[t] + tuple(getattr(np, n) for n in _NUMPY_SCALARS[t])

    return types(bool), types(tp)


@functools.lru_cache(maxsize=None)
def _init_fields(cls: type) -> tuple[tuple[str, Any], ...]:
    """``(name, declared type)`` of every init field of dataclass ``cls``."""
    hints = typing.get_type_hints(cls)
    return tuple(
        (f.name, hints[f.name]) for f in dataclasses.fields(cls) if f.init
    )


def _expect(x: Any, kind: "type | tuple[type, ...]", path: str) -> Any:
    """``x`` if it is a ``kind``, else a :class:`StoreError` naming ``path``."""
    if not isinstance(x, kind):
        kinds = kind if isinstance(kind, tuple) else (kind,)
        raise StoreError(
            f"field {path or '<root>'!r}: expected "
            f"{'/'.join(k.__name__ for k in kinds)}, got {type(x).__name__}"
        )
    return x


def _scalar(x: Any, tp: type, path: str) -> Any:
    """``x`` coerced to the scalar type ``tp`` (numpy scalars too)."""
    bools, accepted = _accepted(tp, _numpy())
    is_bool = isinstance(x, bools)  # a bool is no number here
    if is_bool != (tp is bool) or not isinstance(x, accepted):
        raise StoreError(
            f"field {path!r}: expected {tp.__name__}, got {type(x).__name__}"
        )
    x = tp(x)
    if tp is float and not math.isfinite(x):
        raise StoreError(f"field {path!r} carries a non-finite float")
    return x


def _walk(x: Any, tp: Any, path: str, arrays: dict, encoding: bool) -> Any:
    """``x`` as declared type ``tp``: encoded to JSON, or decoded from it."""
    if tp in _SCALARS:
        return _scalar(x, tp, path)
    if tp is dict:
        return _expect(x, dict, path)
    # a field declared np.ndarray means its module imported numpy
    if tp is getattr(_numpy(), "ndarray", None):
        if encoding:
            arrays[path] = _expect(x, tp, path)
            return path
        if not isinstance(x, str) or x not in arrays:
            raise StoreError(f"field {path!r}: no payload array {x!r}")
        return arrays.pop(x)
    if dataclasses.is_dataclass(tp):
        fields = _init_fields(tp)
        if encoding:
            x = {name: getattr(_expect(x, tp, path), name) for name, _ in fields}
        for name in sorted({n for n, _ in fields} ^ _expect(x, dict, path).keys()):
            state = "unknown" if name in x else "missing"
            raise StoreError(f"{state} field {f'{path}.{name}'.lstrip('.')!r}")
        out = {n: _walk(x[n], t, f"{path}.{n}".lstrip("."), arrays, encoding)
               for n, t in fields}
        try:
            return out if encoding else tp(**out)
        except (TypeError, ValueError) as exc:
            raise StoreError(f"field {path or '<root>'!r}: {exc}") from exc
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType) and type(None) in args:
        (inner,) = (t for t in args if t is not type(None))  # Optional only
        return None if x is None else _walk(x, inner, path, arrays, encoding)
    if origin in (list, tuple, frozenset):
        _expect(x, (list, tuple, set, frozenset) if encoding else list, path)
        fixed = origin is tuple and args[-1] is not Ellipsis
        items = args if fixed else args[:1] * len(x)
        if len(items) != len(x):
            raise StoreError(f"field {path!r}: expected {len(items)} items")
        out = [_walk(v, t, f"{path}[{i}]", arrays, encoding)
               for i, (v, t) in enumerate(zip(x, items))]
        if encoding:
            return sorted(out) if origin is frozenset else out
        return origin(out)
    if origin in (dict, collections.abc.Mapping):
        key, value = args
        if key is str:  # a JSON object
            _expect(x, collections.abc.Mapping if encoding else dict, path)
            return {
                _scalar(k, str, path):
                    _walk(v, value, f"{path}[{k}]", arrays, encoding)
                for k, v in x.items()
            }
        # any other key: [key, value] pairs, sorted by key
        if encoding:
            x = _expect(x, collections.abc.Mapping, path).items()
        elif not all(
            isinstance(p, list) and len(p) == 2 for p in _expect(x, list, path)
        ):
            raise StoreError(f"field {path!r}: expected [key, value] pairs")
        out = [[_walk(k, key, f"{path}[]", arrays, encoding),
                _walk(v, value, f"{path}[{k}]", arrays, encoding)] for k, v in x]
        return sorted(out) if encoding else dict(out)
    raise TypeError(f"the stage codec cannot store {tp!r} (field {path!r})")


def encode_dataclass(value: Any, cls: type) -> dict:
    """The store payload of ``value``, walking ``cls``'s declared field types
    (``cls`` may be a ``list`` of dataclasses, as for stored runs).

    Scalars are coerced to their declared type (a non-finite float is a
    :class:`StoreError` naming the field path); a ``frozenset`` becomes a
    sorted list, a mapping a JSON object (``str`` keys) or sorted ``[key,
    value]`` pairs, and an ``np.ndarray`` a payload array named by its
    field path (``verdict.run_scores``).  Equal values encode identically.
    """
    arrays: dict[str, Any] = {}
    return json_payload(_walk(value, cls, "", arrays, True), arrays)


def decode_dataclass(payload: Mapping[str, Any], cls: type) -> Any:
    """The ``cls`` value an :func:`encode_dataclass` payload carries; a
    missing, unknown or wrong-typed field, or an array no field names, is
    a :class:`StoreError` (so the pipeline books a miss and recomputes)."""
    arrays = {name: a for name, a in payload.items() if name != JSON_KEY}
    value = _walk(payload_json(payload), cls, "", arrays, False)
    if arrays:
        raise StoreError(f"unknown payload arrays {sorted(arrays)}")
    return value


def _write_entry(handle, key: str, payload: Mapping[str, Any]) -> None:
    """Write ``payload`` to ``handle`` as the entry of ``key`` (module
    docstring); numpy is imported for the first array only."""
    with zipfile.ZipFile(handle, "w", zipfile.ZIP_DEFLATED) as archive:
        archive.writestr(OWNER_KEY, key)
        for name, value in payload.items():
            if name == JSON_KEY:
                archive.writestr(name, value)
                continue
            import numpy as np
            from numpy.lib import format as npy

            with archive.open(name + ARRAY_SUFFIX, "w", force_zip64=True) as f:
                npy.write_array(f, np.asarray(value), allow_pickle=False)


def _read_entry(handle, key: str) -> dict[str, Any]:
    """The payload of the entry in ``handle``; a ``KeyError`` unless the
    entry names ``key`` as its own and has only known members."""
    with zipfile.ZipFile(handle) as archive:
        if archive.read(OWNER_KEY).decode("utf-8") != key:
            raise KeyError(key)  # never serve another key's entry
        payload: dict[str, Any] = {}
        for name in archive.namelist():
            if name == JSON_KEY:
                payload[name] = archive.read(name).decode("utf-8")
            elif name.endswith(ARRAY_SUFFIX):
                from numpy.lib import format as npy

                with archive.open(name) as f:
                    array = npy.read_array(f, allow_pickle=False)
                payload[name[: -len(ARRAY_SUFFIX)]] = array
            elif name != OWNER_KEY:
                raise KeyError(name)
    return payload


class ArtifactStore:
    """Load/store payloads (JSON text plus ndarrays) under
    content-addressed keys.

    Atomic writes, ``allow_pickle=False`` loads, corruption handled as a
    miss (the stage simply re-runs).  ``hits`` / ``misses`` / ``writes``
    count every :meth:`load` / :meth:`save` outcome since construction;
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

    def load(self, key: str, decode: Optional[Callable] = None) -> Any:
        """The payload stored under ``key``, or None on miss/corruption.

        An entry that does not name ``key`` as its own (copied or renamed
        from another key, or written in the older layout, which stored
        the key as an array) is a miss too, and so is one with an
        unreadable member: a deflate error, or an object array, which is
        never unpickled.  Given ``decode``, the result is
        ``decode(payload)``, and an entry it cannot read (raising one of
        :data:`DECODE_ERRORS`) counts as a miss, not a hit.  Arrays are
        materialized before the file closes, so the returned mapping is
        independent of the store.  Runs under a ``store.load`` span whose
        ``bytes`` is the size of the entry served (0 for a miss).
        """
        path = self._path(key)
        with get_tracer().span("store.load", {"bytes": 0}) as span:
            try:
                with open(path, "rb") as handle:
                    size = os.fstat(handle.fileno()).st_size
                    payload = _read_entry(handle, key)
                if decode is not None:
                    payload = decode(payload)
            except (OSError, EOFError, zipfile.BadZipFile, zlib.error,
                    *DECODE_ERRORS):
                self._miss()
                return None
            span.annotate(bytes=size)
        self.hits += 1
        get_metrics().inc("store.hits")
        return payload

    def _miss(self) -> None:
        self.misses += 1
        get_metrics().inc("store.misses")

    def save(self, key: str, payload: Mapping[str, Any]) -> None:
        """Persist ``payload`` under ``key`` (atomic write), stamped with
        ``key`` itself so :meth:`load` can tell a misplaced entry, under a
        ``store.save`` span whose ``bytes`` is the size written."""
        fd, tmp = tempfile.mkstemp(
            dir=self.directory, prefix=TMP_PREFIX, suffix=".npz"
        )
        try:
            try:
                handle = os.fdopen(fd, "wb")
            except BaseException:
                os.close(fd)  # fdopen failed: the raw fd is still ours
                raise
            with get_tracer().span("store.save") as span, handle:
                _write_entry(handle, key, payload)
                span.annotate(bytes=handle.tell())
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
        """Counter snapshot: ``{"hits", "misses", "writes", "entries"}``;
        a temp file a killed writer left behind is no entry."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "entries": sum(
                1 for p in self.directory.iterdir()
                if p.suffix == ".npz" and not p.name.startswith(TMP_PREFIX)
            ),
        }
