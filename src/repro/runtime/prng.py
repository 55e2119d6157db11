"""Reproducible pseudo-random number streams for the model runtime.

CESM's ``shr_random`` layer gives every component an independent,
seed-derived random stream so that runs are bit-reproducible regardless of
how components interleave their draws; the paper's RAND-MT experiment swaps
one such stream's generator.  This module is the runtime's stand-in: a
:class:`PRNGStreams` object owns one deterministic :class:`Stream` per
Fortran *module*, each seeded from ``(base_seed, module_name)`` with a
stable (non-randomised) hash, so

* the same ``RunConfig.seed`` always reproduces the same draws, and
* adding a draw in one module never shifts the stream of another.

The generator is splitmix64 — tiny, fast, passes BigCrush for this use, and
needs no external dependency: the scalar streams import without numpy, and
the member-batched ones (:mod:`repro.runtime.batched_prng`) run the same
arithmetic over numpy arrays.  Uniform doubles are formed from the top 53
bits, so every value is exactly representable and in ``[0, 1)``.
"""

from __future__ import annotations

import itertools

from .._lazy import lazy_exports

__all__ = ["BatchedPRNGStreams", "BatchedStream", "PRNGStreams", "Stream"]

# the member-batched streams need numpy, the scalar ones do not
_, __getattr__, __dir__ = lazy_exports(__name__, {
    ".batched_prng": ("BatchedPRNGStreams", "BatchedStream"),
})

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    """The splitmix64 output mixing function."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _fnv1a(text: str) -> int:
    """64-bit FNV-1a hash of ``text`` (stable across processes)."""
    h = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & _MASK64
    return h


class Stream:
    """One splitmix64 stream."""

    __slots__ = ("state", "draws")

    def __init__(self, seed: int):
        self.state = seed & _MASK64
        self.draws = 0

    def next_u64(self) -> int:
        self.state = (self.state + _GOLDEN) & _MASK64
        self.draws += 1
        return _mix64(self.state)

    def uniform(self) -> float:
        """A uniform double in ``[0, 1)`` from the top 53 bits."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def fill(self, array, n: int | None = None) -> None:
        """Fill the first ``n`` elements of ``array`` in row-major order
        (all elements when ``None``), writing through views in place.

        Indexing the array directly — never ``reshape``/``ravel``, which
        silently return *copies* for non-contiguous section views — so
        ``call random_number(a(1:2, 1:2))`` fills the caller's storage.
        """
        count = array.size if n is None else int(n)
        if array.ndim == 1:
            for i in range(count):
                array[i] = self.uniform()
            return
        shape = (range(extent) for extent in array.shape)
        for filled, index in enumerate(itertools.product(*shape)):
            if filled >= count:
                break
            array[index] = self.uniform()


class PRNGStreams:
    """A family of per-module streams derived from one base seed."""

    def __init__(self, base_seed: int = 12345):
        self.base_seed = int(base_seed)
        self._streams: dict[str, Stream] = {}

    def reseed(self, base_seed: int) -> None:
        """Restart every stream from a new base seed."""
        self.base_seed = int(base_seed)
        self._streams.clear()

    def stream(self, module_name: str) -> Stream:
        """The stream owned by ``module_name`` (created on first use)."""
        stream = self._streams.get(module_name)
        if stream is None:
            seed = _mix64(self.base_seed & _MASK64) ^ _fnv1a(module_name)
            stream = Stream(seed)
            self._streams[module_name] = stream
        return stream

    def total_draws(self) -> int:
        """Number of uniform draws taken across all streams."""
        return sum(s.draws for s in self._streams.values())
