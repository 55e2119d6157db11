"""Member-batched splitmix64 streams for the vectorized runtime.

:class:`BatchedPRNGStreams` advances one scalar
:class:`~repro.runtime.prng.PRNGStreams` family per ensemble member in
lockstep over a uint64 state vector, so member ``m`` of every draw is
bit-identical to the draw a scalar run seeded with that member's seed
makes.
"""

from __future__ import annotations

import numpy as np

from .prng import _GOLDEN, _MASK64, _fnv1a

__all__ = ["BatchedPRNGStreams", "BatchedStream"]

_GOLDEN64 = np.uint64(_GOLDEN)


def _mix64_vec(z: np.ndarray) -> np.ndarray:
    """The scalar splitmix64 mix over a uint64 array (wrapping arithmetic
    is native)."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


class BatchedStream:
    """One splitmix64 stream per ensemble member, advanced in lockstep.

    Member ``m`` of every draw is bit-identical to a scalar
    :class:`~repro.runtime.prng.Stream` seeded with ``seeds[m]`` — the
    state update and output mix are the same arithmetic, evaluated
    element-wise over a ``(n,)`` uint64 state vector.
    """

    __slots__ = ("state", "draws")

    def __init__(self, seeds: np.ndarray):
        self.state = np.asarray(seeds, dtype=np.uint64).copy()
        self.draws = 0

    def next_u64(self) -> np.ndarray:
        self.state = self.state + _GOLDEN64
        self.draws += 1
        return _mix64_vec(self.state)

    def uniform(self) -> np.ndarray:
        """Per-member uniform doubles in ``[0, 1)`` from the top 53 bits."""
        return (self.next_u64() >> np.uint64(11)).astype(np.float64) * (
            1.0 / (1 << 53)
        )

    def fill(self, array, n: int | None = None) -> None:
        """Fill the first ``n`` *model-space* elements of a member-batched
        ``array`` in row-major model order, one vector draw per element —
        the same element order (and so the same per-member draw sequence)
        as :meth:`~repro.runtime.prng.Stream.fill` over each member's
        model array."""
        base = np.asarray(array)
        model_shape = base.shape[1:]
        size = 1
        for extent in model_shape:
            size *= extent
        count = size if n is None else int(n)
        if len(model_shape) == 1:
            for i in range(count):
                base[:, i] = self.uniform()
            return
        for filled, index in enumerate(np.ndindex(*model_shape)):
            if filled >= count:
                break
            base[(slice(None),) + index] = self.uniform()


class BatchedPRNGStreams:
    """Per-member :class:`~repro.runtime.prng.PRNGStreams` families
    advanced in lockstep.

    ``base_seeds`` carries one base seed per ensemble member; the stream a
    module owns is seeded per member with exactly the scalar derivation
    ``_mix64(base_seed) ^ _fnv1a(module_name)``, so member ``m`` of every
    batched draw equals the draw a scalar run seeded with ``base_seeds[m]``
    would have produced.
    """

    def __init__(self, base_seeds):
        self.base_seeds = np.array(
            [int(s) & _MASK64 for s in np.asarray(base_seeds).tolist()],
            dtype=np.uint64,
        )
        self._streams: dict[str, BatchedStream] = {}

    @property
    def n_members(self) -> int:
        return int(self.base_seeds.shape[0])

    def reseed(self, base_seeds) -> None:
        """Restart every stream; accepts one seed (broadcast) or one per
        member."""
        seeds = np.asarray(base_seeds)
        if seeds.ndim == 0:
            seeds = np.full(self.n_members, int(seeds), dtype=object)
        self.base_seeds = np.array(
            [int(s) & _MASK64 for s in seeds.tolist()], dtype=np.uint64
        )
        self._streams.clear()

    def stream(self, module_name: str) -> BatchedStream:
        """The batched stream owned by ``module_name`` (created on use)."""
        stream = self._streams.get(module_name)
        if stream is None:
            seed = _mix64_vec(self.base_seeds) ^ np.uint64(
                _fnv1a(module_name)
            )
            stream = BatchedStream(seed)
            self._streams[module_name] = stream
        return stream

    def total_draws(self) -> int:
        """Number of vector draws taken across all streams (each vector
        draw is one per-member draw)."""
        return sum(s.draws for s in self._streams.values())
