"""What one model run produces: :class:`RunResult`.

Both execution paths return it — the scalar interpreter's
:func:`~repro.runtime.interpreter.run_model` and the member-batched
:func:`~repro.runtime.vec.run_model_batch` — and every downstream layer
(``repro.ensemble``, ``repro.ect``, ``repro.slicing``) consumes only this
type, never evaluator internals.  It lives apart from the interpreter, so
decoding stored runs loads no interpreter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .config import RunConfig
from .coverage import CoverageTrace

__all__ = ["RunResult"]


@dataclass
class RunResult:
    """Everything one run produces for the downstream pipeline stages.

    ``outputs`` holds the end-of-run write of every history field;
    ``first_outputs`` holds the first write (the end of step one).  The
    first-step snapshot is the consistency-testing layer's high-sensitivity
    view: fields the stochastic physics has not yet touched stay
    bit-identical across ensemble members, so ULP-level effects such as FMA
    contraction remain visible there long after chaotic growth has folded
    them into the end-state spread.
    """

    config: RunConfig
    outputs: dict[str, np.ndarray]
    coverage: CoverageTrace
    statements_executed: int
    prng_draws: int
    first_outputs: dict[str, np.ndarray] = field(default_factory=dict)

    def output_vector(self) -> dict[str, float]:
        """The named output-variable vector: global mean of every field,
        ordered like the registry's output-field declarations."""
        return {
            name: float(np.mean(value)) for name, value in self.outputs.items()
        }

    def output_array(
        self,
        names: Optional[list[str]] = None,
        which: str = "final",
    ) -> np.ndarray:
        """An ordered numpy vector of global means, aligned with
        ``OUTPUT_FIELDS`` declaration order (then extra fields, sorted).

        Parameters
        ----------
        names:
            Explicit field order; defaults to ``list(self.outputs)``, whose
            order run_model fixes to the registry declaration order.  Pass
            the same list for every run of an ensemble so rows line up.
        which:
            ``"final"`` for the end-of-run snapshot, ``"first"`` for the
            end-of-first-step snapshot.
        """
        if which == "final":
            source = self.outputs
        elif which == "first":
            source = self.first_outputs
        else:
            raise ValueError(
                f"which must be 'final' or 'first', got {which!r}"
            )
        if names is None:
            names = list(source)
        try:
            return np.array(
                [float(np.mean(source[name])) for name in names], dtype=float
            )
        except KeyError as exc:
            raise KeyError(
                f"output field {exc.args[0]!r} was not produced by this run "
                f"(known: {', '.join(source)})"
            ) from None

    def is_finite(self) -> bool:
        """True when every output field is finite everywhere."""
        return all(bool(np.isfinite(v).all()) for v in self.outputs.values())

    def difference(self, other: "RunResult") -> dict[str, float]:
        """Max absolute elementwise difference per shared output field."""
        out: dict[str, float] = {}
        for name, value in self.outputs.items():
            if name in other.outputs:
                out[name] = float(np.max(np.abs(value - other.outputs[name])))
        return out
