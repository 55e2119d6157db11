"""The knobs of one model run: :class:`FPConfig` and :class:`RunConfig`.

Plain frozen dataclasses with no numpy and no interpreter behind them, so
an experiment spec, an ensemble spec or a stage key can name a run without
loading the runtime that executes it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from ..model.builder import ModelConfig

__all__ = ["FPConfig", "RunConfig"]


@dataclass(frozen=True)
class FPConfig:
    """Floating-point behaviour of one model build (see
    :mod:`repro.runtime.fpu`).

    ``fma`` turns on fused contraction of ``a*b + c`` patterns,
    ``fma_modules`` (when not None) restricts it to the named Fortran
    modules, and ``flush_to_zero`` models ``-ftz``.
    """

    fma: bool = False
    fma_modules: Optional[frozenset[str]] = None
    flush_to_zero: bool = False

    def __post_init__(self) -> None:
        if self.fma_modules is not None and not isinstance(
            self.fma_modules, frozenset
        ):
            object.__setattr__(self, "fma_modules", frozenset(self.fma_modules))

    def fma_enabled_in(self, module_name: str) -> bool:
        """True when FMA contraction applies inside ``module_name``."""
        if not self.fma:
            return False
        return self.fma_modules is None or module_name in self.fma_modules


@dataclass(frozen=True)
class RunConfig:
    """One model run: build configuration plus runtime knobs (see
    :mod:`repro.runtime`).

    Invalid knobs raise :class:`ValueError` at construction time, so a bad
    ensemble spec fails before any member burns interpreter time.
    """

    model: ModelConfig = field(default_factory=ModelConfig)
    nsteps: int = 2
    pertlim: float = 0.0
    seed: int = 12345
    fp: FPConfig = field(default_factory=FPConfig)
    collect_coverage: bool = True
    max_statements: int = 50_000_000

    def __post_init__(self) -> None:
        if isinstance(self.nsteps, bool) or not isinstance(self.nsteps, int):
            raise ValueError(
                f"nsteps must be an int, got {type(self.nsteps).__name__}"
            )
        if self.nsteps < 1:
            raise ValueError(f"nsteps must be >= 1, got {self.nsteps}")
        if isinstance(self.pertlim, bool) or not isinstance(
            self.pertlim, (int, float)
        ):
            raise ValueError(
                f"pertlim must be a real number, got "
                f"{type(self.pertlim).__name__}"
            )
        if not math.isfinite(self.pertlim):
            raise ValueError(f"pertlim must be finite, got {self.pertlim!r}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise ValueError(
                f"seed must be an int, got {type(self.seed).__name__}"
            )
        if isinstance(self.max_statements, bool) or not isinstance(
            self.max_statements, int
        ):
            raise ValueError(
                f"max_statements must be an int, got "
                f"{type(self.max_statements).__name__}"
            )
        if self.max_statements < 1:
            raise ValueError(
                f"max_statements must be >= 1, got {self.max_statements}"
            )
