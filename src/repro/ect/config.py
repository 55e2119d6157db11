"""The knobs of the consistency test: :class:`EctConfig`.

A plain frozen dataclass, importable without numpy, so an experiment spec
or a stage key can name a test configuration without loading the test
(:mod:`repro.ect.core`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["EctConfig"]


@dataclass(frozen=True)
class EctConfig:
    """Knobs of the consistency test (defaults follow the paper's shape)."""

    #: cumulative explained-variance fraction selecting how many PCs to keep
    variance_fraction: float = 0.95
    #: hard cap on retained PCs (None = no cap beyond the variance rule)
    max_pcs: Optional[int] = None
    #: per-PC confidence interval half-width, in member-score std units
    sigma: float = 2.0
    #: a PC fails when outside the CI in at least this many of the K runs
    min_runs_per_pc: int = 2
    #: the experiment fails when at least this many PCs fail
    min_failing_pcs: int = 3
    #: ... or when at least this many runs violate a bit-exact invariant
    min_invariant_runs: int = 2
    #: gross-outlier guard: a single variable whose standardized deviation
    #: exceeds this (in ensemble-sd units) in >= ``min_runs_per_pc`` runs
    #: fails the experiment even when the energy concentrates in too few
    #: PCs to trip the PC rule (the original CAM-ECT's variable-level test)
    variable_sigma: float = 4.0
    #: the experiment fails when at least this many variables trip the guard
    min_failing_variables: int = 1
    #: loadings at least this fraction of a failing PC's largest loading
    #: attribute the failure to that variable
    loading_fraction: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.variance_fraction <= 1.0:
            raise ValueError(
                f"variance_fraction must be in (0, 1], got "
                f"{self.variance_fraction}"
            )
        if self.sigma <= 0.0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if self.min_runs_per_pc < 1 or self.min_failing_pcs < 1:
            raise ValueError("failure-count thresholds must be >= 1")
