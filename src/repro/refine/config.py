"""The knobs of Algorithm 5.4: :class:`RefinementConfig`.

A plain frozen dataclass, importable without numpy, so an experiment spec
or a stage key can name a refinement without loading the refiner
(:mod:`repro.refine.algorithm`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..ect.config import EctConfig

__all__ = ["RefinementConfig"]


@dataclass(frozen=True)
class RefinementConfig:
    """Knobs of Algorithm 5.4 (defaults tuned on the five paper patches)."""

    #: refinement-ensemble size: the accepted ensemble's first ``members``
    #: rows (16 is the smallest that still detects every registered
    #: patch), so it may not exceed the accepted ensemble's size
    members: int = 16
    #: stop pruning once the suspect set is at most this fraction of all
    #: graph modules (0.25 of 40 modules = the paper-scale 10-module bar)
    target_fraction: float = 0.25
    #: protection radius, in BFS levels: suspects within ``slack`` of a
    #: top evidence variable's seed nodes are never sampled for exclusion
    slack: int = 2
    #: number of strongest evidence variables whose neighbourhood is
    #: protected from exclusion sampling
    top_variables: int = 4
    #: number of deviating output variables carried as refinement evidence
    evidence_variables: int = 12
    #: maximum scopes sampled into one exclusion candidate (Algorithm 5.4's
    #: subset sampling width)
    sample_size: int = 4
    #: hard cap on exclusion tests per refinement
    max_iterations: int = 64
    #: per-BFS-level evidence attenuation (matches the slicer's default)
    decay: float = 0.5
    #: seed of the candidate-sampling PRNG — the only stochastic input, so
    #: one seed fixes the whole refinement trajectory
    seed: int = 1729
    #: configuration of the scoped consistency tests (None = ECT defaults)
    ect: Optional[EctConfig] = None

    def __post_init__(self) -> None:
        if self.members < 3:
            raise ValueError(
                f"refinement ensembles need >= 3 members, got {self.members}"
            )
        if not 0.0 < self.target_fraction <= 1.0:
            raise ValueError(
                f"target_fraction must be in (0, 1], got {self.target_fraction}"
            )
        if self.slack < 0:
            raise ValueError(f"slack must be >= 0, got {self.slack}")
        if self.sample_size < 1:
            raise ValueError(
                f"sample_size must be >= 1, got {self.sample_size}"
            )
        if not 0.0 < self.decay <= 1.0:
            raise ValueError(f"decay must be in (0, 1], got {self.decay}")
        if self.top_variables < 1 or self.evidence_variables < 1:
            raise ValueError("variable counts must be >= 1")

    def check_fits(self, accepted_members: int) -> None:
        """Raise ``ValueError`` unless the refinement ensemble fits in an
        accepted ensemble of ``accepted_members`` members."""
        if self.members > accepted_members:
            raise ValueError(
                f"the refinement ensemble of {self.members} members is "
                f"larger than the accepted ensemble of {accepted_members} "
                "members: it is made of the accepted ensemble's first rows"
            )
