"""Ensemble specification: how N accepted members are derived from one seed.

The paper's accepted ensemble is a set of model runs that differ only in
ways the climate is *allowed* to differ: a tiny initial-temperature
perturbation (``pertlim``) and an independent PRNG seed per member.  An
:class:`EnsembleSpec` captures everything else — build configuration,
step count, floating-point model — so that one spec deterministically
expands into N :class:`~repro.runtime.RunConfig` objects: member ``i``'s
``pertlim`` draw and seed come from a dedicated splitmix64 stream keyed by
``(base_seed, i)``, so adding members never reshuffles existing ones and a
re-run with the same spec reproduces every member bit-for-bit (which is
what makes caching an ensemble under its spec's key sound).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..model.builder import ModelConfig
from ..runtime.config import FPConfig, RunConfig
from ..runtime.prng import PRNGStreams

__all__ = ["EnsembleSpec"]


@dataclass(frozen=True)
class EnsembleSpec:
    """N accepted-ensemble members derived deterministically from one seed.

    ``pertlim`` is the *magnitude* knob: member ``i`` perturbs the initial
    temperature by a uniform draw in ``[-pertlim, +pertlim)``.  ``base_seed``
    seeds both the per-member draw and the member's own stream-per-module
    PRNG seed, so two specs differing only in ``base_seed`` give disjoint
    ensembles.
    """

    model: ModelConfig = field(default_factory=ModelConfig)
    n_members: int = 30
    nsteps: int = 2
    pertlim: float = 1.0e-14
    base_seed: int = 9100
    fp: FPConfig = field(default_factory=FPConfig)
    collect_coverage: bool = True
    max_statements: int = 50_000_000

    def __post_init__(self) -> None:
        if isinstance(self.n_members, bool) or not isinstance(
            self.n_members, int
        ):
            raise ValueError(
                f"n_members must be an int, got {type(self.n_members).__name__}"
            )
        if self.n_members < 2:
            raise ValueError(
                f"an ensemble needs at least 2 members, got {self.n_members}"
            )
        # delegate knob validation (finite pertlim, int seed, nsteps >= 1)
        # to RunConfig so the error surfaces at spec construction time
        self._derive(0)

    def _derive(self, index: int) -> tuple[float, int]:
        """Member ``index``'s ``(pertlim draw, seed)`` — stable per index."""
        stream = PRNGStreams(self.base_seed).stream(f"ensemble.member.{index}")
        pert = (2.0 * stream.uniform() - 1.0) * self.pertlim
        seed = int(stream.next_u64() >> 33)  # 31-bit, plenty of key space
        RunConfig(nsteps=self.nsteps, pertlim=pert, seed=seed)  # validate
        return pert, seed

    def member_config(self, index: int) -> RunConfig:
        """The :class:`RunConfig` of member ``index`` (0-based)."""
        if index < 0 or index >= self.n_members:
            raise IndexError(
                f"member index {index} out of range for n_members="
                f"{self.n_members}"
            )
        pert, seed = self._derive(index)
        return RunConfig(
            model=self.model,
            nsteps=self.nsteps,
            pertlim=pert,
            seed=seed,
            fp=self.fp,
            collect_coverage=self.collect_coverage,
            max_statements=self.max_statements,
        )

    def member_configs(self) -> list[RunConfig]:
        """All member configs, in member order."""
        return [self.member_config(i) for i in range(self.n_members)]

    def experimental_config(
        self,
        run_index: int,
        model: ModelConfig | None = None,
        fp: FPConfig | None = None,
    ) -> RunConfig:
        """A held-out experimental run config that shares the spec's knobs.

        Experimental seeds live in a stream disjoint from every member's
        (``ensemble.experimental.<i>`` vs ``ensemble.member.<i>``), so an
        unpatched experimental run is a genuine new draw from the accepted
        distribution — the pass case ECT must get right.
        """
        stream = PRNGStreams(self.base_seed).stream(
            f"ensemble.experimental.{run_index}"
        )
        pert = (2.0 * stream.uniform() - 1.0) * self.pertlim
        seed = int(stream.next_u64() >> 33)
        return RunConfig(
            model=self.model if model is None else model,
            nsteps=self.nsteps,
            pertlim=pert,
            seed=seed,
            fp=self.fp if fp is None else fp,
            collect_coverage=self.collect_coverage,
            max_statements=self.max_statements,
        )
