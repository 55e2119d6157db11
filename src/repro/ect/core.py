"""UF-CAM-ECT style PCA consistency testing (numpy only).

The test decides whether K experimental runs are statistically
distinguishable from an accepted ensemble.  It works in two channels:

*PCA channel.*  Ensemble variables with nonzero spread are standardized
(mean 0, unit variance over the members), decomposed with an SVD, and
truncated to the leading principal components explaining
``variance_fraction`` of the ensemble variance — low-variance directions
of a 30-member sample are dominated by estimation noise, and keeping them
is what makes naive implementations flag *everything* (the paper keeps 50
of 120 PCs for the same reason).  Each experimental run is projected into
PC space and normalized by the member scores' standard deviation; a PC
*fails* when at least ``min_runs_per_pc`` of the K runs land outside the
``sigma``-sided confidence interval, and the experiment is inconsistent
when at least ``min_failing_pcs`` PCs fail.

*Invariant channel.*  Variables with exactly zero spread across members —
typically the ``@first`` snapshot of fields the stochastic physics has not
touched after one step — are bit-exact invariants of the accepted build.
Any experimental deviation there is an immediate violation; this is what
makes ULP-level effects (FMA contraction, flush-to-zero) testable at all,
since chaotic growth folds them into the accepted spread everywhere else.

Failing PCs are attributed back to output variables through their largest
loadings, so an :class:`EctResult` names the *variables* the downstream
selection / slicing stages start from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from ..runtime.result import RunResult
from .config import EctConfig

__all__ = ["EctConfig", "EctResult", "UltraFastECT", "ect_test"]


@dataclass
class EctResult:
    """The verdict plus everything needed to explain it."""

    consistent: bool
    n_runs: int
    n_pcs: int
    failing_pcs: list[int]
    failing_variables: list[str]
    invariant_violations: list[str]
    #: per-PC count of runs outside the CI, shape (n_pcs,)
    pc_fail_counts: np.ndarray
    #: normalized scores per run, shape (n_runs, n_pcs)
    run_scores: np.ndarray
    config: EctConfig
    #: variables tripping the gross-outlier guard (subset of failing_variables)
    outlier_variables: list[str] = field(default_factory=list)

    def __bool__(self) -> bool:  # truthiness == consistency
        return self.consistent

    def summary(self) -> str:
        verdict = "consistent" if self.consistent else "INCONSISTENT"
        parts = [
            f"{verdict}: {len(self.failing_pcs)} of {self.n_pcs} PCs failed "
            f"in >= {self.config.min_runs_per_pc} of {self.n_runs} runs"
        ]
        if self.invariant_violations:
            parts.append(
                "invariant violations: "
                + ", ".join(self.invariant_violations[:8])
            )
        if self.outlier_variables:
            parts.append(
                "gross outliers: " + ", ".join(self.outlier_variables[:8])
            )
        if self.failing_variables:
            parts.append(
                "implicated variables: "
                + ", ".join(self.failing_variables[:8])
            )
        return "; ".join(parts)


class UltraFastECT:
    """PCA consistency test fitted on one accepted ensemble.

    Fit once, test many experiments — the SVD is computed at construction
    from the ensemble's member matrix, and :meth:`test` only projects.

    ``ensemble`` is a :class:`repro.ensemble.Ensemble` (or any object with
    ``matrix`` and ``variable_names``).
    """

    def __init__(self, ensemble, config: Optional[EctConfig] = None):
        self.config = config or EctConfig()
        self.ensemble = ensemble
        matrix = np.asarray(ensemble.matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] < 3:
            raise ValueError(
                "ECT needs an ensemble matrix with at least 3 members, got "
                f"shape {matrix.shape}"
            )
        self.variable_names: list[str] = list(ensemble.variable_names)
        self.mean = matrix.mean(axis=0)
        self.std = matrix.std(axis=0, ddof=1)

        self._variable_cols = np.flatnonzero(self.std > 0.0)
        self._invariant_cols = np.flatnonzero(self.std == 0.0)
        self.invariant_names = [
            self.variable_names[j] for j in self._invariant_cols
        ]
        self.invariant_values = self.mean[self._invariant_cols]

        standardized = (
            matrix[:, self._variable_cols] - self.mean[self._variable_cols]
        ) / self.std[self._variable_cols]
        _, singular, vt = np.linalg.svd(standardized, full_matrices=False)
        explained = singular**2
        total = float(explained.sum())
        if total <= 0.0:
            raise ValueError("ensemble has no variance to decompose")
        cumulative = np.cumsum(explained) / total
        n_pcs = int(np.searchsorted(cumulative, self.config.variance_fraction))
        n_pcs = min(n_pcs + 1, len(singular))
        if self.config.max_pcs is not None:
            n_pcs = min(n_pcs, self.config.max_pcs)
        self.n_pcs = n_pcs
        self.components = vt[:n_pcs]                      # (n_pcs, n_var)
        member_scores = standardized @ self.components.T  # (n, n_pcs)
        self.score_std = member_scores.std(axis=0, ddof=1)
        self.explained_variance_fraction = float(cumulative[n_pcs - 1])

    # ------------------------------------------------------------- scoring
    def _vector(self, run: Union[RunResult, np.ndarray]) -> np.ndarray:
        if isinstance(run, RunResult):
            vector = self.ensemble.run_vector(run)
        else:
            vector = np.asarray(run, dtype=float)
        if vector.shape != (len(self.variable_names),):
            raise ValueError(
                f"run vector has shape {vector.shape}, expected "
                f"({len(self.variable_names)},)"
            )
        return vector

    def _standardize(self, vector: np.ndarray) -> np.ndarray:
        return (
            vector[self._variable_cols] - self.mean[self._variable_cols]
        ) / self.std[self._variable_cols]

    def _broken_invariants(self, vector: np.ndarray) -> list[str]:
        broken = vector[self._invariant_cols] != self.invariant_values
        return [
            name for name, bad in zip(self.invariant_names, broken) if bad
        ]

    def scores(self, run: Union[RunResult, np.ndarray]) -> np.ndarray:
        """Normalized PC scores of one run (member scores have std 1)."""
        z = self._standardize(self._vector(run))
        return (z @ self.components.T) / self.score_std

    def invariant_violations(
        self, run: Union[RunResult, np.ndarray]
    ) -> list[str]:
        """Names of bit-exact ensemble invariants this run breaks."""
        return self._broken_invariants(self._vector(run))

    # ------------------------------------------------------------- testing
    def test(
        self, runs: Sequence[Union[RunResult, np.ndarray]]
    ) -> EctResult:
        """Apply the failure-count rule to K experimental runs."""
        from ..obs import get_metrics, get_tracer

        get_metrics().inc("ect.tests")
        with get_tracer().span(
            "ect.test", lambda: {"runs": len(runs), "pcs": self.n_pcs}
        ) as span:
            result = self._test(runs)
            span.annotate(consistent=result.consistent)
        return result

    def _test(
        self, runs: Sequence[Union[RunResult, np.ndarray]]
    ) -> EctResult:
        if not runs:
            raise ValueError("ECT needs at least one experimental run")
        config = self.config
        pc_fail_counts = np.zeros(self.n_pcs, dtype=int)
        var_fail_counts = np.zeros(len(self._variable_cols), dtype=int)
        run_scores = np.empty((len(runs), self.n_pcs), dtype=float)
        violation_runs = 0
        violated: dict[str, None] = {}
        for i, run in enumerate(runs):
            vector = self._vector(run)
            names = self._broken_invariants(vector)
            if names:
                violation_runs += 1
                for name in names:
                    violated.setdefault(name)
            z = self._standardize(vector)
            # a non-finite deviation (a NaN output) exceeds every bound
            exceeds = ~np.isfinite(z) | (np.abs(z) > config.variable_sigma)
            var_fail_counts += exceeds.astype(int)
            scores = (z @ self.components.T) / self.score_std
            run_scores[i] = scores
            pc_fail_counts += (np.abs(scores) > config.sigma).astype(int)

        runs_needed = min(config.min_runs_per_pc, len(runs))
        failing_pcs = [
            int(pc)
            for pc in np.flatnonzero(pc_fail_counts >= runs_needed)
        ]
        outlier_variables = [
            self.variable_names[self._variable_cols[idx]]
            for idx in np.flatnonzero(var_fail_counts >= runs_needed)
        ]
        invariant_runs_needed = min(config.min_invariant_runs, len(runs))
        invariant_fail = violation_runs >= invariant_runs_needed
        consistent = (
            len(failing_pcs) < config.min_failing_pcs
            and len(outlier_variables) < config.min_failing_variables
            and not invariant_fail
        )

        failing_variables: dict[str, None] = {}
        for name in violated:
            failing_variables.setdefault(name)
        for name in outlier_variables:
            failing_variables.setdefault(name)
        for pc in failing_pcs:
            loadings = np.abs(self.components[pc])
            threshold = config.loading_fraction * float(loadings.max())
            for idx in np.argsort(loadings)[::-1]:
                if loadings[idx] < threshold:
                    break
                name = self.variable_names[self._variable_cols[idx]]
                failing_variables.setdefault(name)

        return EctResult(
            consistent=consistent,
            n_runs=len(runs),
            n_pcs=self.n_pcs,
            failing_pcs=failing_pcs,
            failing_variables=list(failing_variables),
            invariant_violations=list(violated),
            pc_fail_counts=pc_fail_counts,
            run_scores=run_scores,
            config=config,
            outlier_variables=outlier_variables,
        )


def ect_test(
    ensemble,
    runs: Sequence[Union[RunResult, np.ndarray]],
    config: Optional[EctConfig] = None,
) -> EctResult:
    """Fit :class:`UltraFastECT` on ``ensemble`` and test ``runs``."""
    return UltraFastECT(ensemble, config).test(runs)
