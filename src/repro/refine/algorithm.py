"""Algorithm 5.4: community-guided iterative refinement of a ranked slice.

The backward slice (:mod:`repro.slicing`) reduces the search space below
half the modules, but it plateaus there: chaotic error growth makes every
output variable deviate eventually, so reachability alone cannot tell a
culprit from a conduit.  The paper's answer is iterative refinement — keep
*testing* candidate scope subsets against the consistency test and discard
the ones the failure signal does not need:

1.  Partition the module quotient graph into communities (Girvan-Newman,
    :mod:`repro.analysis`) — scopes in one community share data tightly and
    are exonerated or retained together.
2.  Fit on a *small* accepted ensemble — the first rows of the full one,
    already in memory — re-derive the per-variable deviation evidence
    from it, and score modules from the slice's depth table.
3.  Iterate: sample a candidate scope subset from the weakest-evidence
    community chunk, project ensemble and experimental runs onto the output
    variables still attributable to the *remaining* suspects, and re-run
    the ECT on that scoped view.  If the verdict is still inconsistent —
    the failure signal is intact without the candidate — the candidate is
    exonerated and pruned; if the signal collapses, the candidate is
    essential and stays for good.
4.  Stop at the target size, on convergence, or at the iteration cap.

Scopes sitting within ``slack`` BFS levels of the strongest evidence
variables (the broken invariants / gross outliers) are *protected*: they
are what the sharpest part of the signal points at, and Algorithm 5.4 never
samples them for exclusion.  This is what lets refinement rescue a bug
module that diffuse chaotic evidence ranked low — e.g. the biased PRNG of
``rand-mt`` sits at depth 2 behind the ``RHPERT`` raw-draw diagnostic and
survives even though half the physics outranks it in the initial slice.
"""

from __future__ import annotations

import dataclasses
import math
import random
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Optional, Sequence

import numpy as np

from ..analysis import CommunityResult
from ..ect.core import EctResult, UltraFastECT
from ..ensemble import Ensemble
from ..ensemble.generate import FIRST_SUFFIX
from ..obs import get_metrics, get_tracer
from ..runtime.coverage import CoverageTrace
from ..slicing import RankedSlice, module_scores, variable_weights
from .config import RefinementConfig

__all__ = [
    "IterativeRefinement",
    "RefinementConfig",
    "RefinementResult",
    "RefinementStep",
    "refine_slice",
]


@dataclass(frozen=True)
class RefinementStep:
    """One exclusion test: the candidate, the scoped verdict, the action."""

    iteration: int
    #: scopes sampled for exclusion this iteration
    candidate: tuple[str, ...]
    #: the community chunk the candidate was sampled from
    community: tuple[str, ...]
    #: evidence variables still attributable to the remaining suspects
    kept_variables: tuple[str, ...]
    #: scoped ECT verdict on the kept variables (None = nothing testable)
    consistent: Optional[bool]
    #: ``"pruned"`` (signal intact without the candidate) or ``"essential"``
    action: str


@dataclass
class RefinementResult:
    """The refined suspect set plus the full refinement trajectory."""

    #: final suspect scopes, strongest evidence first
    modules: list[str]
    #: the slice the refinement started from
    initial_modules: list[str]
    #: scopes shielded from exclusion by top-evidence proximity
    protected: frozenset[str]
    #: scopes whose exclusion collapsed the failure signal
    essential: frozenset[str]
    steps: list[RefinementStep]
    #: refreshed per-module evidence scores (refinement-ensemble based)
    scores: dict[str, float]
    #: refreshed per-variable deviation weights
    variable_weights: dict[str, float]
    communities: CommunityResult
    #: baseline verdict of the refinement ensemble on the failing runs
    #: (None when the ensemble had nothing testable to fit on)
    verdict: Optional[EctResult]
    target: int
    total_modules: int
    extra: dict = field(default_factory=dict)

    def __contains__(self, module: str) -> bool:
        return module in self.modules

    def __len__(self) -> int:
        return len(self.modules)

    @property
    def n_iterations(self) -> int:
        return len(self.steps)

    @property
    def fraction(self) -> float:
        """Final suspect set as a fraction of all graph modules."""
        return len(self.modules) / self.total_modules if self.total_modules else 0.0

    @property
    def pruned(self) -> list[str]:
        """Scopes the refinement exonerated, sorted."""
        return sorted(set(self.initial_modules) - set(self.modules))

    def summary(self) -> str:
        head = ", ".join(self.modules[:6])
        return (
            f"RefinementResult({len(self.initial_modules)} -> "
            f"{len(self.modules)}/{self.total_modules} modules in "
            f"{self.n_iterations} iterations: {head}"
            f"{'...' if len(self.modules) > 6 else ''})"
        )


class IterativeRefinement:
    """Algorithm 5.4, fitted once and applicable to many failing slices.

    Construction takes the control build's quotient ``communities`` and
    the small refinement ensemble: the accepted ensemble's first
    ``config.members`` rows.  Member ``i`` derives from the spec's
    ``(base_seed, i)`` alone, so those rows are exactly the members a
    ``config.members``-sized spec generates; they are already in memory,
    so fitting runs no model member.

    :meth:`refine` then runs the sampling loop for one
    :class:`~repro.slicing.RankedSlice` and its ECT-failing runs.
    """

    def __init__(
        self,
        ensemble: Ensemble,
        *,
        communities: CommunityResult,
        config: Optional[RefinementConfig] = None,
    ):
        self.config = config or RefinementConfig()
        self.config.check_fits(ensemble.n_members)
        self.accepted = ensemble
        self.communities = communities
        k = self.config.members
        #: the small accepted ensemble the scoped tests are fitted on; no
        #: test reads its coverage, so it carries an empty trace
        self.ensemble = Ensemble(
            spec=dataclasses.replace(ensemble.spec, n_members=k),
            variable_names=list(ensemble.variable_names),
            matrix=ensemble.matrix[:k],
            coverage=CoverageTrace(),
        )
        self._ect_cache: dict[frozenset[str], Optional[UltraFastECT]] = {}

    # ------------------------------------------------------------ scoping
    def _columns(self, bases: frozenset[str]) -> list[int]:
        return [
            j
            for j, name in enumerate(self.ensemble.variable_names)
            if name.replace(FIRST_SUFFIX, "") in bases
        ]

    def scoped_ect(self, variables: Sequence[str]) -> Optional[UltraFastECT]:
        """An ECT fitted on the ensemble columns of ``variables`` only.

        Each base name brings its ``@first`` twin.  Returns ``None`` when
        the scope has no testable columns (no names matched, or the
        submatrix carries no variance at all).
        """
        bases = frozenset(
            name.replace(FIRST_SUFFIX, "") for name in variables
        )
        if bases in self._ect_cache:
            return self._ect_cache[bases]
        columns = self._columns(bases)
        ect: Optional[UltraFastECT] = None
        if columns:
            scoped = SimpleNamespace(
                matrix=self.ensemble.matrix[:, columns],
                variable_names=[
                    self.ensemble.variable_names[j] for j in columns
                ],
            )
            try:
                ect = UltraFastECT(scoped, self.config.ect)
            except ValueError:
                ect = None  # scope has no variance to decompose
        self._ect_cache[bases] = ect
        return ect

    def scoped_verdict(
        self,
        variables: Sequence[str],
        vectors: Sequence[np.ndarray],
    ) -> Optional[EctResult]:
        """ECT verdict of full run ``vectors`` projected onto ``variables``."""
        ect = self.scoped_ect(variables)
        if ect is None:
            return None
        bases = frozenset(
            name.replace(FIRST_SUFFIX, "") for name in variables
        )
        columns = self._columns(bases)
        return ect.test([vector[columns] for vector in vectors])

    # ---------------------------------------------------------- refinement
    def refine(
        self,
        slice_: RankedSlice,
        runs: Sequence,
        *,
        selection=None,
    ) -> RefinementResult:
        """Shrink ``slice_`` by iterative exclusion testing (Algorithm 5.4).

        ``runs`` are the ECT-failing experimental runs the slice was built
        from; the slice's depth table places every module relative to the
        refinement evidence.  ``selection``, when given (a non-empty
        :class:`~repro.selection.SelectionResult`), warm-starts the loop:
        the initial suspects are the set-cover optimum instead of the full
        slice, so refinement begins at (often below) its target and spends
        iterations only when the optimizer kept more than the target.
        Deterministic for a fixed :class:`RefinementConfig`.
        """
        config = self.config
        total = slice_.total_modules
        target = max(1, math.floor(config.target_fraction * total))

        # refreshed evidence from the refinement ensemble: the strongest
        # deviating variables, scored through the slice's depth table
        all_weights = variable_weights(self.ensemble, runs)
        weights = dict(
            sorted(all_weights.items(), key=lambda kv: (-kv[1], kv[0]))[
                : config.evidence_variables
            ]
        )
        depths = slice_.depths
        scores = module_scores(depths, weights, config.decay)

        vectors = [self.ensemble.run_vector(run) for run in runs]
        baseline = self.scoped_verdict(
            [n.replace(FIRST_SUFFIX, "") for n in self.ensemble.variable_names],
            vectors,
        )

        warm_started = selection is not None and bool(
            getattr(selection, "modules", ())
        )
        if warm_started:
            initial = list(selection.modules)
        else:
            initial = list(slice_.modules)
        suspects = set(initial)
        protected = self._protected(weights, depths, suspects)
        steps: list[RefinementStep] = []
        extra = (
            {"warm_start": "selection", "selection_modules": len(initial)}
            if warm_started
            else {}
        )

        if baseline is None or baseline.consistent:
            # the refinement ensemble cannot even see the failure: refuse
            # to prune anything on no evidence
            return self._result(
                suspects, initial, protected, frozenset(), steps, scores,
                weights, baseline, target, total, extra,
            )

        essential: set[str] = set()
        rng = random.Random(config.seed)
        tracer = get_tracer()
        metrics = get_metrics()

        with tracer.span(
            "refine.run",
            lambda: {"suspects": len(suspects), "target": target},
        ) as refine_span:
            progress = True
            while (
                len(suspects) > target
                and progress
                and len(steps) < config.max_iterations
            ):
                progress = False
                for chunk in self._chunks(suspects, scores):
                    removable = sorted(
                        (m for m in chunk if m not in essential and m not in protected),
                        key=lambda m: (scores.get(m, 0.0), m),
                    )
                    if not removable:
                        continue
                    candidate = self._sample(rng, removable)
                    metrics.inc("refine.iters")
                    with tracer.span(
                        "refine.iteration",
                        lambda: {"iteration": len(steps),
                                 "candidate": list(candidate)},
                    ) as iter_span:
                        remaining = suspects - set(candidate)
                        kept = self._attributed(weights, depths, remaining)
                        scoped = (
                            self.scoped_verdict(kept, vectors) if kept else None
                        )
                        intact = scoped is not None and not scoped.consistent
                        iter_span.annotate(
                            action="pruned" if intact else "essential"
                        )
                    steps.append(
                        RefinementStep(
                            iteration=len(steps),
                            candidate=tuple(candidate),
                            community=tuple(sorted(chunk)),
                            kept_variables=tuple(kept),
                            consistent=None if scoped is None else scoped.consistent,
                            action="pruned" if intact else "essential",
                        )
                    )
                    if intact:
                        suspects = remaining
                        progress = True
                        break  # re-chunk against the shrunk suspect set
                    essential.update(candidate)
                    if len(steps) >= config.max_iterations:
                        break
            refine_span.annotate(
                iterations=len(steps), final_suspects=len(suspects)
            )

        return self._result(
            suspects, initial, protected, frozenset(essential), steps,
            scores, weights, baseline, target, total, extra,
        )

    # ------------------------------------------------------------- helpers
    def _protected(
        self,
        weights: dict[str, float],
        depths: dict[str, dict[str, int]],
        suspects: set[str],
    ) -> frozenset[str]:
        """Suspects within ``slack`` of a top evidence variable's seeds."""
        top = [
            name
            for name, _ in sorted(
                weights.items(), key=lambda kv: (-kv[1], kv[0])
            )[: self.config.top_variables]
        ]
        out: set[str] = set()
        for name in top:
            for module, depth in depths.get(name, {}).items():
                if module in suspects and depth <= self.config.slack:
                    out.add(module)
        return frozenset(out)

    def _attributed(
        self,
        weights: dict[str, float],
        depths: dict[str, dict[str, int]],
        suspects: set[str],
    ) -> list[str]:
        """Evidence variables still attributable to ``suspects`` — their
        coverage-filtered backward slice reaches at least one remaining
        suspect (strongest weight first).  Variables attributable to no
        suspect cannot discriminate between candidates and drop out of the
        scoped tests."""
        return [
            name
            for name, _ in sorted(
                weights.items(), key=lambda kv: (-kv[1], kv[0])
            )
            if any(module in suspects for module in depths.get(name, ()))
        ]

    def _chunks(
        self, suspects: set[str], scores: dict[str, float]
    ) -> list[frozenset[str]]:
        """Current suspects grouped by community, weakest evidence first."""
        grouped: dict[frozenset[str], set[str]] = {}
        for module in suspects:
            try:
                community = self.communities.community_of(module)
            except KeyError:
                community = frozenset((module,))
            grouped.setdefault(community, set()).add(module)
        chunks = [frozenset(members) for members in grouped.values()]
        # sum in sorted member order: float addition is order-sensitive,
        # and frozenset iteration order varies with PYTHONHASHSEED
        chunks.sort(
            key=lambda c: (
                sum(scores.get(m, 0.0) for m in sorted(c)),
                sorted(c)[0],
            )
        )
        return chunks

    def _sample(
        self, rng: random.Random, removable: list[str]
    ) -> list[str]:
        """Sample an exclusion candidate from the weak half of a chunk.

        ``removable`` arrives sorted by ascending evidence score; the
        candidate is a seeded-random subset of its weaker half (Algorithm
        5.4's subset sampling), returned sorted for determinism.
        """
        k = min(self.config.sample_size, len(removable))
        pool = removable[: max(k, (len(removable) + 1) // 2)]
        return sorted(rng.sample(pool, k))

    def _result(
        self,
        suspects: set[str],
        initial: list[str],
        protected: frozenset[str],
        essential: frozenset[str],
        steps: list[RefinementStep],
        scores: dict[str, float],
        weights: dict[str, float],
        verdict: Optional[EctResult],
        target: int,
        total: int,
        extra: Optional[dict] = None,
    ) -> RefinementResult:
        modules = sorted(
            suspects, key=lambda m: (-scores.get(m, 0.0), m)
        )
        return RefinementResult(
            modules=modules,
            initial_modules=initial,
            protected=protected,
            essential=essential,
            steps=steps,
            scores={m: scores.get(m, 0.0) for m in modules},
            variable_weights=dict(weights),
            communities=self.communities,
            verdict=verdict,
            target=target,
            total_modules=total,
            extra=dict(extra or {}),
        )


def refine_slice(
    slice_: RankedSlice,
    ensemble: Ensemble,
    runs: Sequence,
    *,
    communities: CommunityResult,
    config: Optional[RefinementConfig] = None,
    selection=None,
) -> RefinementResult:
    """One-shot Algorithm 5.4: fit :class:`IterativeRefinement` and refine.

    ``ensemble`` is the accepted ensemble (its first ``config.members``
    rows are the refinement ensemble), ``runs`` the ECT-failing
    experimental runs ``slice_`` was built from, ``communities`` the
    control build's quotient communities.  ``selection`` (a
    :class:`~repro.selection.SelectionResult`) warm-starts the loop from
    the set-cover optimum — see :meth:`IterativeRefinement.refine`.
    """
    refiner = IterativeRefinement(
        ensemble, communities=communities, config=config
    )
    return refiner.refine(slice_, runs, selection=selection)
