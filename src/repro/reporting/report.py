"""Verdict and localization report objects.

The last stage of the root-cause pipeline renders its outcome as two
plain-data report objects: a :class:`VerdictReport` summarizing the
UF-ECT decision (did the change alter the climate?) and a
:class:`LocalizationReport` wrapping it with the slice → refinement
trajectory and the success criterion the paper evaluates — is the true
culprit module inside a suspect set of at most ``target_modules`` of the
model's modules?

Both are plain dataclasses: the pipeline store persists them through its
one stage codec (:func:`repro.pipeline.store.encode_dataclass`), and
:meth:`LocalizationReport.to_dict` / ``to_json`` render the CLI ``--json``
document and the golden files, markdown the humans.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Optional

__all__ = ["LocalizationReport", "VerdictReport", "build_report"]


@dataclass
class VerdictReport:
    """The UF-ECT decision of the experimental runs, summarized."""

    consistent: bool
    n_runs: int
    n_pcs: int
    failing_pcs: list[int] = field(default_factory=list)
    failing_variables: list[str] = field(default_factory=list)
    invariant_violations: list[str] = field(default_factory=list)
    outlier_variables: list[str] = field(default_factory=list)

    @classmethod
    def from_ect(cls, result) -> "VerdictReport":
        """Summarize an :class:`~repro.ect.EctResult`."""
        return cls(
            consistent=bool(result.consistent),
            n_runs=int(result.n_runs),
            n_pcs=int(result.n_pcs),
            failing_pcs=[int(pc) for pc in result.failing_pcs],
            failing_variables=list(result.failing_variables),
            invariant_violations=list(result.invariant_violations),
            outlier_variables=list(result.outlier_variables),
        )

    @property
    def detected(self) -> bool:
        """True when the change was flagged (the runs are inconsistent)."""
        return not self.consistent


@dataclass
class LocalizationReport:
    """One experiment's end-to-end outcome: verdict plus localization.

    ``localized`` is the paper's success criterion: the change was
    detected, the refined suspect set is within ``target_modules``, and —
    when the experiment names an expected culprit (a bug patch targeting
    one file) — that module is inside the set.  Whole-model changes like
    global FMA contraction have no single culprit module
    (``expected_modules`` empty), so containment is vacuously satisfied
    and detection + size carry the verdict.
    """

    experiment: str
    patch: Optional[str]
    fma: bool
    expected_modules: list[str]
    verdict: VerdictReport
    slice_modules: list[str]
    refined_modules: list[str]
    refine_iterations: int
    target_modules: int
    total_modules: int
    #: the selection stage's outcome (None on pre-selection reports):
    #: modules / anchors / solver / optimal / nodes_explored /
    #: warm_start_gap, as plain JSON-safe data
    selection: Optional[dict] = None

    @property
    def detected(self) -> bool:
        return self.verdict.detected

    @property
    def contained(self) -> bool:
        """Expected culprit inside the refined set (vacuous when unknown)."""
        if not self.expected_modules:
            return True
        return any(m in self.refined_modules for m in self.expected_modules)

    @property
    def localized(self) -> bool:
        return (
            self.detected
            and len(self.refined_modules) <= self.target_modules
            and self.contained
        )

    def to_dict(self) -> dict:
        """Every field, plus the derived flags for consumers reading the
        JSON without this class."""
        return {
            **asdict(self),
            "detected": self.detected,
            "contained": self.contained,
            "localized": self.localized,
        }

    def to_json(self) -> str:
        import json

        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def to_markdown(self) -> str:
        v = self.verdict
        change = (
            f"patch `{self.patch}`"
            if self.patch
            else ("global FMA contraction" if self.fma else "control")
        )
        lines = [
            f"# Root cause report: {self.experiment}",
            "",
            f"Change under test: {change}.",
            "",
            "## Verdict",
            "",
            f"- consistent: **{v.consistent}** "
            f"({len(v.failing_pcs)} of {v.n_pcs} PCs failing, "
            f"{v.n_runs} runs)",
            f"- failing variables: "
            f"{', '.join(v.failing_variables) or '(none)'}",
        ]
        if v.invariant_violations:
            lines.append(
                f"- invariant violations: {', '.join(v.invariant_violations)}"
            )
        if v.outlier_variables:
            lines.append(
                f"- gross outliers: {', '.join(v.outlier_variables)}"
            )
        lines += [
            "",
            "## Localization",
            "",
            f"- slice: {len(self.slice_modules)} of "
            f"{self.total_modules} modules",
        ]
        if self.selection is not None and self.selection.get("modules"):
            sel = self.selection
            lines.append(
                f"- selection: {len(sel['modules'])} modules via "
                f"`{sel.get('solver', '?')}` "
                f"({'optimal' if sel.get('optimal') else 'node limit'}, "
                f"{len(sel.get('anchors', []))} anchored)"
            )
        lines += [
            f"- refined: {len(self.refined_modules)} modules "
            f"(target <= {self.target_modules}) "
            f"after {self.refine_iterations} iterations",
        ]
        if self.expected_modules:
            lines.append(
                f"- expected culprit: {', '.join(self.expected_modules)} "
                f"({'contained' if self.contained else 'MISSED'})"
            )
        lines += [
            "",
            f"**Localized: {self.localized}** "
            f"(detected={self.detected}, contained={self.contained})",
            "",
            "### Refined suspect set",
            "",
        ]
        lines += [f"1. {module}" for module in self.refined_modules]
        return "\n".join(lines) + "\n"


def expected_culprit_modules(source, patch: Optional[str]) -> list[str]:
    """The modules the named bug patch touches (empty for no/global change)."""
    if patch is None:
        return []
    from ..model.patches import get_patch
    from ..slicing import module_file_map

    filename = get_patch(patch).filename
    return sorted(
        module
        for module, fname in module_file_map(source).items()
        if fname == filename
    )


def build_report(
    *,
    experiment: str,
    patch: Optional[str],
    fma: bool,
    source,
    verdict,
    ranked,
    refined,
    target_modules: int,
    selection=None,
) -> LocalizationReport:
    """Assemble the :class:`LocalizationReport` of one pipeline run.

    ``verdict`` is the pipeline's top-level :class:`~repro.ect.EctResult`,
    ``ranked`` the :class:`~repro.slicing.RankedSlice`, ``refined`` the
    :class:`~repro.refine.RefinementResult`, ``selection`` (optional) the
    :class:`~repro.selection.SelectionResult` that warm-started it.
    """
    selection_block = None
    if selection is not None and getattr(selection, "modules", ()):
        selection_block = {
            "modules": list(selection.modules),
            "anchors": list(selection.anchors),
            "evidence_variables": (
                list(selection.evidence.variables)
                if selection.evidence is not None
                else []
            ),
            "solver": selection.solver,
            "optimal": bool(selection.optimal),
            "nodes_explored": int(selection.nodes_explored),
            "cost": float(selection.cost),
            "warm_start_gap": float(selection.warm_start_gap),
        }
    return LocalizationReport(
        experiment=experiment,
        patch=patch,
        fma=fma,
        expected_modules=expected_culprit_modules(source, patch),
        verdict=VerdictReport.from_ect(verdict),
        slice_modules=list(ranked.modules),
        refined_modules=list(refined.modules),
        refine_iterations=refined.n_iterations,
        target_modules=target_modules,
        total_modules=refined.total_modules,
        selection=selection_block,
    )
