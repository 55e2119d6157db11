"""Robust affected-variable selection: the evidence layer of culprit selection.

The slicer's historical rule — "take the ``top_k`` most-deviant output
variables" — is a fixed-size cut: it keeps chaotic background deviation
whenever fewer than ``top_k`` variables are genuinely affected, and it
truncates the signal whenever more are.  This module replaces that cut with
robust statistics over the per-variable deviation weights
(:func:`repro.slicing.variable_weights`):

``"mad"`` (default)
    Median/MAD outlier detection: a variable is *strong* evidence when its
    weight exceeds ``median + strength * MAD`` of the weight population.
    The median/MAD pair is insensitive to the outliers it is looking for,
    so one broken invariant (weight ≈ log1p(2e6) ≈ 14.5) does not drag the
    threshold up and hide a second, subtler signal.

``"lasso"``
    L1-style soft-thresholding: shrink every weight by λ (the
    ``max_variables + 1``-th largest weight — the largest λ keeping at most
    ``max_variables`` coefficients active, exactly the LASSO path knot) and
    call the survivors active; *strong* evidence is an active variable whose
    shrunk weight is at least ``strength`` × the median positive shrinkage.

``"topk"``
    The legacy fixed-size cut, kept for comparison runs.

Every method returns an :class:`EvidenceSelection`: the selected variables
(strongest first), their weights, and the *anchor* subset — the strongest
evidence whose slice neighbourhood the set-cover stage
(:mod:`repro.selection.setcover`) must keep reachable.  The selection is
deterministic: all orderings break ties lexicographically.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Mapping

from .spec import EVIDENCE_METHODS

__all__ = [
    "EVIDENCE_METHODS",
    "EvidenceSelection",
    "select_affected_variables",
]


@dataclass(frozen=True)
class EvidenceSelection:
    """Affected output variables, as selected evidence.

    ``variables`` are ordered strongest evidence first (ties broken by
    name); ``anchors`` is the prefix of *strong* variables whose slice
    neighbourhoods anchor the set-cover stage.
    """

    #: selected variable base names, ordered by (-weight, name)
    variables: tuple[str, ...]
    #: deviation weight of each selected variable
    weights: Mapping[str, float] = field(default_factory=dict)
    #: the strong prefix anchoring slice-reachability constraints
    anchors: tuple[str, ...] = ()
    #: how the selection was made ("mad", "lasso", "topk", "explicit")
    method: str = "explicit"
    #: the strong-evidence cut the method applied (0 when not applicable)
    threshold: float = 0.0

    def __post_init__(self) -> None:
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("evidence variables must be unique")
        unknown = [a for a in self.anchors if a not in self.variables]
        if unknown:
            raise ValueError(
                f"anchors must be selected variables, got extra {unknown}"
            )

    def __len__(self) -> int:
        return len(self.variables)

    def __contains__(self, name: str) -> bool:
        return name in self.variables


def _ordered(weights: Mapping[str, float]) -> list[str]:
    return sorted(weights, key=lambda name: (-weights[name], name))


def select_affected_variables(
    weights: Mapping[str, float],
    *,
    method: str = "mad",
    strength: float = 3.0,
    min_variables: int = 6,
    max_variables: int = 8,
    anchor_variables: int = 4,
) -> EvidenceSelection:
    """Select the affected output variables from deviation ``weights``.

    Parameters
    ----------
    weights:
        ``{variable base name: deviation weight}`` as produced by
        :func:`repro.slicing.variable_weights` — typically restricted to
        the ECT-failing variables.
    method:
        One of :data:`EVIDENCE_METHODS` (see the module docstring).
    strength:
        Outlier strictness: the MAD multiplier (``"mad"``) or the
        median-shrinkage multiple (``"lasso"``).  Higher = fewer strong
        variables.
    min_variables:
        The selection is padded with the next-strongest variables up to
        this size, so a single gross outlier does not starve the set-cover
        stage of covering constraints.
    max_variables:
        Hard cap on the selection size (the strongest survive).
    anchor_variables:
        Cap on the anchor prefix.  When a method finds no strong variables
        (a flat weight distribution), the top ``anchor_variables`` selected
        variables anchor instead — matching the refinement stage's
        ``top_variables`` protection rule.
    """
    if method not in EVIDENCE_METHODS:
        raise ValueError(
            f"unknown evidence method {method!r} "
            f"(known: {', '.join(EVIDENCE_METHODS)})"
        )
    if min_variables < 1 or max_variables < 1 or anchor_variables < 1:
        raise ValueError("variable counts must be >= 1")
    if min_variables > max_variables:
        raise ValueError(
            f"min_variables ({min_variables}) must not exceed "
            f"max_variables ({max_variables})"
        )
    if not weights:
        return EvidenceSelection(variables=(), method=method)

    ordered = _ordered(weights)
    threshold = 0.0
    if method == "mad":
        values = sorted(weights.values())
        med = statistics.median(values)
        mad = statistics.median([abs(v - med) for v in values])
        threshold = med + strength * mad
        strong = [name for name in ordered if weights[name] > threshold]
    elif method == "lasso":
        values = sorted(weights.values(), reverse=True)
        lam = values[max_variables] if len(values) > max_variables else 0.0
        shrunk = {
            name: weights[name] - lam
            for name in ordered
            if weights[name] - lam > 0.0
        }
        active = [name for name in ordered if name in shrunk]
        if shrunk:
            scale = statistics.median(sorted(shrunk.values()))
            threshold = lam + strength * scale
            strong = [
                name for name in active if shrunk[name] >= strength * scale
            ]
        else:
            strong = []
    else:  # "topk"
        strong = ordered[:max_variables]

    selected = list(strong)
    for name in ordered:
        if len(selected) >= min_variables:
            break
        if name not in selected:
            selected.append(name)
    selected = sorted(selected, key=lambda n: (-weights[n], n))[:max_variables]
    anchors = (strong or selected)[:anchor_variables]
    anchors = [name for name in anchors if name in selected]
    return EvidenceSelection(
        variables=tuple(selected),
        weights={name: float(weights[name]) for name in selected},
        anchors=tuple(anchors),
        method=method,
        threshold=float(threshold),
    )
