"""The knobs of culprit selection: :class:`SelectionSpec`.

A plain frozen dataclass, importable without numpy or the solver, so an
experiment spec or a stage key can name a selection without loading
:mod:`repro.selection.select`.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["EVIDENCE_METHODS", "SelectionSpec"]

#: recognised values of ``select_affected_variables(method=...)``
EVIDENCE_METHODS = ("mad", "lasso", "topk")


@dataclass(frozen=True)
class SelectionSpec:
    """Knobs of optimization-based culprit selection.

    Defaults are tuned so all five registered patches localize to at most
    eight modules containing the injected culprit (held by the full-scale
    localization test in ``tests/pipeline/test_golden.py``);
    ``ExperimentSpec.selection = None`` means these defaults.
    """

    #: evidence method: "mad" (robust, default), "lasso", or "topk"
    method: str = "mad"
    #: outlier strictness of the evidence method (MAD multiplier)
    strength: float = 3.0
    #: pad the evidence up to this many variables
    min_variables: int = 6
    #: hard cap on evidence variables
    max_variables: int = 8
    #: strongest evidence variables whose neighbourhood anchors the cover
    anchor_variables: int = 4
    #: anchor radius in BFS levels (the refinement stage's ``slack``)
    anchor_depth: int = 2
    #: slice-reachability constraint: a module can cover a variable only
    #: within this many BFS levels of the variable's backward slice
    depth_cap: int = 2
    #: branch-and-bound node budget (solution flagged non-optimal beyond)
    node_limit: int = 200_000

    def __post_init__(self) -> None:
        if self.method not in EVIDENCE_METHODS:
            raise ValueError(
                f"unknown evidence method {self.method!r} "
                f"(known: {', '.join(EVIDENCE_METHODS)})"
            )
        if self.anchor_depth < 0 or self.depth_cap < 0:
            raise ValueError("depths must be >= 0")
        if self.anchor_depth > self.depth_cap:
            raise ValueError(
                f"anchor_depth ({self.anchor_depth}) must not exceed "
                f"depth_cap ({self.depth_cap}): anchors are covers too"
            )
