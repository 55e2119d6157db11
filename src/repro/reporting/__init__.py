"""repro.reporting — verdict/localization reports and paper-style tables.

The rendering back half of the pipeline: the terminal ``report`` stage of
:mod:`repro.pipeline` assembles a :class:`LocalizationReport` (UF-ECT
verdict + slice → refinement trajectory + the ≤ ``target_modules``
success criterion), and :func:`degree_table` / :func:`centrality_table`
reproduce the paper's Table 1/2-style metagraph summaries over
:mod:`repro.analysis`.  Everything renders to both JSON (machines, the
pipeline store, CI) and markdown (humans).  Names are exported lazily, so
decoding a stored report imports neither the tables nor the analysis
layer behind them.

>>> from repro.reporting import degree_table
>>> from repro.graphs import build_metagraph
>>> from repro.model import ModelConfig, build_model_source
>>> table = degree_table(build_metagraph(build_model_source(ModelConfig())))
>>> print(table.to_markdown())        # doctest: +SKIP
"""

from __future__ import annotations

from .._lazy import lazy_exports

_EXPORTS, __getattr__, __dir__ = lazy_exports(__name__, {
    ".report": (
        "LocalizationReport", "VerdictReport", "build_report",
        "expected_culprit_modules",
    ),
    ".tables": ("ReportTable", "centrality_table", "degree_table"),
})

__all__ = sorted(_EXPORTS)
