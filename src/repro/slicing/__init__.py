"""repro.slicing — hybrid backward slicing over the metagraph (§4.3).

Given the output variables a consistency test flags, walk the
variable-dependency metagraph backward to everything that could have fed
them, intersect with executed-line coverage, and rank the surviving
modules into a root-cause search space:

>>> from repro.ensemble import generate_ensemble
>>> from repro.ect import UltraFastECT
>>> from repro.model import ModelConfig, build_model_source
>>> from repro.runtime import run_model
>>> from repro.slicing import slice_failing_runs
>>> ens = generate_ensemble(n=30)
>>> ect = UltraFastECT(ens)
>>> bad = ModelConfig(patches=("wsubbug",))
>>> runs = [run_model(ens.spec.experimental_config(i, model=bad))
...         for i in range(3)]
>>> verdict = ect.test(runs)              # fails
>>> sl = slice_failing_runs(ens, runs, ect_result=verdict)
>>> "microp_aero" in sl                   # the patched module is inside
True
>>> sl.fraction < 0.5                     # ... and the space is halved
True
>>> sl.depths["WSUB"]["microp_aero"]      # one depth table, every field
0

:func:`backward_slice` is the underlying pure graph operation (reverse
BFS with depths, coverage-filtered); :func:`module_scores` the one
scoring rule over a depth table; :func:`output_field_seeds` maps
history field names to their ``outfld`` payload nodes.
"""

from __future__ import annotations

from .backward import (
    BackwardSlice,
    RankedSlice,
    backward_slice,
    module_scores,
    slice_failing_runs,
    variable_weights,
)
from .seeds import module_file_map, output_field_seeds

__all__ = [
    "BackwardSlice",
    "RankedSlice",
    "backward_slice",
    "module_file_map",
    "module_scores",
    "output_field_seeds",
    "slice_failing_runs",
    "variable_weights",
]
