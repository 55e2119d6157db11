"""A cold run parses each distinct compiled file once.

``root_cause_pipeline`` gives its control and patched trees one parse
cache, so the patched tree parses only the file its patch changed and
shares every other AST with the control tree.  ASTs are read-only: the
model passes, the metagraph builder and the slicer must leave the shared
ones exactly as parsed.
"""

import pytest

from repro.experiments import get_experiment
from repro.fortran import parse_source
from repro.model import list_patches
from repro.obs import disable_tracing, enable_tracing, get_metrics
from repro.pipeline import RootCauseAnalysis
from repro.refine import RefinementConfig


@pytest.mark.parametrize("patch", sorted(list_patches()))
def test_patched_tree_parses_one_file_and_shares_the_rest(patch, tmp_path):
    spec = get_experiment(patch).with_(
        members=6, nsteps=1, refine=RefinementConfig(members=4)
    )
    parses = get_metrics().counters().get("model.parses", 0)
    enable_tracing()
    try:
        result = RootCauseAnalysis(spec, store_dir=tmp_path).run()
    finally:
        spans = disable_tracing()
    assert get_metrics().counters()["model.parses"] - parses == 2

    control, patched = result["control_source"], result["patched_source"]
    n_files = len(control.compiled_files)
    assert [
        (s.attrs["files"], s.attrs["reused"])
        for s in spans
        if s.name == "model.parse"
    ] == [(n_files, 0), (1, n_files - 1)]

    ours, theirs = patched.parse(), control.parse()
    changed = [name for name in ours if ours[name] is not theirs[name]]
    assert changed == [
        name for name in patched.compiled_files
        if patched.files[name] != control.files[name]
    ]
    assert len(changed) == 1
    # the run executed both model passes, built the metagraph and sliced:
    # every shared AST still equals a fresh parse of its text
    for name in ours:
        if name not in changed:
            fresh = parse_source(
                control.files[name], filename=name, macros=control.macros
            )
            assert ours[name] == fresh, name
