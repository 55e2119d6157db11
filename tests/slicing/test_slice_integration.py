"""Acceptance: the hybrid slice localizes every registered bug patch.

For each of the five registered patches: generate experimental runs of the
patched model, let ECT flag them, slice backward from the most-affected
output variables intersected with the patched build's executed-line
coverage — and the resulting ranked module slice must contain the patched
module while covering less than half of the graph's modules.
"""

import functools

import pytest

from repro.ect import UltraFastECT
from repro.ensemble import EnsembleSpec
from repro.model import ModelConfig, build_model_source, get_patch, list_patches
from repro.model.registry import iter_output_fields
from repro.runtime import RunConfig, run_model
from repro.graphs import build_metagraph
from repro.slicing import (
    backward_slice,
    module_file_map,
    module_scores,
    output_field_seeds,
    slice_failing_runs,
)

SPEC = EnsembleSpec(n_members=30, collect_coverage=False)


@pytest.fixture(scope="module")
def accepted_ensemble(accepted_ensemble_30):
    assert accepted_ensemble_30.spec == SPEC  # shared session fixture
    return accepted_ensemble_30


@pytest.fixture(scope="module")
def ect(accepted_ensemble):
    return UltraFastECT(accepted_ensemble)


@pytest.fixture(scope="module")
def control_source():
    return build_model_source(ModelConfig())


@pytest.fixture(scope="module")
def control_graph(control_source):
    return build_metagraph(control_source)


@pytest.fixture(scope="module")
def file_modules(control_source):
    out = {}
    for module, filename in module_file_map(control_source).items():
        out.setdefault(filename, set()).add(module)
    return out


@functools.lru_cache(maxsize=None)
def patched_runs(patch):
    model = ModelConfig(patches=(patch,))
    patched_source = build_model_source(model)
    return tuple(
        run_model(SPEC.experimental_config(i, model=model), source=patched_source)
        for i in range(3)
    )


@functools.lru_cache(maxsize=None)
def failing_coverage(patch):
    """The paper's coverage step: instrument the *failing* configuration."""
    model = ModelConfig(patches=(patch,))
    return run_model(RunConfig(model=model, nsteps=1)).coverage


def patched_slice(patch, accepted_ensemble, ect, control_source, control_graph):
    runs = list(patched_runs(patch))
    verdict = ect.test(runs)
    assert not verdict.consistent, f"{patch} must fail ECT before slicing"
    coverage = failing_coverage(patch)
    return slice_failing_runs(
        accepted_ensemble,
        runs,
        graph=control_graph,
        source=control_source,
        coverage=coverage,
        ect_result=verdict,
    )


@pytest.mark.parametrize("patch", sorted(list_patches()))
def test_slice_contains_patched_module_under_half_the_code(
    patch, accepted_ensemble, ect, control_source, control_graph, file_modules
):
    sl = patched_slice(
        patch, accepted_ensemble, ect, control_source, control_graph
    )
    patched_file = get_patch(patch).filename
    patched_modules = file_modules[patched_file]
    assert any(m in sl for m in patched_modules), (
        f"{patch}: none of {sorted(patched_modules)} in slice "
        f"{sl.summary()}"
    )
    assert sl.fraction < 0.5, f"{patch}: slice too broad: {sl.summary()}"
    assert len(sl.modules) < 0.5 * sl.total_modules


def test_slice_is_ranked_and_reports_evidence(
    accepted_ensemble, ect, control_source, control_graph
):
    sl = patched_slice(
        "wsubbug", accepted_ensemble, ect, control_source, control_graph
    )
    # ranking is sorted by descending score
    scores = [score for _, score in sl.ranking]
    assert scores == sorted(scores, reverse=True)
    # the most anomalous variable (bit-invariant violation) leads the
    # evidence, and its depth table starts at the module that writes it
    assert max(sl.variable_weights, key=sl.variable_weights.get) == "WSUB"
    assert sl.depths["WSUB"]["microp_aero"] == 0
    assert sl.summary().startswith("RankedSlice(")


def test_one_depth_table_feeds_the_ranking(
    accepted_ensemble, ect, control_source, control_graph
):
    """The slice is computed once, for every output field with seed
    nodes; the ranking scores the ``top_k`` strongest ECT-failing fields
    from that table with the one scoring rule."""
    sl = patched_slice(
        "wsubbug", accepted_ensemble, ect, control_source, control_graph
    )
    seeds = output_field_seeds(control_source, control_graph)
    assert set(sl.depths) == {name for name, keys in seeds.items() if keys}
    declared = {f.name for f in iter_output_fields(control_source.compset)}
    assert set(sl.depths) == declared
    # every field's entry is the coverage-filtered backward slice of its
    # seed nodes, collapsed to module depths
    coverage = failing_coverage("wsubbug")
    files = module_file_map(control_source)
    for name in ("WSUB", "PRECT", "RHPERT"):
        direct = backward_slice(
            control_graph, seeds[name], coverage=coverage, module_files=files
        )
        assert sl.depths[name] == direct.module_depths()
    # ECT-failing weights are all kept; the ranking uses the top 8
    verdict = ect.test(patched_runs("wsubbug"))
    assert set(sl.variable_weights) <= {
        name.replace("@first", "") for name in verdict.failing_variables
    }
    top = sorted(sl.variable_weights.items(), key=lambda kv: (-kv[1], kv[0]))
    assert dict(sl.ranking) == module_scores(sl.depths, dict(top[:8]))


def test_requires_failing_runs(accepted_ensemble, control_source, control_graph):
    with pytest.raises(ValueError, match="at least one failing run"):
        slice_failing_runs(
            accepted_ensemble, [], graph=control_graph, source=control_source
        )


def test_never_executed_modules_are_sliced_away(
    accepted_ensemble, ect, control_source, control_graph
):
    """Compiled-but-never-executed files are outside any coverage-filtered
    slice — the paper's 820 -> ~230 reduction in miniature."""
    sl = patched_slice(
        "goffgratch", accepted_ensemble, ect, control_source, control_graph
    )
    for per_field in sl.depths.values():
        assert "seasalt_optics" not in per_field
        assert "restart_mod" not in per_field
    assert "seasalt_optics" not in sl.modules
    assert "restart_mod" not in sl.modules
