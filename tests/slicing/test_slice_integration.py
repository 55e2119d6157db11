"""Acceptance: the hybrid slice localizes every registered bug patch.

For each of the five registered patches: generate experimental runs of the
patched model, let ECT flag them, slice backward from the most-affected
output variables intersected with the patched build's executed-line
coverage — and the resulting ranked module slice must contain the patched
module while covering less than half of the graph's modules.
"""

import pytest

from repro.ect import UltraFastECT
from repro.ensemble import EnsembleSpec
from repro.model import ModelConfig, build_model_source, get_patch, list_patches
from repro.runtime import RunConfig, run_model
from repro.graphs import build_metagraph
from repro.slicing import module_file_map, slice_failing_runs

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


def patched_slice(patch, accepted_ensemble, ect, control_source, control_graph):
    model = ModelConfig(patches=(patch,))
    patched_source = build_model_source(model)
    runs = [
        run_model(SPEC.experimental_config(i, model=model), source=patched_source)
        for i in range(3)
    ]
    verdict = ect.test(runs)
    assert not verdict.consistent, f"{patch} must fail ECT before slicing"
    # the paper's coverage step: instrument the *failing* configuration
    coverage = run_model(
        RunConfig(model=model, nsteps=1), source=patched_source
    ).coverage
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
    # evidence, and its slice descends to (module, scope) granularity
    assert "WSUB" in sl.variable_weights
    assert ("microp_aero", "microp_aero_run") in sl.slices["WSUB"].scopes()
    assert sl.summary().startswith("RankedSlice(")


def test_explicit_evidence_override_replaces_the_topk_heuristic(
    accepted_ensemble, ect, control_source, control_graph
):
    """The refinement and selection stages inject their own
    affected-variable set: the ``evidence=`` override must slice from
    exactly those fields (with their own evidence weights), ignoring the
    internal top-k selection and the ect_result filter."""
    from repro.selection import EvidenceSelection

    model = ModelConfig(patches=("wsubbug",))
    patched_source = build_model_source(model)
    runs = [
        run_model(SPEC.experimental_config(i, model=model), source=patched_source)
        for i in range(3)
    ]
    coverage = run_model(
        RunConfig(model=model, nsteps=1), source=patched_source
    ).coverage
    kwargs = dict(
        graph=control_graph, source=control_source, coverage=coverage
    )
    injected = slice_failing_runs(
        accepted_ensemble, runs,
        evidence=EvidenceSelection(variables=("WSUB", "WSUB@first", "PRECT")),
        **kwargs,
    )
    # only the requested fields carry evidence (@first folds into its base)
    assert set(injected.variable_weights) == {"WSUB", "PRECT"}
    assert set(injected.slices) <= {"WSUB", "PRECT"}
    assert "microp_aero" in injected
    # and the override genuinely changes the outcome vs. the heuristic
    default = slice_failing_runs(accepted_ensemble, runs, **kwargs)
    assert set(default.variable_weights) != set(injected.variable_weights)
    # unknown / non-deviating fields contribute nothing rather than fail
    silent = slice_failing_runs(
        accepted_ensemble, runs,
        evidence=EvidenceSelection(variables=("NOT_A_FIELD",)),
        **kwargs,
    )
    assert silent.variable_weights == {}
    assert silent.modules == []


def test_never_executed_modules_are_sliced_away(
    accepted_ensemble, ect, control_source, control_graph
):
    """Compiled-but-never-executed files are outside any coverage-filtered
    slice — the paper's 820 -> ~230 reduction in miniature."""
    sl = patched_slice(
        "goffgratch", accepted_ensemble, ect, control_source, control_graph
    )
    for per_var in sl.slices.values():
        assert "seasalt_optics" not in {k[0] for k in per_var.depths}
        assert "restart_mod" not in {k[0] for k in per_var.depths}
    assert "seasalt_optics" not in sl.modules
    assert "restart_mod" not in sl.modules
