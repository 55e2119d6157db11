"""Acceptance: Algorithm 5.4 localizes every registered patch.

For each of the five registered bug patches: slice the ECT-failing runs
(the PR 4 pipeline, plateaued at 18 of 40 modules), then refine — the
final suspect set must shrink to at most a quarter of the graph's modules
(<= 10 of 40) while still containing the patched module, deterministically.
"""

import pytest

from repro.model import get_patch, list_patches
from repro.refine import refine_slice

#: the paper-scale localization bar: 10 of the 40 modules
TARGET = 10


@pytest.mark.parametrize("patch", sorted(list_patches()))
def test_refinement_localizes_every_patch(
    patch, refiner, failing_case, file_modules
):
    runs, _, ranked = failing_case(patch)
    result = refiner.refine(ranked, runs)
    patched_modules = file_modules[get_patch(patch).filename]
    assert any(m in result for m in patched_modules), (
        f"{patch}: none of {sorted(patched_modules)} survived refinement "
        f"{result.summary()}"
    )
    assert len(result) <= TARGET, f"{patch}: {result.summary()}"
    assert len(result) < len(ranked.modules), f"{patch}: nothing pruned"
    assert result.n_iterations > 0
    # every pruned scope was exonerated by an intact-signal verdict
    pruned_steps = [s for s in result.steps if s.action == "pruned"]
    assert set(result.pruned) == {
        m for s in pruned_steps for m in s.candidate
    }
    assert all(s.consistent is False for s in pruned_steps)


@pytest.mark.parametrize("patch", sorted(list_patches()))
def test_refinement_is_deterministic_per_patch(
    patch, refiner, failing_case
):
    runs, _, ranked = failing_case(patch)
    first = refiner.refine(ranked, runs)
    second = refiner.refine(ranked, runs)
    assert first.modules == second.modules
    assert [s.candidate for s in first.steps] == [
        s.candidate for s in second.steps
    ]


def test_refine_slice_wrapper_matches_fitted_refiner(
    refiner, accepted_ensemble_30, failing_case
):
    runs, _, ranked = failing_case("wsubbug")
    result = refine_slice(
        ranked, accepted_ensemble_30, runs, communities=refiner.communities
    )
    fitted = refiner.refine(ranked, runs)
    assert result.modules == fitted.modules
    assert "microp_aero" in result
