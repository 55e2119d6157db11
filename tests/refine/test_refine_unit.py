"""Unit behaviour of Algorithm 5.4: config validation, scoped tests,
refusal without a detectable signal, and the essential/pruned actions."""

import dataclasses

import pytest

from repro.refine import IterativeRefinement, RefinementConfig, RefinementResult
from repro.slicing import RankedSlice


@pytest.mark.parametrize(
    "kwargs,match",
    [
        (dict(members=2), "members"),
        (dict(target_fraction=0.0), "target_fraction"),
        (dict(target_fraction=1.5), "target_fraction"),
        (dict(slack=-1), "slack"),
        (dict(sample_size=0), "sample_size"),
        (dict(decay=0.0), "decay"),
        (dict(decay=1.5), "decay"),
        (dict(top_variables=0), "variable counts"),
        (dict(evidence_variables=0), "variable counts"),
    ],
)
def test_config_validation(kwargs, match):
    with pytest.raises(ValueError, match=match):
        RefinementConfig(**kwargs)


def test_refinement_ensemble_is_a_member_prefix(
    refiner, accepted_ensemble_30
):
    """The small ensemble is the first k accepted rows, and a k-member
    spec derives exactly those members' configs — so fitting on the rows
    in memory is bit-identical to generating a k-member ensemble."""
    k = refiner.config.members
    assert refiner.ensemble.n_members == k
    assert (
        refiner.ensemble.matrix == accepted_ensemble_30.matrix[:k]
    ).all()
    assert (
        refiner.ensemble.variable_names
        == accepted_ensemble_30.variable_names
    )
    accepted = accepted_ensemble_30.spec
    assert refiner.ensemble.spec == dataclasses.replace(accepted, n_members=k)
    assert (
        refiner.ensemble.spec.member_configs()
        == accepted.member_configs()[:k]
    )


def test_refinement_larger_than_accepted_is_rejected(
    accepted_ensemble_30, communities
):
    config = RefinementConfig(members=31)
    with pytest.raises(ValueError, match="of 31 members .* of 30 members"):
        IterativeRefinement(
            accepted_ensemble_30, communities=communities, config=config
        )


def test_scoped_ect_restricts_to_requested_variables(refiner):
    ect = refiner.scoped_ect(["WSUB", "PRECT"])
    assert ect is not None
    bases = {n.replace("@first", "") for n in ect.variable_names}
    assert bases == {"WSUB", "PRECT"}
    # @first twins ride along with their base name
    assert any(n.endswith("@first") for n in ect.variable_names)
    assert refiner.scoped_ect(["NOT_A_FIELD"]) is None


def test_scoped_verdict_passes_for_accepted_members(refiner):
    vectors = [refiner.ensemble.matrix[i] for i in range(3)]
    verdict = refiner.scoped_verdict(["WSUB", "PRECT", "CLDLOW"], vectors)
    assert verdict is not None and verdict.consistent


def test_refine_refuses_to_prune_without_a_signal(
    refiner, accepted_ensemble_30, failing_case
):
    """Held-out unpatched runs carry no failure signal: the refinement must
    return the slice untouched rather than exonerate on no evidence."""
    from repro.runtime import run_model

    spec = accepted_ensemble_30.spec
    good_runs = [
        run_model(spec.experimental_config(i)) for i in range(3)
    ]
    _, _, ranked = failing_case("wsubbug")
    result = refiner.refine(ranked, good_runs)
    assert set(result.modules) == set(ranked.modules)
    assert result.steps == []
    assert result.verdict is None or result.verdict.consistent


def test_refine_never_prunes_scopes_it_cannot_test(
    refiner, failing_case
):
    """A suspect set outside every evidence slice (never-executed modules)
    leaves the exclusion test nothing to project onto: the refinement must
    mark such scopes essential instead of exonerating them untested."""
    runs, _, ranked = failing_case("wsubbug")
    config = dataclasses.replace(
        refiner.config,
        target_fraction=0.025,  # target of 1 forces the loop to the end
        sample_size=1,
    )
    tiny = RankedSlice(
        modules=["restart_mod", "seasalt_optics"],
        ranking=[("restart_mod", 2.0), ("seasalt_optics", 1.0)],
        variable_weights=dict(ranked.variable_weights),
        depths=dict(ranked.depths),
        total_modules=ranked.total_modules,
    )
    # IterativeRefinement is not a dataclass: rebind the config on a copy
    import copy

    refiner2 = copy.copy(refiner)
    refiner2.config = config
    result = refiner2.refine(tiny, runs)
    assert set(result.modules) == set(tiny.modules)  # nothing pruned
    assert all(step.action == "essential" for step in result.steps)
    assert all(step.consistent is None for step in result.steps)
    assert result.essential
    assert result.pruned == []


def test_refine_is_deterministic_for_a_fixed_seed(refiner, failing_case):
    runs, _, ranked = failing_case("wsubbug")
    first = refiner.refine(ranked, runs)
    second = refiner.refine(ranked, runs)
    assert first.modules == second.modules
    assert [s.candidate for s in first.steps] == [
        s.candidate for s in second.steps
    ]
    assert [s.action for s in first.steps] == [
        s.action for s in second.steps
    ]


def test_result_reporting_surface(refiner, failing_case):
    runs, _, ranked = failing_case("wsubbug")
    result = refiner.refine(ranked, runs)
    assert isinstance(result, RefinementResult)
    assert result.summary().startswith("RefinementResult(")
    assert len(result) == len(result.modules)
    assert result.modules[0] in result
    assert 0.0 < result.fraction < 0.5
    assert result.n_iterations == len(result.steps)
    # scores are reported for exactly the surviving modules, descending
    assert list(result.scores) == result.modules
    values = list(result.scores.values())
    assert values == sorted(values, reverse=True)
