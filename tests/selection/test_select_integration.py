"""The selection stage on the real model: stage wiring, warm start, store.

One small (6-member) wsubbug pipeline run backs the whole module; every
assertion reads its outputs, so the expensive part runs once.
"""

import pytest

from repro.experiments import get_experiment
from repro.pipeline import RootCauseAnalysis, root_cause_pipeline
from repro.pipeline.store import decode_dataclass, encode_dataclass
from repro.refine import RefinementConfig
from repro.selection import (
    SelectionResult,
    SelectionSpec,
    select_culprits,
)
from repro.slicing import module_scores

SMALL_EXPERIMENT = get_experiment("wsubbug").with_(
    members=6, nsteps=1, refine=RefinementConfig(members=4)
)


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    store = tmp_path_factory.mktemp("selection-store")
    result = RootCauseAnalysis(
        SMALL_EXPERIMENT, store_dir=store, backend="serial"
    ).run()
    return store, result


class TestStage:
    def test_selection_output_contains_the_culprit(self, small_run):
        _, result = small_run
        selection = result["selection"]
        assert isinstance(selection, SelectionResult)
        assert "microp_aero" in selection.modules
        assert selection.optimal
        assert selection.solver == "branch-and-bound"
        assert selection.evidence is not None
        assert "WSUB" in selection.evidence.variables

    def test_cover_stays_inside_the_ranked_slice_plus_anchors(
        self, small_run
    ):
        _, result = small_run
        selection = result["selection"]
        ranked = result["ranked_slice"]
        allowed = set(ranked.modules) | set(selection.anchors)
        assert set(selection.modules) <= allowed
        # modules are ordered strongest slice evidence first
        scores = [selection.scores[m] for m in selection.modules]
        assert scores == sorted(scores, reverse=True)

    def test_refinement_warm_starts_from_the_selection(self, small_run):
        _, result = small_run
        refined = result["refined"]
        assert refined.extra["warm_start"] == "selection"
        assert refined.extra["selection_modules"] == len(result["selection"])
        # the selection already beat the target: refinement is a no-op
        assert refined.n_iterations == 0
        assert set(refined.modules) == set(result["selection"].modules)

    def test_report_carries_the_selection_block(self, small_run):
        _, result = small_run
        block = result["report"].selection
        assert block is not None
        assert block["modules"] == list(result["selection"].modules)
        assert block["solver"] == "branch-and-bound"
        assert block["optimal"] is True
        line = f"- selection: {len(block['modules'])} modules"
        assert line in result["report"].to_markdown()

    def test_selection_resumes_from_the_store_bit_identically(
        self, small_run
    ):
        store, first = small_run
        second = RootCauseAnalysis(
            SMALL_EXPERIMENT, store_dir=store, backend="serial"
        ).run()
        assert second.record("selection").status == "hit"
        assert second["selection"] == first["selection"]
        assert second.record("refined").status == "hit"
        assert second["refined"].extra == first["refined"].extra

    def test_selection_knob_changes_the_selection_stage_key(self):
        base = root_cause_pipeline(SMALL_EXPERIMENT).keys()
        lasso = root_cause_pipeline(
            SMALL_EXPERIMENT.with_(
                selection=SelectionSpec(method="lasso")
            )
        ).keys()
        assert base["selection"] != lasso["selection"]
        assert base["ranked_slice"] == lasso["ranked_slice"]
        assert base["communities"] == lasso["communities"]


class TestSelectCulprits:
    def test_is_deterministic_for_fixed_inputs(self, small_run):
        _, result = small_run
        ranked, communities = result["ranked_slice"], result["communities"]
        first = select_culprits(ranked, communities=communities)
        second = select_culprits(ranked, communities=communities)
        assert first == second
        assert first.nodes_explored == second.nodes_explored
        # the stage is exactly this call on its two inputs
        assert first == result["selection"]

    def test_scores_come_from_the_slice_depth_table(self, small_run):
        _, result = small_run
        ranked, selection = result["ranked_slice"], result["selection"]
        scores = module_scores(ranked.depths, selection.evidence.weights)
        assert dict(selection.scores) == {
            m: scores[m] for m in selection.modules
        }
        assert set(selection.evidence.variables) <= set(ranked.variable_weights)

    def test_round_trip(self, small_run):
        _, result = small_run
        selection = result["selection"]
        again = decode_dataclass(
            encode_dataclass(selection, SelectionResult), SelectionResult
        )
        assert again == selection
        assert again.warm_start_gap == selection.warm_start_gap
        assert bool(again) and len(again) == len(selection)

    def test_metrics_and_span_recorded(self, small_run):
        from repro.obs import get_metrics

        counters = get_metrics().counters()
        assert counters.get("selection.solves", 0) >= 1
