"""Stage adapters over the real model: rehydration, counters, facade."""

import numpy as np
import pytest

from repro.ensemble import EnsembleSpec, UnknownBackendError, generate_ensemble
from repro.experiments import get_experiment
from repro.obs import get_metrics
from repro.pipeline import RootCauseAnalysis, accepted_ensemble, root_cause_pipeline
from repro.refine import RefinementConfig

SMALL_SPEC = EnsembleSpec(n_members=3, nsteps=1)

#: the smallest wsubbug experiment that still detects and localizes
SMALL_EXPERIMENT = get_experiment("wsubbug").with_(
    members=6, nsteps=1, refine=RefinementConfig(members=4)
)


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    store = tmp_path_factory.mktemp("stages-store")
    result = RootCauseAnalysis(
        SMALL_EXPERIMENT, store_dir=store, backend="serial"
    ).run()
    return store, result


class TestAcceptedEnsemble:
    def test_matches_direct_generation_bit_for_bit(self, tmp_path):
        via_pipeline = accepted_ensemble(
            SMALL_SPEC, store_dir=tmp_path, backend="serial"
        )
        direct = generate_ensemble(SMALL_SPEC, backend="serial")
        np.testing.assert_array_equal(via_pipeline.matrix, direct.matrix)
        assert via_pipeline.variable_names == direct.variable_names
        assert via_pipeline.coverage == direct.coverage

    def test_resume_is_a_hit_that_runs_no_members(self, tmp_path):
        first = accepted_ensemble(
            SMALL_SPEC, store_dir=tmp_path, backend="serial"
        )
        before = get_metrics().counters()
        again = accepted_ensemble(
            SMALL_SPEC, store_dir=tmp_path, backend="serial"
        )
        moved = get_metrics().counter_delta(before)
        assert moved["store.hits"] == 1
        assert "ensemble.members_run" not in moved
        assert again.spec == first.spec
        assert again.variable_names == first.variable_names
        np.testing.assert_array_equal(again.matrix, first.matrix)
        assert again.coverage == first.coverage
        assert again.stats == first.stats

    def test_lost_member_artifact_heals_by_rerunning(self, tmp_path):
        """A corrupt ``control_ensemble`` entry is one miss, and the pass
        re-runs once to replace it."""
        first = accepted_ensemble(
            SMALL_SPEC, store_dir=tmp_path, backend="serial"
        )
        (victim,) = (tmp_path / "stages").glob("*.npz")
        victim.write_bytes(victim.read_bytes()[:100])
        before = get_metrics().counters()
        healed = accepted_ensemble(
            SMALL_SPEC, store_dir=tmp_path, backend="serial"
        )
        moved = get_metrics().counter_delta(before)
        assert moved["store.misses"] == 1
        assert moved["store.writes"] == 1
        assert moved["ensemble.members_run"] == SMALL_SPEC.n_members
        np.testing.assert_array_equal(healed.matrix, first.matrix)


class TestRootCausePipeline:
    def test_stage_names_and_order(self):
        pipeline = root_cause_pipeline(SMALL_EXPERIMENT)
        names = [s.name for s in pipeline.stages]
        assert names.index("control_source") < names.index("control_ensemble")
        assert names.index("control_ensemble") < names.index("ect")
        assert names.index("ect") < names.index("ranked_slice")
        assert names.index("ranked_slice") < names.index("selection")
        assert names.index("selection") < names.index("refined")
        assert names[-1] == "report"
        assert "patched_source" in names  # wsubbug is a patched experiment

    def test_only_ranked_slice_reads_the_graph(self):
        """The slice is the tail's one graph walk: selection and refinement
        score from its depth table, so neither reads the metagraph or the
        control tree."""
        pipeline = root_cause_pipeline(SMALL_EXPERIMENT)
        assert pipeline.stage("selection").inputs == (
            "ranked_slice", "communities"
        )
        refined = set(pipeline.stage("refined").inputs)
        assert not refined & {"metagraph", "control_source"}
        assert "metagraph" in pipeline.stage("ranked_slice").inputs

    def test_refinement_larger_than_accepted_fails_at_compile(self):
        # the default 16-member refinement ensemble needs 16 accepted rows
        with pytest.raises(ValueError, match="of 16 members .* of 6 members"):
            root_cause_pipeline(get_experiment("wsubbug").with_(members=6))

    def test_no_experimental_runs_fails_at_compile(self):
        for n_runs in (0, -1):
            with pytest.raises(ValueError, match=f"n_runs={n_runs}"):
                root_cause_pipeline(SMALL_EXPERIMENT.with_(n_runs=n_runs))

    def test_unknown_backend_fails_at_compile(self):
        with pytest.raises(UnknownBackendError, match="quantum"):
            root_cause_pipeline(SMALL_EXPERIMENT, backend="quantum")

    def test_control_experiment_has_no_patched_source(self):
        from repro.experiments import ExperimentSpec

        control = ExperimentSpec(name="control")
        names = [s.name for s in root_cause_pipeline(control).stages]
        assert "patched_source" not in names

    def test_end_to_end_localizes_the_patch(self, small_run):
        _, result = small_run
        report = result["report"]
        assert report.detected
        assert "microp_aero" in report.refined_modules
        assert report.localized
        assert report.total_modules == 40

    def test_member_counters_surface_in_records(self, small_run):
        _, result = small_run
        ensemble_record = result.record("control_ensemble")
        assert ensemble_record.member_misses == SMALL_EXPERIMENT.members
        assert result.record("experimental_runs").member_misses == 3
        assert "coverage_run" not in [r.name for r in result.records]

    def test_resume_is_bit_identical_and_runs_no_members(self, small_run):
        store, first = small_run
        second = RootCauseAnalysis(
            SMALL_EXPERIMENT, store_dir=store, backend="serial"
        ).run()
        cacheable = [r for r in second.records if r.cacheable]
        assert cacheable and all(r.status == "hit" for r in cacheable)
        assert sum(r.member_misses for r in second.records) == 0
        np.testing.assert_array_equal(
            second["control_ensemble"].matrix,
            first["control_ensemble"].matrix,
        )
        assert second["report"].to_dict() == first["report"].to_dict()
        assert second["ect"].consistent == first["ect"].consistent
        np.testing.assert_array_equal(
            second["ect"].run_scores, first["ect"].run_scores
        )
        assert second["ranked_slice"].modules == first["ranked_slice"].modules
        assert second["refined"].modules == first["refined"].modules

    def test_warm_run_reads_one_entry_and_parses_nothing(
        self, small_run, count_calls
    ):
        from repro.fortran import parse_source
        from repro.pipeline import ArtifactStore

        store, first = small_run
        parses = count_calls(parse_source)
        loads = count_calls(ArtifactStore.load)
        warm = RootCauseAnalysis(
            SMALL_EXPERIMENT, store_dir=store, backend="serial"
        ).run()
        assert (len(parses), len(loads)) == (0, 1)
        assert warm.store_stats["hits"] == 1
        assert warm.counters()["store_hits"] == 1
        assert warm.record("report").store_hits == 1
        assert warm.record("metagraph").status == "skipped"
        # an upstream value is still there, decoded on first access from
        # one more entry
        np.testing.assert_array_equal(
            warm["control_ensemble"].matrix,
            first["control_ensemble"].matrix,
        )
        assert (len(parses), len(loads)) == (0, 2)

    def test_backend_choice_does_not_change_stage_keys(self):
        serial = root_cause_pipeline(SMALL_EXPERIMENT, backend="serial")
        vectorized = root_cause_pipeline(
            SMALL_EXPERIMENT, backend="vectorized"
        )
        assert serial.keys() == vectorized.keys()

    def test_experiment_knobs_change_stage_keys(self):
        base = root_cause_pipeline(SMALL_EXPERIMENT).keys()
        bigger = root_cause_pipeline(
            SMALL_EXPERIMENT.with_(members=7)
        ).keys()
        assert base["control_ensemble"] != bigger["control_ensemble"]
        # target_modules only parameterizes the report stage
        retarget = root_cause_pipeline(
            SMALL_EXPERIMENT.with_(target_modules=5)
        ).keys()
        assert base["refined"] == retarget["refined"]
        assert base["report"] != retarget["report"]

    def test_facade_resolves_experiment_names(self, tmp_path):
        analysis = RootCauseAnalysis("wsubbug", store_dir=tmp_path)
        assert analysis.experiment.patch == "wsubbug"
        assert analysis.pipeline.stage("report") is not None


class TestExperimentalRuns:
    """No stage runs the model just for coverage: the experimental runs
    collect it, and they run as one member-batched pass by default."""

    def test_pipeline_has_no_coverage_run(self):
        names = [s.name for s in root_cause_pipeline(SMALL_EXPERIMENT).stages]
        assert "coverage_run" not in names

    def test_runs_carry_coverage(self, small_run):
        _, result = small_run
        runs = result["experimental_runs"]
        assert len(runs) == SMALL_EXPERIMENT.n_runs
        assert all(run.config.collect_coverage for run in runs)
        assert all(run.coverage.counts for run in runs)

    def test_backends_give_identical_runs(self, small_run):
        _, serial = small_run
        vectorized = root_cause_pipeline(
            SMALL_EXPERIMENT, backend="vectorized"
        ).run()
        record = vectorized.record("experimental_runs")
        assert record.metrics["vec.batches"] == 1
        assert "interpreter.runs" not in record.metrics
        pairs = zip(
            serial["experimental_runs"], vectorized["experimental_runs"]
        )
        for want, got in pairs:
            assert got.config == want.config
            for name in want.outputs:
                np.testing.assert_array_equal(
                    got.outputs[name], want.outputs[name]
                )
                np.testing.assert_array_equal(
                    got.first_outputs[name], want.first_outputs[name]
                )
            assert got.coverage.counts == want.coverage.counts
            assert got.statements_executed == want.statements_executed
            assert got.prng_draws == want.prng_draws
        assert vectorized["report"].to_dict() == serial["report"].to_dict()
