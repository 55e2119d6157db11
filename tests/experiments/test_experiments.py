"""The six declarative experiments and the shared-stage sweep."""

import dataclasses
import sys

import pytest

from repro.ensemble import EnsembleSpec
from repro.experiments import (
    ExperimentSpec,
    UnknownExperimentError,
    get_experiment,
    list_experiments,
    run_sweep,
)
from repro.model import list_patches
from repro.pipeline import root_cause_pipeline
from repro.refine import RefinementConfig


class TestRegistry:
    def test_six_experiments_registered(self):
        assert len(list_experiments()) == 6

    def test_every_patch_has_an_experiment(self):
        for patch in list_patches():
            assert get_experiment(patch).patch == patch

    def test_fma_experiment_is_whole_model(self):
        fma = get_experiment("fma")
        assert fma.fma and fma.patch is None
        assert fma.experimental_fp().fma is True
        assert fma.experimental_model() == ExperimentSpec(name="x").experimental_model()

    def test_specs_are_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            get_experiment("wsubbug").members = 5

    def test_unknown_experiment_error(self):
        with pytest.raises(UnknownExperimentError) as excinfo:
            get_experiment("warpdrive")
        err = excinfo.value
        assert isinstance(err, KeyError)
        for name in list_experiments():
            assert name in str(err)
        # KeyError repr-quoting must not mangle the message
        assert str(err).startswith("unknown experiment")

    def test_descriptions_are_set(self):
        for name in list_experiments():
            assert get_experiment(name).description


class TestSpecCompilation:
    def test_ensemble_spec_is_the_unpatched_control(self):
        spec = get_experiment("wsubbug").ensemble_spec()
        assert spec == EnsembleSpec(
            n_members=30, nsteps=2, collect_coverage=False
        )

    def test_experimental_model_applies_the_patch(self):
        assert get_experiment("goffgratch").experimental_model().patches == (
            "goffgratch",
        )
        assert get_experiment("goffgratch").experimental_fp() is None

    def test_with_overrides(self):
        small = get_experiment("wsubbug").with_(members=4, nsteps=1)
        assert (small.members, small.nsteps) == (4, 1)
        assert small.patch == "wsubbug"  # untouched fields survive

    def test_all_experiments_share_the_ensemble_stage_key(self):
        keys = {
            name: root_cause_pipeline(get_experiment(name)).keys()
            for name in list_experiments()
        }
        ensemble_keys = {k["control_ensemble"] for k in keys.values()}
        assert len(ensemble_keys) == 1  # one accepted ensemble for all six
        # but each patched experiment's verdict stage is its own
        ect_keys = {k["ect"] for k in keys.values()}
        assert len(ect_keys) == len(keys)

    def test_changed_ensemble_knob_splits_the_shared_key(self):
        base = root_cause_pipeline(get_experiment("wsubbug")).keys()
        other = root_cause_pipeline(
            get_experiment("wsubbug").with_(pertlim=1e-10)
        ).keys()
        assert base["control_ensemble"] != other["control_ensemble"]


def count_calls(monkeypatch, function) -> list:
    """Route every ``repro`` module's binding of ``function`` through a
    recording wrapper; the list that receives one entry per call."""
    calls = []

    def recording(*args, **kwargs):
        calls.append(args)
        return function(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "repro" or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is function:
                monkeypatch.setattr(module, attr, recording)
    return calls


class TestSweep:
    def test_sweep_shares_the_accepted_ensemble(self, tmp_path, monkeypatch):
        from repro.analysis import girvan_newman_communities

        small = [
            get_experiment(name).with_(
                members=6, nsteps=1, refine=RefinementConfig(members=4)
            )
            for name in ("wsubbug", "goffgratch")
        ]
        communities = count_calls(monkeypatch, girvan_newman_communities)
        results = run_sweep(small, store_dir=tmp_path, backend="serial")
        first = results["wsubbug"].record("control_ensemble")
        second = results["goffgratch"].record("control_ensemble")
        assert first.status == "ran"
        assert second.status == "hit"  # the sweep's whole point
        assert second.member_misses == 0
        for name, result in results.items():
            assert result["report"].detected, name
            assert result["report"].localized, name
            # the refiner fits on in-memory rows: it runs no member
            assert result.record("refined").member_misses == 0
        # one Girvan-Newman partition per store, shared by the sweep ...
        assert len(communities) == 1
        assert results["goffgratch"].record("communities").status == "hit"
        # ... and read back, not recomputed, by a warm re-run
        run_sweep(small, store_dir=tmp_path, backend="serial")
        assert len(communities) == 1

    def test_sweep_resolves_names(self, tmp_path):
        with pytest.raises(UnknownExperimentError):
            run_sweep(["warpdrive"], store_dir=tmp_path)

    def test_sweep_compiles_every_experiment_before_running(self, tmp_path):
        runless = get_experiment("goffgratch").with_(n_runs=0)
        with pytest.raises(ValueError, match="n_runs=0"):
            run_sweep(["wsubbug", runless], store_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []  # wsubbug never ran
