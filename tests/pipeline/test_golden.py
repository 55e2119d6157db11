"""Localization reports and stage keys pinned byte for byte.

The six experiments run at small scale against one shared store; each
report's ``to_json()`` must equal its file under ``golden/``.  The files
pin the analysis tail (communities, selection, refinement, report): a
change there that moves any report shows up here.  ``golden/full/`` pins
the same six reports at the default configuration (30 members,
``nsteps=2``), the one the CLI runs; a file there is a change detector,
not an endorsement of the verdict it records.  The same full-scale
reports must hold the localization floor: every bug patch localized with
its culprit contained, in no more refined modules or refinement
iterations than before set-cover selection existed (``PR6_BASELINES``).
They are checked as computed, so re-pinning ``golden/full`` cannot
quietly lower the floor.  ``golden/keys.json``
pins every experiment's ``{stage: key}``: a change that re-keys a stage
leaves every store filled before it cold, so it must be deliberate.
Every stage value the stage codec stores must come back whole, and a
stored entry of the wrong shape must be a miss, not a crash.
"""

import dataclasses
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.experiments import get_experiment, list_experiments, run_sweep
from repro.model import list_patches
from repro.pipeline import (
    ArtifactStore,
    RootCauseAnalysis,
    json_payload,
    payload_json,
    root_cause_pipeline,
)
from repro.refine import RefinementConfig

GOLDEN = Path(__file__).parent / "golden"

#: per-patch localization baselines from before set-cover selection,
#: (refined modules, refinement iterations): selection must do no worse
PR6_BASELINES = {
    "cldfrc-premib": (8, 5),
    "goffgratch": (9, 6),
    "mg-autoconv": (8, 6),
    "rand-mt": (8, 6),
    "wsubbug": (10, 4),
}
#: the selection acceptance bar: every patch down to at most 8 modules
SELECTION_MODULE_CAP = 8

#: the stages whose value the one dataclass codec stores
CODEC_STAGES = ("control_ensemble", "experimental_runs", "ect", "ranked_slice",
                "communities", "selection", "refined", "report")


def small(name):
    return get_experiment(name).with_(
        members=6, nsteps=1, refine=RefinementConfig(members=4)
    )


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    specs = [small(name) for name in list_experiments()]
    store = tmp_path_factory.mktemp("golden-store")
    return run_sweep(specs, store_dir=store, backend="vectorized")


@pytest.fixture(scope="module")
def full_sweep(tmp_path_factory):
    store = tmp_path_factory.mktemp("golden-full-store")
    return run_sweep(store_dir=store)


@pytest.mark.parametrize("name", list_experiments())
def test_report_matches_golden(sweep, name):
    expected = (GOLDEN / f"{name}.json").read_text()
    assert sweep[name]["report"].to_json() + "\n" == expected


@pytest.mark.parametrize("name", list_experiments())
def test_full_scale_report_matches_golden(full_sweep, name):
    expected = (GOLDEN / "full" / f"{name}.json").read_text()
    assert full_sweep[name]["report"].to_json() + "\n" == expected


@pytest.mark.parametrize("patch", sorted(list_patches()))
def test_full_scale_reports_hold_the_localization_floor(full_sweep, patch):
    report = full_sweep[patch]["report"]
    target = report.target_modules
    base_modules, base_iters = PR6_BASELINES.get(patch, (target, target))
    refined = len(report.refined_modules)
    assert report.localized and report.contained, report.to_dict()
    assert refined <= min(SELECTION_MODULE_CAP, base_modules), refined
    assert report.refine_iterations <= base_iters, report.refine_iterations


def test_stage_keys_match_golden(sweep):
    expected = json.loads((GOLDEN / "keys.json").read_text())
    keys = {
        name: {record.name: record.key for record in result.records}
        for name, result in sweep.items()
    }
    assert keys == expected


def test_entry_copied_onto_another_key_is_not_served(tmp_path):
    """A warm run trusts the one entry it reads, so a valid entry copied
    onto another experiment's key must load as a miss: that experiment
    re-runs ``report`` from its decoded inputs."""
    specs = {name: small(name) for name in ("wsubbug", "goffgratch")}
    filled = run_sweep(list(specs.values()), store_dir=tmp_path)
    stages = tmp_path / "stages"
    theirs = filled["wsubbug"].record("report").key
    ours = filled["goffgratch"].record("report").key
    shutil.copyfile(stages / f"{theirs}.npz", stages / f"{ours}.npz")

    result = RootCauseAnalysis(specs["goffgratch"], store_dir=tmp_path).run()
    report = result.record("report")
    assert (report.status, report.store_misses) == ("ran", 1)
    assert result.record("ect").store_hits == 1  # decoded, not recomputed
    assert sum(r.member_misses for r in result.records) == 0
    expected = (GOLDEN / "goffgratch.json").read_text()
    assert result["report"].to_json() + "\n" == expected


def rewrite_entry(stages, key, **fields):
    """Overwrite fields of the JSON of the entry under ``key``, keeping
    its arrays: the entry stays parseable and stays under its own key."""
    store = ArtifactStore(stages)
    payload = store.load(key)
    doc = {**payload_json(payload), **fields}
    arrays = {k: v for k, v in payload.items() if k != "__json__"}
    store.save(key, json_payload(doc, arrays))


def test_corrupt_but_parseable_entries_are_misses(tmp_path):
    """A warm run trusts the entry it reads, so an entry of the wrong
    shape under its own key must be a miss that re-runs its stage from
    the stored inputs, not a crash."""
    spec = small("goffgratch")
    filled = RootCauseAnalysis(spec, store_dir=tmp_path).run()
    stages = tmp_path / "stages"
    expected = (GOLDEN / "goffgratch.json").read_text()

    rewrite_entry(stages, filled.record("report").key, verdict=7)
    result = RootCauseAnalysis(spec, store_dir=tmp_path).run()
    report = result.record("report")
    assert (report.status, report.store_misses) == ("ran", 1)
    assert sum(r.member_misses for r in result.records) == 0
    assert result["report"].to_json() + "\n" == expected

    (stages / f"{filled.record('report').key}.npz").unlink()
    rewrite_entry(stages, filled.record("ect").key, failing_pcs=5)
    result = RootCauseAnalysis(spec, store_dir=tmp_path).run()
    ect = result.record("ect")
    assert (ect.status, ect.store_misses) == ("ran", 1)
    assert sum(r.member_misses for r in result.records) == 0
    assert result["report"].to_json() + "\n" == expected


def assert_same_payload(got, want):
    """The same JSON text and the same arrays, dtype included."""
    assert got.keys() == want.keys()
    assert got["__json__"] == want["__json__"]
    for name, array in want.items():
        if name != "__json__":
            assert got[name].dtype == array.dtype
            np.testing.assert_array_equal(got[name], array)


@pytest.mark.parametrize("name", list_experiments())
def test_codec_stages_round_trip_losslessly(sweep, name):
    """Each codec stage's value decodes and re-encodes to the same JSON
    text and arrays, and keeps what the hand-written decoders dropped."""
    result = sweep[name]
    pipeline = root_cause_pipeline(small(name))
    decoded = {}
    for stage_name in CODEC_STAGES:
        stage = pipeline.stage(stage_name)
        payload = stage.encode(result[stage_name])
        decoded[stage_name] = stage.decode(payload)
        assert_same_payload(stage.encode(decoded[stage_name]), payload)

    assert decoded["ranked_slice"].depths == result["ranked_slice"].depths
    assert decoded["ranked_slice"] == result["ranked_slice"]
    assert decoded["communities"].levels == result["communities"].levels
    refined = result["refined"]
    assert decoded["refined"].communities == refined.communities
    verdict = decoded["refined"].verdict
    assert (verdict is None) == (refined.verdict is None)
    if verdict is not None:
        for field in dataclasses.fields(verdict):
            got = getattr(verdict, field.name)
            want = getattr(refined.verdict, field.name)
            if isinstance(want, np.ndarray):
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got, want)
            else:
                assert got == want
