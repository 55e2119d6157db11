"""Localization reports and stage keys pinned byte for byte.

The six experiments run at small scale against one shared store; each
report's ``to_json()`` must equal its file under ``golden/``.  The files
pin the analysis tail (communities, selection, refinement, report): a
change there that moves any report shows up here.  ``golden/keys.json``
pins every experiment's ``{stage: key}``: a change that re-keys a stage
leaves every store filled before it cold, so it must be deliberate.
"""

import json
import shutil
from pathlib import Path

import pytest

from repro.experiments import get_experiment, list_experiments, run_sweep
from repro.pipeline import RootCauseAnalysis
from repro.refine import RefinementConfig

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    specs = [
        get_experiment(name).with_(
            members=6, nsteps=1, refine=RefinementConfig(members=4)
        )
        for name in list_experiments()
    ]
    store = tmp_path_factory.mktemp("golden-store")
    return run_sweep(specs, store_dir=store, backend="vectorized")


@pytest.mark.parametrize("name", list_experiments())
def test_report_matches_golden(sweep, name):
    expected = (GOLDEN / f"{name}.json").read_text()
    assert sweep[name]["report"].to_json() + "\n" == expected


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
    specs = {
        name: get_experiment(name).with_(
            members=6, nsteps=1, refine=RefinementConfig(members=4)
        )
        for name in ("wsubbug", "goffgratch")
    }
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
