"""Satellite: kill the pipeline after stage k, re-run, verify resume.

The contract under test: after an interrupted run, re-running the same
pipeline against the same store (a) serves every stage completed before
the failure from cache, (b) re-runs no member simulation those stages
already paid for, and (c) produces final outputs bit-identical to an
uninterrupted run — on both execution backends.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.experiments import get_experiment
from repro.pipeline import Pipeline, StageError, root_cause_pipeline
from repro.refine import RefinementConfig

EXPERIMENT = get_experiment("wsubbug").with_(
    members=6, nsteps=1, refine=RefinementConfig(members=4)
)

#: stage to kill at, with the cacheable stages that must resume as hits
KILL_POINTS = {
    "experimental_runs": ["control_ensemble"],
    "ect": ["control_ensemble", "experimental_runs"],
    "refined": [
        "control_ensemble",
        "experimental_runs",
        "ect",
        "ranked_slice",
        "communities",
        "selection",
    ],
}


def killed_pipeline(pipeline: Pipeline, kill_at: str) -> Pipeline:
    """The same DAG with ``kill_at``'s function replaced by a bomb.

    Stage keys derive from name/params/inputs — not the function — so
    the store written by this pipeline is exactly the store the healthy
    pipeline resumes from.
    """

    def boom(ctx, **kwargs):
        raise RuntimeError("simulated crash")

    stages = [
        dataclasses.replace(s, func=boom) if s.name == kill_at else s
        for s in pipeline.stages
    ]
    return Pipeline(stages, store_dir=pipeline.store_dir)


def report_fingerprint(result) -> str:
    return json.dumps(result["report"].to_dict(), sort_keys=True)


@pytest.fixture(scope="module")
def uninterrupted(tmp_path_factory):
    """The reference run: one clean pass in its own store."""
    store = tmp_path_factory.mktemp("reference-store")
    return root_cause_pipeline(
        EXPERIMENT, store_dir=store, backend="serial"
    ).run()


@pytest.mark.parametrize("kill_at", sorted(KILL_POINTS))
def test_resume_after_crash_at_stage(kill_at, tmp_path, uninterrupted):
    store = tmp_path / "store"
    healthy = root_cause_pipeline(
        EXPERIMENT, store_dir=store, backend="serial"
    )

    with pytest.raises(StageError) as excinfo:
        killed_pipeline(healthy, kill_at).run()
    assert excinfo.value.stage == kill_at
    completed = {
        r.name for r in excinfo.value.records if r.status in ("hit", "ran")
    }
    assert set(KILL_POINTS[kill_at]) <= completed

    resumed = healthy.run()
    for name in KILL_POINTS[kill_at]:
        record = resumed.record(name)
        assert record.status == "hit", f"{name} re-ran after resume"
        assert record.member_misses == 0, f"{name} re-ran members"
    # the failed stage itself (and everything after) runs now
    assert resumed.record(kill_at).status == "ran"
    # and the outcome is exactly the uninterrupted run's
    np.testing.assert_array_equal(
        resumed["control_ensemble"].matrix,
        uninterrupted["control_ensemble"].matrix,
    )
    assert report_fingerprint(resumed) == report_fingerprint(uninterrupted)


@pytest.mark.parametrize("backend", ["serial", "vectorized"])
def test_resume_bit_identical_across_backends(
    backend, tmp_path, uninterrupted
):
    """Crash mid-pipeline, resume on ``backend``: same bits as serial."""
    store = tmp_path / "store"
    healthy = root_cause_pipeline(EXPERIMENT, store_dir=store, backend=backend)
    with pytest.raises(StageError):
        killed_pipeline(healthy, "ect").run()

    resumed = healthy.run()
    assert resumed.record("control_ensemble").status == "hit"
    assert sum(r.member_misses for r in resumed.records) == 0
    np.testing.assert_array_equal(
        resumed["control_ensemble"].matrix,
        uninterrupted["control_ensemble"].matrix,
    )
    np.testing.assert_array_equal(
        resumed["ect"].run_scores, uninterrupted["ect"].run_scores
    )
    assert report_fingerprint(resumed) == report_fingerprint(uninterrupted)
