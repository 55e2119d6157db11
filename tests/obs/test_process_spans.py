"""Member span collection and resume semantics.

The contract: every ensemble member produces exactly one
``ensemble.member`` span in the trace, under the enclosing
``ensemble.generate`` span, whether it ran on the serial path or inside
a member-batched pass — and a killed-mid-stage resume never duplicates
member spans, because the resumed stages are cache hits that run no
members at all.
"""

from collections import Counter

import pytest

from repro.ensemble import EnsembleSpec, generate_ensemble
from repro.obs import disable_tracing, enable_tracing
from repro.pipeline import StageError

SPEC = EnsembleSpec(n_members=3, nsteps=1)


def member_spans(spans):
    return [s for s in spans if s.name == "ensemble.member"]


def owning_stage(span, by_id):
    """The name of the ``stage:`` span ``span`` runs under."""
    while span is not None and not span.name.startswith("stage:"):
        span = by_id.get(span.parent_id)
    return None if span is None else span.name


def generate_span(spans):
    (span,) = [s for s in spans if s.name == "ensemble.generate"]
    return span


@pytest.mark.parametrize("backend", ["serial", "vectorized"])
def test_in_process_backends_one_span_per_member(backend):
    enable_tracing()
    generate_ensemble(SPEC, backend=backend)
    spans = disable_tracing()
    members = member_spans(spans)
    assert len(members) == SPEC.n_members
    parent_ids = {s.parent_id for s in members}
    if backend == "vectorized":
        # synthetic member spans hang off the batch span, which hangs off
        # the generate span; each is flagged as an amortized estimate
        (batch,) = [s for s in spans if s.name == "ensemble.batch"]
        assert parent_ids == {batch.span_id}
        assert batch.parent_id == generate_span(spans).span_id
        assert all(s.attrs.get("estimated") for s in members)
    else:
        assert parent_ids == {generate_span(spans).span_id}
    # exactly once: all span ids distinct
    assert len({s.span_id for s in members}) == SPEC.n_members


def killed_pipeline(pipeline, kill_at):
    """The same DAG with ``kill_at``'s function replaced by a bomb.

    Mirrors tests/pipeline/test_resume.py: stage keys derive from
    name/params/inputs — not the function — so the store written by the
    crashed run is exactly the store the healthy pipeline resumes from.
    """
    import dataclasses

    from repro.pipeline import Pipeline

    def boom(ctx, **kwargs):
        raise RuntimeError("simulated crash")

    stages = [
        dataclasses.replace(s, func=boom) if s.name == kill_at else s
        for s in pipeline.stages
    ]
    return Pipeline(stages, store_dir=pipeline.store_dir)


def test_killed_mid_stage_resume_never_duplicates_spans(tmp_path):
    from repro.experiments import get_experiment
    from repro.pipeline import root_cause_pipeline
    from repro.refine import RefinementConfig

    experiment = get_experiment("wsubbug").with_(
        members=4, nsteps=1, refine=RefinementConfig(members=3)
    )
    healthy = root_cause_pipeline(
        experiment, store_dir=tmp_path / "store", backend="serial"
    )

    enable_tracing()
    with pytest.raises(StageError):
        killed_pipeline(healthy, "ect").run()
    crashed_spans = disable_tracing()
    # the accepted ensemble and the experimental runs ran pre-crash, each
    # member under its own stage
    by_id = {s.span_id: s for s in crashed_spans}
    owners = Counter(
        owning_stage(s, by_id) for s in member_spans(crashed_spans)
    )
    assert owners == {
        "stage:control_ensemble": 4,
        "stage:experimental_runs": 3,
    }

    enable_tracing()
    resumed = healthy.run()
    resumed_spans = disable_tracing()

    # the resumed run serves the accepted ensemble from cache: none of the
    # 4 members re-runs, so the only member spans that may appear belong
    # to the (smaller) refinement ensemble
    assert resumed.record("control_ensemble").status == "hit"
    assert len(member_spans(resumed_spans)) <= 3
    # every stage still traced exactly once on the resume pass
    stage_names = [
        s.name for s in resumed_spans if s.name.startswith("stage:")
    ]
    assert sorted(stage_names) == sorted(
        f"stage:{r.name}" for r in resumed.records
    )
    # and no span id is shared across the two passes
    crashed_ids = {s.span_id for s in crashed_spans}
    resumed_ids = {s.span_id for s in resumed_spans}
    assert not (crashed_ids & resumed_ids)
