"""Tracer semantics: nesting, thread-locality, dedup, root attrs."""

import threading

import pytest

from repro.obs import (
    NULL_SPAN,
    Span,
    Tracer,
    disable_tracing,
    enable_tracing,
    get_tracer,
    new_span_id,
    round_wall,
    runtime_info,
)


def test_disabled_tracer_returns_the_shared_null_handle():
    tracer = Tracer()
    assert tracer.span("anything") is NULL_SPAN
    assert tracer.span("other", {"k": 1}) is NULL_SPAN
    with tracer.span("region") as span:
        assert span is NULL_SPAN
        span.annotate(ignored=True)  # no-op, no error
    assert len(tracer) == 0


def test_span_records_name_timing_and_attrs():
    tracer = Tracer()
    tracer.enable()
    with tracer.span("work", {"k": "v"}) as span:
        span.annotate(extra=1)
    (finished,) = [s for s in tracer.finished() if s.name == "work"]
    assert finished.span_id == span.span_id
    assert finished.attrs["k"] == "v"
    assert finished.attrs["extra"] == 1
    assert finished.wall_s >= 0.0
    assert finished.pid > 0
    assert finished.thread_id == threading.get_ident()


def test_nested_spans_get_parent_ids_from_the_stack():
    tracer = Tracer()
    tracer.enable()
    with tracer.span("outer") as outer:
        with tracer.span("inner") as inner:
            assert inner.parent_id == outer.span_id
        assert tracer.current_id() == outer.span_id
    by_name = {s.name: s for s in tracer.finished()}
    assert by_name["inner"].parent_id == by_name["outer"].span_id
    assert by_name["outer"].parent_id is None


def test_root_spans_carry_runtime_info():
    tracer = Tracer()
    tracer.enable(experiment="x")
    with tracer.span("root"):
        pass
    (root,) = tracer.finished()
    info = runtime_info()
    assert root.attrs["experiment"] == "x"
    for key in ("python", "numpy", "cpus", "platform", "repro"):
        assert root.attrs[key] == info[key]


def test_child_spans_do_not_carry_runtime_info():
    tracer = Tracer()
    tracer.enable()
    with tracer.span("root"):
        with tracer.span("child"):
            pass
    child = next(s for s in tracer.finished() if s.name == "child")
    assert "python" not in child.attrs


def test_lazy_attrs_not_evaluated_when_disabled():
    tracer = Tracer()
    calls = []

    def attrs():
        calls.append(1)
        return {"k": 1}

    tracer.span("cold", attrs)
    assert calls == []
    tracer.enable()
    with tracer.span("hot", attrs):
        pass
    assert calls == [1]


def test_exception_annotates_and_propagates():
    tracer = Tracer()
    tracer.enable()
    with pytest.raises(ValueError):
        with tracer.span("boom"):
            raise ValueError("x")
    (span,) = tracer.finished()
    assert span.attrs["error"] == "ValueError"


def test_thread_local_stacks_do_not_cross():
    tracer = Tracer()
    tracer.enable()
    seen = {}

    def worker():
        # a fresh thread has no enclosing span: its span becomes a root
        with tracer.span("thread-span") as s:
            seen["parent"] = s.parent_id

    with tracer.span("main-span"):
        t = threading.Thread(target=worker)
        t.start()
        t.join()
    assert seen["parent"] is None


def test_explicit_parent_id_overrides_the_stack():
    tracer = Tracer()
    tracer.enable()
    with tracer.span("child", parent_id="ffff-1"):
        pass
    (span,) = tracer.finished()
    assert span.parent_id == "ffff-1"


def test_adopt_dedups_by_span_id():
    tracer = Tracer()
    tracer.enable()
    span = Span(name="w", span_id=new_span_id(), wall_s=0.5)
    assert tracer.adopt([span]) == 1
    # a copy carries the same id, so it is a duplicate too
    assert tracer.adopt([span, Span.from_dict(span.to_dict())]) == 0
    assert len(tracer) == 1


def test_drain_clears_but_keeps_dedup_memory():
    tracer = Tracer()
    tracer.enable()
    span = Span(name="w", span_id=new_span_id())
    tracer.adopt([span])
    assert [s.span_id for s in tracer.drain()] == [span.span_id]
    assert len(tracer) == 0
    assert tracer.adopt([span]) == 0  # still known after the drain


def test_enable_resets_buffer_and_dedup():
    tracer = Tracer()
    tracer.enable()
    span = Span(name="w", span_id=new_span_id())
    tracer.adopt([span])
    tracer.enable()
    assert len(tracer) == 0
    assert tracer.adopt([span]) == 1


def test_span_roundtrips_through_dict():
    span = Span(
        name="unit", span_id=new_span_id(), parent_id="p-1", wall_s=0.5,
        attrs={"k": "v"}, pid=4321,
    )
    clone = Span.from_dict(span.to_dict())
    assert clone.name == span.name
    assert clone.span_id == span.span_id
    assert clone.parent_id == span.parent_id
    assert clone.attrs == span.attrs
    assert clone.pid == span.pid


def test_module_level_enable_disable_cycle():
    tracer = enable_tracing(run="t")
    assert tracer is get_tracer()
    with tracer.span("x"):
        pass
    spans = disable_tracing()
    assert [s.name for s in spans] == ["x"]
    assert not tracer.enabled
    assert tracer.span("after") is NULL_SPAN


def test_round_wall_is_the_shared_convention():
    assert round_wall(1.23456789) == 1.2346
    assert round_wall(0) == 0.0


def test_span_ids_embed_pid_and_are_unique():
    import os

    ids = {new_span_id() for _ in range(100)}
    assert len(ids) == 100
    assert all(i.startswith(f"{os.getpid():x}-") for i in ids)
