"""MetricsRegistry: counters and their deltas."""

import threading

from repro.obs import MetricsRegistry, get_metrics


def test_counters_accumulate():
    m = MetricsRegistry()
    m.inc("a")
    m.inc("a", 2)
    m.inc("b", 0.5)
    assert m.counters() == {"a": 3, "b": 0.5}


def test_counter_delta_reports_only_movement():
    m = MetricsRegistry()
    m.inc("a", 5)
    before = m.counters()
    m.inc("a", 2)
    m.inc("b")
    assert m.counter_delta(before) == {"a": 2, "b": 1}


def test_counter_delta_without_baseline_is_everything_nonzero():
    m = MetricsRegistry()
    m.inc("a", 3)
    m.inc("z", 0)
    assert m.counter_delta() == {"a": 3}
    assert m.counter_delta(None) == {"a": 3}


def test_reset_clears_everything():
    m = MetricsRegistry()
    m.inc("a")
    m.reset()
    assert m.counters() == {}


def test_concurrent_increments_do_not_lose_counts():
    m = MetricsRegistry()

    def work():
        for _ in range(1000):
            m.inc("c")

    threads = [threading.Thread(target=work) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert m.counters()["c"] == 8000


def test_global_registry_is_a_singleton():
    assert get_metrics() is get_metrics()
