"""A finished model pass is freed by reference counting.

A pass's compiled closures capture its interpreter, which holds them in
its compiler caches and holds itself through bound-method tables; left
alone, every finished pass (its interpreter, module arrays and closures)
would wait as cyclic garbage for a full collection, and the next pass
would allocate on top of it.  ``Interpreter.close()`` cuts those cycles
when a run ends, however it ends.  Each test below runs with the cycle
collector off and checks that every interpreter the code built is gone
and that nothing is left for the collector to find.
"""

import gc
import weakref

import pytest

from repro.ensemble import EnsembleSpec, backends, generate_ensemble
from repro.model import ModelConfig, build_model_source
from repro.runtime import (
    RunConfig,
    StatementLimitExceeded,
    run_model,
    run_model_batch,
)
from repro.runtime.interpreter import Interpreter
from repro.runtime.values import VectorizationError
from repro.runtime.vec import VecInterpreter


@pytest.fixture(scope="module")
def source():
    """The control build, parsed before any test disables the collector."""
    built = build_model_source(ModelConfig())
    built.parse()
    return built


@pytest.fixture
def interpreters(monkeypatch):
    """Weak references to every interpreter built during the test, which
    runs with the cycle collector disabled."""
    refs = []
    init = Interpreter.__init__

    def recording_init(self, *args, **kwargs):
        refs.append(weakref.ref(self))
        init(self, *args, **kwargs)

    monkeypatch.setattr(Interpreter, "__init__", recording_init)
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield refs
    finally:
        if enabled:
            gc.enable()


def assert_freed(refs):
    assert refs, "the code under test built no interpreter"
    alive = [ref for ref in refs if ref() is not None]
    assert not alive, (
        f"{len(alive)} of {len(refs)} interpreters outlive their run"
    )
    assert gc.collect() == 0


def test_a_batch_frees_its_interpreter(source, interpreters):
    configs = [RunConfig(nsteps=1, pertlim=1e-14, seed=s) for s in (1, 2, 3)]
    results = run_model_batch(configs, source=source)
    assert len(results) == 3 and all(r.coverage.counts for r in results)
    assert len(interpreters) == 1
    assert_freed(interpreters)


def test_a_scalar_run_frees_its_interpreter(source, interpreters):
    result = run_model(RunConfig(nsteps=1), source=source)
    assert result.statements_executed > 0 and result.coverage.counts
    assert_freed(interpreters)


def test_a_run_that_raises_frees_its_interpreter(source, interpreters):
    try:
        run_model(RunConfig(nsteps=1, max_statements=1000), source=source)
    except StatementLimitExceeded:
        pass
    else:
        pytest.fail("a 1000-statement budget must be exhausted")
    assert_freed(interpreters)


def test_a_batch_that_falls_back_frees_every_interpreter(
    source, interpreters, monkeypatch
):
    def refuse(self, *args, **kwargs):
        raise VectorizationError("lane region refused")

    serial_run = backends._serial_run
    alive_at_member = []

    def counting_serial_run(source, config):
        alive_at_member.append(sum(ref() is not None for ref in interpreters))
        return serial_run(source, config)

    monkeypatch.setattr(VecInterpreter, "_run_lanes", refuse)
    monkeypatch.setattr(backends, "_serial_run", counting_serial_run)
    spec = EnsembleSpec(n_members=2, nsteps=1)
    ensemble = generate_ensemble(spec, source=source, backend="vectorized")
    assert ensemble.matrix.shape[0] == 2
    # the refused batch, then one scalar run per member; each member
    # starts with no earlier pass left in memory
    assert len(interpreters) == 3
    assert alive_at_member == [0, 0]
    assert_freed(interpreters)
