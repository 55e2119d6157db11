"""Execution backends: conformance, registry, selection knobs, spawn path."""

import numpy as np
import pytest

from repro.ensemble import (
    EnsembleSpec,
    ExecutionBackend,
    InvalidBatchSizeError,
    ProcessBackend,
    SerialBackend,
    UnknownBackendError,
    VectorizedBackend,
    generate_ensemble,
    get_backend,
    list_backends,
    register_backend,
)
from repro.ensemble.backends import (
    BACKEND_ENV_VAR,
    VEC_BATCH_ENV_VAR,
    _model_token,
    _WORKER_SOURCES,
)
from repro.model import build_model_source

SMALL = EnsembleSpec(n_members=4, nsteps=1)


@pytest.fixture(scope="module")
def shared_source():
    return build_model_source(SMALL.model)


@pytest.fixture(scope="module")
def serial_ensemble(shared_source):
    return generate_ensemble(SMALL, source=shared_source, backend="serial")


class TestConformance:
    """Acceptance: every backend is bit-identical to the serial reference."""

    @pytest.mark.parametrize("backend", ["process", "vectorized"])
    def test_backend_matches_serial_bit_for_bit(
        self, backend, shared_source, serial_ensemble
    ):
        workers = None if backend == "vectorized" else 2
        ens = generate_ensemble(
            SMALL, source=shared_source, backend=backend, max_workers=workers
        )
        np.testing.assert_array_equal(ens.matrix, serial_ensemble.matrix)
        assert ens.variable_names == serial_ensemble.variable_names
        # merged coverage must be identical too — coverage is part of the
        # artifact, not a serial-only extra
        assert ens.coverage == serial_ensemble.coverage
        for mine, ref in zip(ens.members, serial_ensemble.members):
            assert mine.coverage == ref.coverage
            assert mine.statements_executed == ref.statements_executed
            assert mine.prng_draws == ref.prng_draws

    def test_process_spawn_start_method(self, shared_source, serial_ensemble):
        """The spawn path (workers rebuild + reparse) stays bit-identical."""
        backend = ProcessBackend(max_workers=2, mp_context="spawn")
        ens = generate_ensemble(SMALL, source=shared_source, backend=backend)
        np.testing.assert_array_equal(ens.matrix, serial_ensemble.matrix)
        assert ens.coverage == serial_ensemble.coverage

    def test_backend_name_recorded_in_stats(self, serial_ensemble):
        assert serial_ensemble.stats["backend"] == "serial"


class TestWorkerSourceCache:
    def test_parent_warmup_entry_is_evicted_after_the_pool(
        self, shared_source
    ):
        """The fork warm-up must not pin parsed trees for the process
        lifetime: the parent-side cache entry is scoped to the pool."""
        token = _model_token(SMALL.model)
        _WORKER_SOURCES.pop(token, None)
        generate_ensemble(
            SMALL, source=shared_source, backend="process", max_workers=2
        )
        assert token not in _WORKER_SOURCES

    def test_preexisting_worker_cache_entry_is_restored(self, shared_source):
        token = _model_token(SMALL.model)
        sentinel = shared_source
        _WORKER_SOURCES[token] = sentinel
        try:
            generate_ensemble(
                SMALL, source=shared_source, backend="process", max_workers=2
            )
            assert _WORKER_SOURCES[token] is sentinel
        finally:
            _WORKER_SOURCES.pop(token, None)

    def test_model_token_distinguishes_patches(self):
        from repro.model import ModelConfig

        base = _model_token(ModelConfig())
        patched = _model_token(ModelConfig(patches=("wsubbug",)))
        assert base != patched


class TestRegistry:
    def test_builtin_backends_listed(self):
        assert list_backends() == ["process", "serial", "vectorized"]

    def test_get_backend_by_name(self):
        assert isinstance(get_backend("serial"), SerialBackend)
        assert isinstance(get_backend("process"), ProcessBackend)
        assert isinstance(get_backend("vectorized"), VectorizedBackend)

    def test_get_backend_passthrough_instance(self):
        backend = ProcessBackend(max_workers=2)
        assert get_backend(backend) is backend

    def test_max_workers_cannot_silently_override_an_instance(self):
        backend = ProcessBackend(max_workers=2)
        with pytest.raises(ValueError, match="max_workers"):
            get_backend(backend, max_workers=4)

    def test_unknown_backend_is_a_clear_error(self):
        with pytest.raises(ValueError, match="unknown execution backend"):
            get_backend("quantum")

    def test_unknown_backend_error_type_and_listing(self):
        """Mirrors UnknownPatchError: a KeyError that is also the
        historical ValueError, naming every registered backend."""
        with pytest.raises(UnknownBackendError) as excinfo:
            get_backend("quantum")
        err = excinfo.value
        assert isinstance(err, KeyError)
        assert isinstance(err, ValueError)
        for name in list_backends():
            assert name in str(err)
        # KeyError's repr-quoting must not mangle the message
        assert str(err).startswith("unknown execution backend")

    def test_unknown_backend_from_environment_fails_fast(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "warpdrive")
        with pytest.raises(UnknownBackendError, match="warpdrive"):
            get_backend(None)

    def test_unknown_backend_from_spec_fails_fast(self, shared_source):
        spec = EnsembleSpec(n_members=2, nsteps=1, backend="warpdrive")
        with pytest.raises(UnknownBackendError, match="warpdrive"):
            generate_ensemble(spec, source=shared_source)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_backend("serial", lambda max_workers=None: SerialBackend())

    def test_custom_backend_registers_and_runs(self, shared_source):
        class CountingSerial(SerialBackend):
            name = "counting-serial"
            calls = 0

            def run_members(self, source, jobs):
                type(self).calls += len(jobs)
                yield from super().run_members(source, jobs)

        try:
            register_backend(
                "counting-serial", lambda max_workers=None: CountingSerial()
            )
            ens = generate_ensemble(
                SMALL, source=shared_source, backend="counting-serial"
            )
            assert ens.n_members == 4
            assert CountingSerial.calls == 4
        finally:
            from repro.ensemble import backends as mod

            mod._BACKENDS.pop("counting-serial", None)


class TestSelectionKnobs:
    def test_spec_backend_field_selects(self, shared_source):
        import dataclasses

        spec = dataclasses.replace(SMALL, backend="serial")
        ens = generate_ensemble(spec, source=shared_source)
        assert ens.stats["backend"] == "serial"

    def test_argument_overrides_spec(self, shared_source):
        import dataclasses

        spec = dataclasses.replace(SMALL, backend="process")
        ens = generate_ensemble(spec, source=shared_source, backend="serial")
        assert ens.stats["backend"] == "serial"

    def test_environment_variable_is_the_fallback(
        self, shared_source, monkeypatch
    ):
        monkeypatch.setenv(BACKEND_ENV_VAR, "serial")
        ens = generate_ensemble(SMALL, source=shared_source)
        assert ens.stats["backend"] == "serial"

    def test_environment_default_is_vectorized(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert isinstance(get_backend(None), VectorizedBackend)

    def test_spec_backend_does_not_change_member_configs(self):
        import dataclasses

        spec = dataclasses.replace(SMALL, backend="process")
        assert spec.member_configs() == SMALL.member_configs()


class TestBackendCacheInterplay:
    def test_process_misses_fill_cache_for_serial_hits(
        self, shared_source, tmp_path
    ):
        cold = generate_ensemble(
            SMALL,
            source=shared_source,
            cache_dir=tmp_path,
            backend="process",
            max_workers=2,
        )
        assert cold.cache_misses == 4 and cold.cache_hits == 0
        warm = generate_ensemble(
            SMALL, source=shared_source, cache_dir=tmp_path, backend="serial"
        )
        assert warm.cache_hits == 4 and warm.cache_misses == 0
        np.testing.assert_array_equal(warm.matrix, cold.matrix)
        assert warm.coverage == cold.coverage


class TestVectorizedBatchSize:
    """The vectorized batch width is a *where* knob: it must never change
    results or cache keys, and nonsense values fail before any member runs."""

    def test_constructor_rejects_nonsense(self):
        for bad in (0, -3, True, 2.5, "x"):
            with pytest.raises(InvalidBatchSizeError):
                VectorizedBackend(batch_size=bad)

    def test_error_message_names_the_origin(self):
        with pytest.raises(InvalidBatchSizeError, match="batch_size"):
            VectorizedBackend(batch_size=0)

    def test_describe_records_the_width(self):
        assert VectorizedBackend().describe() == "vectorized(batch=auto)"
        assert (
            VectorizedBackend(batch_size=2).describe()
            == "vectorized(batch=2)"
        )

    def test_batched_generation_is_bit_identical(
        self, shared_source, serial_ensemble
    ):
        ens = generate_ensemble(
            SMALL,
            source=shared_source,
            backend=VectorizedBackend(batch_size=2),
        )
        np.testing.assert_array_equal(ens.matrix, serial_ensemble.matrix)
        assert ens.coverage == serial_ensemble.coverage
        assert ens.stats["backend"] == "vectorized(batch=2)"

    def test_env_var_sets_the_width(
        self, shared_source, serial_ensemble, monkeypatch
    ):
        monkeypatch.setenv(VEC_BATCH_ENV_VAR, "3")
        ens = generate_ensemble(
            SMALL, source=shared_source, backend="vectorized"
        )
        assert ens.stats["backend"] == "vectorized(batch=3)"
        np.testing.assert_array_equal(ens.matrix, serial_ensemble.matrix)

    def test_env_var_nonsense_fails_fast(self, monkeypatch):
        monkeypatch.setenv(VEC_BATCH_ENV_VAR, "banana")
        with pytest.raises(InvalidBatchSizeError, match="banana"):
            VectorizedBackend().effective_batch_size()

    def test_constructor_width_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(VEC_BATCH_ENV_VAR, "3")
        assert VectorizedBackend(batch_size=2).effective_batch_size() == 2

    def test_spec_vec_batch_configures_the_backend(self, shared_source):
        import dataclasses

        spec = dataclasses.replace(SMALL, backend="vectorized", vec_batch=2)
        ens = generate_ensemble(spec, source=shared_source)
        assert ens.stats["backend"] == "vectorized(batch=2)"

    def test_spec_vec_batch_validates_at_construction(self):
        with pytest.raises(InvalidBatchSizeError, match="vec_batch"):
            EnsembleSpec(n_members=2, vec_batch=0)

    def test_instance_width_wins_over_spec(self, shared_source):
        import dataclasses

        spec = dataclasses.replace(SMALL, vec_batch=3)
        ens = generate_ensemble(
            spec,
            source=shared_source,
            backend=VectorizedBackend(batch_size=2),
        )
        assert ens.stats["backend"] == "vectorized(batch=2)"

    def test_vec_batch_does_not_change_member_configs_or_stage_keys(self):
        import dataclasses

        from repro.pipeline.core import config_token

        for knob in ({"vec_batch": 2}, {"backend": "serial"}):
            spec = dataclasses.replace(SMALL, **knob)
            assert spec.member_configs() == SMALL.member_configs()
            # a pure *where* knob: stage cache keys must not see it
            assert config_token(spec) == config_token(SMALL)
            assert not set(knob) & set(config_token(spec))


class TestVectorizedFallback:
    """A batch the member-batched runtime cannot express runs member by
    member on the scalar path; any other batch error still propagates."""

    @staticmethod
    def refuse_batches(monkeypatch, error):
        def run_model_batch(configs, source=None):
            raise error

        monkeypatch.setattr(
            "repro.runtime.vec.run_model_batch", run_model_batch
        )

    def test_vectorization_error_falls_back_to_serial(
        self, shared_source, serial_ensemble, monkeypatch
    ):
        from repro.obs import disable_tracing, enable_tracing, get_metrics
        from repro.runtime import VectorizationError

        self.refuse_batches(
            monkeypatch, VectorizationError("PRNG draw under a partial mask")
        )
        before = get_metrics().counters().get("vec.fallbacks", 0)
        enable_tracing()
        try:
            ens = generate_ensemble(
                SMALL,
                source=shared_source,
                backend=VectorizedBackend(batch_size=2),
            )
        finally:
            spans = disable_tracing()
        np.testing.assert_array_equal(ens.matrix, serial_ensemble.matrix)
        assert ens.coverage == serial_ensemble.coverage
        assert get_metrics().counters()["vec.fallbacks"] == before + 2
        batches = [s for s in spans if s.name == "ensemble.batch"]
        assert len(batches) == 2
        for batch in batches:
            assert "partial mask" in batch.attrs["fallback"]
        # the members ran for real, one span each, under their batch
        members = [s for s in spans if s.name == "ensemble.member"]
        assert len(members) == SMALL.n_members
        assert not any(s.attrs.get("estimated") for s in members)
        assert {s.parent_id for s in members} == {b.span_id for b in batches}

    def test_other_batch_errors_propagate(self, shared_source, monkeypatch):
        from repro.runtime import StatementLimitExceeded

        self.refuse_batches(
            monkeypatch, StatementLimitExceeded("statement budget exhausted")
        )
        with pytest.raises(StatementLimitExceeded):
            generate_ensemble(
                SMALL,
                source=shared_source,
                backend=VectorizedBackend(batch_size=2),
            )


def test_execution_backend_is_abstract():
    with pytest.raises(TypeError):
        ExecutionBackend()
