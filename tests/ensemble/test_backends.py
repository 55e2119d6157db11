"""Execution backends: vectorized-vs-serial conformance, names, fallback."""

import dataclasses

import numpy as np
import pytest

from repro.ensemble import (
    EnsembleSpec,
    UnknownBackendError,
    generate_ensemble,
)
from repro.ensemble.backends import run_members
from repro.model import build_model_source

SMALL = EnsembleSpec(n_members=4, nsteps=1)
JOBS = list(enumerate(SMALL.member_configs()))


@pytest.fixture(scope="module")
def shared_source():
    return build_model_source(SMALL.model)


@pytest.fixture(scope="module")
def serial_ensemble(shared_source):
    return generate_ensemble(SMALL, source=shared_source, backend="serial")


class TestConformance:
    """Acceptance: the vectorized backend is bit-identical to serial."""

    @pytest.mark.parametrize("backend", ["vectorized"])
    def test_backend_matches_serial_bit_for_bit(
        self, backend, shared_source, serial_ensemble
    ):
        ens = generate_ensemble(SMALL, source=shared_source, backend=backend)
        np.testing.assert_array_equal(ens.matrix, serial_ensemble.matrix)
        assert ens.variable_names == serial_ensemble.variable_names
        # merged coverage must be identical too — coverage is part of a
        # run, not a serial-only extra
        assert ens.coverage == serial_ensemble.coverage
        # and so is every member, outputs and @first snapshots included
        mine = dict(run_members(shared_source, JOBS, backend))
        ref = dict(run_members(shared_source, JOBS, "serial"))
        assert sorted(mine) == sorted(ref) == [i for i, _ in JOBS]
        for index, want in ref.items():
            got = mine[index]
            assert got.config == want.config
            assert got.coverage == want.coverage
            assert got.statements_executed == want.statements_executed
            assert got.prng_draws == want.prng_draws
            assert list(got.outputs) == list(want.outputs)
            for name in want.outputs:
                np.testing.assert_array_equal(
                    got.outputs[name], want.outputs[name]
                )
                np.testing.assert_array_equal(
                    got.first_outputs[name], want.first_outputs[name]
                )

    def test_backend_name_recorded_in_stats(self, serial_ensemble):
        assert serial_ensemble.stats["backend"] == "serial"


class TestBackendNames:
    def test_default_is_vectorized(self, shared_source):
        ens = generate_ensemble(SMALL, source=shared_source)
        assert ens.stats["backend"] == "vectorized"

    def test_unknown_backend_is_a_clear_error(self, shared_source):
        with pytest.raises(ValueError, match="unknown execution backend"):
            generate_ensemble(SMALL, source=shared_source, backend="quantum")

    def test_unknown_backend_error_type_and_listing(self, shared_source):
        """Mirrors UnknownPatchError: a KeyError that is also the
        historical ValueError, naming both backends."""
        with pytest.raises(UnknownBackendError) as excinfo:
            generate_ensemble(SMALL, source=shared_source, backend="process")
        err = excinfo.value
        assert isinstance(err, KeyError)
        assert isinstance(err, ValueError)
        assert "serial" in str(err) and "vectorized" in str(err)
        # KeyError's repr-quoting must not mangle the message
        assert str(err).startswith("unknown execution backend")


class TestBackendCacheInterplay:
    def test_vectorized_misses_fill_cache_for_serial_hits(self, tmp_path):
        """The backend stays out of the stage key: a store filled on
        ``vectorized`` serves ``serial`` without running a member."""
        from repro.obs import get_metrics
        from repro.pipeline import accepted_ensemble

        cold = accepted_ensemble(SMALL, store_dir=tmp_path, backend="vectorized")
        before = get_metrics().counters()
        warm = accepted_ensemble(SMALL, store_dir=tmp_path, backend="serial")
        moved = get_metrics().counter_delta(before)
        assert moved["store.hits"] == 1
        assert "ensemble.members_run" not in moved
        np.testing.assert_array_equal(warm.matrix, cold.matrix)
        assert warm.coverage == cold.coverage


class TestVectorizedBatching:
    def test_one_batch_per_shared_config(self, shared_source, monkeypatch):
        """Members that share everything but pertlim/seed run as one
        batch; the batch key separates the rest."""
        from repro.ensemble.backends import run_members
        from repro.runtime import vec

        widths = []
        real = vec.run_model_batch

        def counting(configs, source=None):
            widths.append(len(configs))
            return real(configs, source=source)

        monkeypatch.setattr("repro.runtime.vec.run_model_batch", counting)
        jobs = list(enumerate(SMALL.member_configs()))
        jobs[1] = (1, dataclasses.replace(jobs[1][1], collect_coverage=False))
        done = dict(run_members(shared_source, jobs, "vectorized"))
        assert sorted(done) == [0, 1, 2, 3]
        assert sorted(widths) == [1, 3]
        assert done[1].coverage.counts == {} != done[0].coverage.counts


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
                SMALL, source=shared_source, backend="vectorized"
            )
        finally:
            spans = disable_tracing()
        np.testing.assert_array_equal(ens.matrix, serial_ensemble.matrix)
        assert ens.coverage == serial_ensemble.coverage
        assert get_metrics().counters()["vec.fallbacks"] == before + 1
        (batch,) = [s for s in spans if s.name == "ensemble.batch"]
        assert "partial mask" in batch.attrs["fallback"]
        # the members ran for real, one span each, under their batch
        members = [s for s in spans if s.name == "ensemble.member"]
        assert len(members) == SMALL.n_members
        assert not any(s.attrs.get("estimated") for s in members)
        assert {s.parent_id for s in members} == {batch.span_id}

    def test_other_batch_errors_propagate(self, shared_source, monkeypatch):
        from repro.runtime import StatementLimitExceeded

        self.refuse_batches(
            monkeypatch, StatementLimitExceeded("statement budget exhausted")
        )
        with pytest.raises(StatementLimitExceeded):
            generate_ensemble(
                SMALL, source=shared_source, backend="vectorized"
            )
