"""Stored runs: the ``experimental_runs`` entry round-trips through the
stage codec and the store, and a bad entry is a miss, not a crash."""

import numpy as np
import pytest

from repro.ensemble import EnsembleSpec, run_vector
from repro.pipeline import ArtifactStore, StoreError, json_payload
from repro.pipeline.store import decode_dataclass, encode_dataclass
from repro.runtime import RunResult, run_model

SMALL = EnsembleSpec(n_members=2, nsteps=1)
RUNS = list[RunResult]


@pytest.fixture(scope="module")
def result():
    return run_model(SMALL.experimental_config(0))


@pytest.fixture(scope="module")
def payload(result):
    return encode_dataclass([result], RUNS)


def assert_same_run(got: RunResult, want: RunResult) -> None:
    assert got.config == want.config
    assert got.statements_executed == want.statements_executed
    assert got.prng_draws == want.prng_draws
    assert got.coverage == want.coverage
    for snapshot in ("outputs", "first_outputs"):
        mine, ref = getattr(got, snapshot), getattr(want, snapshot)
        assert set(mine) == set(ref)
        for name, array in ref.items():
            assert mine[name].dtype == array.dtype
            np.testing.assert_array_equal(mine[name], array)


class TestRoundTrip:
    def test_payload_round_trip_is_lossless(self, payload, result):
        (again,) = decode_dataclass(payload, RUNS)
        assert_same_run(again, result)

    def test_npz_round_trip_through_cache(self, payload, result, tmp_path):
        store = ArtifactStore(tmp_path)
        store.save("k", payload)
        loaded = store.load("k", lambda p: decode_dataclass(p, RUNS))
        assert loaded is not None and len(loaded) == 1
        assert_same_run(loaded[0], result)

    def test_rehydration_matches_original_result(self, payload, result):
        """A decoded run's outputs iterate in name order, so consumers
        look them up by name: the ensemble-space vector is unchanged."""
        (again,) = decode_dataclass(payload, RUNS)
        assert list(again.outputs) == sorted(result.outputs)
        names = list(result.outputs)
        names += [f"{n}@first" for n in names]
        np.testing.assert_array_equal(
            run_vector(again, names), run_vector(result, names)
        )


class TestCorruption:
    def test_wrong_format_version_rejected(self, result):
        """An entry written when runs were stored as member-cache keys
        does not decode: it is one miss and the runs re-run."""
        old = json_payload({"run_keys": ["0" * 64]})
        with pytest.raises(StoreError):
            decode_dataclass(old, RUNS)

    def test_missing_meta_rejected(self, payload):
        arrays = {k: v for k, v in payload.items() if k != "__json__"}
        missing_array = dict(payload)
        del missing_array[next(iter(arrays))]
        with pytest.raises(StoreError):
            decode_dataclass(missing_array, RUNS)
        from repro.pipeline import payload_json

        (run,) = payload_json(payload)
        del run["statements_executed"]
        with pytest.raises(StoreError, match="statements_executed"):
            decode_dataclass(json_payload([run], arrays), RUNS)

    @pytest.mark.parametrize(
        "garbage",
        [
            b"",  # zero-length -> EOFError inside np.load
            b"PK\x03\x04 corrupt zip body",  # zip magic -> BadZipFile
            b"not an npz at all",  # -> ValueError
        ],
        ids=["empty", "bad-zip", "not-zip"],
    )
    def test_corrupt_cache_entries_are_misses_not_crashes(
        self, tmp_path, garbage
    ):
        store = ArtifactStore(tmp_path)
        (tmp_path / "k.npz").write_bytes(garbage)
        assert store.load("k", lambda p: decode_dataclass(p, RUNS)) is None
        assert store.misses == 1

    def test_cache_refuses_entry_stored_under_wrong_key(
        self, payload, tmp_path
    ):
        store = ArtifactStore(tmp_path)
        store.save("k", payload)
        # simulate a renamed/mangled entry: same payload, different key
        bogus = "0" * 64
        (tmp_path / "k.npz").rename(tmp_path / f"{bogus}.npz")
        assert store.load(bogus, lambda p: decode_dataclass(p, RUNS)) is None
        assert store.misses == 1
