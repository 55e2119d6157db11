"""ArtifactStore: payloads, atomicity conventions, counters."""

import numpy as np
import pytest

from repro.pipeline import ArtifactStore, StoreError, json_payload, payload_json
from repro.pipeline.store import find_nonfinite


def test_round_trip_json_and_arrays(tmp_path):
    store = ArtifactStore(tmp_path)
    payload = json_payload(
        {"modules": ["a", "b"], "weight": 1.5},
        arrays={"matrix": np.arange(6.0).reshape(2, 3)},
    )
    store.save("k1", payload)
    loaded = store.load("k1")
    assert payload_json(loaded) == {"modules": ["a", "b"], "weight": 1.5}
    np.testing.assert_array_equal(loaded["matrix"], payload["matrix"])


def test_json_floats_round_trip_exactly(tmp_path):
    store = ArtifactStore(tmp_path)
    value = 0.1 + 0.2  # not representable; repr round-trips bit-exactly
    store.save("k", json_payload({"v": value}))
    assert payload_json(store.load("k"))["v"] == value


def test_miss_and_hit_counters(tmp_path):
    store = ArtifactStore(tmp_path)
    assert store.load("absent") is None
    store.save("k", json_payload({}))
    assert store.load("k") is not None
    assert store.stats() == {"hits": 1, "misses": 1, "writes": 1, "entries": 1}


def test_contains(tmp_path):
    store = ArtifactStore(tmp_path)
    assert "k" not in store
    store.save("k", json_payload({}))
    assert "k" in store


def test_corrupt_entry_is_a_miss(tmp_path):
    store = ArtifactStore(tmp_path)
    store.save("k", json_payload({"x": 1}))
    (tmp_path / "k.npz").write_bytes(b"not a zip archive")
    assert store.load("k") is None
    assert store.misses == 1


def test_truncated_entry_is_a_miss(tmp_path):
    store = ArtifactStore(tmp_path)
    store.save("k", json_payload({"x": 1}))
    path = tmp_path / "k.npz"
    path.write_bytes(path.read_bytes()[:10])
    assert store.load("k") is None


class TestNonFinitePayloads:
    """NaN/Infinity must fail fast at save time, naming the field —
    ``json.dumps`` would otherwise emit the non-JSON token ``NaN`` that
    ``payload_json`` can never read back."""

    def test_nan_payload_raises_naming_the_field(self):
        with pytest.raises(StoreError, match=r"\$\.metrics\.rmse"):
            json_payload({"metrics": {"rmse": float("nan")}})

    def test_infinity_in_list_names_the_index(self):
        with pytest.raises(StoreError, match=r"\$\.scores\[2\]"):
            json_payload({"scores": [0.0, 1.0, float("inf")]})

    def test_finite_floats_pass(self):
        payload = json_payload({"v": 1.5e308})
        assert payload_json(payload)["v"] == 1.5e308

    def test_find_nonfinite_clean_object_is_none(self):
        assert find_nonfinite({"a": [1.0, {"b": 2.0}], "c": "NaN"}) is None

    def test_find_nonfinite_reports_first_hit(self):
        obj = {"a": float("-inf"), "b": float("nan")}
        assert find_nonfinite(obj) == "$.a"


class TestAtomicWrites:
    def test_failed_save_leaves_no_temp_file(self, tmp_path, monkeypatch):
        """A save that dies mid-write must clean up its temp file — a
        long-lived store directory must not accumulate orphans."""
        store = ArtifactStore(tmp_path)

        def boom(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez_compressed", boom)
        with pytest.raises(OSError, match="disk full"):
            store.save("k", json_payload({"x": 1}))
        leftovers = [p.name for p in tmp_path.iterdir()]
        assert leftovers == []
        assert store.writes == 0

    def test_store_still_usable_after_failed_save(
        self, tmp_path, monkeypatch
    ):
        store = ArtifactStore(tmp_path)
        original = np.savez_compressed

        def boom(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez_compressed", boom)
        with pytest.raises(OSError):
            store.save("k", json_payload({"x": 1}))
        monkeypatch.setattr(np, "savez_compressed", original)
        store.save("k", json_payload({"x": 1}))
        assert payload_json(store.load("k")) == {"x": 1}

    def test_nonfinite_payload_never_reaches_disk(self, tmp_path):
        store = ArtifactStore(tmp_path)
        with pytest.raises(StoreError):
            store.save("k", json_payload({"v": float("nan")}))
        assert list(tmp_path.iterdir()) == []


def test_reserved_array_name_rejected():
    with pytest.raises(StoreError, match="reserved"):
        json_payload({}, arrays={"__json__": np.zeros(1)})


def test_payload_without_json_entry_raises():
    with pytest.raises(StoreError, match="no valid JSON"):
        payload_json({"matrix": np.zeros(1)})


def test_loaded_arrays_survive_store_deletion(tmp_path):
    store = ArtifactStore(tmp_path)
    store.save("k", json_payload({}, arrays={"a": np.ones(4)}))
    loaded = store.load("k")
    (tmp_path / "k.npz").unlink()
    np.testing.assert_array_equal(loaded["a"], np.ones(4))


class TestEntriesCarryTheirKey:
    """A valid entry is served only under the key it was saved under."""

    def test_entry_copied_onto_another_key_is_a_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.save("k1", json_payload({"x": 1}))
        (tmp_path / "k2.npz").write_bytes((tmp_path / "k1.npz").read_bytes())
        assert store.load("k2") is None
        assert (store.hits, store.misses) == (0, 1)
        assert payload_json(store.load("k1")) == {"x": 1}

    def test_entry_without_a_key_is_a_miss(self, tmp_path):
        np.savez_compressed(tmp_path / "k.npz", **json_payload({"x": 1}))
        store = ArtifactStore(tmp_path)
        assert store.load("k") is None
        assert store.misses == 1

    def test_loaded_payload_hides_the_key(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.save("k", json_payload({}, arrays={"a": np.ones(2)}))
        assert set(store.load("k")) == {"__json__", "a"}

    def test_key_array_name_is_reserved(self):
        with pytest.raises(StoreError, match="reserved"):
            json_payload({}, arrays={"__key__": np.zeros(1)})
