"""ArtifactStore: payloads, entry layout, atomicity conventions, counters,
stage codec."""

import dataclasses
import io
import json
import os
import struct
import subprocess
import sys
import zipfile
from pathlib import Path
from typing import Mapping, Optional

import numpy as np
import pytest

import repro
from repro.pipeline import (
    ArtifactStore,
    Pipeline,
    Stage,
    StoreError,
    json_payload,
    payload_json,
)
from repro.pipeline.store import (
    TMP_PREFIX,
    decode_dataclass,
    encode_dataclass,
    find_nonfinite,
)


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


def test_corrupt_deflate_stream_is_a_miss(tmp_path):
    """An entry whose zip structure is intact but whose compressed body
    is not raises ``zlib.error`` on read: a miss, not a crash."""
    store = ArtifactStore(tmp_path)
    store.save("k", json_payload({"x": 1}, arrays={"a": np.arange(50.0)}))
    path = tmp_path / "k.npz"
    with zipfile.ZipFile(path) as archive:
        offset = archive.getinfo("__json__").header_offset
    data = bytearray(path.read_bytes())
    name_len, extra_len = struct.unpack_from("<HH", data, offset + 26)
    data[offset + 30 + name_len + extra_len] = 0xFF  # a reserved block type
    path.write_bytes(bytes(data))
    assert store.load("k") is None
    assert (store.hits, store.misses) == (0, 1)


def test_entries_count_no_temp_file(tmp_path):
    """A writer killed between its temp file and the rename leaves the
    temp file behind; it is no entry."""
    store = ArtifactStore(tmp_path)
    store.save("k", json_payload({}))
    (tmp_path / ".tmp-orphan.npz").write_bytes(b"half written")
    assert store.stats()["entries"] == 1


def test_load_and_save_spans_carry_bytes(tmp_path):
    from repro.obs import disable_tracing, enable_tracing

    store = ArtifactStore(tmp_path)
    enable_tracing()
    try:
        store.save("k", json_payload({"x": 1}))
        store.load("k")
        store.load("absent")
    finally:
        spans = disable_tracing()
    size = (tmp_path / "k.npz").stat().st_size
    assert [(s.name, s.attrs["bytes"]) for s in spans] == [
        ("store.save", size), ("store.load", size), ("store.load", 0)
    ]


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

        monkeypatch.setattr(zipfile.ZipFile, "writestr", boom)
        with pytest.raises(OSError, match="disk full"):
            store.save("k", json_payload({"x": 1}))
        leftovers = [p.name for p in tmp_path.iterdir()]
        assert leftovers == []
        assert store.writes == 0

    def test_store_still_usable_after_failed_save(
        self, tmp_path, monkeypatch
    ):
        store = ArtifactStore(tmp_path)
        original = zipfile.ZipFile.writestr

        def boom(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(zipfile.ZipFile, "writestr", boom)
        with pytest.raises(OSError):
            store.save("k", json_payload({"x": 1}))
        monkeypatch.setattr(zipfile.ZipFile, "writestr", original)
        store.save("k", json_payload({"x": 1}))
        assert payload_json(store.load("k")) == {"x": 1}

    def test_nonfinite_payload_never_reaches_disk(self, tmp_path):
        store = ArtifactStore(tmp_path)
        with pytest.raises(StoreError):
            store.save("k", json_payload({"v": float("nan")}))
        assert list(tmp_path.iterdir()) == []

    def test_two_cli_processes_share_one_fresh_store(self, tmp_path):
        """Two ``python -m repro run`` processes started together on one
        fresh store may both compute and save every stage: each entry is
        replaced whole, so both exit 0 with the golden report and the
        store ends with its 8 entries, none torn and no temp file."""
        store = tmp_path / "store"
        argv = [sys.executable, "-m", "repro", "run", "wsubbug",
                "--members", "6", "--nsteps", "1", "--refine-members", "4",
                "--store", str(store), "--json"]
        src = str(Path(repro.__file__).parents[1])
        procs = [
            subprocess.Popen(
                argv,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                env={**os.environ, "PYTHONPATH": src},
            )
            for _ in range(2)
        ]
        try:
            outputs = [proc.communicate(timeout=300) for proc in procs]
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                    proc.communicate()
        for proc, (_, err) in zip(procs, outputs):
            assert proc.returncode == 0, err
        reports = [
            json.dumps(json.loads(out)["report"], indent=2, sort_keys=True)
            for out, _ in outputs
        ]
        golden = Path(__file__).parent / "golden" / "wsubbug.json"
        assert reports[0] == reports[1]
        assert reports[0] + "\n" == golden.read_text()
        files = [p for p in store.rglob("*") if p.is_file()]
        assert not [p for p in files if p.name.startswith(TMP_PREFIX)]
        keys = [p.stem for p in files if p.suffix == ".npz"]
        assert len(keys) == 8
        entries = ArtifactStore(store / "stages")
        assert all(entries.load(key) is not None for key in keys)


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


#: records every unpickling of a :class:`Tripwire`
TRIPPED = []


def _trip():
    TRIPPED.append(True)
    return "unpickled"


class Tripwire:
    """An object whose unpickling is observable."""

    def __reduce__(self):
        return _trip, ()


def write_zip(path, members):
    """A deflated zip of ``{name: bytes}`` at ``path``."""
    with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as archive:
        for name, data in members.items():
            archive.writestr(name, data)


def npy_bytes(array, allow_pickle=False):
    """``array`` as the bytes of a ``.npy`` file."""
    buffer = io.BytesIO()
    np.lib.format.write_array(buffer, array, allow_pickle=allow_pickle)
    return buffer.getvalue()


class TestEntryLayout:
    """An entry is a deflated zip of a ``__key__`` and a ``__json__`` UTF-8
    member plus one ``<name>.npy`` member per array."""

    def test_members_are_utf8_text_and_npy_arrays(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.save("k", json_payload({"name": "été"}, arrays={"a": np.ones(3)}))
        with zipfile.ZipFile(tmp_path / "k.npz") as archive:
            infos = {i.filename: i for i in archive.infolist()}
            assert set(infos) == {"__key__", "__json__", "a.npy"}
            assert {i.compress_type for i in infos.values()} == {
                zipfile.ZIP_DEFLATED
            }
            assert archive.read("__key__") == b"k"
            assert json.loads(archive.read("__json__").decode()) == {
                "name": "été"
            }
        loaded = store.load("k")
        assert loaded["__json__"] == json.dumps({"name": "été"}, sort_keys=True)

    def test_arrays_round_trip_exactly(self, tmp_path):
        arrays = {
            "f32": np.arange(6, dtype=np.float32).reshape(2, 3),
            "i16": np.array([3, -1, 2], dtype=np.int16),
            "u64": np.array([2**64 - 1], dtype=np.uint64),
            "scalar": np.array(2.5),
            "flags": np.array([[True], [False]]),
            "text": np.array(["a", "bcd", "été"]),
            "empty": np.zeros((0, 4)),
            "fortran": np.asfortranarray(np.arange(6.0).reshape(2, 3)),
        }
        store = ArtifactStore(tmp_path)
        store.save("k", json_payload({"x": 1}, arrays=arrays))
        loaded = store.load("k")
        assert set(loaded) == {"__json__", *arrays}
        for name, array in arrays.items():
            got = loaded[name]
            assert (got.dtype, got.shape) == (array.dtype, array.shape), name
            np.testing.assert_array_equal(got, array)

    def test_json_only_entry_needs_no_numpy(self, tmp_path):
        """A JSON-only entry saves and loads in a process where importing
        numpy fails."""
        code = (
            "import sys\n"
            "sys.modules['numpy'] = None  # any numpy import raises\n"
            "from repro.pipeline.store import ArtifactStore, json_payload, "
            "payload_json\n"
            f"store = ArtifactStore({str(tmp_path)!r})\n"
            "store.save('k', json_payload({'modules': ['a'], 'w': 0.5}))\n"
            "print(payload_json(store.load('k')))\n"
        )
        src = str(Path(repro.__file__).parents[1])
        done = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "{'modules': ['a'], 'w': 0.5}"

    def test_older_layout_entry_is_one_miss_then_recomputed(self, tmp_path):
        """An entry of the older layout (``np.savez_compressed`` with the
        JSON and the key as string arrays) is one miss: the stage runs
        once, rewrites its entry, and is a hit from then on."""
        calls = []

        def func(ctx):
            calls.append(1)
            return 7

        stage = Stage(
            name="answer",
            func=func,
            encode=lambda v: json_payload({"v": v}),
            decode=lambda payload: payload_json(payload)["v"],
        )
        key = Pipeline([stage]).keys()["answer"]
        stages = tmp_path / "stages"
        stages.mkdir()
        np.savez_compressed(
            stages / f"{key}.npz",
            __json__=np.array([json.dumps({"v": 7})]),
            __key__=np.array([key]),
        )
        first = Pipeline([stage], store_dir=tmp_path).run()
        record = first.record("answer")
        assert (record.status, record.store_hits, record.store_misses) == (
            "ran", 0, 1
        )
        second = Pipeline([stage], store_dir=tmp_path).run()
        assert second.record("answer").status == "hit"
        assert (second["answer"], len(calls)) == (7, 1)

    def test_object_array_member_is_a_miss_and_never_unpickled(
        self, tmp_path
    ):
        TRIPPED.clear()
        write_zip(tmp_path / "k.npz", {
            "__key__": b"k",
            "__json__": b"{}",
            "x.npy": npy_bytes(
                np.array([Tripwire()], dtype=object), allow_pickle=True
            ),
        })
        store = ArtifactStore(tmp_path)
        assert store.load("k") is None
        assert (store.hits, store.misses) == (0, 1)
        assert TRIPPED == []

    def test_object_array_is_never_written(self, tmp_path):
        store = ArtifactStore(tmp_path)
        with pytest.raises(ValueError, match="allow_pickle"):
            store.save("k", {"x": np.array([{"a": 1}], dtype=object)})
        assert list(tmp_path.iterdir()) == []

    def test_unknown_member_is_a_miss(self, tmp_path):
        write_zip(tmp_path / "k.npz", {
            "__key__": b"k", "__json__": b"{}", "notes.txt": b"?",
        })
        store = ArtifactStore(tmp_path)
        assert store.load("k") is None
        assert store.misses == 1


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


# ------------------------------------------------------- the stage codec
@dataclasses.dataclass(frozen=True)
class Leaf:
    name: str
    weight: float


@dataclasses.dataclass
class Tree:
    label: Optional[str]
    leaf: Leaf
    tags: tuple[str, ...]
    pair: tuple[str, float]
    members: frozenset[str]
    weights: Mapping[str, float]
    depths: dict[tuple[str, str, str], int]
    extra: dict


@dataclasses.dataclass
class Scores:
    matrix: np.ndarray
    n: int = 0
    flag: bool = False


@dataclasses.dataclass
class Holder:
    scores: Scores
    counts: np.ndarray


def tree(**overrides) -> Tree:
    fields = dict(
        label="root",
        leaf=Leaf("a", 0.5),
        tags=("x", "y"),
        pair=("p", 2.5),
        members=frozenset({"m2", "m1"}),
        weights={"b": 2.0, "a": 1.0},
        depths={("mod", "sub", "v"): 1, ("aer", "init", "w"): 0},
        extra={"warm_start": "selection", "selection_modules": 6},
    )
    fields.update(overrides)
    return Tree(**fields)


def round_trip(value, cls):
    """``value`` decoded from its payload; re-encoding gives the same JSON
    text and the same arrays, dtype included."""
    payload = encode_dataclass(value, cls)
    again = decode_dataclass(payload, cls)
    twice = encode_dataclass(again, cls)
    assert twice.keys() == payload.keys()
    assert twice["__json__"] == payload["__json__"]
    for name, array in payload.items():
        if name != "__json__":
            assert twice[name].dtype == array.dtype
            np.testing.assert_array_equal(twice[name], array)
    return again


class TestDataclassCodec:
    def test_optional_none_and_value(self):
        for label in (None, "root"):
            again = round_trip(tree(label=label), Tree)
            assert again.label == label

    def test_nested_dataclass(self):
        again = round_trip(tree(), Tree)
        assert again.leaf == Leaf("a", 0.5)
        assert again == tree()

    def test_variable_and_fixed_tuples(self):
        again = round_trip(tree(tags=("c", "b", "a"), pair=("q", 1.0)), Tree)
        assert again.tags == ("c", "b", "a")
        assert again.pair == ("q", 1.0)
        assert isinstance(again.tags, tuple) and isinstance(again.pair, tuple)

    def test_frozenset_bytes_do_not_depend_on_insertion_order(self):
        names = [f"m{i}" for i in range(40)]
        forward = encode_dataclass(tree(members=frozenset(names)), Tree)
        backward = encode_dataclass(
            tree(members=frozenset(reversed(names))), Tree
        )
        assert forward["__json__"] == backward["__json__"]
        assert payload_json(forward)["members"] == sorted(names)
        again = decode_dataclass(forward, Tree)
        assert again.members == frozenset(names)

    def test_str_and_tuple_keyed_dicts(self):
        again = round_trip(tree(), Tree)
        assert again.weights == {"a": 1.0, "b": 2.0}
        assert again.depths == {("mod", "sub", "v"): 1, ("aer", "init", "w"): 0}
        doc = payload_json(encode_dataclass(tree(), Tree))
        assert doc["weights"] == {"a": 1.0, "b": 2.0}
        assert doc["depths"] == [[["aer", "init", "w"], 0], [["mod", "sub", "v"], 1]]

    def test_top_level_and_nested_arrays_keep_dtype(self):
        value = Holder(
            scores=Scores(np.arange(6, dtype=np.float32).reshape(2, 3)),
            counts=np.array([3, 0, 2], dtype=np.int16),
        )
        payload = encode_dataclass(value, Holder)
        assert set(payload) == {"__json__", "scores.matrix", "counts"}
        again = round_trip(value, Holder)
        assert again.scores.matrix.dtype == np.float32
        assert again.counts.dtype == np.int16
        np.testing.assert_array_equal(again.scores.matrix, value.scores.matrix)
        np.testing.assert_array_equal(again.counts, value.counts)

    def test_bare_dict(self):
        extra = {"warm_start": "selection", "nested": {"k": [1, 2]}}
        assert round_trip(tree(extra=extra), Tree).extra == extra

    def test_numpy_scalars_are_coerced_to_the_declared_type(self):
        value = Scores(np.zeros(1), n=np.int64(3), flag=np.bool_(True))
        doc = payload_json(encode_dataclass(value, Scores))
        assert (doc["n"], doc["flag"]) == (3, True)
        again = round_trip(value, Scores)
        assert type(again.n) is int and type(again.flag) is bool
        leaf = round_trip(Leaf(np.str_("a"), np.float32(0.5)), Leaf)
        assert type(leaf.name) is str and type(leaf.weight) is float
        assert leaf == Leaf("a", 0.5)

    def test_numpy_scalars_encode_after_a_decode_without_numpy(self):
        """The scalar types a field accepts are worked out once per type and
        numpy state: a decode before numpy is imported must not keep numpy's
        scalar types out of a later encode (a sweep decodes hits before
        its first miss imports numpy)."""
        code = (
            "import dataclasses, sys\n"
            "from repro.pipeline.store import decode_dataclass, "
            "encode_dataclass\n"
            "@dataclasses.dataclass\n"
            "class Point:\n"
            "    n: int\n"
            "    flag: bool\n"
            "    x: float\n"
            "payload = encode_dataclass(Point(1, True, 0.5), Point)\n"
            "assert decode_dataclass(payload, Point) == Point(1, True, 0.5)\n"
            "assert 'numpy' not in sys.modules\n"
            "import numpy as np\n"
            "value = Point(np.int64(2), np.bool_(False), np.int64(3))\n"
            "print(decode_dataclass(encode_dataclass(value, Point), Point))\n"
        )
        src = str(Path(repro.__file__).parents[1])
        done = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "Point(n=2, flag=False, x=3.0)"


class TestDataclassCodecRejects:
    """Every payload not shaped like the declared type is a StoreError."""

    @staticmethod
    def with_doc(value, cls, **changes):
        payload = encode_dataclass(value, cls)
        doc = payload_json(payload)
        doc.update(changes)
        arrays = {k: v for k, v in payload.items() if k != "__json__"}
        return json_payload(doc, arrays)

    def test_missing_field(self):
        payload = encode_dataclass(Leaf("a", 0.5), Leaf)
        doc = payload_json(payload)
        del doc["weight"]
        with pytest.raises(StoreError, match="missing field 'weight'"):
            decode_dataclass(json_payload(doc), Leaf)

    def test_unknown_field(self):
        payload = self.with_doc(Leaf("a", 0.5), Leaf, colour="red")
        with pytest.raises(StoreError, match="unknown field 'colour'"):
            decode_dataclass(payload, Leaf)

    def test_wrong_typed_scalar(self):
        payload = self.with_doc(Leaf("a", 0.5), Leaf, weight="heavy")
        with pytest.raises(StoreError, match="'weight': expected float"):
            decode_dataclass(payload, Leaf)
        payload = self.with_doc(Scores(np.zeros(1)), Scores, n=True)
        with pytest.raises(StoreError, match="'n': expected int"):
            decode_dataclass(payload, Scores)

    def test_list_where_an_object_is_expected(self):
        payload = self.with_doc(tree(), Tree, leaf=["a", 0.5])
        with pytest.raises(StoreError, match="'leaf': expected dict"):
            decode_dataclass(payload, Tree)

    def test_non_finite_float_names_the_field_path(self):
        with pytest.raises(StoreError, match="'leaf.weight'.*non-finite"):
            encode_dataclass(tree(leaf=Leaf("a", float("nan"))), Tree)
        with pytest.raises(StoreError, match=r"'weights\[a\]'.*non-finite"):
            encode_dataclass(tree(weights={"a": float("inf")}), Tree)

    def test_array_the_value_does_not_name(self):
        payload = encode_dataclass(Scores(np.zeros(2)), Scores)
        payload["stray"] = np.ones(1)
        with pytest.raises(StoreError, match="unknown payload arrays"):
            decode_dataclass(payload, Scores)
