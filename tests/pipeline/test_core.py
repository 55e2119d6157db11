"""The DAG engine on toy stages: ordering, keys, caching, failure."""

import dataclasses

import pytest

from repro.obs import get_metrics
from repro.pipeline import (
    ArtifactStore,
    Pipeline,
    PipelineError,
    Stage,
    StageError,
    config_token,
    json_payload,
    payload_json,
)


def value_stage(name, value, inputs=(), params=None, combine=None):
    """A cacheable toy stage computing ``value`` (or combining inputs)."""

    def func(ctx, **kwargs):
        if combine is not None:
            return combine(**kwargs)
        return value

    return Stage(
        name=name,
        func=func,
        inputs=tuple(inputs),
        params=dict(params or {"value": value}),
        encode=lambda v: json_payload({"v": v}),
        decode=lambda payload: payload_json(payload)["v"],
    )


class TestStructure:
    def test_topological_order_with_declaration_tie_break(self):
        stages = [
            value_stage("z", 1),
            value_stage("a", 2),
            value_stage("join", 0, inputs=("z", "a"),
                        combine=lambda z, a: z + a),
        ]
        pipeline = Pipeline(stages)
        assert [s.name for s in pipeline.stages] == ["z", "a", "join"]

    def test_dependencies_run_before_dependents(self):
        stages = [
            value_stage("sum", 0, inputs=("x", "y"),
                        combine=lambda x, y: x + y),
            value_stage("x", 3),
            value_stage("y", 4),
        ]
        result = Pipeline(stages).run()
        assert result["sum"] == 7
        assert result.value == 7  # terminal = last in dependency order

    def test_cycle_is_rejected(self):
        a = value_stage("a", 1, inputs=("b",), combine=lambda b: b)
        b = value_stage("b", 2, inputs=("a",), combine=lambda a: a)
        with pytest.raises(PipelineError, match="cycle"):
            Pipeline([a, b])

    def test_unknown_input_is_rejected(self):
        with pytest.raises(PipelineError, match="unknown"):
            Pipeline([value_stage("a", 1, inputs=("ghost",))])

    def test_duplicate_names_rejected(self):
        with pytest.raises(PipelineError, match="duplicate"):
            Pipeline([value_stage("a", 1), value_stage("a", 2)])

    def test_empty_pipeline_rejected(self):
        with pytest.raises(PipelineError, match="at least one"):
            Pipeline([])

    def test_cacheable_stage_requires_codec(self):
        with pytest.raises(PipelineError, match="encode and decode"):
            Stage(name="a", func=lambda ctx: 1)

    def test_bad_stage_name_rejected(self):
        with pytest.raises(PipelineError, match="identifier"):
            Stage(name="no spaces", func=lambda ctx: 1, cacheable=False)


class TestKeys:
    def test_same_definition_same_key(self):
        assert (
            value_stage("a", 1).key({}) == value_stage("a", 1).key({})
        )

    def test_params_change_key(self):
        assert (
            value_stage("a", 1, params={"k": 1}).key({})
            != value_stage("a", 1, params={"k": 2}).key({})
        )

    def test_name_changes_key(self):
        assert value_stage("a", 1).key({}) != value_stage("b", 1).key({})

    def test_upstream_change_invalidates_downstream_transitively(self):
        def keys(upstream_value):
            return Pipeline(
                [
                    value_stage("a", 1, params={"value": upstream_value}),
                    value_stage("mid", 0, inputs=("a",),
                                combine=lambda a: a),
                    value_stage("leaf", 0, inputs=("mid",),
                                combine=lambda mid: mid),
                ]
            ).keys()

        base, changed = keys(1), keys(2)
        assert base["mid"] != changed["mid"]
        assert base["leaf"] != changed["leaf"]

    def test_dataclass_params_expand_field_by_field(self):
        @dataclasses.dataclass(frozen=True)
        class Knobs:
            alpha: float = 0.5
            tags: frozenset = frozenset({"b", "a"})

        token = config_token(Knobs())
        assert token == {"alpha": (0.5).hex(), "tags": ["a", "b"]}
        assert config_token(Knobs(alpha=0.25)) != token

    def test_fingerprint_overrides_downstream_contribution(self):
        def pipeline(fp_value):
            src = Stage(
                name="src",
                func=lambda ctx: fp_value,
                cacheable=False,
                fingerprint=lambda v: str(v),
            )
            leaf = value_stage("leaf", 0, inputs=("src",),
                               combine=lambda src: src)
            return Pipeline([src, leaf])

        r1 = pipeline("digest-1").run()
        r2 = pipeline("digest-2").run()
        assert r1.record("leaf").key != r2.record("leaf").key
        # the static keys() preview can't see dynamic fingerprints
        assert pipeline("digest-1").keys()["leaf"] == \
            pipeline("digest-2").keys()["leaf"]

    def test_nan_param_hashes_deterministically(self):
        """config_token hex-encodes floats, so even a NaN knob produces
        a canonical key equal to its own recompute — it must never reach
        json.dumps as the non-canonical ``NaN`` token."""
        nan = float("nan")
        key = value_stage("a", 1, params={"k": nan}).key({})
        assert key == value_stage("a", 1, params={"k": nan}).key({})
        assert key != value_stage("a", 1, params={"k": 1.0}).key({})

    def test_non_finite_token_is_a_named_error(self, monkeypatch):
        """The defensive rail behind config_token: a raw non-finite in
        the cache token is a PipelineError naming the location, not a
        bare json.dumps ValueError."""
        from repro.pipeline import core as core_mod

        monkeypatch.setattr(
            core_mod, "config_token", lambda value: {"k": float("nan")}
        )
        with pytest.raises(
            PipelineError, match=r"non-finite float at \$\.params\.k"
        ):
            value_stage("a", 1).key({})


class TestCaching:
    def three_stage(self, store, calls):
        def counted(name, value):
            stage = value_stage(name, value)

            def func(ctx, **kwargs):
                calls.append(name)
                return value

            return dataclasses.replace(stage, func=func)

        return Pipeline(
            [
                counted("a", 1),
                value_stage("b", 0, inputs=("a",), combine=lambda a: a + 1),
                counted("c", 5),
            ],
            store_dir=store,
        )

    def test_second_run_hits_every_cacheable_stage(self, tmp_path):
        calls = []
        first = self.three_stage(tmp_path, calls).run()
        assert [r.status for r in first.records] == ["ran"] * 3
        assert first.store_stats["writes"] == 3

        second = self.three_stage(tmp_path, calls).run()
        assert [r.status for r in second.records] == ["hit"] * 3
        # records carry the store traffic: only the sinks b and c are
        # read; upstream a stays in the store untouched
        assert [r.store_hits for r in second.records] == [0, 1, 1]
        assert all(r.store_misses == 0 for r in second.records)
        assert [second[n] for n in "abc"] == [first[n] for n in "abc"]
        assert calls == ["a", "c"]  # nothing re-ran

    def test_no_store_always_runs(self):
        calls = []
        pipeline = self.three_stage(None, calls)
        pipeline.run()
        pipeline.run()
        assert calls == ["a", "c", "a", "c"]

    def test_param_change_reruns_stage_and_downstream(self, tmp_path):
        Pipeline(
            [value_stage("a", 1), value_stage("b", 0, inputs=("a",),
                                              combine=lambda a: a)],
            store_dir=tmp_path,
        ).run()
        changed = Pipeline(
            [
                value_stage("a", 2),  # params {"value": 2}: new key
                value_stage("b", 0, inputs=("a",), combine=lambda a: a),
            ],
            store_dir=tmp_path,
        ).run()
        assert [r.status for r in changed.records] == ["ran", "ran"]
        assert changed["b"] == 2

    def test_decode_failure_is_a_miss_and_recomputes(self, tmp_path):
        pipeline = Pipeline([value_stage("a", 42)], store_dir=tmp_path)
        pipeline.run()

        stage = pipeline.stages[0]
        broken = dataclasses.replace(
            stage,
            decode=lambda payload: (_ for _ in ()).throw(
                ValueError("stale payload")
            ),
        )
        result = Pipeline([broken], store_dir=tmp_path).run()
        assert result.record("a").status == "ran"
        assert result["a"] == 42

    def test_entry_that_fails_to_decode_is_a_miss_not_a_hit(self, tmp_path):
        """An entry that loads but does not decode re-runs its stage, and
        every count books it as one miss and no hit."""

        def pipeline():
            return Pipeline(
                [value_stage("a", 1),
                 value_stage("b", 0, inputs=("a",), combine=lambda a: a + 1)],
                store_dir=tmp_path,
            )

        key = pipeline().run().record("b").key
        ArtifactStore(tmp_path / "stages").save(key, json_payload({"w": 1}))
        before = get_metrics().counters()
        result = pipeline().run()
        moved = get_metrics().counter_delta(before)

        b = result.record("b")
        assert (b.status, b.store_hits, b.store_misses) == ("ran", 0, 1)
        assert "store.hits" not in b.metrics
        assert b.metrics["store.misses"] == 1
        # the one hit is a, pulled as b's input
        assert result.record("a").store_hits == 1
        assert result.store_stats["hits"] == result.store_stats["misses"] == 1
        assert (moved["store.hits"], moved["store.misses"]) == (1, 1)
        assert result["b"] == 2

    def test_non_cacheable_stage_always_runs(self, tmp_path):
        calls = []

        def func(ctx):
            calls.append("src")
            return "tree"

        src = Stage(name="src", func=func, cacheable=False)
        Pipeline([src], store_dir=tmp_path).run()
        Pipeline([src], store_dir=tmp_path).run()
        assert calls == ["src", "src"]


class TestPull:
    """Keys first, then pull from the sinks: a stage is touched only when
    a consumer of it must run."""

    @staticmethod
    def counted(stage, calls):
        def func(ctx, **kwargs):
            calls.append(stage.name)
            return stage.func(ctx, **kwargs)

        return dataclasses.replace(stage, func=func)

    def two_sinks(self, store, calls):
        """``a`` feeds the two sinks ``b`` and ``c``."""
        return Pipeline(
            [
                self.counted(value_stage("a", 1), calls),
                self.counted(value_stage("b", 0, inputs=("a",),
                                         combine=lambda a: a + 1), calls),
                self.counted(value_stage("c", 0, inputs=("a",),
                                         combine=lambda a: a * 10), calls),
            ],
            store_dir=store,
        )

    def test_cold_run_runs_both_sinks(self, tmp_path):
        calls = []
        result = self.two_sinks(tmp_path, calls).run()
        assert calls == ["a", "b", "c"]
        assert [r.status for r in result.records] == ["ran"] * 3
        assert (result["b"], result["c"]) == (2, 10)
        # a needed stage the store did not hold counts one miss itself
        assert [r.store_misses for r in result.records] == [1, 1, 1]

    def test_warm_run_loads_only_the_sink_entries(self, tmp_path):
        calls = []
        self.two_sinks(tmp_path, calls).run()
        warm = self.two_sinks(tmp_path, calls).run()
        assert warm.store_stats["hits"] == 2
        upstream = warm.record("a")
        assert (upstream.status, upstream.store_hits) == ("hit", 0)
        assert upstream.span_id == "" and upstream.wall_s == 0.0
        assert "a" not in warm.outputs
        assert (warm["b"], warm["c"]) == (2, 10)
        # an untouched stage decodes from the store on first access
        assert warm["a"] == 1
        assert calls == ["a", "b", "c"]  # nothing re-ran

    def test_unneeded_non_cacheable_stage_is_skipped(self, tmp_path):
        calls = []

        def pipeline():
            src = Stage(name="src", func=lambda ctx: 3, cacheable=False)
            return Pipeline(
                [
                    self.counted(src, calls),
                    value_stage("sink", 0, inputs=("src",),
                                combine=lambda src: src * 2),
                ],
                store_dir=tmp_path,
            )

        pipeline().run()
        warm = pipeline().run()
        assert [r.status for r in warm.records] == ["skipped", "hit"]
        assert warm.record("src").span_id == ""
        assert calls == ["src"]  # the warm run never called it
        assert warm["sink"] == 6

    def test_sink_whose_decode_fails_reruns_on_decoded_inputs(self, tmp_path):
        calls = []
        self.two_sinks(tmp_path, calls).run()
        stages = list(self.two_sinks(tmp_path, calls).stages)
        stages[1] = dataclasses.replace(
            stages[1],
            decode=lambda payload: (_ for _ in ()).throw(
                ValueError("stale payload")
            ),
        )
        result = Pipeline(stages, store_dir=tmp_path).run()
        assert [r.status for r in result.records] == ["hit", "ran", "hit"]
        assert calls == ["a", "b", "c", "b"]  # only the broken sink re-ran
        assert result["b"] == 2
        # the pulled input is booked on its own record, not the sink's,
        # and the entry that failed to decode is a miss, not a hit
        assert [r.store_hits for r in result.records] == [1, 0, 1]
        assert [r.store_misses for r in result.records] == [0, 1, 0]


class TestFailure:
    def test_stage_error_names_stage_and_keeps_prefix_artifacts(
        self, tmp_path
    ):
        def boom(ctx, **kwargs):
            raise RuntimeError("kaboom")

        stages = [
            value_stage("a", 1),
            dataclasses.replace(
                value_stage("b", 0, inputs=("a",)), func=boom
            ),
        ]
        with pytest.raises(StageError, match="'b'.*kaboom") as excinfo:
            Pipeline(stages, store_dir=tmp_path).run()
        err = excinfo.value
        assert err.stage == "b"
        assert [r.status for r in err.records] == ["ran", "error"]
        # the completed prefix is in the store: a re-run resumes from it
        resumed = Pipeline(
            [value_stage("a", 1), value_stage("b", 0, inputs=("a",),
                                              combine=lambda a: a + 1)],
            store_dir=tmp_path,
        ).run()
        assert resumed.record("a").status == "hit"
        assert resumed["b"] == 2


class TestResult:
    def test_record_timings_and_to_dict(self, tmp_path):
        result = Pipeline(
            [value_stage("a", 1)], store_dir=tmp_path
        ).run()
        assert result.record("a").name == "a"
        with pytest.raises(KeyError):
            result.record("ghost")
        assert set(result.timings()) == {"a"}
        doc = result.to_dict()
        assert doc["stages"][0]["name"] == "a"
        assert doc["stages"][0]["status"] == "ran"
        assert doc["store"]["writes"] == 1
