"""generate_ensemble: fan-out, determinism, caching, coverage merge."""

import dataclasses

import numpy as np
import pytest

from repro.ensemble import Ensemble, EnsembleSpec, generate_ensemble
from repro.ensemble.backends import run_members
from repro.model import ModelConfig, build_model_source
from repro.pipeline.stages import make_ensemble_stage, make_experimental_runs_stage
from repro.runtime import CoverageTrace, FPConfig

SMALL = EnsembleSpec(n_members=4, nsteps=1)


@pytest.fixture(scope="module")
def shared_source():
    return build_model_source(SMALL.model)


@pytest.fixture(scope="module")
def small_ensemble(shared_source):
    return generate_ensemble(SMALL, source=shared_source)


@pytest.fixture(scope="module")
def member_runs(shared_source):
    """SMALL's members one by one, as the ensemble's pass runs them."""
    jobs = list(enumerate(SMALL.member_configs()))
    runs = dict(run_members(shared_source, jobs, "vectorized"))
    return [runs[i] for i, _ in jobs]


class TestGeneration:
    def test_matrix_shape_and_names(self, small_ensemble):
        ens = small_ensemble
        assert ens.matrix.shape == (4, len(ens.variable_names))
        finals = [n for n in ens.variable_names if not n.endswith("@first")]
        firsts = [n for n in ens.variable_names if n.endswith("@first")]
        assert len(finals) == len(firsts)
        assert [f"{n}@first" for n in finals] == firsts

    def test_matrix_is_finite_and_members_differ(self, small_ensemble):
        ens = small_ensemble
        assert np.isfinite(ens.matrix).all()
        # members use distinct seeds, so rows must differ
        assert len({tuple(row) for row in ens.matrix}) == ens.n_members

    def test_rows_align_with_member_run_results(
        self, small_ensemble, member_runs
    ):
        ens = small_ensemble
        assert ens.n_members == len(member_runs)
        for i, member in enumerate(member_runs):
            np.testing.assert_array_equal(
                ens.matrix[i], ens.run_vector(member)
            )

    def test_generation_is_deterministic(self, shared_source, small_ensemble):
        again = generate_ensemble(SMALL, source=shared_source)
        np.testing.assert_array_equal(again.matrix, small_ensemble.matrix)
        assert again.coverage == small_ensemble.coverage

    def test_n_override(self, shared_source):
        ens = generate_ensemble(SMALL, n=2, source=shared_source)
        assert ens.n_members == 2

    def test_mismatched_source_rejected(self):
        other = build_model_source(ModelConfig(patches=("wsubbug",)))
        with pytest.raises(ValueError, match="different ModelConfig"):
            generate_ensemble(SMALL, source=other)


class TestCoverageMerge:
    def test_merged_coverage_is_sum_of_member_counts(
        self, small_ensemble, member_runs
    ):
        """Satellite: the ensemble trace equals the per-member sum."""
        ens = small_ensemble
        manual: dict = {}
        for member in member_runs:
            for key, count in member.coverage.counts.items():
                manual[key] = manual.get(key, 0) + count
        assert ens.coverage.counts == manual
        assert ens.coverage.total_statements == sum(
            m.coverage.total_statements for m in member_runs
        )

    def test_merge_is_commutative(self, member_runs):
        forward = CoverageTrace().merged(*(m.coverage for m in member_runs))
        backward = CoverageTrace().merged(
            *(m.coverage for m in reversed(member_runs))
        )
        assert forward == backward


def ensemble_key(source, spec=SMALL) -> str:
    """The ``control_ensemble`` stage key of ``spec`` over ``source``."""
    stage = make_ensemble_stage(spec, source_input="source")
    return stage.key({"source": source.content_digest()})


def runs_key(source, spec=SMALL, fp=None) -> str:
    """The ``experimental_runs`` stage key of ``spec`` over ``source``."""
    stage = make_experimental_runs_stage(
        spec, spec.model, fp or spec.fp, 3, source_input="source"
    )
    return stage.key({"source": source.content_digest()})


class TestDiskCache:
    """The store caches a pass as one stage entry: it must come back
    whole, and its key must cover everything that changes a run."""

    def test_cache_round_trip_is_bit_identical(self, small_ensemble, tmp_path):
        from repro.pipeline import ArtifactStore
        from repro.pipeline.store import decode_dataclass, encode_dataclass

        store = ArtifactStore(tmp_path)
        store.save("k", encode_dataclass(small_ensemble, Ensemble))
        again = store.load("k", lambda p: decode_dataclass(p, Ensemble))
        assert again.spec == small_ensemble.spec
        assert again.variable_names == small_ensemble.variable_names
        assert again.matrix.dtype == small_ensemble.matrix.dtype
        np.testing.assert_array_equal(again.matrix, small_ensemble.matrix)
        assert again.coverage == small_ensemble.coverage
        assert again.stats == small_ensemble.stats
        assert again.n_members == SMALL.n_members

    def test_key_depends_on_patched_source_and_config(self, shared_source):
        # same params, patched tree: only the source fingerprint differs
        patched = build_model_source(ModelConfig(patches=("wsubbug",)))
        assert ensemble_key(patched) != ensemble_key(shared_source)
        assert runs_key(patched) != runs_key(shared_source)
        other = dataclasses.replace(SMALL, base_seed=SMALL.base_seed + 1)
        assert ensemble_key(shared_source, other) != ensemble_key(
            shared_source
        )
        assert runs_key(shared_source, other) != runs_key(shared_source)

    def test_key_covers_every_fp_and_coverage_knob(self, shared_source):
        """Regression: a store hit must never cross numerically (FPConfig)
        or observationally (coverage-enablement) distinct configurations,
        in either model pass."""
        keys = {ensemble_key(shared_source), runs_key(shared_source)}

        def add(*new):
            for key in new:
                assert key not in keys, "stage key collision"
                keys.add(key)

        # FMA nowhere (empty set) and FMA everywhere (None) are different
        # builds and must key differently even though both have fma=True
        for fp in (
            FPConfig(fma=True),
            FPConfig(fma=True, fma_modules=frozenset()),
            FPConfig(fma=True, fma_modules=frozenset({"micro_mg"})),
            FPConfig(flush_to_zero=True),
        ):
            spec = dataclasses.replace(SMALL, fp=fp)
            add(ensemble_key(shared_source, spec), runs_key(shared_source, spec),
                runs_key(shared_source, fp=fp))
        for knob in ({"collect_coverage": False}, {"max_statements": 123_456}):
            spec = dataclasses.replace(SMALL, **knob)
            add(ensemble_key(shared_source, spec), runs_key(shared_source, spec))
        patched = build_model_source(ModelConfig(patches=("wsubbug",)))
        add(ensemble_key(patched), runs_key(patched))

    def test_fp_token_tracks_every_fpconfig_field(self):
        """A field added to FPConfig must flow into the keys automatically."""
        from repro.pipeline import config_token

        token = config_token({"spec": SMALL, "fp": FPConfig()})
        fields = {f.name for f in dataclasses.fields(FPConfig)}
        assert set(token["spec"]["fp"]) == set(token["fp"]) == fields

    def test_corrupt_cache_entry_falls_back_to_running(self, tmp_path):
        """A store filled before an ensemble was one entry holds its
        member keys and matrix: that entry is one decode miss, and the
        pass re-runs once."""
        from repro.obs import get_metrics
        from repro.pipeline import ArtifactStore, accepted_ensemble, json_payload

        first = accepted_ensemble(SMALL, store_dir=tmp_path)
        (entry,) = (tmp_path / "stages").glob("*.npz")
        ArtifactStore(entry.parent).save(entry.stem, json_payload(
            {"member_keys": ["0" * 64] * SMALL.n_members,
             "variable_names": first.variable_names},
            arrays={"matrix": first.matrix},
        ))
        before = get_metrics().counters()
        again = accepted_ensemble(SMALL, store_dir=tmp_path)
        moved = get_metrics().counter_delta(before)
        assert moved["store.misses"] == 1
        assert moved["ensemble.members_run"] == SMALL.n_members
        np.testing.assert_array_equal(again.matrix, first.matrix)
        assert again.coverage == first.coverage
