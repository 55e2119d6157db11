"""generate_ensemble: fan-out, determinism, caching, coverage merge."""

import numpy as np
import pytest

from repro.ensemble import EnsembleSpec, generate_ensemble, member_cache_key
from repro.model import ModelConfig, build_model_source
from repro.runtime import CoverageTrace

SMALL = EnsembleSpec(n_members=4, nsteps=1)


@pytest.fixture(scope="module")
def shared_source():
    return build_model_source(SMALL.model)


@pytest.fixture(scope="module")
def small_ensemble(shared_source):
    return generate_ensemble(SMALL, source=shared_source)


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

    def test_rows_align_with_member_run_results(self, small_ensemble):
        ens = small_ensemble
        for i, member in enumerate(ens.members):
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

    def test_progress_callback_sees_every_member(self, shared_source):
        seen = []
        generate_ensemble(
            SMALL,
            source=shared_source,
            progress=lambda done, total: seen.append((done, total)),
        )
        assert seen == [(1, 4), (2, 4), (3, 4), (4, 4)]


class TestCoverageMerge:
    def test_merged_coverage_is_sum_of_member_counts(self, small_ensemble):
        """Satellite: the ensemble trace equals the per-member sum."""
        ens = small_ensemble
        manual: dict = {}
        for member in ens.members:
            for key, count in member.coverage.counts.items():
                manual[key] = manual.get(key, 0) + count
        assert ens.coverage.counts == manual
        assert ens.coverage.total_statements == sum(
            m.coverage.total_statements for m in ens.members
        )

    def test_merge_is_commutative(self, small_ensemble):
        members = small_ensemble.members
        forward = CoverageTrace().merged(*(m.coverage for m in members))
        backward = CoverageTrace().merged(
            *(m.coverage for m in reversed(members))
        )
        assert forward == backward


class TestDiskCache:
    def test_cache_round_trip_is_bit_identical(self, shared_source, tmp_path):
        cold = generate_ensemble(
            SMALL, source=shared_source, cache_dir=tmp_path
        )
        assert cold.cache_hits == 0 and cold.cache_misses == 4
        warm = generate_ensemble(
            SMALL, source=shared_source, cache_dir=tmp_path
        )
        assert warm.cache_hits == 4 and warm.cache_misses == 0
        np.testing.assert_array_equal(warm.matrix, cold.matrix)
        assert warm.coverage == cold.coverage
        for a, b in zip(warm.members, cold.members):
            assert a.statements_executed == b.statements_executed
            assert a.prng_draws == b.prng_draws
            for name in a.outputs:
                np.testing.assert_array_equal(a.outputs[name], b.outputs[name])
                np.testing.assert_array_equal(
                    a.first_outputs[name], b.first_outputs[name]
                )

    def test_growing_ensemble_reuses_cached_members(
        self, shared_source, tmp_path
    ):
        generate_ensemble(SMALL, source=shared_source, cache_dir=tmp_path)
        grown = generate_ensemble(
            SMALL, n=6, source=shared_source, cache_dir=tmp_path
        )
        assert grown.cache_hits == 4 and grown.cache_misses == 2

    def test_key_depends_on_patched_source_and_config(self, shared_source):
        config = SMALL.member_config(0)
        base = member_cache_key(shared_source, config)
        patched_source = build_model_source(ModelConfig(patches=("wsubbug",)))
        assert member_cache_key(patched_source, config) != base
        other = SMALL.member_config(1)
        assert member_cache_key(shared_source, other) != base

    def test_key_covers_every_fp_and_coverage_knob(self, shared_source):
        """Regression: a cache hit must never cross numerically (FPConfig)
        or observationally (coverage-enablement) distinct configurations."""
        import dataclasses

        from repro.runtime import FPConfig

        config = SMALL.member_config(0)
        keys = {member_cache_key(shared_source, config)}

        def add(**overrides):
            variant = dataclasses.replace(config, **overrides)
            key = member_cache_key(shared_source, variant)
            assert key not in keys, f"key collision for {overrides!r}"
            keys.add(key)

        add(fp=FPConfig(fma=True))
        # FMA nowhere (empty set) and FMA everywhere (None) are different
        # builds and must hash differently even though both have fma=True
        add(fp=FPConfig(fma=True, fma_modules=frozenset()))
        add(fp=FPConfig(fma=True, fma_modules=frozenset({"micro_mg"})))
        add(fp=FPConfig(flush_to_zero=True))
        add(collect_coverage=False)
        add(max_statements=123_456)

    def test_fp_token_tracks_every_fpconfig_field(self):
        """A field added to FPConfig must flow into the hash automatically."""
        import dataclasses

        from repro.ensemble.cache import _fp_token
        from repro.runtime import FPConfig

        token = _fp_token(FPConfig())
        assert set(token) == {f.name for f in dataclasses.fields(FPConfig)}

    def test_corrupt_cache_entry_falls_back_to_running(
        self, shared_source, tmp_path
    ):
        config = SMALL.member_config(0)
        key = member_cache_key(shared_source, config)
        (tmp_path / f"{key}.npz").write_bytes(b"not an npz file")
        ens = generate_ensemble(
            SMALL, source=shared_source, cache_dir=tmp_path
        )
        assert ens.n_members == 4
        assert np.isfinite(ens.matrix).all()
