"""The paper's pass/fail experiments, end to end over the live interpreter.

This is the PR's acceptance criterion: a 30-member accepted ensemble is
generated once, and ECT must flag every registered bug patch and the FMA
compiler-flag build as inconsistent while held-out unpatched runs (new
seeds, new pertlim draws) pass.
"""

import numpy as np
import pytest

from repro.ect import UltraFastECT
from repro.ensemble import EnsembleSpec
from repro.model import ModelConfig, build_model_source, list_patches
from repro.runtime import FPConfig, run_model

SPEC = EnsembleSpec(n_members=30, collect_coverage=False)


@pytest.fixture(scope="module")
def accepted_ensemble(accepted_ensemble_30):
    assert accepted_ensemble_30.spec == SPEC  # shared session fixture
    return accepted_ensemble_30


@pytest.fixture(scope="module")
def ect(accepted_ensemble):
    return UltraFastECT(accepted_ensemble)


def experimental_runs(model=None, fp=None, base=0, count=3):
    source = build_model_source(model) if model is not None else None
    runs = []
    for i in range(count):
        config = SPEC.experimental_config(base + i, model=model, fp=fp)
        runs.append(run_model(config, source=source))
    return runs


class TestAcceptedEnsemble:
    def test_thirty_members_complete_with_finite_matrix(
        self, accepted_ensemble
    ):
        assert accepted_ensemble.n_members == 30
        assert np.isfinite(accepted_ensemble.matrix).all()

    def test_first_step_snapshot_provides_bit_invariants(
        self, accepted_ensemble, ect
    ):
        # the high-sensitivity channel exists: some @first fields are
        # bit-identical across all 30 members
        assert any(
            name.endswith("@first") for name in ect.invariant_names
        )

    def test_pca_truncation_is_meaningful(self, ect):
        assert 1 <= ect.n_pcs < 30
        assert ect.explained_variance_fraction >= ect.config.variance_fraction


class TestVerdicts:
    def test_held_out_unpatched_runs_pass(self, ect):
        result = ect.test(experimental_runs())
        assert result.consistent, result.summary()

    def test_second_held_out_batch_passes(self, ect):
        result = ect.test(experimental_runs(base=10))
        assert result.consistent, result.summary()

    @pytest.mark.parametrize("patch", sorted(list_patches()))
    def test_every_registered_patch_fails(self, ect, patch):
        model = ModelConfig(patches=(patch,))
        result = ect.test(experimental_runs(model=model))
        assert not result.consistent, f"{patch}: {result.summary()}"
        assert result.failing_variables

    def test_fma_mode_fails_via_first_step_invariants(self, ect):
        result = ect.test(experimental_runs(fp=FPConfig(fma=True)))
        assert not result.consistent, result.summary()
        # FMA's ULP-level signature lives in the bit-exact channel
        assert any(
            name.endswith("@first") for name in result.invariant_violations
        )

    def test_rand_mt_is_attributed_to_the_perturbation_stream(self, ect):
        model = ModelConfig(patches=("rand-mt",))
        result = ect.test(experimental_runs(model=model))
        assert not result.consistent
        implicated = " ".join(result.failing_variables)
        assert "RHPERT" in implicated

    def test_nan_output_fails_the_gross_outlier_guard(
        self, accepted_ensemble, ect
    ):
        """A NaN output fails no ``> sigma`` comparison and turns every PC
        score of its run into NaN: the guard must count it as an
        exceedance, so the field is flagged instead of passing."""
        column = accepted_ensemble.variable_names.index("PRECT")
        assert column not in ect._invariant_cols  # a varying field
        vectors = accepted_ensemble.matrix[:3].copy()
        vectors[:, column] = np.nan
        result = ect.test(list(vectors))
        assert not result.consistent, result.summary()
        assert "PRECT" in result.outlier_variables
        assert "PRECT" in result.failing_variables
