"""The consolidated ``repro.errors`` hierarchy and the CLI exit codes.

Contract: every intentional error derives from :class:`ReproError`, each
concrete class keeps its historical import path and builtin bases, and the
CLI maps usage errors to exit 2 vs. "ran but did not localize" to exit 1.
"""

import io

import pytest

import repro.errors as errors_module
from repro.errors import ReproError, _ERROR_EXPORTS


class TestHierarchy:
    @pytest.mark.parametrize("name", sorted(_ERROR_EXPORTS))
    def test_every_export_is_a_repro_error(self, name):
        cls = getattr(errors_module, name)
        assert isinstance(cls, type)
        assert issubclass(cls, ReproError)

    def test_all_covers_every_lazy_export(self):
        assert set(_ERROR_EXPORTS) | {"ReproError"} == set(
            errors_module.__all__
        )

    def test_unknown_attribute_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute"):
            errors_module.definitely_not_an_error

    def test_historical_import_paths_are_the_same_objects(self):
        from repro.ensemble.backends import UnknownBackendError
        from repro.model.patches import UnknownPatchError
        from repro.pipeline.store import StoreError

        assert errors_module.UnknownBackendError is UnknownBackendError
        assert errors_module.UnknownPatchError is UnknownPatchError
        assert errors_module.StoreError is StoreError

    def test_historical_builtin_bases_survive(self):
        # pre-consolidation except clauses keep matching
        assert issubclass(errors_module.StoreError, ValueError)
        assert issubclass(errors_module.StageError, RuntimeError)
        assert issubclass(errors_module.UnknownExperimentError, KeyError)
        assert issubclass(errors_module.UnknownBackendError, KeyError)

    def test_one_except_catches_scattered_raisers(self):
        from repro.experiments import get_experiment
        from repro.model import get_patch

        for trigger in (
            lambda: get_experiment("warpdrive"),
            lambda: get_patch("warpdrive"),
        ):
            with pytest.raises(ReproError):
                trigger()

    def test_repro_error_is_lazily_exported_from_the_package(self):
        import repro

        assert repro.ReproError is ReproError


class TestCliExitCodes:
    """Usage errors exit 2 before any work; a run that completes without
    localizing exits 1; both are distinct from success (0)."""

    def invoke(self, argv):
        from repro.cli import main

        out = io.StringIO()
        return main(argv, out=out), out.getvalue()

    @pytest.mark.parametrize(
        "argv, fragment",
        [
            (["run", "warpdrive"], "warpdrive"),
            (["run", "wsubbug", "--backend", "quantum"], "quantum"),
            # the default 16-member refinement ensemble cannot come from
            # 6 accepted members (TestRun in tests/pipeline/test_cli.py
            # runs the fitting --members 6 --refine-members 4)
            (["run", "wsubbug", "--members", "6"], "of 16 members"),
            # an ECT needs experimental runs to test
            (["run", "wsubbug", "--runs", "0"], "n_runs=0"),
            (["sweep", "wsubbug", "goffgratch", "--members", "6"],
             "of 6 members"),
            (["sweep", "wsubbug", "--runs", "-1"], "n_runs=-1"),
        ],
    )
    def test_usage_errors_exit_2(self, argv, fragment, tmp_path, capsys):
        code, text = self.invoke(argv + ["--store", str(tmp_path)])
        assert code == 2
        assert text == ""
        err = capsys.readouterr().err
        assert "error:" in err and fragment in err
        assert list(tmp_path.iterdir()) == []  # nothing ran

    def test_not_localized_run_exits_1(self, tmp_path, monkeypatch):
        from repro.reporting.report import LocalizationReport, VerdictReport

        report = LocalizationReport(
            experiment="wsubbug",
            patch="wsubbug",
            fma=False,
            expected_modules=["microp_aero"],
            verdict=VerdictReport(consistent=True, n_runs=3, n_pcs=10),
            slice_modules=[],
            refined_modules=[],
            refine_iterations=0,
            target_modules=10,
            total_modules=40,
        )
        assert not report.localized

        class FakeResult:
            records = ()

            def __getitem__(self, name):
                assert name == "report"
                return report

        monkeypatch.setattr(
            "repro.pipeline.Pipeline.run", lambda self: FakeResult()
        )
        code, text = self.invoke(
            ["run", "wsubbug", "--store", str(tmp_path)]
        )
        assert code == 1
        assert "Localized: False" in text
