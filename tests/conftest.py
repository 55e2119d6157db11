"""Shared expensive fixtures for the integration suites."""

import sys

import pytest

from repro.ensemble import EnsembleSpec

#: the accepted-ensemble configuration the ECT and slicing integration
#: suites share (coverage off: 30 members is the expensive part)
ACCEPTED_SPEC = EnsembleSpec(n_members=30, collect_coverage=False)


@pytest.fixture(scope="session")
def accepted_ensemble_30(tmp_path_factory):
    """One 30-member accepted ensemble per test session.

    Generated through the pipeline's accepted-ensemble stage against a
    session-scoped store, so the suites exercise the same build +
    ensemble path the CLI runs and a re-request within the session is a
    stage cache hit.
    """
    from repro.pipeline import accepted_ensemble

    store = tmp_path_factory.mktemp("accepted-ensemble-store")
    return accepted_ensemble(ACCEPTED_SPEC, store_dir=store)


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(function)``: a list receiving one entry per call.

    The ``count_calls`` helper of ``tests/experiments/test_experiments.py``
    as a fixture that also reaches class attributes, so a method such as
    ``ArtifactStore.load`` is counted as well as a function every
    ``repro`` module imported by name.
    """

    def install(function) -> list:
        calls = []

        def recording(*args, **kwargs):
            calls.append(args)
            return function(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] != "repro" or module is None:
                continue
            classes = [v for v in vars(module).values() if isinstance(v, type)]
            for owner in (module, *classes):
                for attr, value in list(vars(owner).items()):
                    if value is function:
                        monkeypatch.setattr(owner, attr, recording)
        return calls

    return install
