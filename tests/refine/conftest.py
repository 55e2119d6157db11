"""Shared fixtures for the refinement suite.

The accepted 30-member ensemble comes from the session-scoped fixture in
``tests/conftest.py``; everything derived from the control model (source,
metagraph, communities, the fitted refiner) is package-scoped, and the
per-patch failing pipeline (runs, verdict, ranked slice) is memoized so
the two test files never re-run a patch.
"""

import pytest

from repro.analysis import girvan_newman_communities, quotient_graph
from repro.ect import UltraFastECT
from repro.graphs import build_metagraph
from repro.model import ModelConfig, build_model_source, get_patch
from repro.refine import IterativeRefinement
from repro.runtime import RunConfig, run_model
from repro.slicing import module_file_map, slice_failing_runs


@pytest.fixture(scope="package")
def control_source():
    return build_model_source(ModelConfig())


@pytest.fixture(scope="package")
def control_graph(control_source):
    return build_metagraph(control_source)


@pytest.fixture(scope="package")
def file_modules(control_source):
    out = {}
    for module, filename in module_file_map(control_source).items():
        out.setdefault(filename, set()).add(module)
    return out


@pytest.fixture(scope="package")
def accepted_ect(accepted_ensemble_30):
    return UltraFastECT(accepted_ensemble_30)


@pytest.fixture(scope="package")
def communities(control_graph):
    return girvan_newman_communities(quotient_graph(control_graph))


@pytest.fixture(scope="package")
def refiner(accepted_ensemble_30, communities):
    """One fitted Algorithm 5.4 refiner shared by the whole suite."""
    return IterativeRefinement(accepted_ensemble_30, communities=communities)


@pytest.fixture(scope="package")
def failing_case(
    accepted_ensemble_30, accepted_ect, control_source, control_graph
):
    """``failing_case(patch)`` -> (runs, verdict, ranked slice)."""
    spec = accepted_ensemble_30.spec
    cache = {}

    def build(patch: str):
        if patch in cache:
            return cache[patch]
        model = ModelConfig(patches=(patch,))
        patched_source = build_model_source(model)
        runs = [
            run_model(
                spec.experimental_config(i, model=model),
                source=patched_source,
            )
            for i in range(3)
        ]
        verdict = accepted_ect.test(runs)
        assert not verdict.consistent, f"{patch} must fail ECT"
        coverage = run_model(
            RunConfig(model=model, nsteps=1), source=patched_source
        ).coverage
        ranked = slice_failing_runs(
            accepted_ensemble_30,
            runs,
            graph=control_graph,
            source=control_source,
            coverage=coverage,
            ect_result=verdict,
        )
        cache[patch] = (runs, verdict, ranked)
        return cache[patch]

    return build
