"""Lazy parsing stays attributed, and a warm run costs one store read.

The source stages only build their trees, so the parse moves to whichever
stage first needs ASTs: ``ModelSource.parse()`` opens a ``model.parse``
span and counts ``model.parses`` on the call that actually parses.  A
warm re-run reads the one ``report`` entry and parses nothing, while
``--profile`` still decodes what it needs from the store.  A warm command
imports only what it runs: no numpy, no front end, no interpreter and no
analysis layer, while a cold run imports each of them when it needs it.
"""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.model import ModelConfig, build_model_source
from repro.obs import disable_tracing, enable_tracing, get_metrics, read_trace

RUN_ARGS = [
    "--members", "6",
    "--nsteps", "1",
    "--refine-members", "4",
    "--backend", "serial",
]


def invoke(argv) -> dict:
    out = io.StringIO()
    assert main(argv, out=out) == 0
    return json.loads(out.getvalue())


#: modules a warm command must not import: numpy and every layer that
#: computes something a store hit already holds
HEAVY_MODULES = (
    "numpy",
    "repro.runtime.interpreter",
    "repro.runtime.vec",
    "repro.fortran.parser",
    "repro.graphs.build",
    "repro.analysis.communities",
    "repro.slicing.backward",
    "repro.selection.setcover",
    "repro.refine.algorithm",
    "repro.ect.core",
)


def invoke_fresh(argv) -> tuple[str, set[str]]:
    """``repro.cli.main(argv)`` in a fresh interpreter: its output and
    every module it imported."""
    code = (
        "import io, json, sys\n"
        "from repro.cli import main\n"
        "out = io.StringIO()\n"
        f"assert main({list(argv)!r}, out=out) == 0\n"
        "print(json.dumps([out.getvalue(), sorted(sys.modules)]))\n"
    )
    src = str(Path(repro.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
    text, modules = json.loads(done.stdout)
    return text, set(modules)


def test_parse_is_one_span_and_one_count_per_actual_parse():
    source = build_model_source(ModelConfig())
    enable_tracing()
    first = source.parse()
    assert source.parse() is first  # cached: no second span or count
    spans = disable_tracing()
    (span,) = [s for s in spans if s.name == "model.parse"]
    assert span.attrs["files"] == len(source.compiled_files)
    assert get_metrics().counters()["model.parses"] == 1


class TestColdThenWarm:
    @pytest.fixture(scope="class")
    def store(self, tmp_path_factory):
        return str(tmp_path_factory.mktemp("lazy-parse-store"))

    @pytest.fixture(scope="class")
    def cold(self, store, tmp_path_factory):
        trace = str(tmp_path_factory.mktemp("lazy-parse-trace") / "t.jsonl")
        doc = invoke(["run", "wsubbug", "--store", store, "--trace", trace,
                      "--profile", "--json", *RUN_ARGS])
        return doc, read_trace(trace)

    def test_cold_run_parses_each_tree_once_under_a_consumer(self, cold):
        doc, spans = cold
        assert doc["metrics"]["model.parses"] == 2  # control + patched
        by_id = {s.span_id: s for s in spans}

        def owning_stage(span):
            while not span.name.startswith("stage:"):
                span = by_id[span.parent_id]
            return span.name

        parses = [s for s in spans if s.name == "model.parse"]
        assert len(parses) == 2
        owners = {owning_stage(s) for s in parses}
        assert not owners & {"stage:control_source", "stage:patched_source"}

    def test_warm_run_reads_one_entry(self, cold, store):
        doc = invoke(["run", "wsubbug", "--store", store, "--json", *RUN_ARGS])
        assert doc["metrics"]["store.hits"] == 1
        assert "model.parses" not in doc["metrics"]
        assert doc["report"] == cold[0]["report"]
        # every stage is listed and every cacheable one is a hit
        assert [s["name"] for s in doc["stages"]] == \
            [s["name"] for s in cold[0]["stages"]]
        assert all(s["status"] == "hit" for s in doc["stages"] if s["cacheable"])

    @pytest.mark.parametrize("command", ["run", "sweep", "list"])
    def test_warm_command_imports_no_heavy_layer(self, cold, store, command):
        """A store hit loads neither numpy nor the model runtime, and its
        report is the cold one."""
        args = ["--store", store, "--json", *RUN_ARGS]
        argv = {
            "run": ["run", "wsubbug", *args],
            "sweep": ["sweep", "wsubbug", *args],
            "list": ["list"],
        }[command]
        text, modules = invoke_fresh(argv)
        assert not modules.intersection(HEAVY_MODULES)
        if command == "run":
            assert json.loads(text)["report"] == cold[0]["report"]
        elif command == "sweep":
            doc = json.loads(text)["experiments"]["wsubbug"]
            assert doc["report"] == cold[0]["report"]
            assert doc["metrics"]["store.hits"] == 1
        else:
            assert "wsubbug" in text

    def test_warm_profile_matches_the_cold_one(self, cold, store):
        doc = invoke(["run", "wsubbug", "--store", store, "--profile",
                      "--json", *RUN_ARGS])
        assert doc["profile"], "warm --profile found no coverage"
        assert [r["module"] for r in doc["profile"]] == \
            [r["module"] for r in cold[0]["profile"]]


def test_ensemble_served_from_the_store_parses_nothing(tmp_path):
    from repro.ensemble import EnsembleSpec
    from repro.pipeline import accepted_ensemble

    spec = EnsembleSpec(n_members=2, nsteps=1)
    accepted_ensemble(spec, store_dir=tmp_path)
    before = get_metrics().counters()
    again = accepted_ensemble(spec, store_dir=tmp_path)
    assert again.n_members == 2
    moved = get_metrics().counter_delta(before)
    assert moved["store.hits"] == 1
    assert "model.parses" not in moved


def test_cold_run_imports_each_layer_on_demand(tmp_path):
    """The modules a warm command leaves out are the ones a cold run on
    the default backend imports to compute: the warm budget above is not
    vacuous."""
    small = RUN_ARGS[: RUN_ARGS.index("--backend")]
    text, modules = invoke_fresh(
        ["run", "wsubbug", "--store", str(tmp_path), "--json", *small]
    )
    assert json.loads(text)["report"]["localized"]
    assert modules.issuperset(HEAVY_MODULES)
