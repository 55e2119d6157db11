"""CLI observability surface: --version, --trace, --profile, trace cmd."""

import io
import json

import pytest

from repro.cli import main

RUN_ARGS = [
    "--members", "6",
    "--nsteps", "1",
    "--refine-members", "4",
    "--backend", "serial",
]


def invoke(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    from repro import __version__

    assert f"repro {__version__}" in capsys.readouterr().out


class TestTracedRun:
    @pytest.fixture(scope="class")
    def store(self, tmp_path_factory):
        return str(tmp_path_factory.mktemp("obs-cli-store"))

    @pytest.fixture(scope="class")
    def trace_path(self, tmp_path_factory):
        return str(tmp_path_factory.mktemp("obs-cli-trace") / "t.jsonl")

    @pytest.fixture(scope="class")
    def traced_run(self, store, trace_path):
        return invoke(
            [
                "run", "wsubbug",
                "--store", store,
                "--trace", trace_path,
                "--profile",
                "--json",
                *RUN_ARGS,
            ]
        )

    def test_traced_run_exits_zero_with_metrics_and_profile(
        self, traced_run
    ):
        code, text = traced_run
        assert code == 0
        doc = json.loads(text)
        assert doc["report"]["localized"] is True
        # satellite: per-stage walls + cache counters ride along in --json
        assert set(doc["wall_by_stage"]) == {
            s["name"] for s in doc["stages"]
        }
        assert doc["counters"]["store_misses"] > 0
        assert doc["metrics"]["ensemble.members_run"] == 6
        assert doc["metrics"]["interpreter.statements"] > 0
        # --profile attaches the hottest-modules table rows
        assert doc["profile"], "profile rows missing"
        assert {"module", "share", "est_wall_s"} <= set(doc["profile"][0])

    def test_trace_file_covers_stages_and_members(
        self, traced_run, trace_path
    ):
        from repro.obs import read_trace

        spans = read_trace(trace_path)
        names = [s.name for s in spans]
        stage_names = {n for n in names if n.startswith("stage:")}
        doc = json.loads(traced_run[1])
        assert stage_names == {
            f"stage:{s['name']}" for s in doc["stages"]
        }
        assert names.count("ensemble.member") >= 6
        # store I/O has its own spans, with the bytes moved (a load that
        # finds no entry reads 0); each model pass is saved as one entry
        by_id = {s.span_id: s for s in spans}
        for name in ("store.load", "store.save"):
            assert all("bytes" in s.attrs for s in spans if s.name == name)
        for stage in ("control_ensemble", "experimental_runs"):
            (save,) = [s for s in spans if s.name == "store.save"
                       and by_id[s.parent_id].name == f"stage:{stage}"]
            assert save.attrs["bytes"] > 0
        assert not [n for n in names if n.startswith("member_cache.")]
        # the cold run slices once, inside the ranked_slice stage, over
        # every output field
        slice_spans = [s for s in spans if s.name == "slicing.slice"]
        assert len(slice_spans) == 1
        assert by_id[slice_spans[0].parent_id].name == "stage:ranked_slice"
        assert slice_spans[0].attrs["fields"] == 40
        # stage records link back into the trace by span id
        trace_ids = {s.span_id for s in spans}
        for stage in doc["stages"]:
            assert stage["span_id"] in trace_ids
        # exactly one root span, stamped with runtime info
        roots = [s for s in spans if not s.parent_id]
        assert [s.name for s in roots] == ["pipeline.run"]
        assert roots[0].attrs["experiment"] == "wsubbug"
        assert "python" in roots[0].attrs

    def test_traced_warm_run_loads_one_entry(
        self, traced_run, store, tmp_path
    ):
        from repro.obs import read_trace

        trace = str(tmp_path / "warm.jsonl")
        code, _ = invoke(
            ["run", "wsubbug", "--store", store, "--trace", trace, *RUN_ARGS]
        )
        assert code == 0
        spans = read_trace(trace)
        by_id = {s.span_id: s for s in spans}
        (load,) = [s for s in spans if s.name == "store.load"]
        assert by_id[load.parent_id].name == "stage:report"
        assert load.attrs["bytes"] > 0
        assert not [s for s in spans if s.name == "store.save"]

    def test_trace_summarize_renders_markdown(self, traced_run, trace_path):
        code, text = invoke(["trace", "summarize", trace_path, "--top", "5"])
        assert code == 0
        assert "| span |" in text
        assert "stage:" in text

    def test_trace_summarize_json(self, traced_run, trace_path):
        code, text = invoke(["trace", "summarize", trace_path, "--json"])
        assert code == 0
        rows = json.loads(text)
        assert any(r["name"] == "ensemble.member" for r in rows)

    def test_trace_chrome_conversion(
        self, traced_run, trace_path, tmp_path
    ):
        out_path = str(tmp_path / "t.chrome.json")
        code, _ = invoke(
            ["trace", "chrome", trace_path, "--out", out_path]
        )
        assert code == 0
        with open(out_path) as handle:
            events = json.loads(handle.read())
        assert events and all(e["ph"] == "X" for e in events)

    def test_markdown_run_prints_profile_tables(self, store):
        code, text = invoke(
            ["run", "wsubbug", "--store", store, "--profile", *RUN_ARGS]
        )
        assert code == 0
        assert "## Profile: hottest modules" in text
        assert "| module |" in text
        assert "## Profile: hottest spans" in text

    def test_untraced_run_leaves_tracer_disabled(self, store):
        from repro.obs import get_tracer

        code, _ = invoke(
            ["run", "wsubbug", "--store", store, "--json", *RUN_ARGS]
        )
        assert code == 0
        assert not get_tracer().enabled
        assert len(get_tracer()) == 0


def test_trace_summarize_missing_file_is_usage_error(tmp_path, capsys):
    code = main(
        ["trace", "summarize", str(tmp_path / "nope.jsonl")],
        out=io.StringIO(),
    )
    assert code == 2
