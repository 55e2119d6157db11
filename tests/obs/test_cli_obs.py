"""CLI observability surface: --version, --trace, --profile, trace cmd."""

import io
import json

import pytest

from repro.cli import main
from repro.graphs import build_metagraph
from repro.model import ModelConfig, build_model_source

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

    def test_metagraph_stage_is_its_parse_and_its_build(
        self, traced_run, trace_path
    ):
        from repro.obs import read_trace

        spans = read_trace(trace_path)
        (stage,) = [s for s in spans if s.name == "stage:metagraph"]
        children = [s for s in spans if s.parent_id == stage.span_id]
        assert sorted(s.name for s in children) == ["graphs.build", "model.parse"]
        (build,) = [s for s in children if s.name == "graphs.build"]
        graph = build_metagraph(build_model_source(ModelConfig()))
        assert build.attrs == {
            "nodes": graph.node_count, "edges": graph.edge_count
        }
        # the graph modules load with this test module; in a fresh process
        # their first import is the rest of the stage (docs/observability.md)
        assert sum(s.wall_s for s in children) >= 0.95 * stage.wall_s

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


SPAN_LINE = json.dumps({"span_id": "s", "name": "ok"})


@pytest.mark.parametrize(
    "line, out",
    [
        pytest.param(None, None, id="missing-file"),
        pytest.param("1", None, id="int"),
        pytest.param("[1, 2]", None, id="list"),
        pytest.param("null", None, id="null"),
        pytest.param(
            '{"span_id": "a", "name": "x", "attrs": 5}', None, id="attrs-int"
        ),
        pytest.param(
            '{"span_id": "a", "name": "x", "wall_s": null}', None,
            id="wall-null",
        ),
        pytest.param(SPAN_LINE, "missing/x.json", id="chrome-out-missing-dir"),
    ],
)
def test_trace_summarize_missing_file_is_usage_error(
    tmp_path, capsys, line, out
):
    """A trace, and where ``trace chrome`` writes, come from outside the
    program: a missing trace, a second line that is valid JSON but not a
    span, or an output that cannot be written is a usage error naming the
    path, not a traceback."""
    path = tmp_path / "t.jsonl"
    trace = str(path)
    if line is not None:
        path.write_text(f"{SPAN_LINE}\n{line}\n")
    if out is None:
        argv = ["trace", "summarize", trace]
        bad_line = "" if line is None else "line 2 is not a span: "
        expected = f"error: cannot read trace {trace!r}: {bad_line}"
    else:
        out = str(tmp_path / out)
        argv = ["trace", "chrome", trace, "--out", out]
        expected = f"error: cannot write chrome trace {out!r}: "
    assert main(argv, out=io.StringIO()) == 2
    assert capsys.readouterr().err.startswith(expected)
