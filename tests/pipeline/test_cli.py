"""``python -m repro`` in process: run/resume, sweep, list, tables."""

import io
import json

import pytest

from repro.cli import main
from repro.obs import get_metrics

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


def test_list_names_the_six_experiments():
    code, text = invoke(["list"])
    assert code == 0
    for name in ("cldfrc-premib", "goffgratch", "mg-autoconv",
                 "rand-mt", "wsubbug", "fma"):
        assert name in text


class TestRun:
    @pytest.fixture(scope="class")
    def store(self, tmp_path_factory):
        return str(tmp_path_factory.mktemp("cli-store"))

    @pytest.fixture(scope="class")
    def first_run(self, store):
        return invoke(
            ["run", "wsubbug", "--store", store, "--json", *RUN_ARGS]
        )

    def test_first_run_localizes_and_exits_zero(self, first_run):
        code, text = first_run
        assert code == 0
        doc = json.loads(text)
        assert doc["report"]["localized"] is True
        assert doc["report"]["experiment"] == "wsubbug"
        assert len(doc["report"]["refined_modules"]) <= 10
        statuses = {s["name"]: s["status"] for s in doc["stages"]}
        assert statuses["control_ensemble"] == "ran"
        assert statuses["report"] == "ran"

    def test_second_run_resumes_without_member_simulations(
        self, store, first_run
    ):
        code, text = invoke(
            ["run", "wsubbug", "--store", store, "--json", *RUN_ARGS]
        )
        assert code == 0
        doc = json.loads(text)
        stages = {s["name"]: s for s in doc["stages"]}
        assert stages["control_ensemble"]["status"] == "hit"
        assert stages["ect"]["status"] == "hit"
        assert stages["refined"]["status"] == "hit"
        assert sum(s["member_misses"] for s in doc["stages"]) == 0
        assert doc["report"] == json.loads(first_run[1])["report"]

    def test_markdown_output(self, store, first_run):
        code, text = invoke(["run", "wsubbug", "--store", store, *RUN_ARGS])
        assert code == 0
        assert "# Root cause report: wsubbug" in text
        assert "| control_ensemble | hit |" in text

class TestBadNames:
    """Bad experiment/backend names exit 2 (usage error) with the known
    candidates on stderr — distinct from exit 1, which means the run
    completed but did not localize."""

    def test_unknown_experiment_exits_2_naming_candidates(
        self, tmp_path, capsys
    ):
        code, text = invoke(["run", "warpdrive", "--store", str(tmp_path)])
        assert code == 2
        assert text == ""
        err = capsys.readouterr().err
        assert "error:" in err and "warpdrive" in err
        assert "wsubbug" in err  # the known names are listed

    def test_unknown_backend_exits_2(self, tmp_path, capsys):
        code, _ = invoke(
            ["run", "wsubbug", "--store", str(tmp_path),
             "--backend", "quantum"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "quantum" in err and "serial" in err and "vectorized" in err
        assert list(tmp_path.iterdir()) == []  # nothing ran

    def test_sweep_validates_every_name_before_running(
        self, tmp_path, capsys
    ):
        code, _ = invoke(
            ["sweep", "wsubbug", "warpdrive", "--store", str(tmp_path)]
        )
        assert code == 2
        assert "warpdrive" in capsys.readouterr().err
        # nothing ran: the shared store was never populated
        assert list(tmp_path.iterdir()) == []


class TestUnusableStore:
    """A ``--store`` path that cannot hold a store is a usage error (exit
    2) found before any work, not a traceback (exit 1) mid-run."""

    @pytest.mark.parametrize(
        "command",
        [["run", "wsubbug"], ["sweep", "wsubbug", "goffgratch"]],
        ids=["run", "sweep"],
    )
    def test_file_as_store_exits_2_before_any_work(
        self, tmp_path, capsys, command
    ):
        store = tmp_path / "afile"
        store.write_text("")
        before = get_metrics().counters()
        code, text = invoke([*command, "--store", str(store), *RUN_ARGS])
        assert code == 2
        assert text == ""
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot use store {str(store)!r}")
        assert store.read_text() == ""
        moved = get_metrics().counter_delta(before)
        assert not [k for k in moved if k.startswith(("store.", "model."))]


class TestUnwritableTrace:
    """A ``--trace`` path that cannot be appended to is a usage error
    (exit 2) found before any stage runs, not a traceback (exit 1) after
    the run has filled the store."""

    @pytest.mark.parametrize(
        "command",
        [["run", "wsubbug"], ["sweep", "wsubbug", "goffgratch"]],
        ids=["run", "sweep"],
    )
    def test_trace_into_a_missing_directory_exits_2_before_any_stage(
        self, tmp_path, capsys, command
    ):
        store = tmp_path / "store"
        trace = tmp_path / "missing" / "t.jsonl"
        before = get_metrics().counters()
        code, text = invoke(
            [*command, "--store", str(store), "--trace", str(trace),
             *RUN_ARGS]
        )
        assert code == 2
        assert text == ""
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write trace {str(trace)!r}")
        assert list(store.glob("stages/*")) == []
        moved = get_metrics().counter_delta(before)
        assert not [k for k in moved if k.startswith(("store.", "model."))]


class TestTopRows:
    """``tables --top`` and ``trace summarize --top`` take a row count:
    0 means every row and a negative count is a usage error."""

    def test_tables_top_zero_prints_every_row(self):
        code, text = invoke(["tables", "--json", "--top", "0"])
        assert code == 0
        _, centrality = json.loads(text)
        assert len(centrality["rows"]) == 40

    @pytest.fixture
    def trace(self, tmp_path):
        from repro.obs import disable_tracing, enable_tracing, get_tracer
        from repro.obs import write_trace

        enable_tracing()
        try:
            for name in ("a", "b", "c", "d"):
                with get_tracer().span(name):
                    pass
        finally:
            spans = disable_tracing()
        path = str(tmp_path / "t.jsonl")
        write_trace(spans, path)
        return path

    def test_trace_summarize_top_zero_prints_every_row(self, trace):
        code, text = invoke(["trace", "summarize", trace, "--json"])
        assert code == 0
        assert len(json.loads(text)) == 4
        code, text = invoke(["trace", "summarize", trace, "--top", "0"])
        assert code == 0
        assert all(f"| {name} |" in text for name in "abcd")

    @pytest.mark.parametrize("command", ["tables", "trace"])
    def test_negative_top_exits_2(self, trace, capsys, command):
        argv = ["tables"] if command == "tables" else ["trace", "summarize", trace]
        with pytest.raises(SystemExit) as exc:
            invoke([*argv, "--top", "-3"])
        assert exc.value.code == 2
        assert "--top: must be >= 0" in capsys.readouterr().err


def test_sweep_shares_the_store(tmp_path):
    code, text = invoke(
        [
            "sweep", "wsubbug", "goffgratch",
            "--store", str(tmp_path), "--json", *RUN_ARGS,
        ]
    )
    assert code == 0
    doc = json.loads(text)
    assert doc["failures"] == []
    second = {
        s["name"]: s
        for s in doc["experiments"]["goffgratch"]["stages"]
    }
    assert second["control_ensemble"]["status"] == "hit"


def test_tables_json_covers_the_40_modules():
    code, text = invoke(["tables", "--json", "--top", "40"])
    assert code == 0
    degree, centrality = json.loads(text)
    assert ["modules", 40] in degree["rows"]
    assert len(centrality["rows"]) == 40


def test_module_entry_point_exists():
    import repro.__main__  # noqa: F401  (import side effects only)
