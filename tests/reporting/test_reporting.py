"""Report objects and paper-style tables."""

import json

import numpy as np
import pytest

from repro.ect import EctConfig, EctResult
from repro.pipeline.store import decode_dataclass, encode_dataclass
from repro.reporting import (
    LocalizationReport,
    ReportTable,
    VerdictReport,
    centrality_table,
    degree_table,
)


def ect_result(consistent=False):
    return EctResult(
        consistent=consistent,
        n_runs=3,
        n_pcs=5,
        failing_pcs=[0, 2],
        failing_variables=["WSUB", "WSUB@first"],
        invariant_violations=["WSUB@first"],
        pc_fail_counts=np.array([3, 0, 2, 0, 0]),
        run_scores=np.zeros((3, 5)),
        config=EctConfig(),
        outlier_variables=["WSUB"],
    )


def report(**overrides):
    fields = dict(
        experiment="wsubbug",
        patch="wsubbug",
        fma=False,
        expected_modules=["microp_aero"],
        verdict=VerdictReport.from_ect(ect_result()),
        slice_modules=["microp_aero", "physpkg", "cam_comp"],
        refined_modules=["microp_aero", "physpkg"],
        refine_iterations=2,
        target_modules=10,
        total_modules=40,
    )
    fields.update(overrides)
    return LocalizationReport(**fields)


class TestVerdictReport:
    def test_from_ect_copies_the_decision(self):
        v = VerdictReport.from_ect(ect_result())
        assert v.detected and not v.consistent
        assert v.failing_variables == ["WSUB", "WSUB@first"]
        assert v.outlier_variables == ["WSUB"]

    def test_round_trip(self):
        v = VerdictReport.from_ect(ect_result())
        again = decode_dataclass(
            encode_dataclass(v, VerdictReport), VerdictReport
        )
        assert again == v


class TestLocalizationReport:
    def test_localized_when_detected_small_and_contained(self):
        assert report().localized

    def test_not_localized_when_consistent(self):
        r = report(verdict=VerdictReport.from_ect(ect_result(True)))
        assert not r.detected and not r.localized

    def test_not_localized_when_set_exceeds_target(self):
        r = report(refined_modules=[f"m{i}" for i in range(11)])
        assert not r.localized

    def test_not_localized_when_culprit_missed(self):
        r = report(refined_modules=["physpkg", "cam_comp"])
        assert not r.contained and not r.localized

    def test_containment_vacuous_without_expected_culprit(self):
        r = report(patch=None, fma=True, expected_modules=[])
        assert r.contained and r.localized

    def test_round_trip_preserves_everything(self):
        r = report()
        again = decode_dataclass(
            encode_dataclass(r, LocalizationReport), LocalizationReport
        )
        assert again.to_dict() == r.to_dict()
        assert again.localized == r.localized

    def test_json_is_stable_and_carries_derived_flags(self):
        doc = json.loads(report().to_json())
        assert doc["localized"] is True
        assert doc["detected"] is True
        assert doc["contained"] is True

    def test_markdown_mentions_the_essentials(self):
        text = report().to_markdown()
        assert "wsubbug" in text
        assert "microp_aero" in text
        assert "Localized: True" in text
        assert "2 of 5 PCs failing" in text

    def test_markdown_for_fma(self):
        text = report(patch=None, fma=True, expected_modules=[]).to_markdown()
        assert "FMA" in text
        assert "expected culprit" not in text


class TestTables:
    @pytest.fixture(scope="class")
    def graph(self):
        from repro.graphs import build_metagraph
        from repro.model import ModelConfig, build_model_source

        return build_metagraph(build_model_source(ModelConfig()))

    def test_degree_table_over_the_fc5_graph(self, graph):
        table = degree_table(graph)
        stats = dict(table.rows)
        assert stats["modules"] == 40
        assert stats["directed edges"] > 0
        md = table.to_markdown()
        assert md.startswith("### Metagraph degree statistics")
        assert "| modules | 40 |" in md

    def test_centrality_table_covers_every_module(self, graph):
        table = centrality_table(graph)
        assert len(table.rows) == 40
        assert table.columns[0] == "module"
        modules = [row[0] for row in table.rows]
        assert "microp_aero" in modules
        # most central first: descending eigenvector-in centrality
        eig = [row[-1] for row in table.rows]
        assert eig == sorted(eig, reverse=True)

    def test_centrality_table_top_truncates(self, graph):
        assert len(centrality_table(graph, top=5).rows) == 5

    def test_tables_are_deterministic(self, graph):
        assert (
            centrality_table(graph).to_markdown()
            == centrality_table(graph).to_markdown()
        )
        assert degree_table(graph).to_dict() == degree_table(graph).to_dict()

    def test_report_table_markdown_shape(self):
        table = ReportTable(
            title="T", columns=["a", "b"], rows=[[1, 0.123456], ["x", True]]
        )
        lines = table.to_markdown().splitlines()
        assert lines[0] == "### T"
        assert lines[2] == "| a | b |"
        assert lines[4] == "| 1 | 0.1235 |"
        assert lines[5] == "| x | True |"
