"""Backward slicing: unit semantics on a toy graph, seeds, coverage filter,
the scoring rule and the deviation weights."""

import numpy as np
import pytest

from repro.graphs import MetaGraph, build_metagraph
from repro.model import ModelConfig, build_model_source
from repro.model.registry import iter_output_fields
from repro.runtime import CoverageTrace
from repro.slicing import (
    backward_slice,
    module_file_map,
    module_scores,
    output_field_seeds,
    variable_weights,
)


def toy_graph():
    """a(mod_a) -> b(mod_b) -> c(mod_b); d(mod_d) isolated."""
    g = MetaGraph()
    a = g.add_node("mod_a", "", "a", line=1)
    b = g.add_node("mod_b", "run", "b", line=2)
    c = g.add_node("mod_b", "run", "c", line=3)
    g.add_node("mod_d", "", "d", line=9)
    g.add_edge(a.key, b.key, line=2)
    g.add_edge(b.key, c.key, line=3)
    return g


class TestBackwardSliceUnit:
    def test_reverse_closure_with_depths(self):
        g = toy_graph()
        sl = backward_slice(g, [("mod_b", "run", "c")])
        assert sl.nodes == {
            ("mod_b", "run", "c"),
            ("mod_b", "run", "b"),
            ("mod_a", "", "a"),
        }
        assert sl.depths[("mod_b", "run", "c")] == 0
        assert sl.depths[("mod_b", "run", "b")] == 1
        assert sl.depths[("mod_a", "", "a")] == 2
        assert sl.modules() == {"mod_a", "mod_b"}
        assert sl.module_depths() == {"mod_b": 0, "mod_a": 2}

    def test_string_seed_resolves_via_find(self):
        g = toy_graph()
        sl = backward_slice(g, "c")
        assert ("mod_a", "", "a") in sl

    def test_unknown_seeds_give_empty_slice(self):
        g = toy_graph()
        sl = backward_slice(g, [("nope", "", "x")])
        assert len(sl) == 0
        assert sl.modules() == frozenset()

    def test_coverage_filter_drops_unexecuted_modules_and_blocks_flow(self):
        g = toy_graph()
        files = {"mod_a": "a.F90", "mod_b": "b.F90", "mod_d": "d.F90"}
        cov = CoverageTrace()
        cov.record("b.F90", 2)
        cov.record("b.F90", 3)
        # a.F90 never executed: node a must be rejected, not traversed
        sl = backward_slice(
            g, [("mod_b", "run", "c")], coverage=cov, module_files=files
        )
        assert sl.nodes == {("mod_b", "run", "c"), ("mod_b", "run", "b")}
        assert ("mod_a", "", "a") in sl.unexecuted

    def test_line_level_filter_rejects_unexecuted_lines(self):
        g = toy_graph()
        files = {"mod_a": "a.F90", "mod_b": "b.F90"}
        cov = CoverageTrace()
        cov.record("b.F90", 3)  # only node c's line executed
        sl = backward_slice(
            g, [("mod_b", "run", "c")], coverage=cov, module_files=files
        )
        assert sl.nodes == {("mod_b", "run", "c")}
        assert ("mod_b", "run", "b") in sl.unexecuted


class TestModuleScores:
    DEPTHS = {"A": {"m1": 0, "m2": 1}, "B": {"m2": 0, "m3": 2}}

    def test_score_is_the_decayed_weighted_sum(self):
        scores = module_scores(self.DEPTHS, {"A": 2.0, "B": 1.0}, 0.5)
        assert scores == {"m1": 2.0, "m2": 2.0, "m3": 0.25}
        assert module_scores(self.DEPTHS, {"A": 2.0}, 1.0) == {
            "m1": 2.0, "m2": 2.0
        }

    def test_unknown_or_non_deviating_fields_contribute_nothing(self):
        # a field without seed nodes has no depth entry, and a field that
        # did not deviate has no weight
        base = module_scores(self.DEPTHS, {"A": 1.0})
        assert module_scores(self.DEPTHS, {"A": 1.0, "NOT_A_FIELD": 5.0}) == base
        assert module_scores(self.DEPTHS, {"NOT_A_FIELD": 3.0}) == {}
        assert module_scores(self.DEPTHS, {}) == {}

    def test_terms_are_summed_in_weight_order(self):
        depths = {name: {"m": 0} for name in "abc"}
        weights = {"a": 1e16, "b": 1.0, "c": 1.0}
        assert module_scores(depths, weights) == {"m": (1e16 + 1.0) + 1.0}
        reordered = {"b": 1.0, "c": 1.0, "a": 1e16}
        assert module_scores(depths, reordered) == {"m": (1.0 + 1.0) + 1e16}


class FakeEnsemble:
    """Two varying fields and one bit-invariant field (sd == 0)."""

    variable_names = ["A", "A@first", "B", "C"]

    def mean(self):
        return np.array([1.0, 1.0, 2.0, 3.0])

    def std(self):
        return np.array([0.5, 0.0, 0.5, 0.0])

    def run_vector(self, run):
        return np.asarray(run, dtype=float)


class TestVariableWeights:
    BROKEN = float(np.log1p(1.0e6))

    def test_deviations_are_log_damped_and_invariants_dominate(self):
        run = [2.0, 1.0, 3.0, 3.5]
        weights = variable_weights(FakeEnsemble(), [run])
        assert weights == {
            "A": float(np.log1p(2.0)),
            "B": float(np.log1p(2.0)),
            "C": self.BROKEN,
        }
        restricted = variable_weights(FakeEnsemble(), [run], ["A@first", "C"])
        assert set(restricted) == {"A", "C"}

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_values_weigh_as_broken_invariants(self, bad):
        for column, name in ((0, "A"), (1, "A"), (2, "B"), (3, "C")):
            run = [1.0, 1.0, 2.0, 3.0]
            run[column] = bad
            weights = variable_weights(FakeEnsemble(), [run])
            assert weights == {name: self.BROKEN}, (column, weights)


@pytest.fixture(scope="module")
def control_source():
    return build_model_source(ModelConfig())


@pytest.fixture(scope="module")
def control_graph(control_source):
    return build_metagraph(control_source)


class TestSeeds:
    def test_every_declared_output_field_has_seed_nodes(
        self, control_source, control_graph
    ):
        seeds = output_field_seeds(control_source, control_graph)
        declared = [f.name for f in iter_output_fields(control_source.compset)]
        missing = [name for name in declared if not seeds.get(name)]
        assert not missing, f"fields without seeds: {missing}"

    def test_seed_nodes_point_at_the_writing_module(
        self, control_source, control_graph
    ):
        seeds = output_field_seeds(control_source, control_graph)
        # CLDTOT is written from `cltot` inside cloud_fraction's cldfrc
        assert any(k[0] == "cloud_fraction" for k in seeds["CLDTOT"])
        # WSUB straight from microp_aero
        assert any(k[0] == "microp_aero" for k in seeds["WSUB"])

    def test_use_associated_payloads_fall_back_to_global_match(
        self, control_source, control_graph
    ):
        seeds = output_field_seeds(control_source, control_graph)
        # RELHUM's payload is the physics buffer's field, not a local
        assert any(k[0] == "physics_buffer" for k in seeds["RELHUM"])

    def test_module_file_map_covers_compiled_tree(self, control_source):
        mapping = module_file_map(control_source)
        assert mapping["micro_mg"] == "micro_mg.F90"
        assert set(mapping.values()) <= set(control_source.compiled_files)
