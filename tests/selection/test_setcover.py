"""The set-cover solver: planted optima and determinism.

The branch-and-bound contract under test: for a fixed problem the solver
returns the *same* cover, cost and node count regardless of input
ordering, hash seed or platform — and that cover is a true optimum
(cross-checked against brute-force enumeration on generated instances).
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.selection import (
    BranchAndBoundSolver,
    InfeasibleSelectionError,
    SelectionError,
    SetCoverProblem,
    greedy_cover,
)

#: a planted instance on which greedy is provably suboptimal: greedy takes
#: Y (density 0.45) then must add Z (1.1 total); the optimum is X alone
GREEDY_TRAP = dict(
    elements=("a", "b"),
    coverers={"a": frozenset({"X", "Y"}), "b": frozenset({"X", "Z"})},
    weights={"X": 1.0, "Y": 0.45, "Z": 0.65},
)

#: a 6-element cycle whose optimum is any perfect matching (cost 3.0)
MATCHING = dict(
    elements=tuple(f"e{i}" for i in range(6)),
    coverers={
        "e0": frozenset({"m01", "m05"}),
        "e1": frozenset({"m01", "m12"}),
        "e2": frozenset({"m12", "m23"}),
        "e3": frozenset({"m23", "m34"}),
        "e4": frozenset({"m34", "m45"}),
        "e5": frozenset({"m45", "m05"}),
    },
    weights={m: 1.0 for m in ("m01", "m12", "m23", "m34", "m45", "m05")},
)


def brute_force_optimum(problem: SetCoverProblem) -> float:
    """Minimum cover cost by exhaustive enumeration (small instances)."""
    candidates = problem.candidates
    best = float("inf")
    for r in range(len(candidates) + 1):
        for subset in itertools.combinations(candidates, r):
            chosen = set(subset)
            if all(
                problem.coverers[e] & chosen for e in problem.elements
            ):
                best = min(best, problem.cost(chosen))
    return best


class TestGreedy:
    def test_greedy_takes_the_density_trap(self):
        problem = SetCoverProblem(**GREEDY_TRAP)
        assert greedy_cover(problem) == ("Y", "Z")
        assert problem.cost(("Y", "Z")) == pytest.approx(1.1)

    def test_greedy_respects_forced_anchors(self):
        problem = SetCoverProblem(**GREEDY_TRAP, forced=frozenset({"X"}))
        assert greedy_cover(problem) == ("X",)

    def test_greedy_prefers_in_community_modules_at_equal_density(self):
        problem = SetCoverProblem(
            elements=("a", "b"),
            coverers={
                "a": frozenset({"anchor"}),
                "b": frozenset({"near", "far"}),
            },
            weights={"anchor": 1.0, "near": 0.5, "far": 0.5},
            forced=frozenset({"anchor"}),
            groups={"anchor": 0, "near": 0, "far": 1},
        )
        # "far" < "near" lexicographically, but "near" shares the anchor's
        # community and wins the tie
        assert greedy_cover(problem) == ("anchor", "near")

    def test_infeasible_instance_names_the_uncoverable_elements(self):
        problem = SetCoverProblem(
            elements=("a", "ghost"),
            coverers={"a": frozenset({"X"}), "ghost": frozenset()},
            weights={"X": 1.0},
        )
        with pytest.raises(InfeasibleSelectionError, match="ghost") as err:
            greedy_cover(problem)
        assert err.value.elements == ("ghost",)
        assert isinstance(err.value, SelectionError)


class TestBranchAndBound:
    def test_beats_the_greedy_warm_start_on_the_trap(self):
        solution = BranchAndBoundSolver().solve(SetCoverProblem(**GREEDY_TRAP))
        assert solution.modules == ("X",)
        assert solution.cost == pytest.approx(1.0)
        assert solution.optimal
        assert solution.warm_start_cost == pytest.approx(1.1)
        assert solution.warm_start_gap == pytest.approx(0.1)
        assert solution.nodes_explored > 1

    def test_planted_matching_optimum(self):
        solution = BranchAndBoundSolver().solve(SetCoverProblem(**MATCHING))
        assert solution.cost == pytest.approx(3.0)
        assert solution.optimal
        assert len(solution.modules) == 3

    def test_forced_anchors_are_in_every_solution(self):
        problem = SetCoverProblem(**GREEDY_TRAP, forced=frozenset({"Z"}))
        solution = BranchAndBoundSolver().solve(problem)
        assert "Z" in solution.modules
        # with Z paid for, covering "a" via Y (0.45) beats X (1.0)
        assert solution.modules == ("Y", "Z")

    def test_node_limit_degrades_to_the_warm_start_not_to_garbage(self):
        solution = BranchAndBoundSolver(node_limit=1).solve(
            SetCoverProblem(**GREEDY_TRAP)
        )
        assert not solution.optimal
        assert solution.modules == ("Y", "Z")  # the greedy incumbent
        assert solution.cost == pytest.approx(solution.warm_start_cost)

    def test_input_order_does_not_change_solution_or_node_count(self):
        reference = BranchAndBoundSolver().solve(SetCoverProblem(**MATCHING))
        rng = random.Random(20260808)
        for _ in range(5):
            elements = list(MATCHING["elements"])
            rng.shuffle(elements)
            coverers = list(MATCHING["coverers"].items())
            rng.shuffle(coverers)
            weights = list(MATCHING["weights"].items())
            rng.shuffle(weights)
            shuffled = SetCoverProblem(
                elements=tuple(elements),
                coverers=dict(coverers),
                weights=dict(weights),
            )
            solution = BranchAndBoundSolver().solve(shuffled)
            assert solution.modules == reference.modules
            assert solution.cost == reference.cost
            assert solution.nodes_explored == reference.nodes_explored

    def test_warm_equals_cold_optimum(self, monkeypatch):
        """The greedy incumbent is an accelerator, not an oracle: a cold
        solve (warm start degraded to the whole candidate set) must land
        on the same optimum."""
        import repro.selection.setcover as setcover

        problem = SetCoverProblem(**GREEDY_TRAP)
        warm = BranchAndBoundSolver().solve(problem)
        monkeypatch.setattr(
            setcover, "greedy_cover", lambda p: p.candidates
        )
        cold = BranchAndBoundSolver().solve(problem)
        assert cold.modules == warm.modules
        assert cold.cost == pytest.approx(warm.cost)
        assert cold.warm_start_cost > warm.warm_start_cost
        assert cold.warm_start_gap > warm.warm_start_gap

    def test_bad_node_limit_rejected(self):
        with pytest.raises(ValueError, match="node_limit"):
            BranchAndBoundSolver(node_limit=0)


@st.composite
def set_cover_instances(draw):
    """Small random weighted instances, every element coverable."""
    n_elements = draw(st.integers(min_value=1, max_value=4))
    n_modules = draw(st.integers(min_value=1, max_value=5))
    modules = [f"m{i}" for i in range(n_modules)]
    coverers = {}
    for e in range(n_elements):
        cover = draw(
            st.sets(
                st.sampled_from(modules), min_size=1, max_size=n_modules
            )
        )
        coverers[f"e{e}"] = frozenset(cover)
    # eighths: exactly representable, so cost sums have no fp ambiguity
    weights = {
        m: draw(st.integers(min_value=1, max_value=16)) / 8.0
        for m in modules
    }
    return SetCoverProblem(
        elements=tuple(sorted(coverers)), coverers=coverers, weights=weights
    )


@settings(max_examples=60, deadline=None)
@given(problem=set_cover_instances(), seed=st.integers(0, 2**16))
def test_property_optimal_deterministic_and_order_independent(problem, seed):
    solver = BranchAndBoundSolver()
    solution = solver.solve(problem)
    # a true cover
    assert all(
        problem.coverers[e] & set(solution.modules)
        for e in problem.elements
    )
    # at the brute-force optimum, never above the greedy warm start
    assert solution.optimal
    assert solution.cost == pytest.approx(brute_force_optimum(problem))
    assert solution.cost <= solution.warm_start_cost + 1e-9
    # and identical under a reshuffled presentation of the same instance
    rng = random.Random(seed)
    items = list(problem.coverers.items())
    rng.shuffle(items)
    welements = list(problem.weights.items())
    rng.shuffle(welements)
    shuffled = SetCoverProblem(
        elements=tuple(reversed(problem.elements)),
        coverers=dict(items),
        weights=dict(welements),
    )
    again = solver.solve(shuffled)
    assert again.modules == solution.modules
    assert again.cost == solution.cost
    assert again.nodes_explored == solution.nodes_explored
