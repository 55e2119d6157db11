"""Unit tests of the robust affected-variable evidence layer."""

import pytest

from repro.pipeline.store import decode_dataclass, encode_dataclass
from repro.selection import EvidenceSelection, select_affected_variables
from repro.selection.evidence import EVIDENCE_METHODS

#: one gross outlier (a broken invariant) over chaotic background noise
OUTLIER_WEIGHTS = {
    "WSUB": 14.5,
    "PRECT": 1.2,
    "FSNS": 1.1,
    "PS": 1.0,
    "U10": 0.9,
    "TS": 0.8,
    "CLDL": 0.7,
    "RELHUM": 0.6,
    "QRL": 0.5,
    "AODVIS": 0.4,
}


class TestMad:
    def test_outlier_is_the_only_strong_variable(self):
        ev = select_affected_variables(OUTLIER_WEIGHTS, method="mad")
        # MAD threshold: median 0.85, MAD 0.25 -> cut at 1.6: only WSUB
        assert ev.anchors == ("WSUB",)
        assert ev.threshold == pytest.approx(0.85 + 3.0 * 0.25)
        # but the selection is padded to min_variables for set-cover slack
        assert len(ev.variables) == 6
        assert ev.variables[0] == "WSUB"
        assert ev.method == "mad"

    def test_outlier_does_not_mask_a_second_signal(self):
        # a second strong-but-subtler deviation survives next to the gross
        # one — the property a mean/std cut would lose
        weights = dict(OUTLIER_WEIGHTS, PRECT=3.0)
        ev = select_affected_variables(weights, method="mad")
        assert ev.anchors == ("WSUB", "PRECT")

    def test_flat_weights_fall_back_to_topk_anchoring(self):
        flat = {f"V{i}": 1.0 for i in range(10)}
        ev = select_affected_variables(flat, method="mad")
        # MAD = 0 and no weight exceeds the median: nothing is strong,
        # anchors fall back to the strongest selected (all tied -> by name)
        assert len(ev.variables) == 6
        assert ev.anchors == ("V0", "V1", "V2", "V3")

    def test_selection_is_capped_at_max_variables(self):
        weights = {f"V{i}": 100.0 + i for i in range(12)}  # 12 strong
        weights.update({f"w{i}": 1.0 + 0.01 * i for i in range(20)})
        ev = select_affected_variables(weights, method="mad")
        assert len(ev.variables) == 8
        assert all(v.startswith("V") for v in ev.variables)
        assert ev.variables[0] == "V11"  # strongest first
        assert ev.anchors == ("V11", "V10", "V9", "V8")


class TestLasso:
    def test_shrinkage_keeps_at_most_max_variables_active(self):
        ev = select_affected_variables(
            OUTLIER_WEIGHTS, method="lasso", min_variables=4, max_variables=4
        )
        # lambda is the 5th-largest weight (0.9); only WSUB clears the
        # strong cut, the rest pad the selection up to min_variables
        assert ev.variables == ("WSUB", "PRECT", "FSNS", "PS")
        assert ev.anchors == ("WSUB",)
        assert ev.threshold == pytest.approx(0.9 + 3.0 * 0.25)

    def test_small_population_has_zero_knot(self):
        weights = {"A": 5.0, "B": 1.0}
        ev = select_affected_variables(weights, method="lasso")
        # fewer weights than max_variables: lambda = 0, both stay active
        assert ev.variables == ("A", "B")


class TestTopk:
    def test_legacy_cut_is_the_k_strongest(self):
        ev = select_affected_variables(
            OUTLIER_WEIGHTS, method="topk", max_variables=3, min_variables=3
        )
        assert ev.variables == ("WSUB", "PRECT", "FSNS")
        assert ev.anchors == ("WSUB", "PRECT", "FSNS")


class TestEdgesAndValidation:
    def test_empty_weights_select_nothing(self):
        ev = select_affected_variables({}, method="mad")
        assert ev.variables == ()
        assert ev.anchors == ()
        assert not ev

    def test_unknown_method_raises(self):
        with pytest.raises(ValueError, match="unknown evidence method"):
            select_affected_variables(OUTLIER_WEIGHTS, method="ridge")

    def test_bad_counts_raise(self):
        with pytest.raises(ValueError, match=">= 1"):
            select_affected_variables(OUTLIER_WEIGHTS, min_variables=0)
        with pytest.raises(ValueError, match="must not exceed"):
            select_affected_variables(
                OUTLIER_WEIGHTS, min_variables=9, max_variables=3
            )

    def test_every_method_is_deterministic(self):
        for method in EVIDENCE_METHODS:
            a = select_affected_variables(dict(OUTLIER_WEIGHTS), method=method)
            b = select_affected_variables(
                dict(reversed(list(OUTLIER_WEIGHTS.items()))), method=method
            )
            assert a == b, method


class TestEvidenceSelection:
    def test_duplicate_variables_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            EvidenceSelection(variables=("A", "A"))

    def test_anchors_must_be_selected(self):
        with pytest.raises(ValueError, match="anchors"):
            EvidenceSelection(variables=("A",), anchors=("B",))

    def test_round_trip_and_dunder_protocol(self):
        ev = select_affected_variables(OUTLIER_WEIGHTS, method="mad")
        again = decode_dataclass(
            encode_dataclass(ev, EvidenceSelection), EvidenceSelection
        )
        assert again == ev
        assert len(ev) == len(ev.variables)
        assert "WSUB" in ev and "NOT_A_FIELD" not in ev
