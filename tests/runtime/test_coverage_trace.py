"""CoverageTrace edge cases: merging and restriction."""

from repro.runtime import CoverageTrace


def trace(*entries):
    t = CoverageTrace()
    for filename, line, hits in entries:
        t.record(filename, line, hits)
    return t


class TestTraceEdgeCases:
    def test_empty_trace_merge_is_identity(self):
        base = trace(("f.F90", 1, 2))
        merged = base.merged(CoverageTrace(), CoverageTrace())
        assert merged == base
        assert CoverageTrace().merged(base) == base
        assert CoverageTrace().merged() == CoverageTrace()

    def test_trace_restricted_to_unknown_names_is_empty(self):
        base = trace(("f.F90", 1, 2))
        assert base.restricted_to(["nope.F90"]).counts == {}
        assert base.restricted_to([]).counts == {}

    def test_merge_is_deterministic_under_member_reordering(self):
        members = [
            trace(("f.F90", i, 1), ("g.F90", 1, i)) for i in range(1, 8)
        ]
        forward = CoverageTrace().merged(*members)
        backward = CoverageTrace().merged(*reversed(members))
        assert forward == backward
