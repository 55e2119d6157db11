"""The compiled-closure interpreter is bit-for-bit the dispatch walker.

``Interpreter(compile=True)`` (the default everywhere) is pure behavioural
memoization: outputs, first-write snapshots, coverage counts and statement
accounting must be exactly those of ``Interpreter(compile=False)`` — the
reference semantics CI's speed floor times the compiled path against.
"""

import numpy as np
import pytest

from repro.model import ModelConfig, build_model_source
from repro.runtime import FPConfig
from repro.runtime.interpreter import Interpreter

CASES = {
    "control": (ModelConfig(), FPConfig()),
    "fma": (ModelConfig(), FPConfig(fma=True)),
    "ftz": (ModelConfig(), FPConfig(flush_to_zero=True)),
    "patched": (ModelConfig(patches=("goffgratch",)), FPConfig()),
}


def execute(asts, compile_flag, fp):
    interp = Interpreter(asts, fp=fp, seed=321, compile=compile_flag)
    interp.call("cam_comp", "cam_init", [1e-14, 321])
    interp.call("cam_comp", "cam_run_step", [])
    return interp


@pytest.mark.parametrize("case", sorted(CASES))
def test_compiled_path_matches_dispatch_bit_for_bit(case):
    model, fp = CASES[case]
    asts = build_model_source(model).parse()
    dispatch = execute(asts, False, fp)
    compiled = execute(asts, True, fp)

    assert set(dispatch.history.fields) == set(compiled.history.fields)
    for name, value in dispatch.history.fields.items():
        np.testing.assert_array_equal(
            np.asarray(value), np.asarray(compiled.history.fields[name])
        )
        np.testing.assert_array_equal(
            np.asarray(dispatch.history.first[name]),
            np.asarray(compiled.history.first[name]),
        )
    assert dispatch.history.ncalls == compiled.history.ncalls
    assert dispatch.statements_executed == compiled.statements_executed
    assert dispatch.prng.total_draws() == compiled.prng.total_draws()
    assert dispatch.coverage.counts == compiled.coverage.counts
