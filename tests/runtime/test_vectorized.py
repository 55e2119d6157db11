"""The member-batched (vectorized) runtime is bit-for-bit the scalar one.

Three layers of conformance:

* the batched PRNG reproduces each member's scalar stream exactly;
* ``run_model_batch`` over the real model — control, every registered
  bug patch, and the FMA floating-point mode — matches per-member
  ``run_model`` on outputs, first-write snapshots, coverage counts,
  statement accounting and draw counts;
* masked-divergence semantics over synthetic sources: ``if`` blocks whose
  conditions vary per member blend stores correctly (including scalar-slot
  promotion and nested divergence), and the safety rails refuse the
  constructs that cannot be expressed under a partial member mask.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.model import ModelConfig, build_model_source, list_patches
from repro.runtime import (
    FPConfig,
    MemberBatch,
    RunConfig,
    VectorizationError,
    run_model,
    run_model_batch,
)
from repro.runtime.prng import BatchedPRNGStreams, PRNGStreams
from repro.runtime.vec import VecInterpreter

SEEDS = [101, 202, 303]


# --------------------------------------------------------------------------- #
# PRNG lockstep
# --------------------------------------------------------------------------- #
class TestBatchedPRNG:
    def test_streams_match_scalar_per_member(self):
        batched = BatchedPRNGStreams(SEEDS)
        scalars = [PRNGStreams(s) for s in SEEDS]
        for module in ("cloud_fraction", "micro_mg", "cloud_fraction"):
            draws = batched.stream(module).uniform()
            for m, scalar in enumerate(scalars):
                assert draws[m] == scalar.stream(module).uniform()

    def test_fill_matches_scalar_element_order(self):
        batched = BatchedPRNGStreams(SEEDS)
        scalars = [PRNGStreams(s) for s in SEEDS]
        got = np.zeros((len(SEEDS), 4, 3)).view(MemberBatch)
        batched.stream("m").fill(got)
        for m, scalar in enumerate(scalars):
            want = np.zeros((4, 3))
            scalar.stream("m").fill(want)
            np.testing.assert_array_equal(np.asarray(got)[m], want)

    def test_reseed_broadcast_and_per_member(self):
        batched = BatchedPRNGStreams(SEEDS)
        batched.reseed(7)
        ref = PRNGStreams(7)
        draws = batched.stream("m").uniform()
        want = ref.stream("m").uniform()
        assert all(d == want for d in draws)
        batched.reseed(SEEDS)
        draws = batched.stream("m").uniform()
        for m, s in enumerate(SEEDS):
            assert draws[m] == PRNGStreams(s).stream("m").uniform()

    def test_total_draws_counts_vector_draws(self):
        batched = BatchedPRNGStreams(SEEDS)
        batched.stream("a").uniform()
        batched.stream("a").uniform()
        batched.stream("b").uniform()
        assert batched.total_draws() == 3


# --------------------------------------------------------------------------- #
# run_model_batch vs run_model over the real model
# --------------------------------------------------------------------------- #
def _assert_member_matches(scalar, batched):
    assert list(scalar.outputs) == list(batched.outputs)
    for name in scalar.outputs:
        np.testing.assert_array_equal(
            scalar.outputs[name], batched.outputs[name]
        )
        np.testing.assert_array_equal(
            scalar.first_outputs[name], batched.first_outputs[name]
        )
    assert scalar.statements_executed == batched.statements_executed
    assert scalar.prng_draws == batched.prng_draws
    assert scalar.coverage.counts == batched.coverage.counts


CASES = {
    "control": (ModelConfig(), FPConfig()),
    "fma": (ModelConfig(), FPConfig(fma=True)),
    **{
        patch: (ModelConfig(patches=(patch,)), FPConfig())
        for patch in sorted(list_patches())
    },
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_batch_matches_scalar_bit_for_bit(case):
    model, fp = CASES[case]
    source = build_model_source(model)
    configs = [
        RunConfig(model=model, nsteps=1, pertlim=1e-14, seed=s, fp=fp)
        for s in SEEDS
    ]
    batch = run_model_batch(configs, source=source)
    for config, batched in zip(configs, batch):
        _assert_member_matches(run_model(config, source=source), batched)


def test_batch_validates_uniformity():
    with pytest.raises(ValueError, match="share"):
        run_model_batch(
            [RunConfig(nsteps=1, seed=1), RunConfig(nsteps=2, seed=2)]
        )
    with pytest.raises(ValueError, match="at least one"):
        run_model_batch([])


# --------------------------------------------------------------------------- #
# masked divergence over synthetic sources
# --------------------------------------------------------------------------- #
DIVERGE_SRC = """
module m
  implicit none
contains
  function classify(x) result(y)
    real, intent(in) :: x
    real :: y
    if (x > 2.0) then
      y = 100.0 + x
    else if (x > 1.0) then
      y = 10.0 + x
    else
      y = x
    end if
  end function classify

  function nested(x) result(y)
    real, intent(in) :: x
    real :: y
    y = 0.0
    if (x > 0.0) then
      y = 1.0
      if (x > 10.0) then
        y = 2.0
      end if
    end if
  end function nested

  function fill_array(x) result(total)
    real, intent(in) :: x
    real :: a(4)
    real :: total
    integer :: i
    do i = 1, 4
      a(i) = x * i
    end do
    if (x > 1.0) then
      a(2) = -1.0
    end if
    total = sum(a)
  end function fill_array

  function flow_rail(x) result(y)
    real, intent(in) :: x
    real :: y
    y = 0.0
    if (x > 1.0) then
      return
    end if
    y = 1.0
  end function flow_rail

  function bounds_rail(x) result(y)
    real, intent(in) :: x
    real :: y
    integer :: i
    y = 0.0
    do i = 1, int(x)
      y = y + 1.0
    end do
  end function bounds_rail
end module m
"""


#: elemental functions reached through three call shapes: ``drive`` passes
#: a batch-scalar actual, ``drive_array`` a member-uniform model array and
#: ``drive_const`` a uniform scalar
FUSE_SRC = """
module fusemod
  implicit none
  real, parameter :: scale = 2.5
contains
  elemental function warm(x) result(y)
    real, intent(in) :: x
    real :: y
    if (x > 1.0) then
      y = scale * x
    else
      y = x * x
    end if
  end function warm

  function drive(x) result(y)
    real, intent(in) :: x
    real :: y
    y = warm(x) + 1.0
  end function drive

  elemental function dampen(x) result(y)
    real, intent(in) :: x
    real :: y
    y = x * 0.5 + 1.0
  end function dampen

  function drive_array(x) result(total)
    real, intent(in) :: x
    integer :: a(3)
    real :: total
    integer :: i
    do i = 1, 3
      a(i) = i
    end do
    total = sum(dampen(a)) + x
  end function drive_array

  function drive_const(x) result(y)
    real, intent(in) :: x
    real :: y
    y = warm(2.0) + x
  end function drive_const
end module fusemod
"""


def _batch(values):
    return np.asarray(values, dtype=np.float64).view(MemberBatch)


def _vec(src=DIVERGE_SRC, seeds=(1, 2, 3)):
    return VecInterpreter.from_source(src, seeds=list(seeds))


#: (source, module, function) compared member by member with the scalar
#: interpreter: a three-way divergent branch, and an elemental function
#: under each call shape
SCALAR_CASES = pytest.mark.parametrize(
    ("src", "module", "function"),
    [
        (DIVERGE_SRC, "m", "classify"),
        (FUSE_SRC, "fusemod", "drive"),
        (FUSE_SRC, "fusemod", "drive_array"),
        (FUSE_SRC, "fusemod", "drive_const"),
    ],
    ids=["classify", "drive", "drive_array", "drive_const"],
)


class TestMaskedDivergence:
    def test_three_way_branch_blends_per_member(self):
        interp = _vec()
        got = interp.call("m", "classify", [_batch([0.5, 1.5, 2.5])])
        np.testing.assert_array_equal(
            np.asarray(got), [0.5, 11.5, 102.5]
        )

    @SCALAR_CASES
    def test_matches_scalar_interpreter_member_by_member(
        self, src, module, function
    ):
        from repro.runtime.interpreter import Interpreter

        xs = [0.5, 1.5, 2.5]
        got = _vec(src).call(module, function, [_batch(xs)])
        for m, x in enumerate(xs):
            scalar = Interpreter.from_source(src)
            assert np.asarray(got)[m] == scalar.call(module, function, [x])

    def test_nested_divergence(self):
        got = _vec().call("m", "nested", [_batch([-1.0, 5.0, 20.0])])
        np.testing.assert_array_equal(np.asarray(got), [0.0, 1.0, 2.0])

    def test_uniform_condition_takes_fast_path(self):
        got = _vec().call("m", "classify", [_batch([3.0, 4.0, 5.0])])
        np.testing.assert_array_equal(np.asarray(got), [103.0, 104.0, 105.0])

    def test_masked_array_element_store(self):
        got = _vec(seeds=(1, 2)).call("m", "fill_array", [_batch([0.5, 2.0])])
        # member 0: 0.5*(1+2+3+4); member 1: 2+(-1)+6+8
        np.testing.assert_array_equal(np.asarray(got), [5.0, 15.0])

    @SCALAR_CASES
    def test_per_member_statement_accounting(self, src, module, function):
        from repro.runtime.interpreter import Interpreter

        xs = [0.5, 1.5, 2.5]
        interp = _vec(src)
        interp.call(module, function, [_batch(xs)])
        for m, x in enumerate(xs):
            scalar = Interpreter.from_source(src)
            scalar.call(module, function, [x])
            assert interp.member_statements(m) == scalar.statements_executed

    @SCALAR_CASES
    def test_per_member_coverage(self, src, module, function):
        from repro.runtime.interpreter import Interpreter

        xs = [0.5, 1.5, 2.5]
        interp = _vec(src)
        interp.call(module, function, [_batch(xs)])
        for m, x in enumerate(xs):
            scalar = Interpreter.from_source(src)
            scalar.call(module, function, [x])
            assert interp.member_coverage(m).counts == scalar.coverage.counts


class TestSafetyRails:
    def test_flow_under_mask_refused(self):
        with pytest.raises(VectorizationError, match="return"):
            _vec(seeds=(1, 2)).call("m", "flow_rail", [_batch([0.5, 2.0])])

    def test_flow_uniform_path_allowed(self):
        got = _vec(seeds=(1, 2)).call("m", "flow_rail", [_batch([2.0, 3.0])])
        np.testing.assert_array_equal(np.asarray(got), [0.0, 0.0])

    def test_member_varying_do_bounds_refused(self):
        with pytest.raises(VectorizationError, match="do-loop bounds"):
            _vec(seeds=(1, 2)).call("m", "bounds_rail", [_batch([1.0, 3.0])])

    def test_uniform_do_bounds_allowed(self):
        got = _vec(seeds=(1, 2)).call("m", "bounds_rail", [_batch([3.0, 3.0])])
        # int(x) promotes to a batch, so bounds stay member-varying in
        # representation only when values differ; equal values still batch
        np.testing.assert_array_equal(np.asarray(got), [3.0, 3.0])

    def test_requires_compiled_path(self):
        with pytest.raises(ValueError, match="compile"):
            VecInterpreter.from_source(
                DIVERGE_SRC, seeds=[1, 2], compile=False
            )

    def test_requires_at_least_one_seed(self):
        with pytest.raises(ValueError, match="seed"):
            VecInterpreter.from_source(DIVERGE_SRC, seeds=[])


def test_runtime_does_not_import_kgen():
    """Kernel extraction is an offline tool: a member-batched run must not
    pull :mod:`repro.kgen` into the process."""
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from repro.runtime import MemberBatch\n"
        "from repro.runtime.vec import VecInterpreter\n"
        f"interp = VecInterpreter.from_source({DIVERGE_SRC!r}, "
        "seeds=[1, 2, 3])\n"
        "x = np.asarray([0.5, 1.5, 2.5]).view(MemberBatch)\n"
        "interp.call('m', 'classify', [x])\n"
        "print(sorted(m for m in sys.modules if m.startswith('repro.kgen')))\n"
    )
    src_dir = os.path.dirname(os.path.dirname(repro.__file__))
    env = {**os.environ, "PYTHONPATH": src_dir}
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert done.stdout.strip() == "[]"


def _counter(name):
    from repro.obs import get_metrics

    return get_metrics().counters().get(name, 0)


# --------------------------------------------------------------------------- #
# cross-config lanes
# --------------------------------------------------------------------------- #
class TestMemberBatchLane:
    def test_lane_is_an_independent_copy(self):
        mb = np.arange(12, dtype=np.float64).reshape(3, 4).view(MemberBatch)
        lane = mb.lane(1)
        np.testing.assert_array_equal(lane, [4.0, 5.0, 6.0, 7.0])
        assert not isinstance(lane, MemberBatch)
        lane[:] = -1.0
        assert np.asarray(mb)[1, 0] == 4.0

    def test_lane_of_scalar_promoted_slot(self):
        # a scalar slot promoted to (n,) yields 0-d per-lane values; they
        # must come back by value, where .member() would hand out a view
        mb = _batch([1.0, 2.0, 3.0])
        lane = mb.lane(2)
        assert np.ndim(lane) == 0
        assert float(lane) == 3.0
        view = mb.member(2)
        assert float(view) == 3.0


class TestHeterogeneousLanes:
    """run_model_batch accepts configs differing beyond the model/fp/nsteps."""

    def test_mixed_coverage_lanes_match_scalar(self):
        model = ModelConfig()
        source = build_model_source(model)
        configs = [
            RunConfig(
                model=model, nsteps=1, pertlim=1e-14, seed=SEEDS[0],
                collect_coverage=True,
            ),
            RunConfig(
                model=model, nsteps=1, pertlim=1e-14, seed=SEEDS[1],
                collect_coverage=False,
            ),
        ]
        before = _counter("vec.fused_configs")
        batch = run_model_batch(configs, source=source)
        assert _counter("vec.fused_configs") == before + 1
        for config, run in zip(configs, batch):
            _assert_member_matches(run_model(config, source=source), run)
        assert batch[0].coverage.counts != {}
        assert batch[1].coverage.counts == {}

    def test_per_lane_statement_budget_enforced(self):
        from repro.runtime import StatementLimitExceeded

        model = ModelConfig()
        source = build_model_source(model)
        configs = [
            RunConfig(model=model, nsteps=1, pertlim=1e-14, seed=SEEDS[0]),
            RunConfig(
                model=model, nsteps=1, pertlim=1e-14, seed=SEEDS[1],
                max_statements=10,
            ),
        ]
        with pytest.raises(StatementLimitExceeded):
            run_model_batch(configs, source=source)
