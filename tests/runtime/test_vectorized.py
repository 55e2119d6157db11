"""The member-batched (vectorized) runtime is bit-for-bit the scalar one.

Three layers of conformance:

* the batched PRNG reproduces each member's scalar stream exactly;
* ``run_model_batch`` over the real model — control, every registered
  bug patch, and the FMA floating-point mode, plus batches as wide as the
  model's own axes — matches per-member ``run_model`` on outputs,
  first-write snapshots, coverage counts, statement accounting and draw
  counts, without one batch operation reaching a ``MemberBatch``
  override;
* masked-divergence semantics over synthetic sources: ``if`` blocks whose
  conditions vary per member blend stores correctly (including scalar-slot
  promotion and nested divergence), and the safety rails refuse the
  constructs that cannot be expressed under a partial member mask.
"""

import dataclasses

import numpy as np
import pytest

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
from repro.runtime.values import lift_batches
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


#: the ``MemberBatch`` methods a batch operation the vectorized compiler
#: does not cover would reach (each raises ``VectorizationError``)
OVERRIDES = ("__array_ufunc__", "__getitem__", "__setitem__")


@pytest.fixture
def override_calls(monkeypatch):
    """Every call that reaches a ``MemberBatch`` override, by name."""
    calls = []
    for name in OVERRIDES:
        guard = getattr(MemberBatch, name)

        def counting(self, *args, _name=name, _guard=guard, **kwargs):
            calls.append(_name)
            return _guard(self, *args, **kwargs)

        monkeypatch.setattr(MemberBatch, name, counting)
    return calls


@pytest.mark.parametrize("case", sorted(CASES))
def test_batch_matches_scalar_bit_for_bit(case, override_calls):
    model, fp = CASES[case]
    source = build_model_source(model)
    configs = [
        RunConfig(model=model, nsteps=1, pertlim=1e-14, seed=s, fp=fp)
        for s in SEEDS
    ]
    batch = run_model_batch(configs, source=source)
    for config, batched in zip(configs, batch):
        _assert_member_matches(run_model(config, source=source), batched)
    assert override_calls == []


@pytest.mark.parametrize("fp", [FPConfig(), FPConfig(fma=True)],
                         ids=["default", "fma"])
@pytest.mark.parametrize("width", [8, 16], ids=["pver", "pcols"])
def test_batch_matches_scalar_at_model_extents(width, fp, override_calls):
    """A batch of ``pver`` or ``pcols`` members has a member axis as long
    as a model axis, so a member axis taken for a model axis would
    broadcast silently here instead of raising."""
    source = build_model_source(ModelConfig())
    configs = [
        RunConfig(nsteps=2, pertlim=1e-14 * (m + 1), seed=700 + 13 * m, fp=fp)
        for m in range(width)
    ]
    batch = run_model_batch(configs, source=source)
    for config, batched in zip(configs, batch):
        _assert_member_matches(run_model(config, source=source), batched)
    assert override_calls == []


def test_batch_validates_uniformity():
    with pytest.raises(ValueError, match="share"):
        run_model_batch(
            [RunConfig(nsteps=1, seed=1), RunConfig(nsteps=2, seed=2)]
        )
    with pytest.raises(ValueError, match="at least one"):
        run_model_batch([])


def test_batch_rejects_configs_differing_beyond_pertlim_and_seed():
    """The coverage flag and the statement budget are shared by the whole
    batch, like the model build, nsteps and fp model."""
    base = RunConfig(nsteps=1, pertlim=1e-14, seed=SEEDS[0])
    for knob in ({"collect_coverage": False}, {"max_statements": 10}):
        other = dataclasses.replace(base, seed=SEEDS[1], **knob)
        with pytest.raises(ValueError, match="share"):
            run_model_batch([base, other])


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

    def test_requires_at_least_one_seed(self):
        with pytest.raises(ValueError, match="seed"):
            VecInterpreter.from_source(DIVERGE_SRC, seeds=[])


# --------------------------------------------------------------------------- #
# per-member lanes
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



# --------------------------------------------------------------------------- #
# compiled batch arithmetic
# --------------------------------------------------------------------------- #
#: every operator the vectorized compiler lifts inline or through its FPU,
#: with each operand pairing: batch scalar x batch array, a rank-2 batch x
#: a rank-1 batch, batch x member-uniform INTEGER array, literal x batch, a
#: comparison that splits an ``if`` between members, unary minus,
#: mixed-rank max/min, and an element load stored elsewhere (which must
#: not alias the array); ``logic`` covers ``.not.`` of a function result,
#: ``.and.``/``.or.``, ``merge`` and elementwise intrinsics on batches, and
#: ``flip`` an if-condition element its own branch overwrites (the member
#: mask must not alias the array)
ARITH_SRC = """
module arith
  implicit none
  integer, parameter :: n = 4
contains
  function mix(x) result(total)
    real, intent(in) :: x
    real :: total
    real :: a(n), b(n), c, d, g(2, n)
    integer :: k(n), i
    do i = 1, n
      a(i) = x * i
      k(i) = 2 * i - 5
    end do
    b = a * x
    b = b + k
    b = a * x + k
    b = 2.0 - b
    b = b / (1.0 + x)
    g(1, :) = a
    g(2, :) = b
    g = g * b - a
    c = -x
    if (x > 1.0) then
      c = c * 3.0 - x
    else
      c = c - x * 2.0
    end if
    if (x == 1.5) c = c + 1.0
    if (x /= 1.5) c = c + 2.0
    if (x < 1.5) c = c + 4.0
    if (x <= 1.5) c = c + 8.0
    if (x >= 1.5) c = c + 16.0
    b = max(b, x, 0.25)
    a = min(a, 0.5 * x)
    d = a(2)
    a(2) = -1.0
    b(3) = c
    total = d + c + sum(a) + sum(b) + sum(g) + max(x, 1.0) - min(c, 0.0)
  end function mix

  function halve(x) result(y)
    real, intent(in) :: x
    real :: y
    integer :: k
    k = int(x)
    y = k / 2
  end function halve

  function positive(x) result(p)
    real, intent(in) :: x
    logical :: p
    p = x > 1.0
  end function positive

  function logic(x) result(y)
    real, intent(in) :: x
    real :: y
    logical :: p, q
    p = .not. positive(x)
    q = p .or. (x > 2.0)
    y = merge(1.0, 0.0, q .and. (x < 2.5))
    if (.not. q) y = y + 10.0
    y = y + exp(x) + abs(-x) + mod(x, 0.7) + sign(1.5, -x) + x**2
  end function logic

  function flip(x) result(y)
    real, intent(in) :: x
    real :: y
    logical :: f(2)
    f(1) = x > 1.0
    f(2) = .false.
    y = 0.0
    if (f(1)) then
      f(1) = .false.
      y = 1.0
    end if
  end function flip
end module arith
"""


#: the default floating-point model and FMA contraction
FP_MODES = pytest.mark.parametrize(
    "fp", [FPConfig(), FPConfig(fma=True)], ids=["default", "fma"]
)


@FP_MODES
@pytest.mark.parametrize("function", ["mix", "halve", "logic", "flip"])
def test_compiled_arithmetic_matches_scalar_member_by_member(fp, function):
    from repro.runtime.interpreter import Interpreter

    xs = [3.0, 5.0, 7.0] if function == "halve" else [0.5, 1.5, 3.0]
    interp = VecInterpreter.from_source(ARITH_SRC, seeds=[1, 2, 3], fp=fp)
    got = interp.call("arith", function, [_batch(xs)])
    for m, x in enumerate(xs):
        scalar = Interpreter.from_source(ARITH_SRC, fp=fp)
        want = scalar.call("arith", function, [x])
        assert np.asarray(got)[m] == want, (m, x)
        # each operand is evaluated once: a function operand's statements
        # count once per member
        assert interp.member_statements(m) == scalar.statements_executed
    if function == "halve":
        # Fortran integer division truncates each member toward zero
        np.testing.assert_array_equal(np.asarray(got), [1.0, 2.0, 3.0])


@FP_MODES
def test_control_pass_stays_off_the_array_ufunc_path(fp, override_calls):
    """Compiled closures strip, subscript and lift batches themselves, so
    no operation of a pass reaches a ``MemberBatch`` override."""
    configs = [
        RunConfig(nsteps=1, pertlim=1e-14, seed=s, fp=fp) for s in SEEDS
    ]
    run_model_batch(configs)
    assert override_calls == []


@FP_MODES
def test_lifting_runs_only_where_model_ranks_differ(fp, monkeypatch):
    """Operands of one model rank only lose their batch marker: every
    ``lift_batches`` call of a pass has a batch to lift."""
    from repro.runtime import vec

    lifts = []

    def checked(values, model_ndim=None):
        ranks = [v.ndim - isinstance(v, MemberBatch) for v in values
                 if isinstance(v, np.ndarray)]
        top = max(ranks) if model_ndim is None else model_ndim
        assert any(isinstance(v, MemberBatch) and v.ndim <= top
                   for v in values), ranks
        lifts.append(ranks)
        return lift_batches(values, model_ndim)

    monkeypatch.setattr(vec, "lift_batches", checked)
    configs = [
        RunConfig(nsteps=1, pertlim=1e-14, seed=s, fp=fp) for s in SEEDS
    ]
    run_model_batch(configs)
    # the synthetic source mixes a rank-2 and a rank-1 batch, which lifts
    VecInterpreter.from_source(ARITH_SRC, seeds=[1, 2, 3], fp=fp).call(
        "arith", "mix", [_batch([0.5, 1.5, 3.0])]
    )
    assert lifts


def test_uncovered_batch_operations_raise():
    """``MemberBatch`` keeps no arithmetic: a ufunc, subscript or
    subscripted store on the marked array raises, so an uncovered site
    falls back to the serial interpreter instead of broadcasting members
    against model axes."""
    batch = _batch([1.0, 2.0, 3.0])
    for operation in (
        lambda: np.add(batch, 1.0),
        lambda: batch * 2.0,
        lambda: batch[0],
        lambda: batch.__setitem__(0, 1.0),
    ):
        with pytest.raises(VectorizationError, match="uncompiled"):
            operation()
