"""Lane regions run each independent ``do`` loop's body once over all its
iterations, and change nothing a member can observe.

Every case runs on the vectorized interpreter (three members, a lane
region where the loop qualifies) and on the scalar interpreter member by
member, and must agree on the result, the per-member statement count and
the per-line coverage; each case also pins whether a region ran.  A
hypothesis strategy drives the same comparison over generated loop nests.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.fortran import parse_source
from repro.runtime import FPConfig, MemberBatch, RunConfig, StatementLimitExceeded
from repro.runtime.values import FortranRuntimeError
from repro.runtime.interpreter import Interpreter
from repro.runtime.lanes import plan_region
from repro.runtime.vec import VecInterpreter, run_model_batch

XS = [0.2, 0.9, 1.7]

CASES_SRC = """
module lanecases
  implicit none
  real :: total = 0.0
  real :: weights(4)
contains
  elemental function weighted(v) result(w)
    real, intent(in) :: v
    real :: w
    w = v * weights(2)
  end function weighted

  function callee_reads_array(x) result(r)
    real, intent(in) :: x
    real :: r
    real :: b(4)
    integer :: i
    do i = 1, 4
      weights(i) = x * i
      b(i) = weighted(x)
    end do
    r = sum(b)
  end function callee_reads_array

  elemental function clip(v) result(w)
    real, intent(in) :: v
    real :: w
    if (v > 1.0) then
      w = 1.0 + 0.1 * v
    else if (v < 0.0) then
      w = 0.0
    else
      w = v
    end if
  end function clip

  function privates_real(x) result(r)
    real, intent(in) :: x
    real :: r
    real :: a(6), t
    integer :: i
    do i = 1, 6
      t = x * i
      a(i) = t + 1.0
    end do
    r = a(1) + 2.0 * a(6) + t
  end function privates_real

  function privates_int(x) result(r)
    real, intent(in) :: x
    real :: r
    real :: a(6)
    integer :: i, j
    do i = 1, 6
      j = 2 * i - 1
      a(i) = x * j + mod(j, 4) + i / 2
    end do
    r = sum(a) + j
  end function privates_int

  function gather(x) result(r)
    real, intent(in) :: x
    real :: r
    real :: a(8), b(8)
    integer :: nb(8)
    integer :: i, ie
    do i = 1, 8
      nb(i) = mod(i, 8) + 1
      a(i) = x + i * i
    end do
    do i = 1, 8
      ie = nb(i)
      b(i) = a(ie) - a(i) + nb(9 - i)
    end do
    r = sum(b * b) + b(3)
  end function gather

  function reverse(x) result(r)
    real, intent(in) :: x
    real :: r
    real :: a(6)
    integer :: i
    do i = 6, 1, -1
      a(i) = x * real(i) + i / 2 + nint(x * i)
    end do
    r = a(1) * 10.0 + a(6)
  end function reverse

  function branches(x) result(r)
    real, intent(in) :: x
    real :: r
    real :: a(8), b(8)
    integer :: i
    do i = 1, 8
      a(i) = x * i * 0.25
      if (a(i) > 2.0) then
        b(i) = 1.0
      else if (a(i) > 1.0) then
        b(i) = 2.0 * a(i)
      else
        b(i) = -a(i)
      end if
    end do
    r = sum(b) + b(8)
  end function branches

  function column(x) result(r)
    real, intent(in) :: x
    real :: r
    real :: q(4, 3)
    real :: flux
    integer :: i, k
    do i = 1, 4
      flux = 0.0
      do k = 1, 3
        flux = flux + x * i * k
        if (flux > 3.0) then
          flux = flux * 0.5
        end if
        q(i, k) = flux
      end do
    end do
    r = sum(q) + flux + k
  end function column

  function elemental_call(x) result(r)
    real, intent(in) :: x
    real :: r
    real :: b(8)
    integer :: i
    do i = 1, 8
      b(i) = clip(x * (i - 3) * 0.3)
    end do
    r = sum(b) + b(1)
  end function elemental_call

  function under_member_mask(x) result(r)
    real, intent(in) :: x
    real :: r
    real :: a(6), t
    integer :: i
    t = -5.0
    do i = 1, 6
      a(i) = 0.0
    end do
    if (x > 1.0) then
      do i = 1, 6
        t = x + i
        a(i) = t * 2.0
      end do
    end if
    r = sum(a) + t + i
  end function under_member_mask

  function branch_private(x) result(r)
    real, intent(in) :: x
    real :: r
    real :: last
    integer :: i, hit
    last = -1.0
    hit = 0
    do i = 1, 8
      ! per member: every iteration assigns (x = 0.2), the first two do
      ! (x = 0.9), or none does (x = 1.7)
      if (x * i < 2.0 .and. x < 1.5) then
        last = x * i
        hit = i
      end if
    end do
    r = last + 100.0 * hit
  end function branch_private

  function lane_private(x) result(r)
    real, intent(in) :: x
    real :: r
    real :: last
    integer :: i, hit
    last = -1.0
    hit = 0
    do i = 1, 8
      ! the last iteration that assigns is the third, for every member
      if (i < 4) then
        last = x * i
        hit = i
      end if
    end do
    r = last + 100.0 * hit
  end function lane_private

  function guarded_gather(x) result(r)
    real, intent(in) :: x
    real :: r
    real :: a(8), b(8)
    integer :: i
    do i = 1, 8
      a(i) = x * i * i
    end do
    do i = 1, 8
      ! a(9) exists only for a lane the condition masks out
      if (i < 8) then
        b(i) = a(i + 1) - a(i)
      else
        b(i) = 0.0
      end if
    end do
    r = sum(b) + b(7)
  end function guarded_gather

  function loop_var_after(x) result(r)
    real, intent(in) :: x
    real :: r
    real :: a(5)
    integer :: i
    do i = 1, 5
      a(i) = x
    end do
    r = i + a(5)
  end function loop_var_after

  function nested_var_assigned(x) result(r)
    real, intent(in) :: x
    real :: r
    real :: b(4)
    integer :: i, k
    do i = 1, 4
      b(i) = 0.0
      do k = 1, 2
        b(i) = b(i) + x * k
      end do
      k = i * 2
    end do
    r = sum(b) + k
  end function nested_var_assigned

  function guarded_divide(x) result(r)
    real, intent(in) :: x
    real :: r
    integer :: n(4), q(4), m(4)
    integer :: i
    n(1) = 2
    n(2) = 0
    n(3) = 1
    n(4) = 3
    do i = 1, 4
      ! n(2) = 0 only in a lane the condition masks out
      if (n(i) > 0) then
        q(i) = 12 / n(i)
        m(i) = mod(12, n(i)) + n(i) ** (-1)
      else
        q(i) = -1
        m(i) = -1
      end if
    end do
    r = x * sum(q) + sum(m)
  end function guarded_divide

  function member_guarded_divide(x) result(r)
    real, intent(in) :: x
    real :: r
    real :: a(6)
    integer :: i, j
    do i = 1, 6
      ! j = 0 in lane 2 for every member, and in lanes 1, 3 and 4 for the
      ! member x = 0.2 alone
      j = nint(x * (i - 2))
      if (j /= 0) then
        a(i) = x + 12 / j + mod(7, j) + j ** (-1)
      else
        a(i) = -x
      end if
    end do
    r = sum(a)
  end function member_guarded_divide

  function guarded_gamma(x) result(r)
    real, intent(in) :: x
    real :: r
    real :: g(6)
    integer :: i
    do i = 1, 6
      ! gamma's poles lie in the lanes the condition masks out
      if (i > 3) then
        g(i) = x * gamma(real(i - 3))
      else
        g(i) = 0.0
      end if
    end do
    r = sum(g)
  end function guarded_gamma

  function sparse_branch(x) result(r)
    real, intent(in) :: x
    real :: r
    real :: a(8)
    integer :: i
    do i = 1, 8
      a(i) = 0.0
      ! no member takes the branch in lanes 1, 2, 7 and 8
      if (x * i > 4.0 .and. i < 7) then
        a(i) = x
      end if
    end do
    r = sum(a)
  end function sparse_branch

  function perfect_nest(x) result(r)
    real, intent(in) :: x
    real :: r
    real :: q(4, 3, 2)
    integer :: i, j, k
    do k = 1, 2
      do j = 1, 3
        do i = 1, 4
          q(i, j, k) = x * i + j - k
        end do
      end do
    end do
    r = sum(q) + q(4, 3, 2) + i + 10 * j + 100 * k
  end function perfect_nest

  function perfect_nest_outer(x) result(r)
    real, intent(in) :: x
    real :: r
    real :: q(4, 3)
    integer :: i, k
    do k = 1, 3
      q(1, k) = x * k
    end do
    do k = 1, 3
      do i = 2, 4
        q(i, k) = q(i - 1, k) * 0.5 + x
      end do
    end do
    r = sum(q) + i + 10 * k
  end function perfect_nest_outer

  function member_mod(x) result(r)
    real, intent(in) :: x
    real :: r
    integer :: p
    p = nint(x) - 1
    r = -1.0
    ! p is 0 (x = 0.9) or -1 (x = 0.2) only for members the condition
    ! masks out
    if (p > 0) then
      r = x + mod(7, p) + 12 / p + p ** (-2)
    end if
  end function member_mod

  function active_divide(x) result(r)
    real, intent(in) :: x
    real :: r
    real :: a(4)
    integer :: i, j
    do i = 1, 4
      ! j = 0 in lane 2, which the members x > 0.5 run
      j = nint(x * (i - 2))
      if (x > 0.5) then
        a(i) = 12 / j
      else
        a(i) = 0.0
      end if
    end do
    r = sum(a)
  end function active_divide

  function carried(x) result(r)
    real, intent(in) :: x
    real :: r
    real :: s
    integer :: i
    s = 0.0
    do i = 1, 6
      s = s + x * i
    end do
    r = s
  end function carried

  function recurrence(x) result(r)
    real, intent(in) :: x
    real :: r
    real :: a(6)
    integer :: i
    a(1) = x
    do i = 2, 6
      a(i) = a(i - 1) * 1.5 + x
    end do
    r = a(6)
  end function recurrence

  function module_write(x) result(r)
    real, intent(in) :: x
    real :: r
    real :: a(4)
    integer :: i
    do i = 1, 4
      total = x * i
      a(i) = total
    end do
    r = a(4) + total
  end function module_write

  subroutine fill(x, y)
    real, intent(in) :: x
    real, intent(out) :: y
    integer :: i
    do i = 1, 4
      y = x * i
    end do
  end subroutine fill

  function dummy_write(x) result(r)
    real, intent(in) :: x
    real :: r
    real :: y
    call fill(x, y)
    r = y
  end function dummy_write

  subroutine bump(v)
    real, intent(inout) :: v
    v = v + 1.0
  end subroutine bump

  function call_in_body(x) result(r)
    real, intent(in) :: x
    real :: r
    real :: a(4)
    integer :: i
    do i = 1, 4
      a(i) = x * i
      call bump(a(i))
    end do
    r = sum(a)
  end function call_in_body

  function early_exit(x) result(r)
    real, intent(in) :: x
    real :: r
    real :: a(8)
    integer :: i
    do i = 1, 8
      a(i) = 0.0
    end do
    do i = 1, 8
      if (i > 5) exit
      a(i) = x * i
    end do
    r = sum(a) + i
  end function early_exit

  function whole_array_pver(x) result(r)
    real, intent(in) :: x
    real :: r
    real :: v(8), w(8)
    integer :: i
    do i = 1, 8
      v(i) = x + i
    end do
    do i = 1, 8
      w(i) = maxval(v * i) - v(i)
    end do
    r = sum(w)
  end function whole_array_pver

  function whole_array_pcols(x) result(r)
    real, intent(in) :: x
    real :: r
    real :: v(16), w(16)
    integer :: i
    do i = 1, 16
      v(i) = x - i
    end do
    do i = 1, 16
      w(i) = sum(v + i) * 0.5
    end do
    r = sum(w)
  end function whole_array_pcols

  subroutine shift(a, b, n, x)
    integer, intent(in) :: n
    real, intent(in) :: x
    real, intent(inout) :: a(n)
    real, intent(in) :: b(n)
    integer :: i
    do i = 1, n
      a(i) = b(n + 1 - i) * 2.0 + x
    end do
  end subroutine shift

  function aliased(x) result(r)
    real, intent(in) :: x
    real :: r
    real :: c(6)
    integer :: i
    do i = 1, 6
      c(i) = x * i
    end do
    call shift(c, c, 6, x)
    r = c(1) + 10.0 * c(6)
  end function aliased

  function short_trips(x) result(r)
    real, intent(in) :: x
    real :: r
    real :: a(3)
    integer :: i, m
    a(1) = 0.0
    m = 0
    do i = 1, m
      a(i) = x
    end do
    m = 1
    do i = 1, m
      a(i) = x + 1.0
    end do
    r = a(1) + i
  end function short_trips

  function runaway(x) result(r)
    real, intent(in) :: x
    real :: r
    real :: a(8)
    integer :: i
    do while (.true.)
      do i = 1, 8
        a(i) = x * i
      end do
    end do
    r = a(1)
  end function runaway
end module lanecases
"""

REGIONS = [
    "privates_real", "privates_int", "gather", "reverse", "branches",
    "column", "elemental_call", "under_member_mask", "branch_private",
    "lane_private", "guarded_gather", "loop_var_after", "guarded_divide",
    "member_guarded_divide", "guarded_gamma", "sparse_branch",
    "perfect_nest", "perfect_nest_outer",
]
#: function -> lane regions it runs: only its initializing loops, never
#: the loop under test
PER_ITERATION = {
    "carried": 0, "recurrence": 0, "module_write": 0, "dummy_write": 0,
    "call_in_body": 0, "early_exit": 1, "whole_array_pver": 1,
    "whole_array_pcols": 1, "callee_reads_array": 0,
    "nested_var_assigned": 0,
}


def _batch(values):
    return np.asarray(values, dtype=np.float64).view(MemberBatch)


def _compare(src, module, function, xs=XS, fp=None):
    """Run ``function`` on three members and on the scalar interpreter,
    assert they agree member by member; return the vectorized run."""
    interp = VecInterpreter.from_source(src, seeds=[1, 2, 3], fp=fp)
    got = np.asarray(interp.call(module, function, [_batch(xs)]))
    for m, x in enumerate(xs):
        scalar = Interpreter.from_source(src, fp=fp)
        want = scalar.call(module, function, [x])
        assert got[m] == want or (np.isnan(got[m]) and np.isnan(want)), (m, x)
        assert interp.member_statements(m) == scalar.statements_executed, m
        assert interp.member_coverage(m).counts == scalar.coverage.counts, m
    return interp


@pytest.mark.parametrize("function", REGIONS)
def test_region_matches_scalar(function):
    interp = _compare(CASES_SRC, "lanecases", function)
    assert interp.lane_regions > 0
    assert interp.lane_fallbacks == 0


@pytest.mark.parametrize("function", ["privates_int", "reverse", "member_guarded_divide"])
@pytest.mark.parametrize("fp", [FPConfig(flush_to_zero=True),
                                FPConfig(flush_to_zero=True, fma=True)],
                         ids=["ftz", "ftz-fma"])
def test_region_matches_scalar_under_flush_to_zero(function, fp):
    """Under flush-to-zero every operation runs the FPU, integer lane
    values (the loop variable) included."""
    assert _compare(CASES_SRC, "lanecases", function, fp=fp).lane_regions > 0


@pytest.mark.parametrize("function", sorted(PER_ITERATION))
def test_per_iteration_loop_matches_scalar(function):
    interp = _compare(CASES_SRC, "lanecases", function)
    assert interp.lane_regions == PER_ITERATION[function]
    assert any(plan is None for _, plan in interp._lane_plans.values())


def test_micro_mg_shape_runs_the_outer_loop():
    """A carried private in a sequential inner loop: the outer loop is the
    region and the inner one iterates inside it."""
    interp = _compare(CASES_SRC, "lanecases", "column")
    plans = {loop.var: plan for loop, plan in interp._lane_plans.values()}
    assert plans["i"] is not None and plans["i"].nested_vars == ("k",)
    assert interp.lane_iterations == 4


def test_perfect_nest_runs_its_innermost_qualifying_loop():
    interp = _compare(CASES_SRC, "lanecases", "perfect_nest")
    plans = {loop.var: plan for loop, plan in interp._lane_plans.values()}
    assert plans["k"] is None and plans["j"] is None
    assert plans["i"] is not None
    assert (interp.lane_regions, interp.lane_iterations) == (6, 24)
    # an inner loop that carries a value leaves the outer loop the region
    interp = _compare(CASES_SRC, "lanecases", "perfect_nest_outer")
    plans = [plan for _, plan in interp._lane_plans.values()]
    assert len(plans) == 2 and plans[1].nested_vars == ("i",)
    assert (interp.lane_regions, interp.lane_iterations) == (2, 6)


def test_masked_out_integer_faults_stay_silent():
    """A zero divisor (``/``, ``mod``, a negative power) that only a
    masked-out lane or member holds is never evaluated, inside a region
    or under a member mask; an active one raises as in the scalar
    runtime."""
    for function in ("guarded_divide", "member_guarded_divide"):
        assert _compare(CASES_SRC, "lanecases", function).lane_regions == 1
    interp = _compare(CASES_SRC, "lanecases", "member_mod")
    assert interp.mask_divergences == 1
    for interp, x in ((VecInterpreter.from_source(CASES_SRC, seeds=[1, 2, 3]),
                       _batch(XS)), (Interpreter.from_source(CASES_SRC), 0.9)):
        with pytest.raises(FortranRuntimeError, match="division by zero"):
            interp.call("lanecases", "active_divide", [x])


def test_shared_budget_charges_what_the_per_iteration_loop_does(monkeypatch):
    """Under a member-and-lane mask the shared statement counter (the
    budget) charges each lane some member runs, as the per-iteration loop
    does, not every lane."""
    interp = _compare(CASES_SRC, "lanecases", "sparse_branch")
    monkeypatch.setattr(VecInterpreter, "_lane_plan", lambda self, loop, frame: None)
    iterated = VecInterpreter.from_source(CASES_SRC, seeds=[1, 2, 3])
    iterated.call("lanecases", "sparse_branch", [_batch(XS)])
    assert iterated.lane_regions == 0
    assert interp.statements_executed == iterated.statements_executed


def test_member_divergent_region_keeps_inactive_members():
    interp = _compare(CASES_SRC, "lanecases", "under_member_mask")
    # the initializing loop, and the guarded loop for the members taking it
    assert interp.lane_regions == 2


def test_aliased_dummies_take_the_per_iteration_path():
    interp = _compare(CASES_SRC, "lanecases", "aliased")
    assert interp.lane_fallbacks == 1
    assert interp.lane_regions == 1  # the initializing loop


def test_zero_and_one_trip_loops():
    interp = _compare(CASES_SRC, "lanecases", "short_trips")
    assert interp.lane_regions == 0
    assert interp.lane_fallbacks == 2


def test_runaway_around_a_region_raises():
    interp = VecInterpreter.from_source(
        CASES_SRC, seeds=[1, 2, 3], max_statements=5_000
    )
    with pytest.raises(StatementLimitExceeded):
        interp.call("lanecases", "runaway", [_batch(XS)])
    assert interp.lane_regions > 0


class _NoNames:
    def kind(self, key):
        return None

    def procedure(self, name):
        return None


def test_step_other_than_one_is_not_a_region():
    src = """
module stepped
contains
  subroutine s(a)
    real, intent(inout) :: a(8)
    integer :: i
    do i = 1, 8, 2
      a(i) = 1.0
    end do
  end subroutine s
end module stepped
"""
    sub = parse_source(src).modules[0].subprograms["s"]
    assert plan_region(sub.body[0], sub, _NoNames(), {}) is None


# --------------------------------------------------------------------------- #
# IEEE results: Fortran does not trap
# --------------------------------------------------------------------------- #
FP_SRC = """
module fpcases
  implicit none
contains
  function divides(x) result(r)
    real, intent(in) :: x
    real :: r
    real :: a(6), zero
    integer :: i
    zero = 0.0
    do i = 1, 6
      ! the divisor is zero only for a masked-out member (x = 0.2) and a
      ! masked-out lane (i = 3)
      if (x > 0.5 .and. i /= 3) then
        a(i) = 1.0 / ((x - 0.2) * (i - 3))
      else
        a(i) = -1.0
      end if
    end do
    r = sum(a) + x / zero
  end function divides

  function invalid(x) result(r)
    real, intent(in) :: x
    real :: r
    r = (x - x) / 0.0
  end function invalid
end module fpcases
"""


def test_real_division_by_zero_yields_ieee_values():
    """Nothing warns (the suite runs under ``-W error``): every member
    divides by zero, and so do a masked-out member and a masked-out lane
    of a region; serial and vectorized agree on inf and nan alike."""
    interp = _compare(FP_SRC, "fpcases", "divides")
    assert interp.lane_regions == 1
    got = np.asarray(interp.call("fpcases", "divides", [_batch(XS)]))
    assert (got == np.inf).all()
    interp = _compare(FP_SRC, "fpcases", "invalid")
    assert np.isnan(np.asarray(interp.call("fpcases", "invalid", [_batch(XS)]))).all()


# --------------------------------------------------------------------------- #
# the model: regions cover most of a pass
# --------------------------------------------------------------------------- #
def test_model_pass_runs_lane_regions(monkeypatch):
    ran = []
    original = VecInterpreter._run_lanes

    def recording(self, plan, *args):
        done = original(self, plan, *args)
        if done:
            loop = next(l for l, p in self._lane_plans.values() if p is plan)
            ran.append((loop.location.filename, loop.location.line))
        return done

    monkeypatch.setattr(VecInterpreter, "_run_lanes", recording)
    from repro.obs import get_metrics

    before = get_metrics().counters()
    configs = [RunConfig(nsteps=2, pertlim=1e-14, seed=s) for s in (1, 2, 3)]
    run_model_batch(configs)
    delta = get_metrics().counter_delta(before)
    assert delta["vec.lane_iterations"] >= 9000
    assert delta.get("vec.lane_fallbacks", 0) == 0
    # the column loop carrying rainflux through its sequential k loop
    assert ("micro_mg.F90", 78) in ran


def test_model_pass_under_flush_to_zero_matches_serial():
    from repro.runtime import run_model

    fp = FPConfig(flush_to_zero=True)
    configs = [RunConfig(nsteps=1, pertlim=1e-14 * s, seed=s, fp=fp) for s in (1, 2)]
    for config, batched in zip(configs, run_model_batch(configs)):
        serial = run_model(config)
        for name, value in serial.outputs.items():
            assert np.array_equal(value, batched.outputs[name]), name
        assert serial.statements_executed == batched.statements_executed


# --------------------------------------------------------------------------- #
# differential fuzzing: generated loop nests against the scalar interpreter
# --------------------------------------------------------------------------- #
_LEAVES = [
    "x", "real(i)", "a(i)", "a(nb(i))", "t1", "1.5", "0.25", "mod(i, 3)",
]


@st.composite
def _exprs(draw, depth=2):
    if depth == 0 or draw(st.booleans()):
        return draw(st.sampled_from(_LEAVES))
    op = draw(st.sampled_from(["+", "-", "*", "max", "min", "abs"]))
    left = draw(_exprs(depth=depth - 1))
    if op == "abs":
        return f"abs({left})"
    right = draw(_exprs(depth=depth - 1))
    if op in ("max", "min"):
        return f"{op}({left}, {right})"
    return f"({left} {op} {right})"


@st.composite
def _statements(draw, depth=2):
    """Statements of a region body; a nested loop only at its top level."""
    kinds = ["store", "store", "private", "int", "divide", "if"] if depth else ["store"]
    kind = draw(st.sampled_from(kinds + ["nested"] * (depth == 2)))
    if kind == "store":
        return [f"b(i) = {draw(_exprs())}"]
    if kind == "private":
        return [f"t2 = {draw(_exprs())}", f"b(i) = b(i) + t2"]
    if kind == "int":
        return [f"j = nint({draw(_exprs())}) + i / 2", "b(i) = b(i) * j"]
    if kind == "divide":
        # j = 0 in some lanes and members: the guard masks them out
        return [f"j = nint({draw(_exprs())})", "if (j /= 0) then",
                "b(i) = b(i) + mod(7, j) + 12 / j", "end if"]
    if kind == "if":
        then = draw(_statements(depth=depth - 1))
        other = draw(_statements(depth=depth - 1))
        return [f"if ({draw(_exprs(depth=1))} > 1.0) then", *then,
                "else", *other, "end if"]
    return ["s = 0.0", "do k = 1, 3", f"s = s + {draw(_exprs(depth=1))} * k",
            "b(i) = b(i) + s", "end do"]


@st.composite
def _loops(draw):
    body = ["t1 = x * i - 0.5"]
    for _ in range(draw(st.integers(1, 3))):
        body += draw(_statements())
    carried = draw(st.booleans())
    if carried:
        body.append("c = c + b(i)")
    lo, hi = draw(st.sampled_from([(1, 8), (2, 7), (8, 1)]))
    step = ", -1" if lo > hi else ""
    return body, f"do i = {lo}, {hi}{step}", carried


FUZZ_TEMPLATE = """
module fuzz
  implicit none
contains
  function nest(x) result(r)
    real, intent(in) :: x
    real :: r
    real :: a(8), b(8), t1, t2, s, c
    integer :: nb(8), i, j, k
    c = 0.0
    do i = 1, 8
      a(i) = x * (i - 4) + 0.1 * i * i
      b(i) = 0.0
      nb(i) = 9 - i
    end do
    {header}
{body}
    end do
    r = sum(b) + c + i
  end function nest
end module fuzz
"""


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_loops())
def test_generated_nests_match_scalar(loop):
    body, header, carried = loop
    src = FUZZ_TEMPLATE.format(header=header, body="\n".join(body))
    interp = _compare(src, "fuzz", "nest")
    # the initializing loop is always a region; the generated one unless
    # it carries c
    assert interp.lane_regions == (1 if carried else 2)
