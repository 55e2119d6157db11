"""Statement-semantics conformance tests for the interpreter.

Covers the executable subset the model exercises — do-loop bounds/steps,
``exit``/``cycle``, ``select case`` (values and ranges), ``where``, intent
protection, argument binding (sharing vs copy-back, keywords), derived
types, use-association — plus the runtime's FPU, PRNG and coverage layers.
"""

import numpy as np
import pytest

from repro.runtime.coverage import CoverageTrace
from repro.runtime.fpu import FPConfig, FPU
from repro.runtime.interpreter import (
    Interpreter,
    StatementLimitExceeded,
    StopModel,
)
from repro.runtime.prng import PRNGStreams
from repro.runtime.values import (
    FortranRuntimeError,
    IntentViolationError,
    UndefinedNameError,
)
from repro.runtime.vec import VecInterpreter


def run(source: str, sub: str, args=(), module: str = "m", **kwargs):
    interp = Interpreter.from_source(source, **kwargs)
    return interp.call(module, sub, list(args))


# --------------------------------------------------------------------------- #
# do loops
# --------------------------------------------------------------------------- #
DO_SRC = """
module m
  implicit none
contains
  function count_up(n) result(total)
    integer, intent(in) :: n
    integer :: total, i
    total = 0
    do i = 1, n
      total = total + i
    end do
  end function count_up

  function negative_step() result(total)
    integer :: total, k
    total = 0
    do k = 10, 1, -2
      total = total * 100 + k
    end do
  end function negative_step

  function zero_trips() result(total)
    integer :: total, i
    total = 0
    do i = 5, 1
      total = total + 1
    end do
  end function zero_trips

  function var_after_loop(n) result(final)
    integer, intent(in) :: n
    integer :: final, i
    do i = 1, n
      final = 0
    end do
    final = i
  end function var_after_loop

  function exit_cycle() result(total)
    integer :: total, i
    total = 0
    do i = 1, 100
      if (mod(i, 2) == 0) then
        cycle
      end if
      if (i > 7) then
        exit
      end if
      total = total + i
    end do
  end function exit_cycle

  function nested(n) result(total)
    integer, intent(in) :: n
    integer :: total, i, k
    total = 0
    do k = n, 1, -1
      do i = 1, k
        if (i == 3) then
          exit
        end if
        total = total + 1
      end do
    end do
  end function nested

  function while_loop() result(x)
    real :: x
    x = 1.0
    do while (x < 100.0)
      x = x * 3.0
    end do
  end function while_loop
end module m
"""


class TestDoLoops:
    def test_simple_bounds(self):
        assert run(DO_SRC, "count_up", [5]) == 15

    def test_negative_step_order(self):
        # iterates 10, 8, 6, 4, 2 in that order
        assert run(DO_SRC, "negative_step") == 1008060402

    def test_zero_trip_count(self):
        assert run(DO_SRC, "zero_trips") == 0

    def test_control_var_one_past_end_after_completion(self):
        # Fortran: after `do i = 1, n` completes, i == n + 1
        assert run(DO_SRC, "var_after_loop", [4]) == 5

    def test_exit_and_cycle(self):
        # odd i up to 7: 1 + 3 + 5 + 7
        assert run(DO_SRC, "exit_cycle") == 16

    def test_exit_leaves_only_innermost_loop(self):
        # k=4: i=1,2 -> 2; k=3: 2; k=2: 2; k=1: 1
        assert run(DO_SRC, "nested", [4]) == 7

    def test_do_while(self):
        assert run(DO_SRC, "while_loop") == 243.0

    def test_runaway_loop_hits_statement_budget(self):
        src = """
module m
  implicit none
contains
  subroutine spin()
    real :: x
    x = 0.0
    do while (x < 1.0)
      x = x * 1.0
    end do
  end subroutine spin
end module m
"""
        interp = Interpreter.from_source(src, max_statements=500)
        with pytest.raises(StatementLimitExceeded):
            interp.call("m", "spin")


# --------------------------------------------------------------------------- #
# select case
# --------------------------------------------------------------------------- #
SELECT_SRC = """
module m
  implicit none
contains
  function classify(k) result(r)
    integer, intent(in) :: k
    integer :: r
    select case (k)
    case (:0)
      r = -1
    case (1:3, 7)
      r = 1
    case (4)
      r = 2
    case (10:)
      r = 3
    case default
      r = 0
    end select
  end function classify

  function named(tag) result(r)
    character(len=*), intent(in) :: tag
    integer :: r
    select case (tag)
    case ('cold')
      r = 1
    case ('warm', 'hot')
      r = 2
    case default
      r = 3
    end select
  end function named
end module m
"""


class TestSelectCase:
    @pytest.mark.parametrize(
        "k,expected",
        [(-5, -1), (0, -1), (1, 1), (3, 1), (7, 1), (4, 2), (10, 3), (99, 3),
         (5, 0), (8, 0)],
    )
    def test_integer_ranges(self, k, expected):
        assert run(SELECT_SRC, "classify", [k]) == expected

    @pytest.mark.parametrize(
        "tag,expected", [("cold", 1), ("warm", 2), ("hot", 2), ("tepid", 3)]
    )
    def test_character_selector(self, tag, expected):
        assert run(SELECT_SRC, "named", [tag]) == expected


# --------------------------------------------------------------------------- #
# intent protection and argument binding
# --------------------------------------------------------------------------- #
INTENT_SRC = """
module m
  implicit none
  real, parameter :: fixed = 2.5
contains
  subroutine bad_write(x)
    real, intent(in) :: x
    x = 0.0
  end subroutine bad_write

  subroutine bad_array_write(a)
    real, intent(in) :: a(3)
    a(1) = 0.0
  end subroutine bad_array_write

  subroutine bad_param_write()
    fixed = 0.0
  end subroutine bad_param_write

  subroutine scalar_out(x, y)
    real, intent(in) :: x
    real, intent(out) :: y
    y = 2.0 * x
  end subroutine scalar_out

  function keyword_call() result(r)
    real :: r, a, b
    a = 3.0
    call scalar_out(y=b, x=a)
    r = b
  end function keyword_call

  subroutine fill(a, n)
    integer, intent(in) :: n
    real, intent(out) :: a(n)
    integer :: i
    do i = 1, n
      a(i) = i * 10.0
    end do
  end subroutine fill

  function array_shared() result(r)
    real :: buf(4)
    real :: r
    call fill(buf, 4)
    r = buf(1) + buf(4)
  end function array_shared

  function int_division() result(r)
    integer :: r
    r = (-7) / 2 * 100 + 7 / 2
  end function int_division
end module m
"""

OPTIONAL_SRC = """
module m
  implicit none
  real :: b = 7.0
contains
  function reads(b) result(r)
    real, intent(in), optional :: b
    real :: r
    r = b + 5.0
  end function reads

  function inner(b) result(r)
    real, intent(in), optional :: b
    real :: r
    if (present(b)) then
      r = 1.0
    else
      r = -1.0
    end if
  end function inner

  function outer(b) result(r)
    real, intent(in), optional :: b
    real :: r
    r = inner(b)
  end function outer

  function read_absent() result(r)
    real :: r
    r = reads()
  end function read_absent

  function pass_absent() result(r)
    real :: r
    r = outer()
  end function pass_absent

  function pass_present() result(r)
    real :: r
    r = outer(2.0)
  end function pass_present

  subroutine scale(a, n, f)
    integer, intent(in) :: n
    real, intent(inout) :: a(n)
    real, intent(in), optional :: f(n)
    integer :: i
    do i = 1, n
      if (present(f)) then
        a(i) = a(i) * f(i)
      else
        a(i) = a(i) + 1.0
      end if
    end do
  end subroutine scale

  function scaled() result(r)
    real :: r
    real :: a(4), w(4)
    a = 1.0
    w = 3.0
    call scale(a, 4)
    call scale(a, 4, w)
    r = a(1) + a(4)
  end function scaled
end module m
"""


class TestIntentAndBinding:
    def test_write_to_intent_in_scalar_raises(self):
        interp = Interpreter.from_source(INTENT_SRC)
        with pytest.raises(IntentViolationError):
            interp.call("m", "bad_write", [1.0])

    def test_write_to_intent_in_array_raises(self):
        src_caller = INTENT_SRC.replace(
            "end module m",
            """
  subroutine call_bad()
    real :: local(3)
    call bad_array_write(local)
  end subroutine call_bad
end module m""",
        )
        interp = Interpreter.from_source(src_caller)
        with pytest.raises(IntentViolationError):
            interp.call("m", "call_bad")

    def test_write_to_parameter_raises(self):
        interp = Interpreter.from_source(INTENT_SRC)
        with pytest.raises(IntentViolationError):
            interp.call("m", "bad_param_write")

    def test_keyword_arguments_bind_by_dummy_name(self):
        assert run(INTENT_SRC, "keyword_call") == 6.0

    def test_intent_out_array_shared_with_caller(self):
        assert run(INTENT_SRC, "array_shared") == 50.0

    def test_python_level_array_sharing(self):
        interp = Interpreter.from_source(INTENT_SRC)
        buf = np.zeros(4)
        interp.call("m", "fill", [buf, 4])
        np.testing.assert_array_equal(buf, [10.0, 20.0, 30.0, 40.0])

    def test_fortran_integer_division_truncates_toward_zero(self):
        assert run(INTENT_SRC, "int_division") == -297  # -3*100 + 3

    def test_reading_an_absent_optional_is_loud(self):
        with pytest.raises(
            FortranRuntimeError, match="absent optional argument 'b'"
        ):
            run(OPTIONAL_SRC, "read_absent")

    def test_absent_optional_passed_on_stays_absent(self):
        assert run(OPTIONAL_SRC, "pass_absent") == -1.0
        assert run(OPTIONAL_SRC, "pass_present") == 1.0

    def test_lane_region_plans_around_an_absent_optional(self):
        assert run(OPTIONAL_SRC, "scaled") == 12.0
        vec = VecInterpreter.from_source(OPTIONAL_SRC, seeds=[1, 2])
        np.testing.assert_array_equal(
            np.asarray(vec.call("m", "scaled")), [12.0, 12.0]
        )
        assert vec.lane_regions > 0

    def test_unknown_name_is_loud(self):
        src = """
module m
  implicit none
contains
  subroutine s()
    real :: x
    x = no_such_thing + 1.0
  end subroutine s
end module m
"""
        with pytest.raises(UndefinedNameError):
            run(src, "s")

    @pytest.mark.parametrize(
        "stmt, error, message",
        [
            ("call no_such_sub(1.0)", UndefinedNameError,
             "call to unknown subroutine 'no_such_sub' from module 'm'"),
            ("x = no_such_fn(1.0)", UndefinedNameError,
             "unknown function or array 'no_such_fn' in module 'm'"),
            ("x = t(1.0)", FortranRuntimeError,
             "subroutine 't' referenced as a function"),
            ("x = present(1)", FortranRuntimeError,
             "present() takes exactly one dummy-argument name"),
            ("goto 10", FortranRuntimeError,
             "cannot execute unparsed statement at <test>:6: 'goto 10'"),
        ],
    )
    def test_runtime_errors_name_what_failed(self, stmt, error, message):
        src = f"""module m
  implicit none
  real :: x
contains
  subroutine s()
    {stmt}
  end subroutine s

  subroutine t(y)
    real, intent(in) :: y
  end subroutine t
end module m
"""
        with pytest.raises(error) as raised:
            run(src, "s")
        assert str(raised.value) == message


# --------------------------------------------------------------------------- #
# derived types, module state, use association
# --------------------------------------------------------------------------- #
MODULES_SRC = """
module constants
  implicit none
  integer, parameter :: n = 3
  real, parameter :: scale = 2.0
end module constants

module typesmod
  use constants, only: n
  implicit none
  type point
    real :: x
    real :: coords(n)
  end type point
contains
  subroutine point_init(p, base)
    type(point), intent(inout) :: p
    real, intent(in) :: base
    integer :: i
    p%x = base
    do i = 1, n
      p%coords(i) = base * i
    end do
  end subroutine point_init
end module typesmod

module consumer
  use constants, only: big => scale
  use typesmod, only: point, point_init
  implicit none
  type(point) :: saved
  integer :: calls = 0
contains
  function use_point(base) result(total)
    real, intent(in) :: base
    real :: total
    integer :: i
    call point_init(saved, base)
    calls = calls + 1
    total = saved%x * big
    do i = 1, 3
      total = total + saved%coords(i)
    end do
  end function use_point

  function call_count() result(c)
    integer :: c
    c = calls
  end function call_count
end module consumer
"""


class TestDerivedAndModules:
    def test_derived_type_components_and_renamed_use(self):
        # 5*2 + 5 + 10 + 15 = 40
        assert run(MODULES_SRC, "use_point", [5.0], module="consumer") == 40.0

    def test_module_state_persists_between_calls(self):
        interp = Interpreter.from_source(MODULES_SRC)
        interp.call("consumer", "use_point", [1.0])
        interp.call("consumer", "use_point", [2.0])
        assert interp.call("consumer", "call_count") == 2
        saved = interp.module("consumer").scope.get("saved")
        assert saved.get("x") == 2.0
        np.testing.assert_array_equal(saved.get("coords"), [2.0, 4.0, 6.0])


# --------------------------------------------------------------------------- #
# where blocks, whole-array assignment, stop
# --------------------------------------------------------------------------- #
MISC_SRC = """
module m
  implicit none
contains
  function masked() result(total)
    real :: a(5), total
    integer :: i
    do i = 1, 5
      a(i) = i * 1.0
    end do
    where (a > 3.0)
      a = a * 10.0
    elsewhere
      a = 0.0
    end where
    total = sum(a)
  end function masked

  function fill_all() result(total)
    real :: a(4), b(4), total
    a = 2.5
    b = a
    b(2) = 0.0
    total = sum(a) + sum(b)
  end function fill_all

  subroutine abort_now()
    stop 'boom'
  end subroutine abort_now
end module m
"""


class TestSections:
    def test_negative_stride_section_keeps_all_elements(self):
        # regression: a(5:2:-1) must walk 5,4,3,2 — the naive stop bound
        # silently dropped the tail of the reversed section
        src = """
module m
  implicit none
contains
  function reversed() result(total)
    real :: a(5), total
    integer :: i
    do i = 1, 5
      a(i) = i * 1.0
    end do
    total = sum(a(5:2:-1)) * 1000.0 + sum(a(5:1:-1))
  end function reversed
end module m
"""
        # 5+4+3+2 = 14 and 5+4+3+2+1 = 15
        assert run(src, "reversed") == 14015.0

    def test_plain_sections_are_inclusive(self):
        src = """
module m
  implicit none
contains
  function sliced() result(total)
    real :: a(6), total
    integer :: i
    do i = 1, 6
      a(i) = i * 1.0
    end do
    total = sum(a(2:4)) * 100.0 + sum(a(:3)) + sum(a(5:))
  end function sliced
end module m
"""
        # (2+3+4)*100 + (1+2+3) + (5+6)
        assert run(src, "sliced") == 917.0

    def test_non_default_lower_bound_is_rejected_loudly(self):
        # regression: a(0:4) used to allocate 5 slots but rotate every
        # section access; the index layer is 1-based only
        src = """
module m
  implicit none
contains
  subroutine s()
    real :: a(0:4)
    a(0) = 1.0
  end subroutine s
end module m
"""
        with pytest.raises(FortranRuntimeError, match="lower bound"):
            run(src, "s")

    def test_explicit_one_based_bounds_still_allocate(self):
        src = """
module m
  implicit none
contains
  function ok() result(total)
    real :: a(1:4), total
    a = 2.0
    total = sum(a)
  end function ok
end module m
"""
        assert run(src, "ok") == 8.0


class TestArraysAndStop:
    def test_where_elsewhere_masked_assignment(self):
        assert run(MISC_SRC, "masked") == 90.0  # 0+0+0+40+50

    def test_whole_array_fill_and_copy(self):
        # a untouched by b's edit: 10.0 + 7.5
        assert run(MISC_SRC, "fill_all") == 17.5

    def test_stop_raises_stop_model(self):
        interp = Interpreter.from_source(MISC_SRC)
        with pytest.raises(StopModel, match="boom"):
            interp.call("m", "abort_now")


# --------------------------------------------------------------------------- #
# FPU model
# --------------------------------------------------------------------------- #
class TestFPU:
    def test_fma_single_rounding_differs_from_two_roundings(self):
        fpu = FPU()
        a = 1.0 + 2.0 ** -27
        b = 1.0 + 2.0 ** -27
        c = -(1.0 + 2.0 ** -26)
        unfused = a * b + c
        fused = fpu.fma(a, b, c)
        assert unfused == 0.0
        assert fused == 2.0 ** -54  # the bit the unfused product rounds away

    def test_fma_matches_plain_when_exact(self):
        fpu = FPU()
        assert fpu.fma(3.0, 4.0, 5.0) == 17.0

    def test_fma_elementwise_on_arrays(self):
        fpu = FPU()
        a = np.array([1.0 + 2.0 ** -27, 3.0])
        b = np.array([1.0 + 2.0 ** -27, 4.0])
        c = np.array([-(1.0 + 2.0 ** -26), 5.0])
        np.testing.assert_array_equal(fpu.fma(a, b, c), [2.0 ** -54, 17.0])

    def test_flush_to_zero(self):
        # 1e-320 is subnormal: kept by default, flushed with the knob on
        fpu = FPU(FPConfig(flush_to_zero=True))
        assert fpu.mul(1e-200, 1e-120) == 0.0
        assert FPU().mul(1e-200, 1e-120) != 0.0

    def test_fma_config_module_restriction(self):
        cfg = FPConfig(fma=True, fma_modules=frozenset({"micro_mg"}))
        assert cfg.fma_enabled_in("micro_mg")
        assert not cfg.fma_enabled_in("radlw")
        assert FPConfig(fma=True).fma_enabled_in("anything")
        assert not FPConfig().fma_enabled_in("micro_mg")

    def test_interpreted_fma_contraction(self):
        src = """
module m
  implicit none
contains
  function muladd(a, b, c) result(r)
    real, intent(in) :: a, b, c
    real :: r
    r = a * b + c
  end function muladd
end module m
"""
        args = [1.0 + 2.0 ** -27, 1.0 + 2.0 ** -27, -(1.0 + 2.0 ** -26)]
        plain = run(src, "muladd", args)
        fused = run(src, "muladd", args, fp=FPConfig(fma=True))
        assert plain == 0.0
        assert fused == 2.0 ** -54

    def test_fma_preserves_operand_evaluation_order(self):
        # regression: the c + a*b contraction must still evaluate c first,
        # so FMA changes only rounding, never side-effect order
        src = """
module m
  implicit none
  integer :: log1 = 0
  integer :: log2 = 0
  integer :: tick = 0
contains
  function noisy(which) result(r)
    integer, intent(in) :: which
    real :: r
    tick = tick + 1
    if (which == 1) then
      log1 = tick
    else
      log2 = tick
    end if
    r = 1.0
  end function noisy

  function combined() result(x)
    real :: x
    x = noisy(1) + 2.0 * noisy(2)
  end function combined
end module m
"""
        for fp in (FPConfig(), FPConfig(fma=True)):
            interp = Interpreter.from_source(src, fp=fp)
            interp.call("m", "combined")
            scope = interp.module("m").scope
            assert scope.get("log1") == 1, fp  # left operand evaluated first
            assert scope.get("log2") == 2, fp


INT_DIV_SRC = """
module m
  implicit none
contains
  subroutine halve(a, r)
    integer, intent(in) :: a(3)
    real, intent(out) :: r(3)
    r = a / 2
  end subroutine halve

  subroutine divide(a, b, r)
    integer, intent(in) :: a(3), b(3)
    real, intent(out) :: r(3)
    r = a / b
  end subroutine divide

  function by_zero(n) result(r)
    integer, intent(in) :: n
    integer :: r, k
    k = 0
    r = n / k
  end function by_zero
end module m
"""


class TestIntegerDivision:
    """Fortran integer division truncates toward zero for integer scalars
    and integer arrays alike, and a zero divisor is a model error."""

    def test_scalar_truncates_toward_zero(self):
        fpu = FPU()
        assert fpu.div(-3, 2) == -1
        assert fpu.div(3, -2) == -1
        assert fpu.div(7, 2) == 3
        assert isinstance(fpu.div(7, 2), int)

    def test_integer_array_by_scalar(self):
        interp = Interpreter.from_source(INT_DIV_SRC)
        r = np.zeros(3)
        interp.call("m", "halve", [np.array([5, 6, 7]), r])
        np.testing.assert_array_equal(r, [2.0, 3.0, 3.0])

    def test_integer_array_by_array_keeps_sign_rule(self):
        interp = Interpreter.from_source(INT_DIV_SRC)
        r = np.zeros(3)
        interp.call(
            "m", "divide", [np.array([-3, 3, -7]), np.array([2, -2, -2]), r]
        )
        np.testing.assert_array_equal(r, [-1.0, -1.0, 3.0])

    def test_real_operand_keeps_true_division(self):
        np.testing.assert_array_equal(
            FPU().div(np.array([5, 6, 7]), 2.0), [2.5, 3.0, 3.5]
        )

    def test_zero_divisor_is_a_model_error(self):
        with pytest.raises(FortranRuntimeError, match="division by zero"):
            run(INT_DIV_SRC, "by_zero", [3])
        with pytest.raises(FortranRuntimeError, match="division by zero"):
            FPU().div(np.array([1, 2]), np.array([1, 0]))


# --------------------------------------------------------------------------- #
# PRNG streams
# --------------------------------------------------------------------------- #
class TestPRNG:
    def test_same_seed_same_sequence(self):
        a = PRNGStreams(7)
        b = PRNGStreams(7)
        assert [a.stream("x").uniform() for _ in range(5)] == [
            b.stream("x").uniform() for _ in range(5)
        ]

    def test_streams_are_module_independent(self):
        streams = PRNGStreams(7)
        first = streams.stream("a").uniform()
        # draws on another module's stream do not shift module a's stream
        fresh = PRNGStreams(7)
        fresh.stream("b").uniform()
        fresh.stream("b").uniform()
        assert fresh.stream("a").uniform() == first

    def test_different_modules_differ(self):
        streams = PRNGStreams(7)
        assert streams.stream("a").uniform() != streams.stream("b").uniform()

    def test_values_in_unit_interval(self):
        stream = PRNGStreams(123).stream("m")
        draws = [stream.uniform() for _ in range(1000)]
        assert all(0.0 <= d < 1.0 for d in draws)
        assert 0.4 < sum(draws) / len(draws) < 0.6

    def test_reseed_restarts(self):
        streams = PRNGStreams(7)
        first = streams.stream("a").uniform()
        streams.stream("a").uniform()
        streams.reseed(7)
        assert streams.stream("a").uniform() == first

    def test_fill_writes_through_non_contiguous_sections(self):
        # regression: reshape(-1) on a non-contiguous 2-D view returns a
        # copy, so the section silently stayed zero
        src = """
module m
  implicit none
contains
  subroutine draw_corner(a)
    real, intent(inout) :: a(4, 4)
    call random_number(a(1:2, 1:2))
  end subroutine draw_corner
end module m
"""
        a = np.zeros((4, 4))
        Interpreter.from_source(src, seed=3).call("m", "draw_corner", [a])
        corner = a[:2, :2]
        assert np.all((corner > 0.0) & (corner < 1.0))
        assert np.all(a[2:, :] == 0.0) and np.all(a[:, 2:] == 0.0)

    def test_random_number_intrinsic_uses_module_stream(self):
        src = """
module m
  implicit none
contains
  subroutine draw(a)
    real, intent(out) :: a(4)
    call random_number(a)
  end subroutine draw
end module m
"""
        out1 = np.zeros(4)
        out2 = np.zeros(4)
        Interpreter.from_source(src, seed=3).call("m", "draw", [out1])
        Interpreter.from_source(src, seed=3).call("m", "draw", [out2])
        np.testing.assert_array_equal(out1, out2)
        assert np.all((out1 >= 0.0) & (out1 < 1.0))
        assert len(set(out1.tolist())) == 4


# --------------------------------------------------------------------------- #
# coverage trace mechanics
# --------------------------------------------------------------------------- #
class TestCoverageTrace:
    def test_record_and_query(self):
        trace = CoverageTrace()
        trace.record("a.F90", 3)
        trace.record("a.F90", 3)
        trace.record("b.F90", 1)
        trace.record("a.F90", 0)  # ignored: no real line
        assert trace.hits("a.F90", 3) == 2
        assert trace.files() == ["a.F90", "b.F90"]
        assert trace.executed_lines("a.F90") == [3]
        assert trace.total_statements == 3
        assert trace.total_lines == 2

    def test_merge_and_restrict(self):
        one = CoverageTrace({("a.F90", 1): 2})
        two = CoverageTrace({("a.F90", 1): 1, ("b.F90", 5): 4})
        merged = one.merged(two)
        assert merged.hits("a.F90", 1) == 3
        assert merged.hits("b.F90", 5) == 4
        assert one.hits("a.F90", 1) == 2  # originals untouched
        assert merged.restricted_to(["b.F90"]).files() == ["b.F90"]

    def test_value_equality(self):
        assert CoverageTrace({("a", 1): 2}) == CoverageTrace({("a", 1): 2})
        assert CoverageTrace({("a", 1): 2}) != CoverageTrace({("a", 1): 3})

    def test_interpreter_records_per_line_counts(self):
        src = """
module m
  implicit none
contains
  function loop(n) result(total)
    integer, intent(in) :: n
    integer :: total, i
    total = 0
    do i = 1, n
      total = total + 1
    end do
  end function loop
end module m
"""
        interp = Interpreter.from_source(src, filename="loop.F90")
        interp.call("m", "loop", [5])
        trace = interp.coverage
        assert trace.files() == ["loop.F90"]
        # the loop body line ran 5 times, the do header once
        body_hits = max(trace.lines("loop.F90").values())
        assert body_hits == 5

    def test_coverage_can_be_disabled(self):
        src = MISC_SRC
        interp = Interpreter.from_source(src, collect_coverage=False)
        interp.call("m", "fill_all")
        assert interp.coverage is None


# --------------------------------------------------------------------------- #
# misc runtime errors
# --------------------------------------------------------------------------- #
def test_calling_missing_module_is_loud():
    interp = Interpreter.from_source(MISC_SRC)
    with pytest.raises(UndefinedNameError, match="no module"):
        interp.call("nope", "s")


def test_wrong_argument_count_is_loud():
    interp = Interpreter.from_source(MISC_SRC)
    with pytest.raises(FortranRuntimeError):
        interp.call("m", "abort_now", [1, 2, 3])
