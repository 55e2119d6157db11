"""Golden expression-evaluation tables for every supported intrinsic.

Every name in :data:`repro.fortran.intrinsics.EXPRESSION_INTRINSICS` must
have at least one golden entry here (``present`` is exercised through the
interpreter because it needs a call frame); a completeness test enforces it
so adding an intrinsic to the front end without a runtime implementation —
or without conformance coverage — fails loudly.
"""

import math

import numpy as np
import pytest

from repro.fortran.intrinsics import EXPRESSION_INTRINSICS
from repro.runtime.interpreter import Interpreter
from repro.runtime.intrinsics import INTRINSIC_FUNCTIONS, call_intrinsic
from repro.runtime.values import FortranRuntimeError

#: (intrinsic, args, kwargs, expected).  Exact comparison for ints, bools,
#: strings and exactly-representable floats; approx for transcendentals.
GOLDEN = [
    ("abs", (-3,), {}, 3),
    ("abs", (-2.5,), {}, 2.5),
    ("acos", (0.5,), {}, math.acos(0.5)),
    ("aint", (2.7,), {}, 2.0),
    ("aint", (-2.7,), {}, -2.0),
    ("asin", (0.5,), {}, math.asin(0.5)),
    ("atan", (1.0,), {}, math.atan(1.0)),
    ("atan2", (1.0, -1.0), {}, math.atan2(1.0, -1.0)),
    ("cos", (1.2,), {}, math.cos(1.2)),
    ("cosh", (0.5,), {}, math.cosh(0.5)),
    ("dble", (3,), {}, 3.0),
    ("dim", (5.0, 3.0), {}, 2.0),
    ("dim", (3, 5), {}, 0),
    ("epsilon", (1.0,), {}, 2.220446049250313e-16),
    ("erf", (0.5,), {}, math.erf(0.5)),
    ("erfc", (0.5,), {}, math.erfc(0.5)),
    ("exp", (1.0,), {}, math.e),
    ("floor", (2.7,), {}, 2),
    ("floor", (-2.7,), {}, -3),
    ("gamma", (5.0,), {}, 24.0),
    ("huge", (1,), {}, 2147483647),
    ("huge", (1.0,), {}, 1.7976931348623157e308),
    ("int", (2.9,), {}, 2),
    ("int", (-2.9,), {}, -2),
    ("log", (10.0,), {}, math.log(10.0)),
    ("log10", (100.0,), {}, 2.0),
    ("max", (1, 7, 3), {}, 7),
    ("max", (1.0, 2.5), {}, 2.5),
    ("min", (4, 2, 9), {}, 2),
    ("min", (0.25, -1.5), {}, -1.5),
    ("mod", (7, 3), {}, 1),
    ("mod", (-7, 3), {}, -1),       # Fortran mod takes the sign of a
    ("mod", (7.5, 2.0), {}, 1.5),
    ("mod", (-7.5, 2.0), {}, -1.5),
    ("nint", (2.5,), {}, 3),        # half away from zero, not banker's
    ("nint", (-2.5,), {}, -3),
    ("nint", (2.4,), {}, 2),
    ("real", (3,), {}, 3.0),
    ("sign", (3.0, -1.0), {}, -3.0),
    ("sign", (-3.0, 1.0), {}, 3.0),
    ("sign", (3, -2), {}, -3),
    ("sign", (2.0, 0.0), {}, 2.0),  # zero counts as non-negative
    ("sin", (0.7,), {}, math.sin(0.7)),
    ("sinh", (0.7,), {}, math.sinh(0.7)),
    ("sqrt", (2.25,), {}, 1.5),
    ("tan", (0.3,), {}, math.tan(0.3)),
    ("tanh", (0.3,), {}, math.tanh(0.3)),
    ("tiny", (1.0,), {}, 2.2250738585072014e-308),
    # reductions / array queries
    ("maxval", (np.array([1.0, 5.0, 2.0]),), {}, 5.0),
    ("minval", (np.array([1.0, 5.0, 2.0]),), {}, 1.0),
    ("sum", (np.array([1.0, 2.0, 3.5]),), {}, 6.5),
    ("sum", (np.array([1, 2, 3]),), {}, 6),
    ("size", (np.zeros((2, 3)),), {}, 6),
    ("size", (np.zeros((2, 3)), 2), {}, 3),
    ("count", (np.array([True, False, True]),), {}, 2),
    ("any", (np.array([False, True]),), {}, True),
    ("any", (np.array([False, False]),), {}, False),
    ("all", (np.array([True, True]),), {}, True),
    ("all", (np.array([True, False]),), {}, False),
    ("dot_product", (np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0, 6.0])), {}, 32.0),
    ("merge", (1.0, 2.0, True), {}, 1.0),
    ("merge", (1.0, 2.0, False), {}, 2.0),
    # character handling
    ("trim", ("abc  ",), {}, "abc"),
    ("adjustl", ("  abc",), {}, "abc"),
    ("len_trim", ("abc  ",), {}, 3),
]

#: array-valued golden entries, compared with array_equal
GOLDEN_ARRAYS = [
    ("merge", (np.array([1.0, 2.0]), np.array([9.0, 8.0]), np.array([True, False])),
     {}, np.array([1.0, 8.0])),
    ("spread", (1.5, 1, 3), {}, np.array([1.5, 1.5, 1.5])),
    ("spread", (np.array([1.0, 2.0]), 2, 2), {}, np.array([[1.0, 1.0], [2.0, 2.0]])),
    # Fortran reshape is column-major
    ("reshape", (np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]), (2, 3)),
     {}, np.array([[1.0, 3.0, 5.0], [2.0, 4.0, 6.0]])),
    ("matmul", (np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[5.0, 6.0], [7.0, 8.0]])),
     {}, np.array([[19.0, 22.0], [43.0, 50.0]])),
    ("abs", (np.array([-1.0, 2.0]),), {}, np.array([1.0, 2.0])),
    ("sqrt", (np.array([4.0, 9.0]),), {}, np.array([2.0, 3.0])),
    ("floor", (np.array([1.7, -1.7]),), {}, np.array([1, -2])),
    ("nint", (np.array([0.5, -0.5, 1.4]),), {}, np.array([1, -1, 1])),
    ("erf", (np.array([0.0, 0.5]),), {}, np.array([0.0, math.erf(0.5)])),
]


@pytest.mark.parametrize(
    "name,args,kwargs,expected",
    GOLDEN,
    ids=[f"{n}-{i}" for i, (n, *_rest) in enumerate(GOLDEN)],
)
def test_golden_scalar(name, args, kwargs, expected):
    result = call_intrinsic(name, list(args), kwargs)
    if isinstance(expected, bool):
        assert result is expected or result == expected
        assert isinstance(result, (bool, np.bool_))
    elif isinstance(expected, int):
        assert result == expected
        assert isinstance(result, (int, np.integer)), (name, type(result))
    elif isinstance(expected, float):
        assert result == pytest.approx(expected, rel=1e-15, abs=0.0)
        assert isinstance(result, (float, np.floating)), (name, type(result))
    else:
        assert result == expected


@pytest.mark.parametrize(
    "name,args,kwargs,expected",
    GOLDEN_ARRAYS,
    ids=[f"{n}-arr{i}" for i, (n, *_rest) in enumerate(GOLDEN_ARRAYS)],
)
def test_golden_array(name, args, kwargs, expected):
    result = call_intrinsic(name, list(args), kwargs)
    assert isinstance(result, np.ndarray)
    assert result.shape == expected.shape
    np.testing.assert_allclose(result, expected, rtol=1e-15)


def test_every_front_end_intrinsic_has_a_runtime_implementation():
    assert set(INTRINSIC_FUNCTIONS) >= set(EXPRESSION_INTRINSICS)


def test_every_intrinsic_has_golden_coverage():
    covered = {name for name, *_ in GOLDEN}
    covered |= {name for name, *_ in GOLDEN_ARRAYS}
    covered.add("present")  # needs a call frame: tested through the interpreter
    missing = set(EXPRESSION_INTRINSICS) - covered
    assert not missing, f"intrinsics without golden entries: {sorted(missing)}"


PRESENT_SRC = """
module m
  implicit none
contains
  function f(a, b) result(r)
    real, intent(in) :: a
    real, intent(in), optional :: b
    real :: r
    if (present(b)) then
      r = a + b
    else
      r = a - 1.0
    end if
  end function f

  function without() result(r)
    real :: r
    r = f(10.0)
  end function without

  function with() result(r)
    real :: r
    r = f(10.0, 2.0)
  end function with

  function with_keyword() result(r)
    real :: r
    r = f(10.0, b=5.0)
  end function with_keyword
end module m
"""


def test_present_through_the_interpreter():
    interp = Interpreter.from_source(PRESENT_SRC)
    assert interp.call("m", "without") == 9.0
    assert interp.call("m", "with") == 12.0
    assert interp.call("m", "with_keyword") == 15.0


INTRINSIC_IN_EXPR_SRC = """
module m
  implicit none
contains
  function mixed(x) result(r)
    real, intent(in) :: x
    real :: r
    r = sqrt(max(x, 4.0)) + mod(7, 3) * merge(10.0, 20.0, x > 0.0)
  end function mixed

  function shadowed(i) result(r)
    integer, intent(in) :: i
    real :: sum(3)
    real :: r
    sum(1) = 1.0
    sum(2) = 2.0
    sum(3) = 4.0
    r = sum(i)
  end function shadowed
end module m
"""


def test_intrinsics_inside_expressions():
    interp = Interpreter.from_source(INTRINSIC_IN_EXPR_SRC)
    # sqrt(max(9,4)) + mod(7,3)*merge(10,20,True) = 3 + 1*10
    assert interp.call("m", "mixed", [9.0]) == 13.0
    # sqrt(4) + 1*20 with x=-1 -> 22
    assert interp.call("m", "mixed", [-1.0]) == 22.0


def test_local_array_shadows_intrinsic():
    interp = Interpreter.from_source(INTRINSIC_IN_EXPR_SRC)
    # `sum` is a local array here, not the reduction intrinsic
    assert interp.call("m", "shadowed", [3]) == 4.0


EDGES_SRC = """
module edges
  implicit none
contains
  function rounded(x) result(r)
    real, intent(in) :: x
    integer :: r
    r = nint(x)
  end function rounded

  function remainder(a, p) result(r)
    integer, intent(in) :: a, p
    integer :: r
    r = mod(a, p)
  end function remainder

  function truncated(x) result(r)
    real, intent(in) :: x
    integer :: r
    r = int(x) + floor(x)
  end function truncated

  function guarded_rounding(x) result(r)
    real, intent(in) :: x
    integer :: r
    r = -1
    ! a nan only a member the condition masks out holds
    if (x == x) then
      r = nint(x) + int(x) + floor(x)
    end if
  end function guarded_rounding

  function lane_rounding(x) result(r)
    real, intent(in) :: x
    real :: r
    real :: a(4), b(4)
    integer :: i
    do i = 1, 4
      ! x / 0 in lane 2, which the condition below masks out
      a(i) = x / (i - 2)
    end do
    do i = 1, 4
      if (i /= 2) then
        b(i) = nint(a(i)) + int(a(i)) + floor(a(i))
      else
        b(i) = -1
      end if
    end do
    r = sum(b)
  end function lane_rounding
end module edges
"""

#: nint rounds the exact value half away from zero; adding 0.5 first
#: rounds too early at both ends of the binary64 range
NINT_EDGES = [(0.49999999999999994, 0), (4503599627370497.0, 4503599627370497),
              (-2.5, -3)]


@pytest.mark.parametrize("x,want", NINT_EDGES)
def test_nint_rounds_the_exact_value(x, want):
    assert call_intrinsic("nint", [x]) == want
    got = call_intrinsic("nint", [np.array([x])])
    assert got.dtype == np.int64 and got[0] == want


def test_integer_mod_is_exact_and_traps_a_zero_divisor():
    assert call_intrinsic("mod", [2**60 + 1, 2]) == 1
    got = call_intrinsic("mod", [np.array([2**60 + 1, -7]), 2])
    assert got.dtype == np.int64 and got.tolist() == [1, -1]
    for args in ([5, 0], [np.array([5, 6]), np.array([1, 0])]):
        with pytest.raises(FortranRuntimeError, match="mod by zero"):
            call_intrinsic("mod", args)


def test_integer_sign_and_dim_stay_integer_on_arrays():
    got = call_intrinsic("sign", [np.array([3, -4]), np.array([-1, 2])])
    assert got.dtype.kind == "i" and got.tolist() == [-3, 4]
    got = call_intrinsic("dim", [np.array([5, 1]), 3])
    assert got.dtype.kind == "i" and got.tolist() == [2, 0]


def test_nint_and_mod_edges_on_both_runtimes():
    from repro.runtime import MemberBatch
    from repro.runtime.vec import VecInterpreter

    xs = [x for x, _ in NINT_EDGES]
    batch = VecInterpreter.from_source(EDGES_SRC, seeds=[1, 2, 3])
    got = batch.call("edges", "rounded", [np.array(xs).view(MemberBatch)])
    assert np.asarray(got).tolist() == [want for _, want in NINT_EDGES]
    ints = np.array([2**60 + 1, 7, -7]).view(MemberBatch)
    assert np.asarray(batch.call("edges", "remainder", [ints, 2])).tolist() == [1, 1, -1]
    for interp in (Interpreter.from_source(EDGES_SRC), batch):
        assert interp.call("edges", "rounded", [xs[0]]) == 0
        assert interp.call("edges", "remainder", [2**60 + 1, 2]) == 1
        with pytest.raises(FortranRuntimeError, match="mod by zero"):
            interp.call("edges", "remainder", [5, 0])


@pytest.mark.parametrize("name", ["int", "nint", "floor"])
@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_no_integer_holds_a_nan_or_an_infinity(name, x):
    """``int``, ``nint`` and ``floor`` of a nan or an infinity raise a
    ``FortranRuntimeError`` naming the intrinsic, on a scalar (not Python's
    ``ValueError``/``OverflowError``) and on an array (not -2**63)."""
    with pytest.raises(FortranRuntimeError, match=f"^{name} of a nan"):
        call_intrinsic(name, [x])
    with np.errstate(all="ignore"), pytest.raises(
        FortranRuntimeError, match=f"^{name} of a nan"
    ):
        call_intrinsic(name, [np.array([1.5, x])])


def test_rounding_a_nan_raises_on_both_runtimes_unless_masked_out():
    from repro.runtime import MemberBatch
    from repro.runtime.vec import VecInterpreter

    def batch():
        return VecInterpreter.from_source(EDGES_SRC, seeds=[1, 2, 3])

    xs = [0.5, math.nan, -2.5]
    for function in ("rounded", "truncated"):
        with pytest.raises(FortranRuntimeError, match="of a nan"):
            Interpreter.from_source(EDGES_SRC).call("edges", function, [math.inf])
        with pytest.raises(FortranRuntimeError, match="of a nan"):
            batch().call("edges", function, [np.array(xs).view(MemberBatch)])
    # a nan, or an infinity in a lane, that the mask leaves out is silent
    for function, values in (("guarded_rounding", xs),
                             ("lane_rounding", [0.5, 1.0, -2.5])):
        interp = batch()
        got = interp.call("edges", function, [np.array(values).view(MemberBatch)])
        want = [Interpreter.from_source(EDGES_SRC).call("edges", function, [x])
                for x in values]
        assert np.asarray(got).tolist() == want
    assert interp.lane_regions == 2


def test_gamma_gives_ieee_values_at_poles_and_overflow():
    """Fortran does not trap: a pole or an overflow yields tgamma's IEEE
    result on scalars and arrays alike (under the ``np.errstate`` every
    model run holds)."""
    with np.errstate(all="ignore"):
        got = call_intrinsic("gamma", [np.array([0.0, -0.0, -1.0, 200.0, 3.0])])
    assert got[0] == np.inf and got[1] == -np.inf and np.isnan(got[2])
    assert got[3] == np.inf and got[4] == 2.0
    assert call_intrinsic("gamma", [0.0]) == math.inf
    assert math.isnan(call_intrinsic("gamma", [-2.0]))


def test_integer_power_with_a_negative_exponent_truncates_on_arrays():
    from repro.runtime.fpu import FPU

    fpu = FPU()
    bases = np.array([2, -2, 1, -1, -1, 3])
    exps = np.array([-1, -3, -4, -3, -2, 2])
    got = fpu.pow(bases, exps)
    want = [fpu.pow(int(b), int(e)) for b, e in zip(bases, exps)]
    assert got.dtype.kind == "i" and got.tolist() == want == [0, 0, 1, -1, 1, 9]
    with pytest.raises(FortranRuntimeError, match="division by zero"):
        fpu.pow(np.array([0, 2]), -1)
