"""Kernel extraction: generated numpy kernels conform to the interpreter.

The extractor is useful exactly when its output is *provably* the same
computation as the scalar reference, so the tests lean on
:func:`verify_kernel`'s normalized-RMS gate: every default target must
come out bit-identical (nrms == 0), and the synthetic cases check the
if->where mask merge against hand-computed values as well as the
interpreter.  Constructs outside the vectorizable subset must raise
:class:`KernelError` rather than produce a silently wrong kernel.
"""

import numpy as np
import pytest

from repro.kgen import (
    DEFAULT_KERNEL_TARGETS,
    KernelError,
    extract_default_kernels,
    extract_kernel,
    nrms,
    verify_kernel,
)
from repro.runtime.interpreter import Interpreter

SYNTH_SRC = """
module synth
  implicit none
  real, parameter :: scale = 2.5
contains
  function piecewise(x) result(y)
    real, intent(in) :: x
    real :: y
    if (x > 1.0) then
      y = scale * x
    else if (x > 0.0) then
      y = x * x
    else
      y = -x
    end if
  end function piecewise

  function doubled(x) result(y)
    real, intent(in) :: x
    real :: y
    y = piecewise(x) + piecewise(x)
  end function doubled

  function looped(x) result(y)
    real, intent(in) :: x
    real :: y
    integer :: i
    y = 0.0
    do i = 1, 3
      y = y + x
    end do
  end function looped

  function dyn_loop(x, n) result(y)
    real, intent(in) :: x
    integer, intent(in) :: n
    real :: y
    integer :: i
    y = 0.0
    do i = 1, n
      y = y + x
    end do
  end function dyn_loop

  elemental subroutine split(x, lo, hi)
    real, intent(in) :: x
    real, intent(out) :: lo
    real, intent(out) :: hi
    if (x > 0.0) then
      hi = x * scale
      lo = 0.0
    else
      hi = 0.0
      lo = x * scale
    end if
  end subroutine split

  function arrayed(x) result(y)
    real, intent(in) :: x
    real :: buf(4)
    real :: y
    buf(1) = x
    y = buf(1)
  end function arrayed

  subroutine bump(x)
    real, intent(inout) :: x
    x = x + 1.0
  end subroutine bump

  function doubled_scale() result(y)
    real :: y
    y = scale + scale
  end function doubled_scale
end module synth
"""


@pytest.fixture(scope="module")
def synth_interp():
    return Interpreter.from_source(SYNTH_SRC, collect_coverage=False)


class TestSyntheticExtraction:
    def test_if_chain_becomes_where_merge(self, synth_interp):
        kernel = extract_kernel(synth_interp, "synth", "piecewise")
        x = np.asarray([-2.0, 0.5, 3.0])
        np.testing.assert_array_equal(kernel(x), [2.0, 0.25, 7.5])
        assert "np.where" in kernel.source

    def test_matches_interpreter_per_element(self, synth_interp):
        kernel = extract_kernel(synth_interp, "synth", "piecewise")
        report = verify_kernel(
            kernel,
            synth_interp,
            samples={"x": np.linspace(-3.0, 3.0, 61)},
        )
        assert report.n_samples == 61
        assert report.nrms == 0.0
        assert report.conformant

    def test_module_constant_baked_as_literal(self, synth_interp):
        kernel = extract_kernel(synth_interp, "synth", "piecewise")
        assert "2.5" in kernel.source
        assert "scale" not in kernel.source

    def test_same_module_call_extracted_as_dependency(self, synth_interp):
        kernel = extract_kernel(synth_interp, "synth", "doubled")
        assert "_k_piecewise" in kernel.source
        np.testing.assert_array_equal(
            kernel(np.asarray([3.0])), [15.0]
        )

    def test_bounded_do_loop_unrolled(self, synth_interp):
        kernel = extract_kernel(synth_interp, "synth", "looped")
        np.testing.assert_array_equal(
            kernel(np.asarray([1.5, -2.0])), [4.5, -6.0]
        )
        report = verify_kernel(
            kernel,
            synth_interp,
            samples={"x": np.linspace(-3.0, 3.0, 31)},
        )
        assert report.nrms == 0.0

    def test_runtime_do_bound_refused(self, synth_interp):
        with pytest.raises(KernelError, match="compile-time"):
            extract_kernel(synth_interp, "synth", "dyn_loop")

    def test_elemental_subroutine_extracts_outputs(self, synth_interp):
        kernel = extract_kernel(synth_interp, "synth", "split")
        assert kernel.is_subroutine
        assert kernel.out_names == ["lo", "hi"]
        lo, hi = kernel(np.asarray([2.0, -2.0]))
        np.testing.assert_array_equal(lo, [0.0, -5.0])
        np.testing.assert_array_equal(hi, [5.0, 0.0])
        report = verify_kernel(
            kernel,
            synth_interp,
            samples={"x": np.linspace(-3.0, 3.0, 13)},
        )
        assert report.nrms == 0.0

    def test_array_local_refused(self, synth_interp):
        with pytest.raises(KernelError, match="array local"):
            extract_kernel(synth_interp, "synth", "arrayed")

    def test_subroutine_refused(self, synth_interp):
        with pytest.raises(KernelError, match="subroutine"):
            extract_kernel(synth_interp, "synth", "bump")

    def test_unknown_function_refused(self, synth_interp):
        with pytest.raises(KernelError, match="no function"):
            extract_kernel(synth_interp, "synth", "nope")


class TestDefaultTargets:
    def test_all_default_kernels_bit_identical(self):
        reports = extract_default_kernels()
        assert len(reports) == len(DEFAULT_KERNEL_TARGETS)
        for report in reports:
            assert report.n_samples == 256
            assert report.nrms == 0.0, report.kernel.function
            assert report.conformant

    def test_qsat_water_pulls_in_svp_kernel(self):
        kernel = extract_kernel(None, "wv_saturation", "qsat_water")
        assert "_k_goffgratch_svp" in kernel.source


@pytest.fixture(scope="module")
def qsat_kernel():
    """A two-argument (``t``, ``p``) kernel from the control build."""
    return extract_kernel(None, "wv_saturation", "qsat_water")


class TestVerification:
    def test_nrms_zero_for_identical(self):
        a = np.asarray([1.0, 2.0, 3.0])
        assert nrms(a, a) == 0.0

    def test_nrms_normalizes_by_reference_scale(self):
        want = np.asarray([0.0, 100.0])
        got = np.asarray([1.0, 100.0])
        assert nrms(got, want) == pytest.approx(
            np.sqrt(0.5) / 100.0
        )

    def test_nrms_zero_reference_uses_unit_scale(self):
        assert nrms(np.asarray([3.0]), np.asarray([0.0])) == 3.0

    @pytest.mark.parametrize(
        ("grid", "match"),
        [
            ({}, "samples or ranges"),
            ({"samples": {"t": [250.0]}}, "for argument 'p'"),
            ({"ranges": (("t", 200.0, 300.0),)}, "for argument 'p'"),
            (
                {"samples": {"t": [250.0, 260.0], "p": [1e4]}},
                "'t' has 2, 'p' has 1",
            ),
            (
                {"samples": {"t": [250.0] * 3, "p": [1e4] * 2}},
                "'t' has 3, 'p' has 2",
            ),
            ({"samples": {"t": [], "p": []}}, "no samples for argument"),
            (
                {
                    "ranges": (("t", 200.0, 300.0), ("p", 1e4, 1e5)),
                    "n_samples": 0,
                },
                "no samples for argument",
            ),
            (
                {"samples": {"t": [[250.0]], "p": [[1e4]]}},
                "argument 't' must be 1-D",
            ),
        ],
        ids=[
            "neither",
            "samples-missing-p",
            "ranges-missing-p",
            "lengths-2-1",
            "lengths-3-2",
            "empty-samples",
            "empty-ranges",
            "not-1d",
        ],
    )
    def test_verify_requires_samples_or_ranges(self, qsat_kernel, grid, match):
        # the grid is checked before the reference model is even built
        with pytest.raises(ValueError, match=match):
            verify_kernel(qsat_kernel, **grid)

    def test_argument_free_kernel_is_measured_once(self, synth_interp):
        kernel = extract_kernel(synth_interp, "synth", "doubled_scale")
        report = verify_kernel(kernel, synth_interp, samples={})
        assert report.n_samples == 1
        assert report.nrms == 0.0
