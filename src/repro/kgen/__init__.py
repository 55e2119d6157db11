"""Kernel generation: hot inner loops extracted into vectorized numpy.

The scalar interpreter spends most of its time in a handful of elemental
functions called from the microphysics and radiation inner loops.  This
package lifts those subprograms out of the *cached* ASTs — the same parse
the interpreter executes — and generates standalone numpy kernels:
straight-line math becomes array expressions, branches become sequential
``np.where`` merges, ``use``-associated constants are baked in as
literals, and calls between extractable functions compose.

A generated kernel is only trusted after :func:`verify_kernel` measures
its normalized RMS deviation (:func:`nrms`) from the scalar interpreter
over a sampled input grid and finds it within the conformance bound
(default ``1e-12``; the shipped targets reproduce the interpreter
bit-for-bit, nrms = 0).  Anything outside the vectorizable subset raises
:class:`KernelError` at extraction time instead of generating a kernel
that silently disagrees.

As in the paper's KGEN workflow, this is an offline tool: kernels are
extracted and checked against the model, never executed in its place —
the member-batched runtime (:mod:`repro.runtime.vec`) interprets every
call.

>>> from repro.kgen import extract_kernel, verify_kernel
>>> k = extract_kernel(None, "wv_saturation", "qsat_water")
>>> report = verify_kernel(k, ranges=(("t", 200.0, 320.0), ("p", 1e4, 1e5)))
>>> report.conformant
True
"""

from .extract import (
    DEFAULT_KERNEL_TARGETS,
    Kernel,
    KernelError,
    KernelReport,
    KernelTarget,
    extract_default_kernels,
    extract_kernel,
    nrms,
    verify_kernel,
)

__all__ = [
    "DEFAULT_KERNEL_TARGETS",
    "Kernel",
    "KernelError",
    "KernelReport",
    "KernelTarget",
    "extract_default_kernels",
    "extract_kernel",
    "nrms",
    "verify_kernel",
]
