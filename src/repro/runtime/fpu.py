"""Floating-point unit model for the numerical interpreter.

The paper's compiler-flag experiments (AVX2/FMA, §6) hinge on the fact that
the *same* Fortran source produces bit-different output when the compiler
contracts ``a*b + c`` into a fused multiply-add: the intermediate product is
not rounded, so results differ at the ULP level and the divergence grows
through the model's nonlinear physics.  :class:`FPConfig` captures exactly
that degree of freedom.

All arithmetic is round-to-nearest IEEE-754 binary64 (the model's ``r8``);
the FMA path computes ``round(a*b + c)`` with a *single* rounding using the
classic Dekker/Knuth error-free transformations, so it is deterministic and
platform independent — no 80-bit x87 or hardware-FMA dependence.

Knobs
-----
``fma``
    Enable fused contraction of ``a*b + c`` / ``a*b - c`` / ``c + a*b`` /
    ``c - a*b`` patterns during expression evaluation.
``fma_modules``
    When not ``None``, restrict contraction to the named Fortran modules
    (the paper recompiles single directories with different flags; this is
    the per-module analogue).
``flush_to_zero``
    Flush subnormal results of arithmetic to (signed) zero, modelling the
    Intel ``-ftz`` behaviour the paper's builds enable by default.
"""

from __future__ import annotations

import numpy as np

from .config import FPConfig
from .values import FortranRuntimeError

__all__ = ["FPConfig", "FPU"]

#: Dekker splitting constant for binary64: 2**27 + 1.
_SPLIT = 134217729.0

#: Smallest positive normal binary64 number (threshold for flush-to-zero).
_MIN_NORMAL = np.finfo(np.float64).tiny


def _integer_typed(x) -> bool:
    """An integer scalar or an integer-typed array (never a logical)."""
    if isinstance(x, np.ndarray):
        return x.dtype.kind in "iu"
    return isinstance(x, (int, np.integer)) and not isinstance(
        x, (bool, np.bool_)
    )


def _two_sum(a, b):
    """Error-free sum: returns (s, e) with s = fl(a+b) and a+b = s+e exactly."""
    s = a + b
    v = s - a
    e = (a - (s - v)) + (b - v)
    return s, e


def _two_product(a, b):
    """Error-free product via Dekker splitting: a*b = p + e exactly."""
    p = a * b
    a_hi = a * _SPLIT
    a_hi = a_hi - (a_hi - a)
    a_lo = a - a_hi
    b_hi = b * _SPLIT
    b_hi = b_hi - (b_hi - b)
    b_lo = b - b_hi
    e = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return p, e


def _int_power(a, b):
    """Integer ``a ** b`` over arrays: a negative exponent truncates
    ``1 / a**-b`` toward zero, as the scalar path does (1 for ``a == 1``,
    ``±1`` for ``a == -1``, 0 for ``|a| > 1``)."""
    negative = np.less(b, 0)
    if not np.any(negative):
        return np.power(a, b)
    if np.any(np.equal(a, 0) & negative):
        raise FortranRuntimeError("integer division by zero")
    whole = np.power(a, np.where(negative, 0, b))
    odd = np.not_equal(np.remainder(b, 2), 0)
    inverse = np.where(np.equal(a, 1) | (np.equal(a, -1) & ~odd), 1,
                       np.where(np.equal(a, -1), -1, 0))
    return np.where(negative, inverse, whole)


class FPU:
    """Arithmetic kernel the interpreter routes every real operation through.

    Scalars and :class:`numpy.ndarray` operands are both supported; all
    operations are elementwise.  Integer-only operations follow Fortran
    semantics (notably truncating integer division) and bypass the
    floating-point knobs entirely.
    """

    def __init__(self, config: FPConfig | None = None):
        self.config = config or FPConfig()
        self._ftz = self.config.flush_to_zero

    # ------------------------------------------------------------- helpers
    @staticmethod
    def _both_int(a, b) -> bool:
        return isinstance(a, (int, np.integer)) and not isinstance(
            a, (bool, np.bool_)
        ) and isinstance(b, (int, np.integer)) and not isinstance(b, (bool, np.bool_))

    def _finish(self, x):
        """Apply flush-to-zero to a float result when configured."""
        if not self._ftz:
            return x
        if isinstance(x, np.ndarray):
            # an integer array (a lane region's loop variable) has nothing
            # to flush
            if x.dtype.kind == "f":
                np.copyto(x, 0.0, where=np.abs(x) < _MIN_NORMAL)
            return x
        if x != 0.0 and -_MIN_NORMAL < x < _MIN_NORMAL:
            return 0.0
        return x

    # ---------------------------------------------------------- operations
    def add(self, a, b):
        if self._both_int(a, b):
            return a + b
        return self._finish(a + b)

    def sub(self, a, b):
        if self._both_int(a, b):
            return a - b
        return self._finish(a - b)

    def mul(self, a, b):
        if self._both_int(a, b):
            return a * b
        return self._finish(a * b)

    def div(self, a, b):
        # Fortran integer division truncates toward zero, for integer
        # scalars and integer arrays alike
        if self._both_int(a, b):
            if b == 0:
                raise FortranRuntimeError("integer division by zero")
            q = abs(a) // abs(b)
            return -q if (a < 0) != (b < 0) else q
        if _integer_typed(a) and _integer_typed(b):
            if np.any(np.equal(b, 0)):
                raise FortranRuntimeError("integer division by zero")
            q = np.abs(a) // np.abs(b)
            return np.where(np.less(a, 0) != np.less(b, 0), -q, q)
        try:
            return self._finish(a / b)
        except ZeroDivisionError:
            # a real zero divisor gives the IEEE result (±inf or nan):
            # Fortran does not trap
            with np.errstate(divide="ignore", invalid="ignore"):
                return self._finish(float(np.float64(a) / np.float64(b)))

    def pow(self, a, b):
        if self._both_int(a, b):
            if b < 0:
                # Fortran: integer power with negative exponent truncates.
                return self.div(1, a ** (-b))
            return a ** b
        if _integer_typed(a) and _integer_typed(b):
            return _int_power(a, b)
        if isinstance(b, (int, np.integer)):
            # integer exponent on a real base is exact repeated multiplication
            return self._finish(np.power(np.float64(a) if not isinstance(a, np.ndarray) else a, int(b)))
        return self._finish(np.power(a, b))

    def fma(self, a, b, c):
        """``round(a*b + c)`` with a single rounding (fused multiply-add)."""
        a = np.float64(a) if not isinstance(a, np.ndarray) else a.astype(np.float64, copy=False)
        b = np.float64(b) if not isinstance(b, np.ndarray) else b.astype(np.float64, copy=False)
        c = np.float64(c) if not isinstance(c, np.ndarray) else c.astype(np.float64, copy=False)
        p, e = _two_product(a, b)
        s, t = _two_sum(p, c)
        result = s + (e + t)
        if not isinstance(result, np.ndarray):
            result = float(result)
        return self._finish(result)
