"""Runtime implementations of the Fortran intrinsics the front end knows.

Every name in :data:`repro.fortran.intrinsics.EXPRESSION_INTRINSICS` has an
entry in :data:`INTRINSIC_FUNCTIONS` (``present`` is special-cased by the
interpreter because it needs the call frame).  Implementations follow
Fortran semantics rather than Python's where they differ:

* ``int``/``aint`` truncate toward zero, ``nint`` rounds half *away* from
  zero (Python/numpy round half to even);
* ``mod`` takes the sign of the first argument;
* ``sign`` transfers the sign of the second argument, honouring IEEE
  negative zero;
* ``floor``, ``int``, ``nint`` return integers; ``aint`` returns a real;
* ``max``/``min`` are variadic and elementwise, and keep integer type when
  every argument is an integer;
* ``reshape``/``spread`` use Fortran (column-major) element order.

Scalars in, scalars out: Python ``int``/``float``/``bool`` arguments produce
Python results; :class:`numpy.ndarray` arguments produce arrays.
"""

from __future__ import annotations

import math

import numpy as np

from ..fortran.intrinsics import EXPRESSION_INTRINSICS
from .values import FortranRuntimeError

__all__ = ["INTRINSIC_FUNCTIONS", "call_intrinsic"]

_F64 = np.finfo(np.float64)
_INT_HUGE = 2147483647  # default integer kind is 4 bytes


def _is_int(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, (bool, np.bool_))


def _scalarize(value, *inputs):
    """Return a Python scalar when no input was an array."""
    if any(isinstance(x, np.ndarray) for x in inputs):
        return value
    if isinstance(value, np.ndarray) and value.ndim == 0:
        value = value.item()
    if isinstance(value, np.generic):
        value = value.item()
    return value


def _real_unary(fn):
    def wrapped(x):
        return _scalarize(fn(x), x)

    wrapped.ufunc = fn  # what an array argument gets, without _scalarize
    return wrapped


def _vectorized(scalar_fn):
    """Scalar math.* function lifted elementwise over arrays."""

    def wrapped(x):
        if isinstance(x, np.ndarray):
            return np.vectorize(scalar_fn, otypes=[np.float64])(x)
        return scalar_fn(float(x))

    return wrapped


# --------------------------------------------------------------------------- #
# individual semantics
# --------------------------------------------------------------------------- #
def _gamma(x: float) -> float:
    # Fortran does not trap: a pole gives the IEEE result of tgamma (±inf
    # at ±0, nan at a negative integer or -inf), an overflow +inf
    try:
        return math.gamma(x)
    except ValueError:
        return math.copysign(math.inf, x) if x == 0 else math.nan
    except OverflowError:
        return math.inf


def _abs(x):
    if _is_int(x):
        return abs(int(x))
    return _scalarize(np.abs(x), x)


def _aint(x):
    return _scalarize(np.trunc(x).astype(np.float64) if isinstance(x, np.ndarray) else float(np.trunc(x)), x)


def _check_integral(name: str, x) -> None:
    """No integer holds a nan or an infinity: ``int``, ``nint`` and
    ``floor`` of one raise, on a scalar and on any element of an array."""
    if isinstance(x, np.ndarray):
        bad = x.dtype.kind == "f" and not np.isfinite(x).all()
    else:
        bad = isinstance(x, float) and not math.isfinite(x)
    if bad:
        raise FortranRuntimeError(f"{name} of a nan or an infinity")


def _int(x):
    _check_integral("int", x)
    if isinstance(x, np.ndarray):
        return np.trunc(x).astype(np.int64)
    return int(np.trunc(x))


def _nint(x):
    # round half away from zero from the exact fraction x - trunc(x):
    # adding 0.5 first would round before truncating (0.49999999999999994
    # and 2**52 + 1 would come out one too large)
    _check_integral("nint", x)
    if isinstance(x, np.ndarray):
        whole = np.trunc(x)
        frac = x - whole
        return (whole + (frac >= 0.5) - (frac <= -0.5)).astype(np.int64)
    whole = math.trunc(x)
    frac = x - whole
    return whole + (frac >= 0.5) - (frac <= -0.5)


def _floor(x):
    _check_integral("floor", x)
    if isinstance(x, np.ndarray):
        return np.floor(x).astype(np.int64)
    return int(np.floor(x))


def _real(x):
    if isinstance(x, np.ndarray):
        return x.astype(np.float64)
    return float(x)


def _int_typed(*args) -> bool:
    """Every argument an integer scalar or an integer-typed array."""
    return all(
        x.dtype.kind in "iu" if isinstance(x, np.ndarray) else _is_int(x)
        for x in args
    )


def _dim(a, b):
    if _is_int(a) and _is_int(b):
        return max(int(a) - int(b), 0)
    if _int_typed(a, b):
        return np.maximum(np.subtract(a, b), 0)
    return _scalarize(np.maximum(np.subtract(a, b), 0.0), a, b)


def _mod(a, p):
    # integer mod is exact integer arithmetic with the sign of a, and a
    # zero divisor is an error, as for integer division
    if _is_int(a) and _is_int(p):
        if p == 0:
            raise FortranRuntimeError("integer mod by zero")
        r = abs(int(a)) % abs(int(p))
        return -r if a < 0 else r
    if _int_typed(a, p):
        if np.any(np.equal(p, 0)):
            raise FortranRuntimeError("integer mod by zero")
        return np.fmod(a, p)
    return _scalarize(np.fmod(a, p), a, p)


def _sign(a, b):
    if _is_int(a) and _is_int(b):
        return abs(int(a)) if b >= 0 else -abs(int(a))
    if _int_typed(a, b):
        return np.where(np.less(b, 0), -np.abs(a), np.abs(a))
    return _scalarize(np.copysign(np.abs(a), b), a, b)


def _max(*args):
    if all(_is_int(a) for a in args):
        return max(int(a) for a in args)
    out = args[0]
    for a in args[1:]:
        out = np.maximum(out, a)
    return _scalarize(out, *args)


def _min(*args):
    if all(_is_int(a) for a in args):
        return min(int(a) for a in args)
    out = args[0]
    for a in args[1:]:
        out = np.minimum(out, a)
    return _scalarize(out, *args)


def _maxval(array):
    value = np.max(array)
    return int(value) if np.issubdtype(np.asarray(array).dtype, np.integer) else float(value)


def _minval(array):
    value = np.min(array)
    return int(value) if np.issubdtype(np.asarray(array).dtype, np.integer) else float(value)


def _sum(array, dim=None):
    if dim is not None:
        return np.sum(array, axis=int(dim) - 1)
    value = np.sum(array)
    return int(value) if np.issubdtype(np.asarray(array).dtype, np.integer) else float(value)


def _merge(tsource, fsource, mask):
    if isinstance(mask, np.ndarray) or isinstance(tsource, np.ndarray) or isinstance(fsource, np.ndarray):
        return np.where(mask, tsource, fsource)
    return tsource if mask else fsource


def _spread(source, dim, ncopies):
    axis = int(dim) - 1
    ncopies = int(ncopies)
    if not isinstance(source, np.ndarray):
        return np.full(ncopies, source, dtype=np.float64 if not _is_int(source) else np.int64)
    return np.repeat(np.expand_dims(source, axis), ncopies, axis=axis)


def _reshape(source, shape):
    flat = np.asarray(source).flatten(order="F")
    dims = tuple(int(d) for d in np.asarray(shape).reshape(-1))
    return np.reshape(flat, dims, order="F")


def _size(array, dim=None):
    arr = np.asarray(array)
    if dim is None:
        return int(arr.size)
    return int(arr.shape[int(dim) - 1])


def _atan2(y, x):
    return _scalarize(np.arctan2(y, x), y, x)


def _present(*_args):  # pragma: no cover - replaced by the interpreter
    raise NotImplementedError(
        "present() requires the call frame; the interpreter handles it"
    )


#: name -> implementation for every expression intrinsic.
INTRINSIC_FUNCTIONS: dict[str, object] = {
    "abs": _abs,
    "acos": _real_unary(np.arccos),
    "aint": _aint,
    "asin": _real_unary(np.arcsin),
    "atan": _real_unary(np.arctan),
    "atan2": _atan2,
    "cos": _real_unary(np.cos),
    "cosh": _real_unary(np.cosh),
    "dble": _real,
    "dim": _dim,
    "epsilon": lambda x: float(_F64.eps),
    "exp": _real_unary(np.exp),
    "floor": _floor,
    "huge": lambda x: _INT_HUGE if _is_int(x) else float(_F64.max),
    "int": _int,
    "log": _real_unary(np.log),
    "log10": _real_unary(np.log10),
    "max": _max,
    "maxval": _maxval,
    "merge": _merge,
    "min": _min,
    "minval": _minval,
    "mod": _mod,
    "nint": _nint,
    "real": _real,
    "sign": _sign,
    "sin": _real_unary(np.sin),
    "sinh": _real_unary(np.sinh),
    "size": _size,
    "sqrt": _real_unary(np.sqrt),
    "sum": _sum,
    "tan": _real_unary(np.tan),
    "tanh": _real_unary(np.tanh),
    "tiny": lambda x: float(_F64.tiny),
    "gamma": _vectorized(_gamma),
    "erf": _vectorized(math.erf),
    "erfc": _vectorized(math.erfc),
    "spread": _spread,
    "reshape": _reshape,
    "matmul": lambda a, b: np.matmul(a, b),
    "dot_product": lambda a, b: float(np.dot(a, b)),
    "count": lambda mask: int(np.count_nonzero(mask)),
    "any": lambda mask: bool(np.any(mask)),
    "all": lambda mask: bool(np.all(mask)),
    "present": _present,
    "trim": lambda s: s.rstrip(),
    "adjustl": lambda s: s.lstrip(),
    "len_trim": lambda s: len(s.rstrip()),
}

_missing = EXPRESSION_INTRINSICS - set(INTRINSIC_FUNCTIONS)
assert not _missing, f"intrinsics without runtime implementation: {_missing}"


def call_intrinsic(name: str, args: list, keywords: dict | None = None):
    """Invoke an expression intrinsic by (case-insensitive) name."""
    fn = INTRINSIC_FUNCTIONS[name.lower()]
    return fn(*args, **(keywords or {}))
