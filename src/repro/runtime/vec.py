"""Member-batched (vectorized) execution of the numerical interpreter.

One compiled evaluation advances *all* members of an ensemble at once:
per-member ``pertlim`` draws and PRNG seeds become leading-axis arrays
(marked :class:`~repro.runtime.values.MemberBatch`), scalar operations
run over the member axis as numpy ufuncs on plain arrays, and
near-identical control flow diverges via ``where``-masked evaluation — an
``if`` whose condition varies per member executes every branch under a
boolean member mask, blending stores so inactive members keep their old
values.

Design rules (enforced, not assumed):

* **Only REAL and LOGICAL arrays carry the member axis.**  INTEGER arrays
  (neighbour tables, index maps) stay member-uniform plain ndarrays so
  they remain usable as subscripts; a member-varying store into one raises
  :class:`~repro.runtime.values.VectorizationError`.
* **Scalars promote on first member-varying store.**  A scalar slot that
  receives a member-varying value is rebound to a fresh ``(n,)``
  :class:`MemberBatch`; the copy-on-rebind keeps ``a = b`` from aliasing.
* **Divergence is masked, never forked.**  A member-batched ``if``
  condition must be a batch *scalar* (shape ``(n,)``); branch bodies run
  under the branch's member mask and every store blends against it.
  Constructs that cannot be expressed under a partial mask — ``return`` /
  ``exit`` / ``cycle`` / ``stop``, PRNG draws, ``outfld`` history writes,
  member-varying loop bounds or ``select`` selectors — raise
  :class:`VectorizationError` instead of silently mixing members.
* **Every batch operation is compiled.**  Arithmetic, comparisons,
  logical operators, intrinsics, element loads and stores and the FPU's
  operations strip the batch marker, put the member axis first in every
  index they build, lift only where model ranks differ
  (:func:`~repro.runtime.values.lift_batches`, the one statement of the
  member-axis rule) and run numpy on plain arrays.  ``MemberBatch`` keeps
  no arithmetic: an operation that reaches its ufunc or subscript guard
  raises :class:`VectorizationError`, so the batch falls back to the
  serial interpreter.
* **Bit-identity with the scalar interpreter.**  Every arithmetic path
  runs the scalar runtime's ufuncs or FPU arithmetic on the lifted
  operands, the batched PRNG reproduces each member's scalar stream
  exactly, and statement/coverage accounting tracks per-member totals
  under masks — the conformance suite checks outputs, coverage and draw
  counts per member against :func:`repro.runtime.run_model`.

The stable entry point is :func:`run_model_batch`, which mirrors
:func:`repro.runtime.run_model` over a list of :class:`RunConfig` members
that share everything but ``pertlim`` and ``seed``, and slices one
:class:`RunResult` per member out of the batch.
"""

from __future__ import annotations

import dataclasses
import operator
from typing import Callable, Optional

import numpy as np

from ..fortran.ast_nodes import (
    Assignment,
    DoLoop,
    IfBlock,
    SectionRange,
    Stmt,
    WhereBlock,
)
from .compiler import NodeCompiler, _MISSING
from .coverage import CoverageTrace
from .fpu import FPU, _integer_typed
from .interpreter import _DTYPES, Frame, Interpreter
from .intrinsics import INTRINSIC_FUNCTIONS
from .batched_prng import BatchedPRNGStreams
from .lanes import plan_region
from .result import RunResult
from .values import (
    ComponentRef,
    DerivedValue,
    ElementRef,
    FortranRuntimeError,
    IntentViolationError,
    MemberBatch,
    Ref,
    Scope,
    ScopeRef,
    StatementLimitExceeded,
    VectorizationError,
    lift_batches,
)

__all__ = [
    "VEC_INTRINSICS",
    "VecFPU",
    "VecInterpreter",
    "VecNodeCompiler",
    "batch_key",
    "run_model_batch",
]

_INT_HUGE = 2147483647
_F64_MAX = float(np.finfo(np.float64).max)
_ALL = slice(None)
_ND = np.ndarray
#: ndarray subscripting without the ``MemberBatch`` guard (views keep the
#: marker)
_getitem = np.ndarray.__getitem__


def _model_axes(base: np.ndarray) -> tuple[int, ...]:
    return tuple(range(1, base.ndim))


# --------------------------------------------------------------------------- #
# Member-batch-aware intrinsics
# --------------------------------------------------------------------------- #
def _vec_sum(array, dim=None):
    if isinstance(array, MemberBatch):
        base = np.asarray(array)
        if dim is not None:
            # model axis d (1-based) is base axis d: axis 0 is the member axis
            return np.sum(base, axis=int(dim)).view(MemberBatch)
        return np.sum(base, axis=_model_axes(base)).view(MemberBatch)
    return INTRINSIC_FUNCTIONS["sum"](array, dim)


def _reduction(name: str, reduce):
    """Intrinsic ``name`` reducing a batch over its model axes only."""
    base = INTRINSIC_FUNCTIONS[name]

    def reduction(array):
        if isinstance(array, MemberBatch):
            plain = np.asarray(array)
            return reduce(plain, axis=_model_axes(plain)).view(MemberBatch)
        return base(array)

    return reduction


def _vec_size(array, dim=None):
    if isinstance(array, MemberBatch):
        base = np.asarray(array)
        if dim is None:
            size = 1
            for extent in base.shape[1:]:
                size *= extent
            return size
        return int(base.shape[int(dim)])
    return INTRINSIC_FUNCTIONS["size"](array, dim)


def _vec_count(mask):
    if isinstance(mask, MemberBatch):
        base = np.asarray(mask)
        if base.ndim == 1:
            return base.astype(np.int64).view(MemberBatch)
        out = np.count_nonzero(base, axis=_model_axes(base))
        return np.asarray(out, dtype=np.int64).view(MemberBatch)
    return INTRINSIC_FUNCTIONS["count"](mask)


def _elementwise(name: str, fold=None):
    """The scalar implementation of intrinsic ``name`` on plain operands
    (lifted only where model ranks differ), re-marked as a batch; a
    variadic ``max``/``min`` folds its operands with ``fold``, and a
    one-argument math intrinsic calls its ufunc directly."""
    base = INTRINSIC_FUNCTIONS[name]
    direct = getattr(base, "ufunc", None)

    def elementwise(*args):
        for arg in args:
            if type(arg) is MemberBatch:
                if direct is not None:
                    return direct(arg.view(_ND)).view(MemberBatch)
                if len(args) == 2:
                    plain = _plain_pair(*args)
                else:
                    plain = _plain(args)
                if fold is None:
                    return base(*plain).view(MemberBatch)
                out = plain[0]
                for other in plain[1:]:
                    out = fold(out, other)
                return out.view(MemberBatch)
        return base(*args)

    return elementwise


def _vec_huge(x):
    if isinstance(x, MemberBatch):
        if np.issubdtype(np.asarray(x).dtype, np.integer):
            return _INT_HUGE
        return _F64_MAX
    return INTRINSIC_FUNCTIONS["huge"](x)


def _batch_unsupported(name: str):
    base = INTRINSIC_FUNCTIONS[name]

    def wrapped(*args, **kwargs):
        if any(isinstance(a, MemberBatch) for a in (*args, *kwargs.values())):
            raise VectorizationError(
                f"intrinsic {name!r} over a member batch is not supported "
                "by the vectorized runtime"
            )
        return base(*args, **kwargs)

    return wrapped


#: intrinsics computed element by element, so one call on lifted plain
#: operands serves every member
_ELEMENTWISE = (
    "abs", "acos", "aint", "asin", "atan", "atan2", "cos", "cosh", "dble",
    "dim", "erf", "erfc", "exp", "floor", "gamma", "int", "log", "log10",
    "merge", "mod", "nint", "real", "sign", "sin", "sinh",
    "sqrt", "tan", "tanh",
)

#: intrinsics with an integer result, which no nan or infinity has
_ROUNDING = ("floor", "int", "nint")

#: INTRINSIC_FUNCTIONS with member-batch-aware replacements: elementwise
#: ones strip and lift batches, and every implementation that reduces,
#: reshapes, or otherwise collapses the array it is given (and so would
#: silently fold the member axis into the model) keeps the member axis
VEC_INTRINSICS: dict[str, object] = {
    **INTRINSIC_FUNCTIONS,
    **{name: _elementwise(name) for name in _ELEMENTWISE},
    "max": _elementwise("max", np.maximum),
    "min": _elementwise("min", np.minimum),
    "sum": _vec_sum,
    "maxval": _reduction("maxval", np.max),
    "minval": _reduction("minval", np.min),
    "size": _vec_size,
    "count": _vec_count,
    "any": _reduction("any", np.any),
    "all": _reduction("all", np.all),
    "huge": _vec_huge,
    "spread": _batch_unsupported("spread"),
    "reshape": _batch_unsupported("reshape"),
    "matmul": _batch_unsupported("matmul"),
    "dot_product": _batch_unsupported("dot_product"),
}


# --------------------------------------------------------------------------- #
# Lifted arithmetic
# --------------------------------------------------------------------------- #
def _plain(values, model_ndim: Optional[int] = None) -> list:
    """``values`` as plain numpy operands: batches lose their marker, and
    the lifting rule (:func:`~repro.runtime.values.lift_batches`) runs
    only when a batch's model rank is below the operands' highest (or
    ``model_ndim``)."""
    if model_ndim is None:
        ranks = [v.ndim - (type(v) is MemberBatch) for v in values
                 if isinstance(v, _ND)]
        model_ndim = max(ranks, default=0)
    if any(type(v) is MemberBatch and v.ndim <= model_ndim for v in values):
        return lift_batches(values, model_ndim)
    return [v.view(_ND) if type(v) is MemberBatch else v for v in values]


def _plain_pair(l, r):
    """Operands ``l, r`` (at least one a batch) as plain numpy operands,
    lifted (:func:`~repro.runtime.values.lift_batches`) only where their
    model ranks differ."""
    if type(l) is MemberBatch:
        if type(r) is MemberBatch:
            if l.ndim == r.ndim:
                return l.view(_ND), r.view(_ND)
        elif not isinstance(r, _ND) or r.ndim < l.ndim:
            return l.view(_ND), r
    elif not isinstance(l, _ND) or l.ndim < r.ndim:
        return l, r.view(_ND)
    return lift_batches((l, r))


class VecFPU(FPU):
    """The FPU on plain operands.

    Each operation with a batch operand strips the batch marker, lifts
    only where model ranks differ, runs the scalar FPU's arithmetic on
    plain arrays and marks the result as a batch, so flush-to-zero,
    integer division and the FMA's Dekker split run plain ufuncs.
    """


def _lifting(method):
    def op(self, *args):
        for arg in args:
            if type(arg) is MemberBatch:
                plain = _plain_pair(*args) if len(args) == 2 else _plain(args)
                return method(self, *plain).view(MemberBatch)
        return method(self, *args)

    return op


for _name in ("add", "sub", "mul", "div", "pow", "fma"):
    setattr(VecFPU, _name, _lifting(getattr(FPU, _name)))


def _logical(ufunc, scalar):
    """``.and.``/``.or.`` on operands that are not member batches."""

    def op(l, r):
        if isinstance(l, _ND) or isinstance(r, _ND):
            return ufunc(l, r)
        return scalar(bool(l), bool(r))

    return op


#: binary operators the vectorized compiler runs inline, with the operation
#: operands without a batch keep and the ufunc that batches take
_INLINE_BINOPS = {
    "+": (operator.add, np.add),
    "-": (operator.sub, np.subtract),
    "*": (operator.mul, np.multiply),
    "==": (operator.eq, np.equal),
    "/=": (operator.ne, np.not_equal),
    "<": (operator.lt, np.less),
    "<=": (operator.le, np.less_equal),
    ">": (operator.gt, np.greater),
    ">=": (operator.ge, np.greater_equal),
    ".and.": (_logical(np.logical_and, operator.and_), np.logical_and),
    ".or.": (_logical(np.logical_or, operator.or_), np.logical_or),
}


# --------------------------------------------------------------------------- #
# Lane regions: values and masks
# --------------------------------------------------------------------------- #
# Inside a lane region (see repro.runtime.lanes) the loop's iterations are a
# rank-1 model axis of length L: a lane value is a plain ``(L,)`` array when
# every member agrees and an ``(n, L)`` batch otherwise, while lane-invariant
# values keep their usual form.  The region's mask is None, ``(L,)`` (lanes
# only) or ``(n, L)``.

#: the assigned-mark of a private every lane of every member wrote
_EVERY_LANE = object()

_SLOT_DTYPES = {"b": np.bool_, "i": np.int64, "f": np.float64}


def _lane_operand(value):
    """A region value as a plain operand broadcasting over ``(n, L)``: a
    batch scalar gains a lane axis."""
    if type(value) is MemberBatch:
        plain = value.view(_ND)
        return plain[:, None] if plain.ndim == 1 else plain
    return value


def _slot_kind(current) -> Optional[str]:
    """The dtype kind of a scalar slot holding ``current``."""
    if isinstance(current, _ND):
        return current.dtype.kind
    if isinstance(current, (bool, np.bool_)):
        return "b"
    if isinstance(current, (int, np.integer)):
        return "i"
    if isinstance(current, (float, np.floating)):
        return "f"
    return None


def _coerce_like(value, current):
    """``value`` in the type of the scalar slot holding ``current``: the
    scalar runtime's store coercion, elementwise (an unsafe float-to-int
    cast truncates toward zero, as ``int(np.trunc(x))`` does)."""
    kind = _slot_kind(current)
    if kind not in _SLOT_DTYPES:
        return value
    if isinstance(value, _ND):
        if value.dtype.kind == kind:
            return value
        return value.astype(_SLOT_DTYPES[kind])
    if kind == "i":
        if isinstance(value, (float, np.floating)):
            return int(np.trunc(value))
        return int(value)
    return float(value) if kind == "f" else bool(value)


def _lane_value(value, lane: int):
    """Lane ``lane`` of a region value, as an independent value."""
    if type(value) is MemberBatch:
        plain = value.view(_ND)
        return (plain if plain.ndim == 1 else plain[:, lane]).copy().view(
            MemberBatch
        )
    if isinstance(value, _ND):
        return value[lane].item()
    return value


def _last_assigned(value, mark):
    """A private's value after its region: per member, the value of the
    last lane that assigned it.  A region starts each private from its
    old value and masked stores blend against it, so a member no lane
    assigned reads its old value in every lane."""
    if mark is _EVERY_LANE:
        return _lane_value(value, -1)
    if mark.ndim == 1:
        return _lane_value(value, int(np.flatnonzero(mark)[-1]))
    n, lanes = mark.shape
    last = lanes - 1 - np.argmax(mark[:, ::-1], axis=1)
    plain = np.broadcast_to(_lane_operand(value), mark.shape)
    return plain[np.arange(n), last].view(MemberBatch)


class _FrameNames:
    """What a lane plan asks of the runtime (:class:`repro.runtime.lanes.
    Names`), answered from one frame."""

    __slots__ = ("interp", "frame")

    def __init__(self, interp, frame):
        self.interp = interp
        self.frame = frame

    def kind(self, key):
        value = self.interp._lane_lookup(self.frame, key)
        if value is _MISSING:
            return None
        if isinstance(value, _ND):
            return "array"
        return "derived" if isinstance(value, DerivedValue) else "scalar"

    def procedure(self, name):
        resolved = self.interp._lookup_proc(self.frame.module, name, frozenset())
        if resolved is None:
            return None
        mrt, sub = resolved
        callee = Frame(mrt, sub, Scope(f"{mrt.node.name}:{sub.name}"))
        return sub, _FrameNames(self.interp, callee)


# --------------------------------------------------------------------------- #
# Compiler: masked control flow and member-aware stores
# --------------------------------------------------------------------------- #
class VecNodeCompiler(NodeCompiler):
    """Closure compiler whose control flow and stores honour member masks.

    Every batch operation is compiled: each closure strips the batch
    marker, subscripts with the member axis leading and lifts only where
    model ranks differ, so no batch reaches a ``MemberBatch`` override.
    All divergence state lives on the interpreter (``interp._mask``,
    ``interp._extra_statements``), so the compiled closures stay shareable
    per AST node exactly like the scalar compiler's.
    """

    __slots__ = ()

    _intrinsic_table = VEC_INTRINSICS

    # ------------------------------------------------------ arithmetic
    @staticmethod
    def _negate(value):
        if type(value) is MemberBatch:
            return np.negative(value.view(_ND)).view(MemberBatch)
        return -value

    def _build_binop(self, node):
        fpu = self.interp.fpu
        op = node.op
        if op in ("/", "**"):
            return self._build_divide_or_power(node)
        pair = _INLINE_BINOPS.get(op)
        if pair is None or (
            op in ("+", "-", "*")
            and (fpu._ftz or (op != "*" and fpu.config.fma))
        ):
            # FPU-routed (FTZ, FMA): VecFPU strips and lifts
            return NodeCompiler._build_binop(self, node)
        scalar_op, ufunc = pair
        left = self.expr(node.left)
        right = self.expr(node.right)

        def run(frame):
            l = left(frame)
            r = right(frame)
            if type(l) is MemberBatch or type(r) is MemberBatch:
                return ufunc(*_plain_pair(l, r)).view(MemberBatch)
            return scalar_op(l, r)

        return run

    def _build_divide_or_power(self, node):
        """``/`` and ``**``: on batches, one call on plain operands — a
        float division is ``np.true_divide`` and a power ``np.power``, with
        an integer exponent as a Python int as the FPU passes it, while
        integer operations and flush-to-zero keep the FPU's arithmetic.
        Under a mask, the integer faults of masked-out lanes and members
        are spared first (:meth:`VecInterpreter._spare_faults`)."""
        interp = self.interp
        fpu = interp.fpu
        power = node.op == "**"
        scalar = (FPU.pow if power else FPU.div).__get__(fpu)
        ftz = fpu._ftz
        left = self.expr(node.left)
        right = self.expr(node.right)

        def run(frame):
            l = left(frame)
            r = right(frame)
            batch = type(l) is MemberBatch or type(r) is MemberBatch
            if batch:
                l, r = _plain_pair(l, r)
            if interp._mask is not None:
                l, r = interp._spare_faults(l, r, node.op, batch)
            if not batch:
                return scalar(l, r)
            if ftz or (_integer_typed(l) and _integer_typed(r)):
                return scalar(l, r).view(MemberBatch)
            if power:
                if isinstance(r, (int, np.integer)):
                    r = int(r)
                return np.power(l, r).view(MemberBatch)
            return np.true_divide(l, r).view(MemberBatch)

        return run

    def _build_unary(self, node):
        if node.op not in ("-", ".not."):
            return NodeCompiler._build_unary(self, node)
        operand = self.expr(node.operand)
        if node.op == "-":
            negate = self._negate
            return lambda frame: negate(operand(frame))

        def run(frame):
            value = operand(frame)
            if type(value) is MemberBatch:
                return np.logical_not(value.view(_ND)).view(MemberBatch)
            if isinstance(value, np.ndarray):
                return np.logical_not(value)
            return not value

        return run

    def _build_element_load(self, args):
        interp = self.interp
        plain_load = NodeCompiler._build_element_load(self, args)
        index_fn = self._build_index(args, member_axis=True)
        lane_index = self._build_lane_index(args)

        def load(container, frame):
            if interp._lanes is not None:
                return interp._lane_load(container, lane_index(frame))
            if type(container) is not MemberBatch:
                return plain_load(container, frame)
            # a view: every store copies it, and an if-condition copies
            # it before it becomes a member mask
            return _getitem(container, index_fn(frame))

        return load

    def _build_lane_index(self, args) -> Callable:
        """A subscript list inside a lane region: 0-based ints, and index
        arrays for lane-valued subscripts (without the member axis)."""
        if any(isinstance(a, SectionRange) for a in args):
            return self._build_index(args)
        fns = [self.expr(a) for a in args]
        subscript = self.interp._lane_subscript
        return lambda frame: tuple([subscript(fn(frame)) for fn in fns])

    def _intrinsic(self, name: str) -> Optional[Callable]:
        """``mod``, ``int``, ``nint`` and ``floor`` spare the faults of
        masked-out lanes and members first (a zero divisor; a nan or an
        infinity), as ``/`` does."""
        interp = self.interp
        if name in _ROUNDING:
            base = INTRINSIC_FUNCTIONS[name]

            def rounding(x):
                batch = type(x) is MemberBatch
                if batch:
                    x = x.view(_ND)
                if interp._mask is not None:
                    x = interp._spare_nonfinite(x, batch)
                out = base(x)
                return out.view(MemberBatch) if batch else out

            return rounding
        if name != "mod":
            return self._intrinsic_table.get(name)
        base = INTRINSIC_FUNCTIONS["mod"]

        def mod(a, p):
            batch = type(a) is MemberBatch or type(p) is MemberBatch
            if batch:
                a, p = _plain_pair(a, p)
            if interp._mask is not None:
                a, p = interp._spare_faults(a, p, "mod", batch)
            out = base(a, p)
            return out.view(MemberBatch) if batch else out

        return mod

    # ------------------------------------------------------- accounting
    def _account_fn(self, node: Stmt) -> Callable[[], None]:
        """One statement execution: budget check, then the member-masked
        statement and coverage counts (inside a lane region, once per
        active lane)."""
        interp = self.interp
        loc = node.location
        key = (loc.filename, loc.line) if loc.line > 0 else None
        cov = interp._cov_counts if key is not None else None
        limit = interp.max_statements

        def account():
            lanes = interp._lanes
            mask = interp._mask
            if lanes is None:
                counts = step = 1
                if mask is not None:
                    counts = mask.astype(np.int64)
            elif mask is None:
                counts = step = lanes
            elif mask.ndim == 1:
                counts = step = int(np.count_nonzero(mask))
            else:
                # the shared budget charges a lane some member runs, as the
                # per-iteration loop does; each member its own lanes
                counts = np.count_nonzero(mask, axis=1)
                step = int(np.count_nonzero(mask.any(axis=0)))
            n = interp.statements_executed + step
            interp.statements_executed = n
            if n > limit:
                raise StatementLimitExceeded(
                    f"statement budget of {limit} exhausted "
                    f"(possible runaway loop at {loc})"
                )
            if counts is not step:
                interp._extra_statements += counts - step
            if cov is not None:
                cov[key] = cov.get(key, 0) + counts

        return account

    # ----------------------------------------------------- control flow
    def _build_if(self, node: IfBlock) -> Callable:
        interp = self.interp
        account = self._account_fn(node)
        branches = [
            (None if cond is None else self.expr(cond), self.body(body))
            for cond, body in node.branches
        ]
        loc = node.location

        def run(frame):
            account()
            base = interp._mask
            remaining: Optional[np.ndarray] = None  # None => all active
            try:
                for cond_fn, body_fns in branches:
                    cond = True if cond_fn is None else cond_fn(frame)
                    if isinstance(cond, np.ndarray):
                        # member- or lane-divergent condition: the batch
                        # collapses to masked execution here; counted for
                        # `vec.mask_collapses`
                        interp.mask_divergences += 1
                        if interp._lanes is not None:
                            cond = interp._lane_condition(cond, loc)
                        else:
                            cond = np.array(cond, dtype=bool)
                            if (
                                cond.ndim != 1
                                or cond.shape[0] != interp.n_members
                            ):
                                raise VectorizationError(
                                    f"if-condition at {loc} is a model "
                                    "array; only member-batched scalars "
                                    "may diverge"
                                )
                        eligible = remaining if remaining is not None else base
                        if eligible is None:
                            branch = cond
                            remaining = ~cond
                        else:
                            branch = cond & eligible
                            remaining = ~cond & eligible
                        if branch.any():
                            interp._mask = (
                                None
                                if eligible is None and branch.all()
                                else branch
                            )
                            try:
                                for fn in body_fns:
                                    fn(frame)
                            finally:
                                interp._mask = base
                        if not remaining.any():
                            return
                    else:
                        if not cond:
                            continue
                        interp._mask = (
                            remaining if remaining is not None else base
                        )
                        try:
                            for fn in body_fns:
                                fn(frame)
                        finally:
                            interp._mask = base
                        return
            finally:
                interp._mask = base

        return run

    def _build_flow_stmt(self, node: Stmt, account: Callable) -> Callable:
        interp = self.interp
        base_run = NodeCompiler._build_flow_stmt(self, node, account)
        kind = type(node).__name__.replace("Stmt", "").lower()
        loc = node.location

        def run(frame):
            if interp._mask is not None:
                raise VectorizationError(
                    f"'{kind}' under diverged member control flow at {loc}"
                )
            base_run(frame)

        return run

    def _control_value(self, node, what: str) -> Callable:
        loc = node.location

        def check(value):
            if not isinstance(value, np.ndarray):
                return value
            if what == "do-loop bounds":
                # int() on a promoted batch scalar yields a batch even when
                # every member agrees: value-uniform bounds collapse
                plain = np.asarray(value)
                first = plain.flat[0]
                if plain.ndim == 1 and bool(np.all(plain == first)):
                    return first.item()
            raise VectorizationError(f"member-varying {what} at {loc}")

        return check

    def _build_iterations(self, node: DoLoop, body_fns: list) -> Callable:
        """A loop whose iterations are independent (its lane plan, see
        :mod:`repro.runtime.lanes`) runs its body once over all of them;
        any other loop, and every loop inside a region, iterates."""
        interp = self.interp
        iterate = NodeCompiler._build_iterations(self, node, body_fns)

        def run(frame, scope, var_name, start, count, step):
            if interp._lanes is not None:
                iterate(frame, scope, var_name, start, count, step)
                return
            held = interp._hold_loop_var(scope, var_name)
            plan = interp._lane_plan(node, frame)
            if plan is None or not interp._run_lanes(
                plan, body_fns, frame, scope, var_name, start, count, step
            ):
                iterate(frame, scope, var_name, start, count, step)
            if held is not None:
                interp._release_loop_var(scope, var_name, held)

        return run

    def _build_where(self, node: WhereBlock) -> Callable:
        interp = self.interp
        account = self._account_fn(node)
        mask_fn = self.expr(node.mask)

        def compile_masked(body):
            items = []
            for stmt in body:
                if not isinstance(stmt, Assignment):
                    raise FortranRuntimeError(
                        "only assignments are supported inside where blocks "
                        f"(at {stmt.location})"
                    )
                items.append(
                    (self._account_fn(stmt), self.expr(stmt.value), stmt)
                )
            return items

        body_items = compile_masked(node.body)
        else_items = compile_masked(node.else_body) if node.else_body else None

        def exec_masked(items, mask_val, frame):
            member = interp._mask
            for stmt_account, value_fn, stmt in items:
                stmt_account()
                value = value_fn(frame)
                ref = interp._resolve_target(stmt.target, frame)
                target = ref.load()
                if not isinstance(target, np.ndarray):
                    raise FortranRuntimeError(
                        f"where-assignment target is not an array at "
                        f"{stmt.location}"
                    )
                if interp._ref_readonly(ref):
                    raise IntentViolationError(
                        f"cannot assign through read-only target at "
                        f"{stmt.location}"
                    )
                if isinstance(target, MemberBatch):
                    tbase = np.asarray(target)
                    tmodel = tbase.ndim - 1
                    where, v = _plain((mask_val, value), tmodel)
                    where = np.asarray(where, dtype=bool)
                    if member is not None:
                        where = where & _plain(
                            (member.view(MemberBatch),), tmodel
                        )[0]
                    np.copyto(tbase, v, where=where, casting="unsafe")
                    continue
                if (
                    isinstance(mask_val, MemberBatch)
                    or isinstance(value, MemberBatch)
                    or member is not None
                ):
                    raise VectorizationError(
                        "member-varying where-assignment into member-"
                        f"uniform storage at {stmt.location}"
                    )
                np.copyto(
                    target,
                    value,
                    where=np.asarray(mask_val, dtype=bool),
                    casting="unsafe",
                )

        def run(frame):
            account()
            mask_val = mask_fn(frame)
            exec_masked(body_items, mask_val, frame)
            if else_items:
                if type(mask_val) is MemberBatch:
                    inverted = np.logical_not(mask_val.view(_ND)).view(MemberBatch)
                elif isinstance(mask_val, np.ndarray):
                    inverted = np.logical_not(mask_val)
                else:
                    inverted = not mask_val
                exec_masked(else_items, inverted, frame)

        return run

    # ------------------------------------------------------------ stores
    def _build_store_var(self, name: str) -> Callable:
        interp = self.interp
        base_store = NodeCompiler._build_store_var(self, name)
        cell: list[tuple] = []

        def store(frame, value):
            scope = frame.scope
            rname = name
            current = scope.values.get(name, _MISSING)
            if current is _MISSING:
                if cell:
                    scope, rname = cell[0]
                else:
                    found = interp._lookup_nonlocal(frame, name)
                    if found is not None:
                        scope, rname = found
                        cell.append(found)
                current = scope.values.get(rname, _MISSING)
            if interp._lanes is not None:
                if current is _MISSING:
                    scope.define(name, 0)
                    current = 0
                interp._lane_store(scope, rname, current, value)
                return
            mask = interp._mask
            if type(current) is MemberBatch:
                if rname in scope.readonly:
                    raise IntentViolationError(
                        f"cannot assign to read-only name {rname!r} in scope "
                        f"{scope.name!r}"
                    )
                interp._store_into_array(current, None, value, mask, rname)
                return
            if mask is None and type(value) is not MemberBatch:
                base_store(frame, value)
                return
            if current is _MISSING:
                scope = frame.scope
                rname = name
                scope.define(name, 0)
                current = 0
            interp._store_slot(scope, rname, current, value, mask)

        return store

    def _build_store_into(self, args, what: Optional[str] = None) -> Callable:
        interp = self.interp
        index_fn = self._build_index(args)
        lane_index = self._build_lane_index(args)

        def store(array, frame, value, guard, name):
            lanes = interp._lanes is not None
            index = lane_index(frame) if lanes else index_fn(frame)
            if guard is not None and name in guard:
                raise IntentViolationError(
                    f"cannot assign through read-only name {name!r}"
                )
            if lanes:
                interp._lane_store_into(array, index, value, what or name)
            else:
                interp._store_into_array(
                    array, index, value, interp._mask, what or name
                )

        return store

    def _set_component(self, base, component, value):
        current = base.get(component)
        if isinstance(current, np.ndarray):
            self.interp._store_into_array(
                current, None, value, self.interp._mask, component
            )
            return
        if isinstance(value, MemberBatch) or self.interp._mask is not None:
            raise VectorizationError(
                f"member-varying store into scalar component {component!r}"
            )
        base.set(component, value)


# --------------------------------------------------------------------------- #
# Interpreter
# --------------------------------------------------------------------------- #
class VecInterpreter(Interpreter):
    """Interpreter whose REAL/LOGICAL storage carries a member axis.

    ``seeds`` gives one base PRNG seed per ensemble member and fixes the
    batch width ``n_members``.  The member axis is invisible to model
    code; per-member values enter through the ``cam_init`` arguments
    (``pertlim``/``seed`` batches) and the per-member PRNG streams.
    """

    _compiler_factory = VecNodeCompiler
    _fpu_factory = VecFPU

    def __init__(
        self,
        asts,
        seeds,
        fp=None,
        collect_coverage: bool = True,
        max_statements: int = 50_000_000,
    ):
        seed_list = [int(s) for s in np.asarray(seeds).reshape(-1).tolist()]
        if not seed_list:
            raise ValueError("at least one member seed is required")
        self.n_members = len(seed_list)
        #: active-member mask (None => all members active, the fast path)
        self._mask: Optional[np.ndarray] = None
        #: per-member statement-count corrections accumulated under masks
        self._extra_statements = np.zeros(self.n_members, dtype=np.int64)
        #: member-divergent `if` conditions seen (batch collapsed to a mask)
        self.mask_divergences = 0
        #: lane count of the running lane region (None outside regions)
        self._lanes: Optional[int] = None
        #: the running region's frame scope, and the lanes that assigned
        #: each of its privates (a mask, or _EVERY_LANE)
        self._lane_scope: Optional[Scope] = None
        self._lane_assigned: Optional[dict] = None
        #: id(loop) -> (loop, LanePlan or None); id(sub) -> elemental verdict
        self._lane_plans: dict[int, tuple] = {}
        self._lane_verdicts: dict[int, tuple] = {}
        #: loop executions run as lane regions, their lanes, and executions
        #: of planned loops a runtime guard sent down the per-iteration path
        self.lane_regions = 0
        self.lane_iterations = 0
        self.lane_fallbacks = 0
        super().__init__(
            asts,
            fp=fp,
            seed=seed_list[0],
            collect_coverage=collect_coverage,
            max_statements=max_statements,
        )
        self.prng = BatchedPRNGStreams(seed_list)

    # ------------------------------------------------------- declarations
    def _create_value(self, frame, decl, entity):
        if entity.dims and decl.base_type in ("real", "logical"):
            shape = tuple(self._dim_extent(d, frame) for d in entity.dims)
            dtype = _DTYPES[decl.base_type]
            array = np.zeros((self.n_members, *shape), dtype=dtype).view(
                MemberBatch
            )
            if entity.init is not None:
                value = self.eval(entity.init, frame)
                self._store_into_array(array, None, value, None)
            return array
        return super()._create_value(frame, decl, entity)

    # ------------------------------------------------------------- stores
    def _store_slot(self, scope, rname, current, value, mask) -> None:
        """Member-aware store into a whole-variable slot, promoting scalar
        slots to ``(n,)`` batches on the first member-varying write."""
        if isinstance(current, MemberBatch):
            if rname in scope.readonly:
                raise IntentViolationError(
                    f"cannot assign to read-only name {rname!r} in scope "
                    f"{scope.name!r}"
                )
            self._store_into_array(current, None, value, mask, rname)
            return
        if isinstance(current, np.ndarray):
            if isinstance(value, MemberBatch) or mask is not None:
                raise VectorizationError(
                    f"member-varying store into member-uniform array "
                    f"{rname!r}"
                )
            scope.store(rname, value)
            return
        # scalar slot
        dtype = _SLOT_DTYPES.get(_slot_kind(current))
        if isinstance(value, MemberBatch) or mask is not None:
            if dtype is None:
                raise VectorizationError(
                    f"member-varying store into non-numeric scalar {rname!r}"
                )
            if (
                mask is None
                and value.ndim == 1
                and value.dtype.type is dtype
            ):
                scope.store(rname, value.copy())
                return
            new = np.empty(self.n_members, dtype=dtype)
            # numpy's unsafe float->int cast truncates toward zero, the
            # same coercion the scalar runtime applies per element
            new[...] = np.asarray(value) if isinstance(value, MemberBatch) else value
            if mask is not None:
                new = np.where(mask, new, current).astype(dtype, copy=False)
            scope.store(rname, new.view(MemberBatch))
            return
        # plain scalar store: the scalar runtime's coercion rules
        if dtype is np.int64:
            if isinstance(value, (float, np.floating)):
                value = int(np.trunc(value))
            else:
                value = int(value)
        elif dtype is np.float64 and not isinstance(value, np.ndarray):
            value = float(value)
        elif dtype is np.bool_:
            value = bool(value)
        scope.store(rname, value)

    def _store_into_array(
        self, array, index, value, mask, name: str = ""
    ) -> None:
        """Member-aware element/section/whole store into an array
        (``index=None`` addresses the whole array)."""
        if type(array) is MemberBatch:
            dest = array.view(np.ndarray)
            if index is not None:
                dest = dest[(slice(None),) + tuple(index)]
            if mask is None:
                if type(value) is MemberBatch and value.ndim != dest.ndim:
                    (value,) = lift_batches((value,), dest.ndim - 1)
                dest[...] = value
                return
            where, v = _plain((mask.view(MemberBatch), value), dest.ndim - 1)
            np.copyto(dest, v, where=where, casting="unsafe")
            return
        if isinstance(value, MemberBatch) or mask is not None:
            raise VectorizationError(
                f"member-varying store into member-uniform array {name!r}"
            )
        if index is None:
            array[...] = value
        else:
            array[index] = value

    def _coerce_store(self, ref: Ref, value) -> None:
        mask = self._mask
        if mask is None and not isinstance(value, MemberBatch):
            if not (
                isinstance(ref, ScopeRef)
                and isinstance(ref.scope.values.get(ref.name), MemberBatch)
            ):
                super()._coerce_store(ref, value)
                return
        if isinstance(ref, ScopeRef):
            current = ref.scope.values.get(ref.name)
            self._store_slot(ref.scope, ref.name, current, value, mask)
            return
        if isinstance(ref, ElementRef):
            if ref.guard is not None and ref.guard_name in ref.guard:
                raise IntentViolationError(
                    f"cannot assign through read-only name {ref.guard_name!r}"
                )
            self._store_into_array(
                ref.array, ref.index, value, mask, ref.guard_name
            )
            return
        if isinstance(ref, ComponentRef):
            if ref.guard is not None and ref.guard_name in ref.guard:
                raise IntentViolationError(
                    f"cannot assign through read-only name {ref.guard_name!r}"
                )
            if ref.index is not None:
                self._store_into_array(
                    ref.derived.get(ref.component),
                    ref.index,
                    value,
                    mask,
                    ref.component,
                )
                return
            current = ref.derived.get(ref.component)
            if isinstance(current, np.ndarray):
                self._store_into_array(current, None, value, mask, ref.component)
                return
            if isinstance(value, MemberBatch) or mask is not None:
                raise VectorizationError(
                    f"member-varying store into scalar component "
                    f"{ref.component!r}"
                )
            ref.derived.set(ref.component, value)
            return
        ref.store(value)

    # -------------------------------------------------------- lane regions
    def _lane_plan(self, loop: DoLoop, frame):
        """The loop's :class:`~repro.runtime.lanes.LanePlan` (None: it runs
        per iteration), decided once per loop."""
        cached = self._lane_plans.get(id(loop))
        if cached is None:
            plan = plan_region(
                loop, frame.sub, _FrameNames(self, frame), self._lane_verdicts
            )
            cached = self._lane_plans[id(loop)] = (loop, plan)
        return cached[1]

    def _lane_lookup(self, frame, key):
        """The value a variable name or component path refers to from
        ``frame`` (``_MISSING`` if none)."""
        value = frame.scope.values.get(key[0], _MISSING)
        if value is _MISSING:
            if key[0] in frame.optional_missing:
                return _MISSING  # an absent optional has no value to plan on
            found = self._lookup_nonlocal(frame, key[0])
            if found is None:
                return _MISSING
            value = found[0].values[found[1]]
        for component in key[1:]:
            if not isinstance(value, DerivedValue):
                return _MISSING
            value = value.components.get(component, _MISSING)
        return value

    def _lanes_alias(self, plan, frame) -> bool:
        """Whether an array the region writes may share memory with another
        array it references (a Fortran aliasing violation the
        per-iteration order would resolve one way)."""
        if not plan.guarded_written:
            return False
        arrays = {}
        for key in plan.guarded:
            value = self._lane_lookup(frame, key)
            if isinstance(value, _ND):
                arrays[key] = value
        for key in plan.guarded_written:
            mine = arrays.get(key)
            if mine is not None and any(
                other != key and np.may_share_memory(mine, array)
                for other, array in arrays.items()
            ):
                return True
        return False

    def _run_lanes(self, plan, body_fns, frame, scope, var_name, start, count,
                   step) -> bool:
        """Run the loop body once over all ``count`` iterations; False (and
        nothing done) when a guard sends this execution per iteration."""
        if count < 2 or self._lanes_alias(plan, frame):
            self.lane_fallbacks += 1
            return False
        values = scope.values
        saved = {name: values.get(name) for name in plan.privates}
        base = self._mask
        held = {name: self._hold_loop_var(scope, name) for name in plan.nested_vars}
        self._lanes = count
        if base is not None:
            self._mask = np.repeat(base[:, None], count, axis=1)
        self._lane_scope = scope
        self._lane_assigned = assigned = {}
        values[var_name] = np.arange(count, dtype=np.int64) * step + start
        try:
            for fn in body_fns:
                fn(frame)
        finally:
            self._lanes = self._lane_scope = self._lane_assigned = None
            self._mask = base
        for name in plan.privates:
            if name in plan.nested_vars:
                continue  # a nested loop's exit value is the same in every lane
            mark = assigned.get(name)
            values[name] = (
                saved[name] if mark is None
                else _last_assigned(values[name], mark)
            )
        for name, slot in held.items():
            if slot is not None:
                self._release_loop_var(scope, name, slot)
        values[var_name] = start + count * step
        self.lane_regions += 1
        self.lane_iterations += count
        return True

    def _hold_loop_var(self, scope, name):
        """The slot of a loop variable ahead of its loop when the loop needs
        :meth:`_release_loop_var` after it (None: it does not): under a
        member mask, or when the slot is a batch, which the loop leaves
        aside (its per-iteration stores would write into it for every
        member) while it stores plain values."""
        slot = scope.values.get(name, _MISSING)
        if type(slot) is MemberBatch:
            scope.values[name] = 0
            return slot
        if self._mask is None or slot is _MISSING:
            return None
        return slot

    def _release_loop_var(self, scope, name, slot) -> None:
        """After the loop: its variable is ``slot`` again and holds the exit
        value in the members the member mask keeps, while the others, which
        never ran the loop, keep their value from before it.  A batch slot
        keeps its identity (a dummy argument shares it with the caller)."""
        value = scope.values[name]
        scope.values[name] = slot
        self._store_slot(scope, name, slot, value, self._mask)

    def _lane_condition(self, cond, loc):
        """An ``if`` condition inside a lane region as a mask: ``(L,)`` when
        it varies by lane only, ``(n, L)`` when it varies by member."""
        lanes = self._lanes
        mask = np.array(cond, dtype=bool)
        if type(cond) is MemberBatch and mask.ndim == 1:
            mask = np.repeat(mask[:, None], lanes, axis=1)
        if mask.shape not in ((lanes,), (self.n_members, lanes)):
            raise VectorizationError(
                f"if-condition at {loc} is a model array inside a lane region"
            )
        return mask

    def _lane_subscript(self, value):
        """A subscript value inside a lane region, 0-based: an int, or an
        index array for a lane-valued subscript."""
        if type(value) is MemberBatch and value.shape[0] == 1:
            value = value.view(_ND)[0]  # one member: its own subscript
        if type(value) is _ND and value.ndim == 1:
            if value.dtype.kind != "i":
                value = value.astype(np.int64)
            return value - 1
        return int(value) - 1

    def _lane_load(self, container, index):
        """An element load inside a lane region: lane-valued subscripts
        gather one element per lane."""
        batch = type(container) is MemberBatch
        try:
            value = _getitem(container, (_ALL, *index)) if batch else container[index]
        except IndexError:
            index = self._clamp_masked_lanes(container, index, batch)
            value = _getitem(container, (_ALL, *index)) if batch else container[index]
        if isinstance(value, _ND):
            return value
        return value.item() if hasattr(value, "item") else value

    def _clamp_masked_lanes(self, container, index, batch) -> tuple:
        """``index`` with the out-of-bounds subscripts of masked-out lanes
        (which the per-iteration loop never evaluates) replaced by the
        first element; an active lane out of bounds raises IndexError."""
        mask = self._mask
        active = None if mask is None else (mask if mask.ndim == 1 else mask.any(axis=0))
        shape = container.shape[1:] if batch else container.shape
        fixed = []
        for extent, part in zip(shape, index):
            if isinstance(part, _ND):
                bad = (part < -extent) | (part >= extent)
                if active is None or (bad & active).any():
                    raise IndexError(
                        f"subscript out of bounds for an axis of extent {extent}"
                    )
                part = np.where(bad, 0, part)
            fixed.append(part)
        return tuple(fixed)

    def _spare_faults(self, a, b, op: str, batch: bool):
        """The plain operands of an integer ``a / b``, ``a ** b`` or
        ``mod(a, b)`` with the faults (a zero divisor; a zero base under a
        negative exponent) that only masked-out lanes or members hold
        replaced by 1: the per-iteration loop never evaluates them.  A
        fault an active lane or member holds stays, and the arithmetic
        raises ``FortranRuntimeError`` as the scalar runtime does."""
        if not (isinstance(a, _ND) or isinstance(b, _ND)) or not (
            _integer_typed(a) and _integer_typed(b)
        ):
            return a, b
        fault = (
            np.equal(a, 0) & np.less(b, 0) if op == "**" else np.equal(b, 0)
        )
        if not fault.any():
            return a, b
        fault = np.broadcast_to(fault, np.broadcast(a, b).shape)
        active = self._active(fault.ndim, batch)
        if active is None:
            return a, b
        spared = fault & ~active
        if op == "**":
            return np.where(spared, 1, a), b
        return a, np.where(spared, 1, b)

    def _spare_nonfinite(self, x, batch: bool):
        """The plain operand of ``int``, ``nint`` or ``floor`` with the nan
        and infinities only masked-out lanes or members hold replaced by 0;
        one an active lane or member holds stays, and the intrinsic raises
        ``FortranRuntimeError`` as on the scalar runtime."""
        if not isinstance(x, _ND) or x.dtype.kind != "f":
            return x
        fault = ~np.isfinite(x)
        if not fault.any():
            return x
        active = self._active(fault.ndim, batch)
        if active is None:
            return x
        return np.where(fault & ~active, 0.0, x)

    def _active(self, ndim: int, batch: bool) -> Optional[np.ndarray]:
        """The running mask broadcasting over a value of ``ndim`` axes (the
        member axis first if ``batch``); None when the mask keeps every
        element of such a value."""
        mask = self._mask
        if self._lanes is None:
            # a member mask: each member a value holds is its own element,
            # and every member the mask keeps evaluates a uniform value
            return mask.reshape(mask.shape + (1,) * (ndim - 1)) if batch else None
        if not batch:  # a lane value (L,)
            return mask if mask.ndim == 1 else mask.any(axis=0)
        if ndim == 1:  # a member value (n,) no lane varies
            return None if mask.ndim == 1 else mask.any(axis=1)
        return mask  # (n, L)

    def _lane_store(self, scope, rname, current, value) -> None:
        """Store into a scalar slot inside a lane region: coerced to the
        slot's type and blended under the region's mask; the lanes that
        assigned each of the region's privates are recorded."""
        if rname in scope.readonly:
            raise IntentViolationError(
                f"cannot assign to read-only name {rname!r} in scope "
                f"{scope.name!r}"
            )
        value = _coerce_like(value, current)
        mask = self._mask
        if mask is not None:
            member = (
                mask.ndim == 2
                or type(value) is MemberBatch
                or type(current) is MemberBatch
            )
            value = np.where(mask, _lane_operand(value), _lane_operand(current))
            if member:
                value = value.view(MemberBatch)
        scope.values[rname] = value
        if scope is self._lane_scope:
            assigned = self._lane_assigned
            prior = assigned.get(rname)
            if mask is None or prior is _EVERY_LANE:
                assigned[rname] = _EVERY_LANE
            else:
                assigned[rname] = mask if prior is None else prior | mask

    def _lane_store_into(self, array, index, value, name: str) -> None:
        """An element store inside a lane region (the bare loop variable
        subscripts one axis), blended under the region's mask."""
        mask = self._mask
        if type(array) is MemberBatch:
            dest = array.view(_ND)
            index = (_ALL, *index)
            value = _lane_operand(value)
        else:
            if type(value) is MemberBatch:
                raise VectorizationError(
                    f"member-varying store into member-uniform array {name!r}"
                )
            dest = array
            if mask is not None and mask.ndim == 2:
                if not (mask == mask[:1]).all():
                    raise VectorizationError(
                        "member-varying store into member-uniform array "
                        f"{name!r}"
                    )
                mask = mask[0]
        if mask is not None:
            value = np.where(mask, value, dest[index])
        dest[index] = value

    def _all_int(self, *values) -> bool:
        """Inside a lane region an integer lane value is an integer array."""
        if self._lanes is None:
            return Interpreter._all_int(*values)
        return all(
            v.dtype.kind == "i" if isinstance(v, _ND) else Interpreter._all_int(v)
            for v in values
        )

    # ----------------------------------------------------------- elemental
    def _dispatch_elemental(self, mrt, sub, values, caller_frame):
        if self._lanes is not None or any(
            isinstance(v, MemberBatch) for v in values
        ):
            # elemental bodies are scalar arithmetic: ufunc broadcasting
            # over the member (and lane) axes evaluates every member (and
            # iteration) in one pass
            return self._call_with_values(mrt, sub, values, caller_frame)
        return super()._dispatch_elemental(mrt, sub, values, caller_frame)

    # ----------------------------------------------------------- intercepts
    def _intercept_outfld(self, frame, arg_exprs, kw_exprs, mrt, sub):
        if self._mask is not None:
            raise VectorizationError(
                "history write (outfld) under diverged member control flow"
            )
        super()._intercept_outfld(frame, arg_exprs, kw_exprs, mrt, sub)

    def _intercept_random_raw(self, frame, arg_exprs, kw_exprs, mrt, sub):
        if self._mask is not None:
            raise VectorizationError(
                "PRNG draw under diverged member control flow"
            )
        kind, payload, writable = self._bind_actual(arg_exprs[0], frame)
        if kind != "share" or not isinstance(payload, np.ndarray):
            raise FortranRuntimeError(
                "shr_random_raw requires a whole-array harvest argument"
            )
        if not writable:
            raise IntentViolationError(
                "shr_random_raw harvest argument is read-only here"
            )
        if not isinstance(payload, MemberBatch):
            raise VectorizationError(
                "PRNG harvest into a member-uniform array"
            )
        n = None
        if len(arg_exprs) > 1:
            n = self.eval(arg_exprs[1], frame)
            if isinstance(n, np.ndarray):
                raise VectorizationError(
                    "member-varying PRNG draw count"
                )
            n = int(n)
        owner = frame
        while owner is not None and owner.module.node.name == mrt.node.name:
            owner = owner.caller
        owner_name = (owner or frame).module.node.name
        stream = self.prng.stream(owner_name)
        stream.fill(payload, n)

    def _intercept_setseed(self, frame, arg_exprs, kw_exprs, mrt, sub):
        if self._mask is not None:
            raise VectorizationError(
                "PRNG reseed under diverged member control flow"
            )
        seed = self.eval(arg_exprs[0], frame)
        if not isinstance(seed, np.ndarray):
            self.prng.reseed(int(seed))
            if "seed_state" in mrt.scope:
                mrt.scope.store("seed_state", int(seed))
            return
        base = np.asarray(seed)
        if not isinstance(seed, MemberBatch) or base.ndim != 1:
            raise VectorizationError(
                "setseed requires a scalar (or member-batched scalar) seed"
            )
        self.prng.reseed([int(s) for s in base.tolist()])
        if "seed_state" in mrt.scope:
            self._store_slot(
                mrt.scope,
                "seed_state",
                mrt.scope.values.get("seed_state"),
                seed,
                None,
            )

    def _call_intrinsic_subroutine(self, name, arg_exprs, kw_exprs, frame):
        if name == "random_number":
            if self._mask is not None:
                raise VectorizationError(
                    "PRNG draw under diverged member control flow"
                )
            kind, payload, writable = self._bind_actual(arg_exprs[0], frame)
            stream = self.prng.stream(frame.module.node.name)
            if kind == "share" and isinstance(payload, np.ndarray):
                if not isinstance(payload, MemberBatch):
                    raise VectorizationError(
                        "random_number into a member-uniform array"
                    )
                stream.fill(payload)
            elif kind == "ref":
                self._coerce_store(
                    payload, stream.uniform().view(MemberBatch)
                )
            else:
                raise FortranRuntimeError(
                    "random_number requires a variable argument"
                )
            return
        if name == "random_seed":
            put = kw_exprs.get("put")
            if put is not None:
                if self._mask is not None:
                    raise VectorizationError(
                        "PRNG reseed under diverged member control flow"
                    )
                value = self.eval(put, frame)
                if isinstance(value, MemberBatch):
                    base = np.asarray(value)
                    first = (
                        base
                        if base.ndim == 1
                        else base[(slice(None),) + (0,) * (base.ndim - 1)]
                    )
                    self.prng.reseed([int(v) for v in first.tolist()])
                else:
                    self.prng.reseed(int(np.asarray(value).reshape(-1)[0]))
            return
        super()._call_intrinsic_subroutine(name, arg_exprs, kw_exprs, frame)

    # ----------------------------------------------------------- accounting
    def member_statements(self, m: int) -> int:
        """Total statements member ``m`` executed (mask-corrected)."""
        return self.statements_executed + int(self._extra_statements[m])

    def member_coverage(self, m: int) -> CoverageTrace:
        """Member ``m``'s per-line execution counts (zero entries dropped,
        so lines a member never reached are absent — exactly as in that
        member's scalar run)."""
        if self.coverage is None:
            return CoverageTrace()
        counts: dict[tuple[str, int], int] = {}
        for key, count in self.coverage.counts.items():
            hits = (
                int(np.asarray(count)[m])
                if isinstance(count, np.ndarray)
                else int(count)
            )
            if hits:
                counts[key] = hits
        return CoverageTrace(counts)


# --------------------------------------------------------------------------- #
# Batched run entry point
# --------------------------------------------------------------------------- #
def _member_value(value, m: int) -> np.ndarray:
    if isinstance(value, MemberBatch):
        return value.lane(m)
    return np.asarray(value)


def batch_key(config):
    """Everything ``config`` must share with its batch: the config with
    its per-member ``pertlim`` and ``seed`` blanked out."""
    return dataclasses.replace(config, pertlim=0.0, seed=0)


def run_model_batch(configs, source=None):
    """Run every member of ``configs`` in one vectorized evaluation.

    The configs must agree on everything except ``pertlim`` and ``seed``
    (model build, nsteps, fp model, coverage flag, statement budget) —
    exactly the shape of an :class:`~repro.ensemble.EnsembleSpec`'s member
    configs; anything else raises :class:`ValueError`.  Returns one
    :class:`~repro.runtime.RunResult` per config, each bit-identical to
    what :func:`repro.runtime.run_model` produces for the same config.
    """
    from ..model.builder import build_model_source
    from ..model.registry import iter_output_fields

    configs = list(configs)
    if not configs:
        raise ValueError("run_model_batch needs at least one RunConfig")
    head = configs[0]
    shared = batch_key(head)
    if any(batch_key(config) != shared for config in configs[1:]):
        raise ValueError(
            "run_model_batch members must share the model build, nsteps, "
            "fp model, coverage flag and statement budget (only pertlim "
            "and seed may vary)"
        )
    if source is None:
        source = build_model_source(head.model)
    elif source.config != head.model:
        raise ValueError(
            "the provided ModelSource was built from a different ModelConfig "
            "than config.model"
        )
    asts = source.parse()

    interp = VecInterpreter(
        asts,
        seeds=[int(c.seed) for c in configs],
        fp=head.fp,
        collect_coverage=head.collect_coverage,
        max_statements=head.max_statements,
    )
    pert = np.array(
        [float(c.pertlim) for c in configs], dtype=np.float64
    ).view(MemberBatch)
    seed = np.array([int(c.seed) for c in configs], dtype=np.int64).view(
        MemberBatch
    )
    try:
        interp.call("cam_comp", "cam_init", [pert, seed])
        for _ in range(head.nsteps):
            interp.call("cam_comp", "cam_run_step", [])
    finally:
        interp.close()

    declared = [f.name for f in iter_output_fields(source.compset)]
    missing = [name for name in declared if name not in interp.history.fields]
    if missing:
        raise FortranRuntimeError(
            "run completed but declared output fields were never written: "
            + ", ".join(missing)
        )
    names = list(declared)
    names += sorted(set(interp.history.fields) - set(declared))

    prng_draws = interp.prng.total_draws()
    results = []
    for m, config in enumerate(configs):
        outputs = {
            name: _member_value(interp.history.fields[name], m)
            for name in names
        }
        first_outputs = {
            name: _member_value(interp.history.first[name], m)
            for name in names
        }
        results.append(
            RunResult(
                config=config,
                outputs=outputs,
                coverage=interp.member_coverage(m),
                statements_executed=interp.member_statements(m),
                prng_draws=prng_draws,
                first_outputs=first_outputs,
            )
        )

    from ..obs import get_metrics

    metrics = get_metrics()
    metrics.inc("vec.batches")
    metrics.inc("vec.members", len(configs))
    metrics.inc("vec.mask_collapses", interp.mask_divergences)
    metrics.inc("vec.lane_regions", interp.lane_regions)
    metrics.inc("vec.lane_iterations", interp.lane_iterations)
    metrics.inc("vec.lane_fallbacks", interp.lane_fallbacks)
    metrics.inc(
        "interpreter.statements", sum(r.statements_executed for r in results)
    )
    return results
