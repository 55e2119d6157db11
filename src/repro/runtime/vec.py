"""Member-batched (vectorized) execution of the numerical interpreter.

One compiled evaluation advances *all* members of an ensemble at once:
per-member ``pertlim`` draws and PRNG seeds become leading-axis arrays
(:class:`~repro.runtime.values.MemberBatch`), scalar operations broadcast
over the member axis through numpy ufuncs, and near-identical control flow
diverges via ``where``-masked evaluation — an ``if`` whose condition varies
per member executes every branch under a boolean member mask, blending
stores so inactive members keep their old values.

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
* **Lifting happens in compiled code.**  Arithmetic, comparisons, element
  loads and stores, ``max``/``min`` and the FPU's operations lift batch
  operands themselves (:func:`~repro.runtime.values.lift_batches`, the one
  statement of the member-axis rule) and run numpy on plain arrays;
  ``MemberBatch.__array_ufunc__`` is left to the sites they do not cover.
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
    Apply,
    DerivedRef,
    DoLoop,
    DoWhile,
    IfBlock,
    SelectCase,
    Stmt,
    VarRef,
    WhereBlock,
)
from .compiler import NodeCompiler, _MISSING
from .coverage import CoverageTrace
from .fpu import FPU
from .interpreter import _DTYPES, Interpreter
from .intrinsics import INTRINSIC_FUNCTIONS
from .prng import BatchedPRNGStreams
from .values import (
    ComponentRef,
    DerivedValue,
    ElementRef,
    FortranRuntimeError,
    IntentViolationError,
    MemberBatch,
    Ref,
    ScopeRef,
    StatementLimitExceeded,
    VectorizationError,
    _Cycle,
    _Exit,
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


def _model_axes(base: np.ndarray) -> tuple[int, ...]:
    return tuple(range(1, base.ndim))


# --------------------------------------------------------------------------- #
# Member-batch-aware intrinsics
# --------------------------------------------------------------------------- #
def _any_batch(*args) -> bool:
    return any(isinstance(a, MemberBatch) for a in args)


def _vec_sum(array, dim=None):
    if isinstance(array, MemberBatch):
        base = np.asarray(array)
        if dim is not None:
            # model axis d (1-based) is base axis d: axis 0 is the member axis
            return np.sum(base, axis=int(dim)).view(MemberBatch)
        return np.sum(base, axis=_model_axes(base)).view(MemberBatch)
    return INTRINSIC_FUNCTIONS["sum"](array, dim)


def _vec_maxval(array):
    if isinstance(array, MemberBatch):
        base = np.asarray(array)
        return np.max(base, axis=_model_axes(base)).view(MemberBatch)
    return INTRINSIC_FUNCTIONS["maxval"](array)


def _vec_minval(array):
    if isinstance(array, MemberBatch):
        base = np.asarray(array)
        return np.min(base, axis=_model_axes(base)).view(MemberBatch)
    return INTRINSIC_FUNCTIONS["minval"](array)


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


def _vec_any(mask):
    if isinstance(mask, MemberBatch):
        base = np.asarray(mask)
        return np.any(base, axis=_model_axes(base)).view(MemberBatch)
    return INTRINSIC_FUNCTIONS["any"](mask)


def _vec_all(mask):
    if isinstance(mask, MemberBatch):
        base = np.asarray(mask)
        return np.all(base, axis=_model_axes(base)).view(MemberBatch)
    return INTRINSIC_FUNCTIONS["all"](mask)


def _vec_merge(tsource, fsource, mask):
    if _any_batch(tsource, fsource, mask):
        # np.where is not a ufunc: lift the batches by hand and re-wrap
        return np.where(
            *lift_batches((mask, tsource, fsource))
        ).view(MemberBatch)
    return INTRINSIC_FUNCTIONS["merge"](tsource, fsource, mask)


def _vec_extremum(name: str, ufunc):
    base = INTRINSIC_FUNCTIONS[name]

    def extremum(*args):
        for arg in args:
            if type(arg) is MemberBatch:
                out, *rest = lift_batches(args)
                for other in rest:
                    out = ufunc(out, other)
                return out.view(MemberBatch)
        return base(*args)

    return extremum


def _vec_huge(x):
    if isinstance(x, MemberBatch):
        if np.issubdtype(np.asarray(x).dtype, np.integer):
            return _INT_HUGE
        return _F64_MAX
    return INTRINSIC_FUNCTIONS["huge"](x)


def _rewrap_math(name: str):
    base = INTRINSIC_FUNCTIONS[name]

    def wrapped(x):
        # np.vectorize drops the subclass; restore the member axis marker
        result = base(x)
        if isinstance(x, MemberBatch) and isinstance(result, np.ndarray):
            return result.view(MemberBatch)
        return result

    return wrapped


def _batch_unsupported(name: str):
    base = INTRINSIC_FUNCTIONS[name]

    def wrapped(*args, **kwargs):
        if _any_batch(*args, *kwargs.values()):
            raise VectorizationError(
                f"intrinsic {name!r} over a member batch is not supported "
                "by the vectorized runtime"
            )
        return base(*args, **kwargs)

    return wrapped


#: INTRINSIC_FUNCTIONS with member-batch-aware replacements for every
#: implementation that reduces, reshapes, or otherwise collapses the array
#: it is given (and so would silently fold the member axis into the model).
VEC_INTRINSICS: dict[str, object] = {
    **INTRINSIC_FUNCTIONS,
    "sum": _vec_sum,
    "maxval": _vec_maxval,
    "minval": _vec_minval,
    "size": _vec_size,
    "count": _vec_count,
    "any": _vec_any,
    "all": _vec_all,
    "merge": _vec_merge,
    "max": _vec_extremum("max", np.maximum),
    "min": _vec_extremum("min", np.minimum),
    "huge": _vec_huge,
    "gamma": _rewrap_math("gamma"),
    "erf": _rewrap_math("erf"),
    "erfc": _rewrap_math("erfc"),
    "spread": _batch_unsupported("spread"),
    "reshape": _batch_unsupported("reshape"),
    "matmul": _batch_unsupported("matmul"),
    "dot_product": _batch_unsupported("dot_product"),
}


# --------------------------------------------------------------------------- #
# Lifted arithmetic
# --------------------------------------------------------------------------- #
class VecFPU(FPU):
    """The FPU with member batches lifted once per operation.

    Each operation with a batch operand runs the scalar FPU's arithmetic
    on the plain lifted bases (:func:`~repro.runtime.values.lift_batches`)
    and marks the result as a batch, so the ufuncs inside flush-to-zero,
    integer division and the FMA's Dekker split skip
    ``MemberBatch.__array_ufunc__``.
    """


def _lifting(method):
    def op(self, *args):
        for arg in args:
            if type(arg) is MemberBatch:
                return method(self, *lift_batches(args)).view(MemberBatch)
        return method(self, *args)

    return op


for _name in ("add", "sub", "mul", "div", "pow", "fma"):
    setattr(VecFPU, _name, _lifting(getattr(FPU, _name)))

#: binary operators the vectorized compiler lifts inline, with the Python
#: operator that uniform operands keep and the ufunc that batches take
_LIFTED_BINOPS = {
    "+": (operator.add, np.add),
    "-": (operator.sub, np.subtract),
    "*": (operator.mul, np.multiply),
    "==": (operator.eq, np.equal),
    "/=": (operator.ne, np.not_equal),
    "<": (operator.lt, np.less),
    "<=": (operator.le, np.less_equal),
    ">": (operator.gt, np.greater),
    ">=": (operator.ge, np.greater_equal),
}


# --------------------------------------------------------------------------- #
# Compiler: masked control flow and member-aware stores
# --------------------------------------------------------------------------- #
class VecNodeCompiler(NodeCompiler):
    """Closure compiler whose control flow and stores honour member masks.

    All divergence state lives on the interpreter (``interp._mask``,
    ``interp._extra_statements``), so the compiled closures stay shareable
    per AST node exactly like the scalar compiler's.
    """

    __slots__ = ()

    _intrinsic_table = VEC_INTRINSICS

    # ------------------------------------------------------ arithmetic
    def _build_binop(self, node):
        pair = _LIFTED_BINOPS.get(node.op)
        fpu = self.interp.fpu
        if pair is None or (
            node.op in ("+", "-", "*")
            and (fpu._ftz or (node.op != "*" and fpu.config.fma))
        ):
            # FPU-routed (division, power, FTZ, FMA): VecFPU lifts
            return NodeCompiler._build_binop(self, node)
        pyop, ufunc = pair
        left = self.expr(node.left)
        right = self.expr(node.right)
        plain = np.ndarray

        def run(frame):
            l = left(frame)
            r = right(frame)
            # a batch against a scalar, or two batches of one rank, have
            # nothing to lift: their bases go to the ufunc directly
            if type(l) is MemberBatch:
                if type(r) is MemberBatch:
                    if l.ndim == r.ndim:
                        l, r = l.view(plain), r.view(plain)
                        return ufunc(l, r).view(MemberBatch)
                elif not isinstance(r, plain):
                    return ufunc(l.view(plain), r).view(MemberBatch)
            elif type(r) is MemberBatch:
                if not isinstance(l, plain):
                    return ufunc(l, r.view(plain)).view(MemberBatch)
            else:
                return pyop(l, r)
            return ufunc(*lift_batches((l, r))).view(MemberBatch)

        return run

    def _build_unary(self, node):
        if node.op != "-":
            return NodeCompiler._build_unary(self, node)
        operand = self.expr(node.operand)

        def run(frame):
            value = operand(frame)
            if type(value) is MemberBatch:
                return np.negative(value.view(np.ndarray)).view(MemberBatch)
            return -value

        return run

    @staticmethod
    def _load_element(container, index: tuple):
        if type(container) is not MemberBatch:
            return NodeCompiler._load_element(container, index)
        value = container.view(np.ndarray)[(slice(None),) + index]
        if value.ndim == 1:
            # a fully indexed element loads by value: the batch scalar
            # must not alias the array's storage
            value = value.copy()
        return value.view(MemberBatch)

    # ------------------------------------------------------- accounting
    def _account_fn(self, node: Stmt) -> Callable[[], None]:
        interp = self.interp
        base_account = NodeCompiler._account_fn(self, node)
        loc = node.location
        key = (loc.filename, loc.line) if loc.line > 0 else None
        cov = interp._cov_counts
        limit = interp.max_statements

        def account():
            mask = interp._mask
            if mask is None:
                base_account()
                return
            n = interp.statements_executed + 1
            interp.statements_executed = n
            if n > limit:
                raise StatementLimitExceeded(
                    f"statement budget of {limit} exhausted "
                    f"(possible runaway loop at {loc})"
                )
            mi = mask.astype(np.int64)
            interp._extra_statements += mi - 1
            if cov is not None and key is not None:
                cov[key] = cov.get(key, 0) + mi

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
                        # member-divergent condition: the batch collapses to
                        # masked execution here; counted for `vec.mask_collapses`
                        interp.mask_divergences += 1
                        cond = np.asarray(cond, dtype=bool)
                        if (
                            cond.ndim != 1
                            or cond.shape[0] != interp.n_members
                        ):
                            raise VectorizationError(
                                f"if-condition at {loc} is a model array; "
                                "only member-batched scalars may diverge"
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

    def _build_do(self, node: DoLoop) -> Callable:
        interp = self.interp
        account = self._account_fn(node)
        start_fn = self.expr(node.start)
        stop_fn = self.expr(node.stop)
        step_fn = None if node.step is None else self.expr(node.step)
        body_fns = self.body(node.body)
        var = node.var
        loc = node.location

        def uniform(value):
            # int() on a promoted batch scalar yields a batch even when
            # every member agrees: collapse value-uniform bounds, refuse
            # genuinely member-varying ones
            if not isinstance(value, np.ndarray):
                return value
            base = np.asarray(value)
            first = base.flat[0]
            if base.ndim != 1 or not bool(np.all(base == first)):
                raise VectorizationError(
                    f"member-varying do-loop bounds at {loc}"
                )
            return first.item()

        def run(frame):
            account()
            start = uniform(start_fn(frame))
            stop = uniform(stop_fn(frame))
            step = uniform(step_fn(frame)) if step_fn is not None else 1
            if step == 0:
                raise FortranRuntimeError(f"zero do-loop step at {loc}")
            found = interp._lookup_var(frame, var)
            scope = found[0] if found is not None else frame.scope
            var_name = found[1] if found is not None else var
            count = int(np.trunc((stop - start + step) / step))
            if count < 0:
                count = 0
            value = start
            completed = True
            store = scope.store
            for _ in range(count):
                store(var_name, value)
                try:
                    for fn in body_fns:
                        fn(frame)
                except _Cycle:
                    pass
                except _Exit:
                    completed = False
                    break
                value = value + step
            if completed:
                store(var_name, start + count * step)

        return run

    def _build_do_while(self, node: DoWhile) -> Callable:
        account = self._account_fn(node)
        cond_fn = self.expr(node.condition)
        body_fns = self.body(node.body)
        loc = node.location

        def run(frame):
            account()
            while True:
                cond = cond_fn(frame)
                if isinstance(cond, np.ndarray):
                    raise VectorizationError(
                        f"member-varying do-while condition at {loc}"
                    )
                if not cond:
                    break
                try:
                    for fn in body_fns:
                        fn(frame)
                except _Cycle:
                    continue
                except _Exit:
                    break
                account()  # charge each condition re-evaluation

        return run

    def _build_select(self, node: SelectCase) -> Callable:
        account = self._account_fn(node)
        selector_fn = self.expr(node.selector)
        loc = node.location
        compiled_cases: list[tuple[Optional[list], list[Callable]]] = []
        for items, body in node.cases:
            if items is None:
                compiled_cases.append((None, self.body(body)))
                continue
            matchers = [self._build_case_item(item) for item in items]
            compiled_cases.append((matchers, self.body(body)))

        def run(frame):
            account()
            selector = selector_fn(frame)
            if isinstance(selector, np.ndarray):
                raise VectorizationError(
                    f"member-varying select-case selector at {loc}"
                )
            default_fns = None
            for matchers, body_fns in compiled_cases:
                if matchers is None:
                    default_fns = body_fns
                    continue
                for matches in matchers:
                    if matches(selector, frame):
                        for fn in body_fns:
                            fn(frame)
                        return
            if default_fns is not None:
                for fn in default_fns:
                    fn(frame)

        return run

    def _build_where(self, node: WhereBlock) -> Callable:
        interp = self.interp
        account = self._account_fn(node)
        mask_fn = self.expr(node.mask)

        def compile_masked(body):
            items = []
            for stmt in body:
                from ..fortran.ast_nodes import Assignment

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
                    where, v = lift_batches((mask_val, value), tmodel)
                    where = np.asarray(where, dtype=bool)
                    if member is not None:
                        where = where & lift_batches(
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
                inverted = (
                    np.logical_not(mask_val)
                    if isinstance(mask_val, np.ndarray)
                    else not mask_val
                )
                exec_masked(else_items, inverted, frame)

        return run

    # ------------------------------------------------------------ stores
    def _build_store_var(self, name: str) -> Callable:
        interp = self.interp
        base_store = NodeCompiler._build_store_var(self, name)
        cell: list[tuple] = []

        def store(frame, value):
            mask = interp._mask
            current_scope = frame.scope
            rname = name
            if name not in current_scope.values:
                if cell:
                    current_scope, rname = cell[0]
                else:
                    found = interp._lookup_nonlocal(frame, name)
                    if found is not None:
                        current_scope, rname = found
                        cell.append(found)
            current = current_scope.values.get(rname, _MISSING)
            if (
                mask is None
                and not isinstance(value, MemberBatch)
                and not isinstance(current, MemberBatch)
            ):
                base_store(frame, value)
                return
            if current is _MISSING:
                current_scope = frame.scope
                rname = name
                current_scope.define(name, 0)
                current = 0
            interp._store_slot(current_scope, rname, current, value, mask)

        return store

    def _build_store_element(self, target: Apply) -> Callable:
        interp = self.interp
        find = self._build_find_array(target.name)
        index_fn = self._build_index(target.args)

        def store(frame, value):
            scope, rname, container = self._found_array(find, frame, target)
            index = index_fn(frame)
            if rname in scope.readonly:
                raise IntentViolationError(
                    f"cannot assign through read-only name {rname!r}"
                )
            interp._store_into_array(
                container, index, value, interp._mask, rname
            )

        return store

    def _build_store_component(self, target: DerivedRef) -> Callable:
        interp = self.interp
        root = target
        while isinstance(root, DerivedRef):
            root = root.base
        root_name = root.name if isinstance(root, (VarRef, Apply)) else ""
        base_fn = self.expr(target.base)
        component = target.component
        index_fn = self._build_index(target.args) if target.args else None

        def store(frame, value):
            guard = None
            if root_name:
                found = interp._lookup_var(frame, root_name)
                if found is not None:
                    guard = found[0].readonly
            base = base_fn(frame)
            if not isinstance(base, DerivedValue):
                raise FortranRuntimeError(
                    f"component reference into non-derived value "
                    f"{component!r}"
                )
            mask = interp._mask
            if index_fn is not None:
                array = base.get(component)
                if not isinstance(array, np.ndarray):
                    raise FortranRuntimeError(
                        f"subscripted non-array component {component!r}"
                    )
                index = index_fn(frame)
                if guard is not None and root_name in guard:
                    raise IntentViolationError(
                        f"cannot assign through read-only name {root_name!r}"
                    )
                interp._store_into_array(array, index, value, mask, component)
                return
            if guard is not None and root_name in guard:
                raise IntentViolationError(
                    f"cannot assign through read-only name {root_name!r}"
                )
            current = base.get(component)
            if isinstance(current, np.ndarray):
                interp._store_into_array(current, None, value, mask, component)
                return
            if isinstance(value, MemberBatch) or mask is not None:
                raise VectorizationError(
                    f"member-varying store into scalar component "
                    f"{component!r}"
                )
            base.set(component, value)

        return store


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
        compile: bool = True,
    ):
        if not compile:
            raise ValueError(
                "the vectorized runtime requires the compiled path "
                "(compile=True)"
            )
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
        super().__init__(
            asts,
            fp=fp,
            seed=seed_list[0],
            collect_coverage=collect_coverage,
            max_statements=max_statements,
            compile=True,
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
                array[...] = self.eval(entity.init, frame)
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
        if isinstance(current, (bool, np.bool_)):
            dtype = np.bool_
        elif isinstance(current, (int, np.integer)):
            dtype = np.int64
        elif isinstance(current, (float, np.floating)):
            dtype = np.float64
        else:
            dtype = None
        if isinstance(value, MemberBatch) or mask is not None:
            if dtype is None:
                raise VectorizationError(
                    f"member-varying store into non-numeric scalar {rname!r}"
                )
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
            where, v = lift_batches(
                (mask.view(MemberBatch), value), dest.ndim - 1
            )
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

    # ----------------------------------------------------------- elemental
    def _dispatch_elemental(self, mrt, sub, values, caller_frame):
        if any(isinstance(v, MemberBatch) for v in values):
            # elemental bodies are scalar arithmetic: ufunc broadcasting
            # over the member axis evaluates all members in one pass
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
    from . import RunResult

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
    interp.call("cam_comp", "cam_init", [pert, seed])
    for _ in range(head.nsteps):
        interp.call("cam_comp", "cam_run_step", [])

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
    metrics.inc(
        "interpreter.statements", sum(r.statements_executed for r in results)
    )
    return results
