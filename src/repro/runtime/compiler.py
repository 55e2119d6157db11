"""Per-AST-node closure compilation: how the numerical interpreter runs.

Walking the AST would pay a type dispatch, an operator-string compare and a
full scope-chain walk for *every* node visit, and one model step visits
~355k expression nodes.  :class:`NodeCompiler` is how
:mod:`repro.runtime.interpreter` executes instead: the first visit of a node
builds a small closure, memoized per node, specialised on

* the node type and operator (no dispatch or string compares afterwards),
* the floating-point configuration (plain ``+``/``-``/``*`` when neither
  flush-to-zero nor FMA can change the result),
* the resolved procedure / intrinsic for calls (name resolution through
  use-association runs once per call site, not once per execution), and
* the non-local scope owning a variable (locals are still checked first on
  every access, so dynamic shadowing keeps its interpreted semantics).

Caches are keyed by ``id(node)`` and pin the node object, so entries stay
valid while the run lasts, and they live for one run:
``Interpreter.close()`` drops them when the run ends, which cuts the
cycles between the closures and the interpreter they capture, so
reference counting frees a finished run.  They are not shared across
runs because a closure belongs to one program and one run: a call site
holds the callee and the module state it resolved in that run (a patched
tree's callees differ) and a variable access holds the non-local scope it
found in that run's module storage.  Rebuilding them costs a 30-member
model pass about 0.015 s while the cycle collector stays out of it.

An unknown name, a subroutine used as a function, an unparsed statement or
a malformed ``present()`` compiles: it raises from its closure when it
runs, after the statement has been accounted.  The closures are
the serial reference: ``tests/runtime/test_compiler_conformance.py`` pins
digests of their runs (outputs, first-write snapshots, statement counts,
PRNG draws and coverage counts) for the control build, every patch, FMA and
FTZ, and the vectorized runtime is checked bit-for-bit against them.
"""

from __future__ import annotations

import operator
from typing import Callable, Optional

import numpy as np

from ..fortran.ast_nodes import (
    Apply,
    Assignment,
    BinOp,
    CallStmt,
    ContinueStmt,
    CycleStmt,
    DerivedRef,
    DoLoop,
    DoWhile,
    ExitStmt,
    Expr,
    IfBlock,
    LogicalLit,
    NumberLit,
    PointerAssignment,
    ReturnStmt,
    SectionRange,
    SelectCase,
    Stmt,
    StopStmt,
    StringLit,
    UnaryOp,
    UnparsedStmt,
    VarRef,
    WhereBlock,
)
from ..fortran.intrinsics import SUBROUTINE_INTRINSICS
from .intrinsics import INTRINSIC_FUNCTIONS
from .values import (
    DerivedValue,
    FortranRuntimeError,
    IntentViolationError,
    StatementLimitExceeded,
    StopModel,
    UndefinedNameError,
    _Cycle,
    _Exit,
    _Return,
)

__all__ = ["NodeCompiler"]

_MISSING = object()
_ALL = slice(None)


def _same(value):
    return value


def _truthy(value) -> bool:
    if isinstance(value, np.ndarray):
        raise FortranRuntimeError(
            "scalar logical required (array condition in if/do while)"
        )
    return bool(value)


class NodeCompiler:
    """Build and memoize per-node evaluator closures for one interpreter."""

    __slots__ = ("interp", "expr_cache", "stmt_cache", "body_cache")

    #: expression-intrinsic implementations call sites specialise on; the
    #: vectorized compiler swaps in member-batch-aware wrappers
    _intrinsic_table = INTRINSIC_FUNCTIONS

    def __init__(self, interp):
        self.interp = interp
        #: id(node) -> (node, closure); the node reference pins the id
        self.expr_cache: dict[int, tuple[Expr, Callable]] = {}
        self.stmt_cache: dict[int, tuple[Stmt, Callable]] = {}
        self.body_cache: dict[int, tuple[list, list[Callable]]] = {}

    # ------------------------------------------------------------- entry
    def expr(self, node: Expr) -> Callable:
        cached = self.expr_cache.get(id(node))
        if cached is not None:
            return cached[1]
        fn = self._build_expr(node)
        self.expr_cache[id(node)] = (node, fn)
        return fn

    def stmt(self, node: Stmt) -> Callable:
        cached = self.stmt_cache.get(id(node))
        if cached is not None:
            return cached[1]
        fn = self._build_stmt(node)
        self.stmt_cache[id(node)] = (node, fn)
        return fn

    def body(self, body: list[Stmt]) -> list[Callable]:
        fns = [self.stmt(s) for s in body]
        self.body_cache[id(body)] = (body, fns)
        return fns

    # ------------------------------------------------------ expressions
    def _build_expr(self, node: Expr) -> Callable:
        t = type(node)
        if t is NumberLit:
            value = int(node.value) if node.is_integer else float(node.value)
            return lambda frame: value
        if t is StringLit:
            text = node.value
            return lambda frame: text
        if t is LogicalLit:
            flag = node.value
            return lambda frame: flag
        if t is VarRef:
            return self._build_varref(node)
        if t is BinOp:
            return self._build_binop(node)
        if t is Apply:
            return self._build_apply(node)
        if t is DerivedRef:
            return self._build_derivedref(node)
        if t is UnaryOp:
            return self._build_unary(node)
        name = t.__name__

        def fail(frame):
            raise FortranRuntimeError(f"cannot evaluate expression {name}")

        return fail

    def _build_varref(self, node: VarRef) -> Callable:
        interp = self.interp
        name = node.name
        cell: list[tuple[dict, str]] = []

        def run(frame):
            value = frame.scope.values.get(name, _MISSING)
            if value is not _MISSING:
                return value
            if cell:
                v = cell[0][0].get(cell[0][1], _MISSING)
                if v is not _MISSING:
                    return v
            found = interp._lookup_nonlocal(frame, name)
            if found is None:
                raise UndefinedNameError(
                    f"undefined name {name!r} in {frame.scope.name!r} "
                    f"(module {frame.module.node.name!r})"
                )
            scope, rname = found
            if not cell:
                cell.append((scope.values, rname))
            return scope.values[rname]

        return run

    #: unary minus on an evaluated operand (the vectorized compiler's
    #: also negates member batches)
    _negate = staticmethod(operator.neg)

    def _build_unary(self, node: UnaryOp) -> Callable:
        operand = self.expr(node.operand)
        if node.op == "-":
            return lambda frame: -operand(frame)
        if node.op == ".not.":

            def run(frame):
                value = operand(frame)
                if isinstance(value, np.ndarray):
                    return np.logical_not(value)
                return not value

            return run
        op = node.op

        def fail(frame):
            raise FortranRuntimeError(f"unsupported unary operator {op!r}")

        return fail

    def _build_binop(self, node: BinOp) -> Callable:
        op = node.op
        if op in ("+", "-"):
            return self._build_addsub(node)
        left = self.expr(node.left)
        right = self.expr(node.right)
        fpu = self.interp.fpu
        if op == "*":
            if not fpu._ftz:
                return lambda frame: left(frame) * right(frame)
            mul = fpu.mul
            return lambda frame: mul(left(frame), right(frame))
        if op == "/":
            div = fpu.div
            return lambda frame: div(left(frame), right(frame))
        if op == "**":
            power = fpu.pow
            return lambda frame: power(left(frame), right(frame))
        if op == "==":
            return lambda frame: left(frame) == right(frame)
        if op == "/=":
            return lambda frame: left(frame) != right(frame)
        if op == "<":
            return lambda frame: left(frame) < right(frame)
        if op == "<=":
            return lambda frame: left(frame) <= right(frame)
        if op == ">":
            return lambda frame: left(frame) > right(frame)
        if op == ">=":
            return lambda frame: left(frame) >= right(frame)
        if op == ".and.":

            def run_and(frame):
                l = left(frame)
                r = right(frame)
                if isinstance(l, np.ndarray) or isinstance(r, np.ndarray):
                    return np.logical_and(l, r)
                return bool(l) and bool(r)

            return run_and
        if op == ".or.":

            def run_or(frame):
                l = left(frame)
                r = right(frame)
                if isinstance(l, np.ndarray) or isinstance(r, np.ndarray):
                    return np.logical_or(l, r)
                return bool(l) or bool(r)

            return run_or
        if op == "//":
            return lambda frame: str(left(frame)) + str(right(frame))

        def fail(frame):
            raise FortranRuntimeError(f"unsupported binary operator {op!r}")

        return fail

    def _build_addsub(self, node: BinOp) -> Callable:
        """``+``/``-`` with the FMA-contraction pattern resolved at compile
        time; operands evaluate left to right whether or not a site fuses."""
        interp = self.interp
        fpu = interp.fpu
        fp = interp.fp
        op = node.op
        left = self.expr(node.left)
        right = self.expr(node.right)
        left_mul = isinstance(node.left, BinOp) and node.left.op == "*"
        right_mul = isinstance(node.right, BinOp) and node.right.op == "*"
        if not fp.fma or not (left_mul or right_mul):
            if not fpu._ftz and not fp.fma:
                if op == "+":
                    return lambda frame: left(frame) + right(frame)
                return lambda frame: left(frame) - right(frame)
            fused_add = fpu.add if op == "+" else fpu.sub
            return lambda frame: fused_add(left(frame), right(frame))

        add, sub, mul, fma = fpu.add, fpu.sub, fpu.mul, fpu.fma
        neg = self._negate
        enabled_in = fp.fma_enabled_in
        all_int = interp._all_int
        if left_mul:
            a_fn = self.expr(node.left.left)
            b_fn = self.expr(node.left.right)

            def run(frame):
                if not enabled_in(frame.module.node.name):
                    l = left(frame)
                    r = right(frame)
                    return add(l, r) if op == "+" else sub(l, r)
                a = a_fn(frame)
                b = b_fn(frame)
                c = right(frame)
                if all_int(a, b, c):
                    product = mul(a, b)
                    return add(product, c) if op == "+" else sub(product, c)
                return fma(a, b, c if op == "+" else neg(c))

            return run

        a_fn = self.expr(node.right.left)
        b_fn = self.expr(node.right.right)

        def run(frame):
            if not enabled_in(frame.module.node.name):
                l = left(frame)
                r = right(frame)
                return add(l, r) if op == "+" else sub(l, r)
            # left-to-right operand evaluation, as in the unfused path
            c = left(frame)
            a = a_fn(frame)
            b = b_fn(frame)
            if all_int(a, b, c):
                product = mul(a, b)
                return add(c, product) if op == "+" else sub(c, product)
            if op == "+":
                return fma(a, b, c)
            return fma(neg(a), b, c)  # c - a*b

        return run

    # ------------------------------------------------------- subscripts
    def _build_index(
        self, args: list[Expr], member_axis: bool = False
    ) -> Callable:
        """Compile a subscript list straight to a numpy index tuple
        (:func:`repro.runtime.values.fortran_slices` semantics), led by
        ``slice(None)`` for an array with a member axis."""
        lead = (_ALL,) if member_axis else ()
        if all(not isinstance(a, SectionRange) for a in args):
            fns = [self.expr(a) for a in args]
            if len(fns) == 1:
                f0 = fns[0]
                if member_axis:
                    return lambda frame: (_ALL, int(f0(frame)) - 1)
                return lambda frame: (int(f0(frame)) - 1,)
            if len(fns) == 2:
                f0, f1 = fns
                if member_axis:
                    return lambda frame: (
                        _ALL, int(f0(frame)) - 1, int(f1(frame)) - 1
                    )
                return lambda frame: (int(f0(frame)) - 1, int(f1(frame)) - 1)
            return lambda frame: lead + tuple(int(fn(frame)) - 1 for fn in fns)

        def make_part(arg):
            if not isinstance(arg, SectionRange):
                fn = self.expr(arg)
                return lambda frame: int(fn(frame)) - 1
            lower = None if arg.lower is None else self.expr(arg.lower)
            upper = None if arg.upper is None else self.expr(arg.upper)
            stride = None if arg.stride is None else self.expr(arg.stride)

            def part(frame):
                start = None if lower is None else int(lower(frame)) - 1
                step = None if stride is None else int(stride(frame))
                if step is not None and step < 0:
                    if upper is None:
                        stop = None
                    else:
                        stop = int(upper(frame)) - 2
                        if stop < 0:
                            stop = None
                else:
                    stop = None if upper is None else int(upper(frame))
                return slice(start, stop, step)

            return part

        parts = [make_part(a) for a in args]
        return lambda frame: lead + tuple(p(frame) for p in parts)

    # ------------------------------------------------------------ apply
    def _build_apply(self, node: Apply) -> Callable:
        """Self-specialising call/indexing node: the first execution resolves
        the name's class (array, procedure, ``present``, intrinsic) — stable
        per scoping unit in Fortran — and installs the specialised closure."""
        impl: Optional[Callable] = None

        def bootstrap(frame):
            nonlocal impl
            if impl is None:
                impl = self._specialize_apply(node, frame)
            return impl(frame)

        return bootstrap

    def _specialize_apply(self, node: Apply, frame) -> Callable:
        interp = self.interp
        name = node.name
        if interp._lookup_var(frame, name) is not None:
            return self._build_array_index(node)
        resolved = interp._lookup_proc(frame.module, name, frozenset())
        if resolved is not None:
            target_mrt, sub = resolved
            if not sub.is_function:
                raise FortranRuntimeError(
                    f"subroutine {sub.name!r} referenced as a function"
                )
            args = node.args
            keywords = node.keywords
            call = interp._call_subprogram
            return lambda f: call(target_mrt, sub, args, keywords, f, True)
        lowered = name.lower()
        if lowered == "present":
            if len(node.args) != 1 or not isinstance(node.args[0], VarRef):
                raise FortranRuntimeError(
                    "present() takes exactly one dummy-argument name"
                )
            arg_name = node.args[0].name
            return lambda f: arg_name not in f.optional_missing
        fn = self._intrinsic(lowered)
        if fn is not None:
            arg_fns = [self.expr(a) for a in node.args]
            if node.keywords:
                kw_fns = {k: self.expr(v) for k, v in node.keywords.items()}

                def run(f):
                    return fn(
                        *[a(f) for a in arg_fns],
                        **{k: v(f) for k, v in kw_fns.items()},
                    )

                return run
            if len(arg_fns) == 1:
                a0 = arg_fns[0]
                return lambda f: fn(a0(f))
            if len(arg_fns) == 2:
                a0, a1 = arg_fns
                return lambda f: fn(a0(f), a1(f))
            return lambda f: fn(*[a(f) for a in arg_fns])
        raise UndefinedNameError(
            f"unknown function or array {name!r} in module "
            f"{frame.module.node.name!r}"
        )

    def _intrinsic(self, name: str) -> Optional[Callable]:
        """The implementation a call site of intrinsic ``name`` runs."""
        return self._intrinsic_table.get(name)

    def _build_find_array(self, name: str) -> Callable:
        """Compile an array name to ``find(frame) -> (scope, rname, value)``
        (None when no scope defines it); the owning non-local scope is
        resolved once per site, locals are still checked first."""
        interp = self.interp
        cell: list[tuple] = []

        def find(frame):
            scope = frame.scope
            container = scope.values.get(name, _MISSING)
            if container is not _MISSING:
                return scope, name, container
            if cell:
                scope, rname = cell[0]
                container = scope.values.get(rname, _MISSING)
                if container is not _MISSING:
                    return scope, rname, container
            found = interp._lookup_nonlocal(frame, name)
            if found is None:
                return None
            if not cell:
                cell.append(found)
            scope, rname = found
            return scope, rname, scope.values[rname]

        return find

    def _build_element_load(self, args: list[Expr]) -> Callable:
        """Compile a subscript list to ``load(container, frame)``: the
        element as a Python scalar, or the section as an array (the
        vectorized compiler adds member batches)."""
        index_fn = self._build_index(args)

        def load(container, frame):
            value = container[index_fn(frame)]
            if isinstance(value, np.ndarray):
                return value
            return value.item() if hasattr(value, "item") else value

        return load

    def _build_array_index(self, node: Apply) -> Callable:
        find = self._build_find_array(node.name)
        load = self._build_element_load(node.args)

        def run(frame):
            found = find(frame)
            if found is None:
                # the name is no longer a variable in this frame: resolve
                # it afresh, as a procedure, an intrinsic or an error
                return self._specialize_apply(node, frame)(frame)
            if not isinstance(found[2], np.ndarray):
                raise FortranRuntimeError(
                    f"{node.name!r} is not an array or function"
                )
            return load(found[2], frame)

        return run

    def _build_derivedref(self, node: DerivedRef) -> Callable:
        interp = self.interp
        base_fn = self.expr(node.base)
        component = node.component
        load = self._build_element_load(node.args) if node.args else None

        def run(frame):
            base = base_fn(frame)
            if not isinstance(base, DerivedValue):
                raise FortranRuntimeError(
                    f"component reference {component!r} into non-derived value"
                )
            value = base.get(component)
            if load is not None:
                return load(value, frame)
            return value

        return run

    # ------------------------------------------------------- statements
    def _account_fn(self, node: Stmt) -> Callable[[], None]:
        """One statement execution: budget check, then coverage count."""
        interp = self.interp
        loc = node.location
        key = (loc.filename, loc.line) if loc.line > 0 else None
        cov = interp._cov_counts
        limit = interp.max_statements

        if cov is None or key is None:

            def account():
                n = interp.statements_executed + 1
                interp.statements_executed = n
                if n > limit:
                    raise StatementLimitExceeded(
                        f"statement budget of {limit} exhausted "
                        f"(possible runaway loop at {loc})"
                    )

            return account

        def account():
            n = interp.statements_executed + 1
            interp.statements_executed = n
            if n > limit:
                raise StatementLimitExceeded(
                    f"statement budget of {limit} exhausted "
                    f"(possible runaway loop at {loc})"
                )
            cov[key] = cov.get(key, 0) + 1

        return account

    def _build_stmt(self, node: Stmt) -> Callable:
        t = type(node)
        if t is Assignment or t is PointerAssignment:
            return self._build_assignment(node)
        if t is CallStmt:
            return self._build_call(node)
        if t is IfBlock:
            return self._build_if(node)
        if t is DoLoop:
            return self._build_do(node)
        if t is DoWhile:
            return self._build_do_while(node)
        if t is SelectCase:
            return self._build_select(node)
        if t is WhereBlock:
            return self._build_where(node)
        account = self._account_fn(node)
        if t in (ReturnStmt, ExitStmt, CycleStmt, StopStmt):
            return self._build_flow_stmt(node, account)
        if t is ContinueStmt:
            return lambda frame: account()
        if t is UnparsedStmt:
            message = (
                f"cannot execute unparsed statement at {node.location}: "
                f"{node.text!r}"
            )
        else:
            message = f"cannot execute statement {t.__name__} at {node.location}"

        def fail(frame):
            account()
            raise FortranRuntimeError(message)

        return fail

    def _build_flow_stmt(self, node: Stmt, account: Callable) -> Callable:
        """``return`` / ``exit`` / ``cycle`` / ``stop`` (overridable: the
        vectorized compiler refuses these under diverged member masks)."""
        t = type(node)
        if t is ReturnStmt:
            def run_return(frame):
                account()
                raise _Return()

            return run_return
        if t is ExitStmt:
            def run_exit(frame):
                account()
                raise _Exit()

            return run_exit
        if t is CycleStmt:
            def run_cycle(frame):
                account()
                raise _Cycle()

            return run_cycle
        message = node.message

        def run_stop(frame):
            account()
            raise StopModel(message)

        return run_stop

    # ------------------------------------------------------- assignment
    def _build_assignment(self, node) -> Callable:
        account = self._account_fn(node)
        value_fn = self.expr(node.value)
        store_fn = self._build_store(node.target)

        def run(frame):
            account()
            store_fn(frame, value_fn(frame))

        return run

    def _build_store(self, target: Expr) -> Callable:
        """Compile an assignment target to a ``store(frame, value)`` closure
        with the resolution of :meth:`Interpreter._resolve_target` and the
        guard and coercion of :meth:`Interpreter._coerce_store`."""
        t = type(target)
        if t is VarRef:
            return self._build_store_var(target.name)
        if t is Apply:
            return self._build_store_element(target)
        if t is DerivedRef:
            return self._build_store_component(target)
        interp = self.interp

        def fallback(frame, value):
            ref = interp._resolve_target(target, frame)
            interp._coerce_store(ref, value)

        return fallback

    def _build_store_var(self, name: str) -> Callable:
        interp = self.interp
        cell: list[tuple] = []

        def store(frame, value):
            scope = frame.scope
            rname = name
            if name not in scope.values:
                if cell:
                    scope, rname = cell[0]
                else:
                    found = interp._lookup_nonlocal(frame, name)
                    if found is None:
                        # implicit definition (e.g. an undeclared do index)
                        scope.define(name, 0)
                    else:
                        scope, rname = found
                        cell.append(found)
            current = scope.values.get(rname)
            if isinstance(current, (int, np.integer)) and not isinstance(
                current, (bool, np.bool_)
            ):
                if isinstance(value, (float, np.floating)):
                    value = int(np.trunc(value))
                else:
                    value = int(value)
            elif isinstance(current, float) and not isinstance(
                value, np.ndarray
            ):
                value = float(value)
            elif isinstance(current, (bool, np.bool_)):
                value = bool(value)
            scope.store(rname, value)

        return store

    def _build_store_element(self, target: Apply) -> Callable:
        find = self._build_find_array(target.name)
        store_into = self._build_store_into(target.args)

        def store(frame, value):
            scope, rname, container = self._found_array(find, frame, target)
            store_into(container, frame, value, scope.readonly, rname)

        return store

    def _build_store_into(self, args, what: Optional[str] = None) -> Callable:
        """Compile a subscripted store to ``store(array, frame, value,
        guard, name)``: subscripts, then the read-only check of ``name``
        against ``guard``, then the store into ``array`` (the vectorized
        compiler's errors name it ``what``, or ``name``)."""
        index_fn = self._build_index(args)

        def store(array, frame, value, guard, name):
            index = index_fn(frame)
            if guard is not None and name in guard:
                raise IntentViolationError(
                    f"cannot assign through read-only name {name!r}"
                )
            array[index] = value

        return store

    @staticmethod
    def _found_array(find, frame, target: Apply) -> tuple:
        """``find(frame)`` for a subscripted assignment target, which must
        name an existing array."""
        found = find(frame)
        if found is None:
            raise UndefinedNameError(
                f"assignment to unknown array {target.name!r}"
            )
        if not isinstance(found[2], np.ndarray):
            raise FortranRuntimeError(
                f"subscripted assignment to non-array {found[1]!r}"
            )
        return found

    def _build_store_component(self, target: DerivedRef) -> Callable:
        interp = self.interp
        root = target
        while isinstance(root, DerivedRef):
            root = root.base
        root_name = root.name if isinstance(root, (VarRef, Apply)) else ""
        base_fn = self.expr(target.base)
        component = target.component
        store_into = (
            self._build_store_into(target.args, component)
            if target.args
            else None
        )
        set_component = self._set_component

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
            if store_into is not None:
                array = base.get(component)
                if not isinstance(array, np.ndarray):
                    raise FortranRuntimeError(
                        f"subscripted non-array component {component!r}"
                    )
                store_into(array, frame, value, guard, root_name)
                return
            if guard is not None and root_name in guard:
                raise IntentViolationError(
                    f"cannot assign through read-only name {root_name!r}"
                )
            set_component(base, component, value)

        return store

    def _set_component(self, base: DerivedValue, component: str, value):
        """Store a whole derived-type component."""
        base.set(component, value)

    # ------------------------------------------------------------ calls
    def _build_call(self, node: CallStmt) -> Callable:
        """Self-specialising call statement: procedure resolution (and the
        intercept check) runs once per call site."""
        account = self._account_fn(node)
        impl: Optional[Callable] = None

        def run(frame):
            nonlocal impl
            account()
            if impl is None:
                impl = self._specialize_call(node, frame)
            impl(frame)

        return run

    def _specialize_call(self, node: CallStmt, frame) -> Callable:
        interp = self.interp
        resolved = interp._lookup_proc(frame.module, node.name, frozenset())
        if resolved is not None:
            target_mrt, sub = resolved
            args = node.args
            keywords = node.keywords
            intercept = interp._intercepts.get((target_mrt.node.name, sub.name))
            if intercept is not None:
                return lambda f: intercept(f, args, keywords, target_mrt, sub)
            call = interp._call_subprogram
            return lambda f: call(target_mrt, sub, args, keywords, f, False)
        lowered = node.name.lower()
        if lowered in SUBROUTINE_INTRINSICS:
            args = node.args
            keywords = node.keywords
            intrinsic = interp._call_intrinsic_subroutine
            return lambda f: intrinsic(lowered, args, keywords, f)
        raise UndefinedNameError(
            f"call to unknown subroutine {node.name!r} from module "
            f"{frame.module.node.name!r}"
        )

    # ----------------------------------------------------- control flow
    def _build_if(self, node: IfBlock) -> Callable:
        account = self._account_fn(node)
        branches = [
            (None if cond is None else self.expr(cond), self.body(body))
            for cond, body in node.branches
        ]

        def run(frame):
            account()
            for cond_fn, body_fns in branches:
                if cond_fn is None or _truthy(cond_fn(frame)):
                    for fn in body_fns:
                        fn(frame)
                    return

        return run

    def _control_value(self, node: Stmt, what: str) -> Callable:
        """``check(value)`` for a ``do`` bound, ``do while`` condition or
        ``select`` selector (the vectorized compiler refuses
        member-varying ones)."""
        return _same

    def _build_do(self, node: DoLoop) -> Callable:
        interp = self.interp
        account = self._account_fn(node)
        start_fn = self.expr(node.start)
        stop_fn = self.expr(node.stop)
        step_fn = None if node.step is None else self.expr(node.step)
        body_fns = self.body(node.body)
        var = node.var
        loc = node.location

        bound = self._control_value(node, "do-loop bounds")
        iterate = self._build_iterations(node, body_fns)

        def run(frame):
            account()
            start = bound(start_fn(frame))
            stop = bound(stop_fn(frame))
            step = bound(step_fn(frame)) if step_fn is not None else 1
            if step == 0:
                raise FortranRuntimeError(f"zero do-loop step at {loc}")
            found = interp._lookup_var(frame, var)
            scope = found[0] if found is not None else frame.scope
            var_name = found[1] if found is not None else var
            count = int(np.trunc((stop - start + step) / step))
            if count < 0:
                count = 0
            iterate(frame, scope, var_name, start, count, step)

        return run

    def _build_iterations(self, node: DoLoop, body_fns: list) -> Callable:
        """``iterate(frame, scope, var_name, start, count, step)``: the
        loop's iterations, one after another (the vectorized compiler
        runs independent ones as one lane region instead)."""

        def iterate(frame, scope, var_name, start, count, step):
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
                # Fortran leaves the control variable one step past the last
                store(var_name, start + count * step)

        return iterate

    def _build_do_while(self, node: DoWhile) -> Callable:
        account = self._account_fn(node)
        cond_fn = self.expr(node.condition)
        body_fns = self.body(node.body)
        condition = self._control_value(node, "do-while condition")

        def run(frame):
            account()
            while _truthy(condition(cond_fn(frame))):
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
        compiled_cases: list[tuple[Optional[list], list[Callable]]] = []
        for items, body in node.cases:
            if items is None:
                compiled_cases.append((None, self.body(body)))
                continue
            matchers = [self._build_case_item(item) for item in items]
            compiled_cases.append((matchers, self.body(body)))
        selected = self._control_value(node, "select-case selector")

        def run(frame):
            account()
            selector = selected(selector_fn(frame))
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

    def _build_case_item(self, item) -> Callable:
        if not item.is_range:
            value_fn = self.expr(item.value)
            return lambda selector, frame: bool(selector == value_fn(frame))
        lower_fn = None if item.lower is None else self.expr(item.lower)
        upper_fn = None if item.upper is None else self.expr(item.upper)

        def matches(selector, frame):
            if lower_fn is not None and selector < lower_fn(frame):
                return False
            if upper_fn is not None and selector > upper_fn(frame):
                return False
            return True

        return matches

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

        def exec_masked(items, mask, frame):
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
                np.copyto(target, value, where=mask, casting="unsafe")

        def run(frame):
            account()
            mask = np.asarray(mask_fn(frame), dtype=bool)
            exec_masked(body_items, mask, frame)
            if else_items:
                exec_masked(else_items, ~mask, frame)

        return run
