"""AST-walking numerical interpreter for the Fortran-subset model.

This is the runtime half of the paper's pipeline: it executes the *same*
cached ASTs that :meth:`repro.model.builder.ModelSource.parse` hands to the
metagraph builder, so the digraph and the numbers always describe the same
build.  The interpreter provides

* module storage with use-association (including renames) and lazily
  initialised module variables/parameters;
* intent-aware argument binding — whole arrays and derived-type values are
  shared by reference, scalars are copied in and copied back for
  ``intent(out)``/``intent(inout)``, and stores through ``intent(in)``
  dummies or ``parameter`` names raise :class:`IntentViolationError`;
* the full executable-statement subset: assignments, ``if``/``else if``,
  ``do`` (with step/``exit``/``cycle``), ``do while``, ``select case``
  (values and ranges), ``where``, ``return``/``stop``;
* a floating-point model (:mod:`repro.runtime.fpu`) with optional FMA
  contraction of ``a*b + c`` patterns, the paper's compiler-flag knob;
* reproducible stream-per-module PRNGs (:mod:`repro.runtime.prng`) wired
  into ``shr_random_mod`` and the ``random_number`` intrinsic;
* per-(file, line) execution counts (:mod:`repro.runtime.coverage`) for the
  later coverage-filtering pipeline stages;
* interception of the model's history layer (``outfld``/``outfld2d``) so a
  run yields named output-variable fields without any I/O.

The interpreter is deliberately strict: unknown names, unparsed statements
and writes through read-only bindings raise immediately rather than
producing silently wrong physics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np

from ..fortran.ast_nodes import (
    Apply,
    Assignment,
    BinOp,
    CallStmt,
    ContinueStmt,
    CycleStmt,
    Declaration,
    DerivedRef,
    DoLoop,
    DoWhile,
    EntityDecl,
    ExitStmt,
    Expr,
    IfBlock,
    LogicalLit,
    ModuleNode,
    NumberLit,
    PointerAssignment,
    ReturnStmt,
    SectionRange,
    SelectCase,
    SourceFileAST,
    Stmt,
    StopStmt,
    StringLit,
    Subprogram,
    TypeDef,
    UnaryOp,
    UnparsedStmt,
    UseStmt,
    VarRef,
    WhereBlock,
)
from ..fortran.intrinsics import SUBROUTINE_INTRINSICS
from ..fortran.parser import parse_source
from ..model.builder import ModelSource, build_model_source
from ..model.registry import iter_output_fields
from .compiler import NodeCompiler
from .config import FPConfig, RunConfig
from .coverage import CoverageTrace
from .fpu import FPU
from .intrinsics import INTRINSIC_FUNCTIONS
from .prng import PRNGStreams
from .result import RunResult
from .values import (
    ComponentRef,
    DerivedValue,
    ElementRef,
    FortranRuntimeError,
    IntentViolationError,
    Ref,
    Scope,
    ScopeRef,
    StatementLimitExceeded,
    StopModel,
    UndefinedNameError,
    _Cycle,
    _Exit,
    _Return,
    fortran_slices,
)

__all__ = [
    "History",
    "Interpreter",
    "StatementLimitExceeded",
    "StopModel",
    "run_model",
]


@dataclass
class ModuleRuntime:
    """Runtime state of one Fortran module."""

    node: ModuleNode
    scope: Scope
    renames: dict[str, tuple[str, str]] = field(default_factory=dict)
    blanket: list[str] = field(default_factory=list)
    subprograms: dict[str, Subprogram] = field(default_factory=dict)


class Frame:
    """One execution frame: a subprogram activation or a module context."""

    __slots__ = ("module", "sub", "scope", "optional_missing", "caller")

    def __init__(
        self,
        module: ModuleRuntime,
        sub: Optional[Subprogram],
        scope: Scope,
        caller: Optional["Frame"] = None,
    ):
        self.module = module
        self.sub = sub
        self.scope = scope
        self.optional_missing: set[str] = set()
        self.caller = caller


@dataclass
class _EntityInfo:
    """Declaration metadata of one entity, indexed once per subprogram."""

    decl: Declaration
    entity: EntityDecl

    @property
    def intent(self) -> Optional[str]:
        return self.decl.intent

    @property
    def optional(self) -> bool:
        return "optional" in self.decl.attributes


class History:
    """Named output fields captured from ``outfld``/``outfld2d`` calls.

    ``fields`` holds the *latest* write of every field (the end-of-run
    state); ``first`` holds the *first* write (the end of the first model
    step, since the model writes every field exactly once per step).  The
    first-write snapshot is the consistency-testing layer's "ultra-fast"
    view: after one step many fields are still untouched by the random
    physics, so ULP-level effects (FMA contraction) remain bit-visible
    there long after chaos has swamped them in the final state.
    """

    def __init__(self) -> None:
        self.fields: dict[str, object] = {}
        self.first: dict[str, object] = {}
        self.ncalls: dict[str, int] = {}

    def record(self, name: str, value) -> None:
        if isinstance(value, np.ndarray):
            value = value.copy()
        if name not in self.first:
            self.first[name] = value
        self.fields[name] = value
        self.ncalls[name] = self.ncalls.get(name, 0) + 1

    def names(self) -> list[str]:
        return sorted(self.fields)


_DTYPES = {
    "real": np.float64,
    "integer": np.int64,
    "logical": np.bool_,
}

_SCALAR_DEFAULTS = {
    "real": 0.0,
    "integer": 0,
    "logical": False,
    "character": "",
}


class Interpreter:
    """Execute parsed Fortran modules numerically (see module docstring)."""

    def __init__(
        self,
        asts: Mapping[str, SourceFileAST],
        fp: Optional[FPConfig] = None,
        seed: int = 12345,
        collect_coverage: bool = True,
        max_statements: int = 50_000_000,
        compile: bool = True,
    ):
        self.fpu = self._fpu_factory(fp)
        self.fp = self.fpu.config
        self.prng = PRNGStreams(seed)
        self.coverage: Optional[CoverageTrace] = (
            CoverageTrace() if collect_coverage else None
        )
        self._cov_counts = (
            self.coverage.counts if self.coverage is not None else None
        )
        self.history = History()
        self.statements_executed = 0
        self.max_statements = max_statements

        self._module_nodes: dict[str, ModuleNode] = {}
        for ast in asts.values():
            for mod in ast.modules:
                self._module_nodes[mod.name] = mod
        self.modules: dict[str, ModuleRuntime] = {}
        self._initializing: set[str] = set()
        #: id(sub) -> (sub, {entity: _EntityInfo}); the sub ref pins the id
        self._sub_info_cache: dict[int, tuple[Subprogram, dict[str, _EntityInfo]]] = {}

        self._intercepts = {
            ("cam_history", "outfld"): self._intercept_outfld,
            ("cam_history", "outfld2d"): self._intercept_outfld,
            ("shr_random_mod", "shr_random_raw"): self._intercept_random_raw,
            ("shr_random_mod", "shr_random_setseed"): self._intercept_setseed,
        }

        self._eval_dispatch = {
            NumberLit: self._eval_number,
            StringLit: lambda e, f: e.value,
            LogicalLit: lambda e, f: e.value,
            VarRef: self._eval_varref,
            Apply: self._eval_apply,
            DerivedRef: self._eval_derivedref,
            UnaryOp: self._eval_unary,
            BinOp: self._eval_binop,
        }
        self._exec_dispatch = {
            Assignment: self._exec_assignment,
            PointerAssignment: self._exec_assignment,
            CallStmt: self._exec_call,
            IfBlock: self._exec_if,
            DoLoop: self._exec_do,
            DoWhile: self._exec_do_while,
            SelectCase: self._exec_select,
            WhereBlock: self._exec_where,
            ReturnStmt: self._exec_return,
            ExitStmt: self._exec_exit,
            CycleStmt: self._exec_cycle,
            StopStmt: self._exec_stop,
            ContinueStmt: self._exec_continue,
            UnparsedStmt: self._exec_unparsed,
        }

        #: per-AST-node memoized evaluators (None => pure dispatch walking,
        #: the reference semantics the compiled path must match bit-for-bit)
        self._compiler: Optional[NodeCompiler] = (
            self._compiler_factory(self) if compile else None
        )

    #: the closure compiler this interpreter builds when ``compile=True``;
    #: subclasses (the vectorized runtime) swap in their own
    _compiler_factory = NodeCompiler
    #: the FPU class every operation routes through (the vectorized
    #: runtime's lifts member batches)
    _fpu_factory = FPU

    # ------------------------------------------------------------------ API
    @classmethod
    def from_source(
        cls,
        source: str,
        filename: str = "<test>",
        macros: Optional[dict[str, str]] = None,
        **kwargs,
    ) -> "Interpreter":
        """Build an interpreter over a single source text (testing helper)."""
        ast = parse_source(source, filename=filename, macros=macros)
        return cls({filename: ast}, **kwargs)

    def call(self, module_name: str, sub_name: str, args: Sequence = ()):
        """Call a module subprogram with Python values as actual arguments.

        Returns the function result for functions, ``None`` for subroutines.
        Output arrays passed in as :class:`numpy.ndarray` are shared, so the
        caller observes ``intent(out)`` results in place.
        """
        # Fortran does not trap: a real division by zero, an overflow or an
        # invalid operation yields its IEEE value, and a vectorized
        # evaluation of a lane or member no branch keeps stays silent
        with np.errstate(all="ignore"):
            mrt = self.module(module_name)
            sub = mrt.subprograms.get(sub_name)
            if sub is None:
                raise UndefinedNameError(
                    f"module {module_name!r} has no subprogram {sub_name!r}"
                )
            return self._call_with_values(mrt, sub, list(args))

    def close(self) -> None:
        """End the run: drop the compiled closures and the bound-method
        tables, the only references a run's objects hold back to this
        interpreter, so reference counting frees the run at once instead
        of leaving it to the cycle collector.  ``history``, ``coverage``
        and ``prng`` stay readable; the interpreter cannot run again."""
        compiler = self._compiler
        if compiler is not None:
            compiler.expr_cache.clear()
            compiler.stmt_cache.clear()
            compiler.body_cache.clear()
            self._compiler = None
        self._eval_dispatch = self._exec_dispatch = self._intercepts = None

    # --------------------------------------------------------- module state
    def module(self, name: str) -> ModuleRuntime:
        """The runtime state of module ``name``, initialising it on demand."""
        rt = self.modules.get(name)
        if rt is not None:
            return rt
        node = self._module_nodes.get(name)
        if node is None:
            raise UndefinedNameError(
                f"no module named {name!r} is compiled into this build"
            )
        if name in self._initializing:
            raise FortranRuntimeError(
                f"circular module initialisation involving {name!r}"
            )
        self._initializing.add(name)
        try:
            rt = ModuleRuntime(node=node, scope=Scope(name))
            for use in node.uses:
                self._index_use(rt, use)
            stack: list[Subprogram] = list(node.subprograms.values())
            while stack:
                sub = stack.pop()
                rt.subprograms[sub.name] = sub
                stack.extend(sub.contains)
            # register before evaluating declarations so earlier entities of
            # this module are visible to later initialisers
            self.modules[name] = rt
            frame = Frame(rt, None, rt.scope)
            for decl in node.declarations:
                if isinstance(decl, Declaration):
                    self._declare(frame, decl)
        except BaseException:
            self.modules.pop(name, None)
            raise
        finally:
            self._initializing.discard(name)
        return rt

    @staticmethod
    def _index_use(rt: ModuleRuntime, use: UseStmt) -> None:
        if use.has_only or use.only:
            for rename in use.only:
                rt.renames[rename.local] = (use.module, rename.remote)
        else:
            rt.blanket.append(use.module)

    # ------------------------------------------------------ name resolution
    def _lookup_var(
        self, frame: Frame, name: str
    ) -> Optional[tuple[Scope, str]]:
        """The scope owning variable ``name`` as seen from ``frame``."""
        scope = frame.scope
        if name in scope:
            return scope, name
        mrt = frame.module
        if scope is not mrt.scope and name in mrt.scope:
            return mrt.scope, name
        return self._resolve_use_var(mrt, name, frozenset())

    def _lookup_nonlocal(
        self, frame: Frame, name: str
    ) -> Optional[tuple[Scope, str]]:
        """:meth:`_lookup_var` minus the frame-local check (the compiled
        closures test frame locals inline before falling back here)."""
        mrt = frame.module
        if frame.scope is not mrt.scope and name in mrt.scope:
            return mrt.scope, name
        return self._resolve_use_var(mrt, name, frozenset())

    def _resolve_use_var(
        self, mrt: ModuleRuntime, name: str, visited: frozenset[str]
    ) -> Optional[tuple[Scope, str]]:
        if mrt.node.name in visited:
            return None
        visited = visited | {mrt.node.name}
        if name in mrt.renames:
            target_mod, remote = mrt.renames[name]
            target = self.module(target_mod)
            if remote in target.scope:
                return target.scope, remote
            return self._resolve_use_var(target, remote, visited)
        for target_mod in mrt.blanket:
            target = self.module(target_mod)
            if name in target.scope:
                return target.scope, name
            found = self._resolve_use_var(target, name, visited)
            if found is not None:
                return found
        return None

    def _lookup_proc(
        self, mrt: ModuleRuntime, name: str, visited: frozenset[str]
    ) -> Optional[tuple[ModuleRuntime, Subprogram]]:
        """Resolve a procedure name through contains/use-association."""
        if mrt.node.name in visited:
            return None
        visited = visited | {mrt.node.name}
        if name in mrt.subprograms:
            return mrt, mrt.subprograms[name]
        if name in mrt.node.interfaces:
            for proc in mrt.node.interfaces[name].procedures:
                found = self._lookup_proc(mrt, proc, visited - {mrt.node.name})
                if found is not None:
                    return found
        if name in mrt.renames:
            target_mod, remote = mrt.renames[name]
            return self._lookup_proc(self.module(target_mod), remote, visited)
        for target_mod in mrt.blanket:
            found = self._lookup_proc(self.module(target_mod), name, visited)
            if found is not None:
                return found
        return None

    def _lookup_typedef(
        self, mrt: ModuleRuntime, type_name: str, visited: frozenset[str]
    ) -> Optional[tuple[ModuleRuntime, TypeDef]]:
        if mrt.node.name in visited:
            return None
        visited = visited | {mrt.node.name}
        if type_name in mrt.node.type_defs:
            return mrt, mrt.node.type_defs[type_name]
        if type_name in mrt.renames:
            target_mod, remote = mrt.renames[type_name]
            return self._lookup_typedef(self.module(target_mod), remote, visited)
        for target_mod in mrt.blanket:
            found = self._lookup_typedef(self.module(target_mod), type_name, visited)
            if found is not None:
                return found
        return None

    # ----------------------------------------------------------- declaring
    def _declare(self, frame: Frame, decl: Declaration) -> None:
        for entity in decl.entities:
            if entity.name in frame.scope:
                continue  # dummies are bound before locals are declared
            value = self._create_value(frame, decl, entity)
            frame.scope.define(entity.name, value, readonly=decl.is_parameter)

    def _create_value(self, frame: Frame, decl: Declaration, entity: EntityDecl):
        if decl.base_type in ("type", "class"):
            if decl.type_name is None:
                raise FortranRuntimeError(
                    f"declaration of {entity.name!r} names no derived type"
                )
            return self._instantiate_type(frame.module, decl.type_name)
        if "dimension" in decl.attributes and not entity.dims:
            raise FortranRuntimeError(
                "dimension-attribute declarations are outside the supported "
                f"subset (entity {entity.name!r})"
            )
        if entity.dims:
            shape = tuple(self._dim_extent(d, frame) for d in entity.dims)
            dtype = _DTYPES.get(decl.base_type)
            if dtype is None:
                raise FortranRuntimeError(
                    f"cannot allocate array of type {decl.base_type!r}"
                )
            array = np.zeros(shape, dtype=dtype)
            if entity.init is not None:
                array[...] = self.eval(entity.init, frame)
            return array
        if entity.init is not None:
            return self._coerce_scalar(decl.base_type, self.eval(entity.init, frame))
        try:
            return _SCALAR_DEFAULTS[decl.base_type]
        except KeyError:
            raise FortranRuntimeError(
                f"unsupported scalar type {decl.base_type!r}"
            ) from None

    def _dim_extent(self, dim: Expr, frame: Frame) -> int:
        if isinstance(dim, SectionRange):
            if dim.lower is None or dim.upper is None:
                # assumed-shape/size dummies are bound to shared arrays and
                # never allocated, so an unbounded extent only appears here
                # when a local declaration is out of subset
                raise FortranRuntimeError(
                    "assumed-size local arrays are outside the supported subset"
                )
            lower = int(self.eval(dim.lower, frame))
            if lower != 1:
                # every subscript in the value layer is 1-based; allocating
                # a(0:4) would silently rotate all section accesses
                raise FortranRuntimeError(
                    f"array lower bound must be 1, got {lower} (non-default "
                    "lower bounds are outside the supported subset)"
                )
            return max(0, int(self.eval(dim.upper, frame)))
        return max(0, int(self.eval(dim, frame)))

    def _instantiate_type(self, mrt: ModuleRuntime, type_name: str) -> DerivedValue:
        found = self._lookup_typedef(mrt, type_name, frozenset())
        if found is None:
            raise UndefinedNameError(
                f"derived type {type_name!r} is not visible from module "
                f"{mrt.node.name!r}"
            )
        def_mrt, typedef = found
        def_frame = Frame(def_mrt, None, def_mrt.scope)
        components: dict[str, object] = {}
        for decl in typedef.components:
            for entity in decl.entities:
                components[entity.name] = self._create_value(def_frame, decl, entity)
        return DerivedValue(type_name, components)

    @staticmethod
    def _coerce_scalar(base_type: str, value):
        if base_type == "real":
            return float(value)
        if base_type == "integer":
            return int(np.trunc(value)) if isinstance(value, float) else int(value)
        if base_type == "logical":
            return bool(value)
        if base_type == "character":
            return str(value)
        return value

    def _sub_info(self, sub: Subprogram) -> dict[str, _EntityInfo]:
        cached = self._sub_info_cache.get(id(sub))
        if cached is not None:
            return cached[1]
        info: dict[str, _EntityInfo] = {}
        for decl in sub.declarations:
            if isinstance(decl, Declaration):
                for entity in decl.entities:
                    info[entity.name] = _EntityInfo(decl=decl, entity=entity)
        self._sub_info_cache[id(sub)] = (sub, info)
        return info

    # ------------------------------------------------------------- calling
    def _call_with_values(
        self,
        mrt: ModuleRuntime,
        sub: Subprogram,
        values: list,
        caller: Optional[Frame] = None,
    ):
        """Call ``sub`` binding pre-evaluated values to its dummies."""
        if len(values) != len(sub.args):
            raise FortranRuntimeError(
                f"{sub.name!r} expects {len(sub.args)} argument(s), "
                f"got {len(values)}"
            )
        info = self._sub_info(sub)
        frame = Frame(mrt, sub, Scope(f"{mrt.node.name}:{sub.name}"), caller)
        for dummy, value in zip(sub.args, values):
            d = info.get(dummy)
            readonly = d is not None and d.intent == "in"
            frame.scope.define(dummy, value, readonly=readonly)
        return self._finish_call(mrt, sub, frame, writebacks=[])

    def _call_subprogram(
        self,
        mrt: ModuleRuntime,
        sub: Subprogram,
        arg_exprs: list[Expr],
        kw_exprs: dict[str, Expr],
        caller_frame: Frame,
        want_result: bool,
    ):
        info = self._sub_info(sub)
        pairs: dict[str, Optional[Expr]] = {}
        if len(arg_exprs) > len(sub.args):
            raise FortranRuntimeError(
                f"too many arguments in call to {sub.name!r}"
            )
        for dummy, actual in zip(sub.args, arg_exprs):
            pairs[dummy] = actual
        for kw, actual in kw_exprs.items():
            if kw not in sub.args:
                raise FortranRuntimeError(
                    f"{sub.name!r} has no dummy argument named {kw!r}"
                )
            if kw in pairs:
                raise FortranRuntimeError(
                    f"dummy argument {kw!r} bound twice in call to {sub.name!r}"
                )
            pairs[kw] = actual

        if (
            "elemental" in sub.prefixes
            and want_result
            and len(pairs) == len(sub.args)  # guard BEFORE evaluating, so a
            # partially-bound call never evaluates side-effecting actuals twice
        ):
            values = [self.eval(pairs[dummy], caller_frame) for dummy in sub.args]
            return self._dispatch_elemental(mrt, sub, values, caller_frame)

        frame = Frame(mrt, sub, Scope(f"{mrt.node.name}:{sub.name}"), caller_frame)
        writebacks: list[tuple[Ref, str]] = []
        for dummy in sub.args:
            d = info.get(dummy)
            actual = pairs.get(dummy)
            if actual is None:
                if d is not None and d.optional:
                    frame.optional_missing.add(dummy)
                    continue
                raise FortranRuntimeError(
                    f"missing actual argument for dummy {dummy!r} in call to "
                    f"{sub.name!r}"
                )
            kind, payload, writable = self._bind_actual(actual, caller_frame)
            intent = d.intent if d is not None else None
            if kind == "ref":
                value = payload.load()
                frame.scope.define(dummy, value, readonly=(intent == "in"))
                if intent != "in" and writable:
                    writebacks.append((payload, dummy))
            else:  # "share" or "value"
                readonly = intent == "in" or (kind == "share" and not writable)
                frame.scope.define(dummy, payload, readonly=readonly)
        return self._finish_call(mrt, sub, frame, writebacks, want_result)

    def _finish_call(
        self,
        mrt: ModuleRuntime,
        sub: Subprogram,
        frame: Frame,
        writebacks: list[tuple[Ref, str]],
        want_result: Optional[bool] = None,
    ):
        for decl in sub.declarations:
            if isinstance(decl, Declaration):
                self._declare(frame, decl)
            elif isinstance(decl, UseStmt):
                self._index_use_frame(frame, decl)
        if sub.is_function and sub.result not in frame.scope:
            frame.scope.define(sub.result, 0.0)
        try:
            self.exec_body(sub.body, frame)
        except _Return:
            pass
        for ref, dummy in writebacks:
            self._coerce_store(ref, frame.scope.get(dummy))
        if sub.is_function and (want_result is None or want_result):
            return frame.scope.get(sub.result)
        return None

    def _index_use_frame(self, frame: Frame, use: UseStmt) -> None:
        """Subprogram-level ``use``: alias the used names into the frame.

        Arrays and derived values alias live storage; scalars are snapshots
        taken at call entry (sufficient for the parameter/constant imports
        this form is used for).
        """
        if not (use.has_only or use.only):
            raise FortranRuntimeError(
                "subprogram-level 'use' without an only-list is outside the "
                f"supported subset (module {use.module!r})"
            )
        target = self.module(use.module)
        for rename in use.only:
            if rename.remote in target.scope:
                frame.scope.define(rename.local, target.scope.get(rename.remote))
                continue
            found = self._resolve_use_var(target, rename.remote, frozenset())
            if found is not None:
                frame.scope.define(rename.local, found[0].get(found[1]))
            # procedures imported this way resolve through _lookup_proc

    def _dispatch_elemental(
        self, mrt: ModuleRuntime, sub: Subprogram, values: list, caller_frame
    ):
        """Route a fully-bound elemental function call: broadcast over array
        arguments, plain call otherwise (overridden by the vectorized
        runtime, which must not collapse member batches element-wise)."""
        if any(isinstance(v, np.ndarray) for v in values):
            return self._call_elemental(mrt, sub, values)
        return self._call_with_values(mrt, sub, values, caller_frame)

    def _call_elemental(self, mrt: ModuleRuntime, sub: Subprogram, values: list):
        """Broadcast an elemental function over its array arguments."""
        arrays = [v for v in values if isinstance(v, np.ndarray)]
        shape = np.broadcast_shapes(*(a.shape for a in arrays))
        out = np.empty(shape, dtype=np.float64)
        broadcast = [
            np.broadcast_to(v, shape) if isinstance(v, np.ndarray) else None
            for v in values
        ]
        it = np.nditer(out, flags=["multi_index"], op_flags=["writeonly"])
        for slot in it:
            idx = it.multi_index
            scalars = [
                float(b[idx]) if b is not None else values[i]
                for i, b in enumerate(broadcast)
            ]
            slot[...] = self._call_with_values(mrt, sub, scalars)
        return out

    def _bind_actual(self, expr: Expr, frame: Frame):
        """Classify one actual argument.

        Returns ``(kind, payload, writable)`` where kind is ``"share"``
        (payload is an aliased array/derived value), ``"ref"`` (payload is a
        scalar storage location to copy in/out of) or ``"value"`` (payload is
        a computed value with no writeback).
        """
        if isinstance(expr, VarRef):
            found = self._lookup_var(frame, expr.name)
            if found is None:
                raise UndefinedNameError(
                    f"undefined name {expr.name!r} in {frame.scope.name!r}"
                )
            scope, name = found
            value = scope.get(name)
            writable = name not in scope.readonly
            if isinstance(value, (np.ndarray, DerivedValue)):
                return "share", value, writable
            return "ref", ScopeRef(scope, name), writable
        if isinstance(expr, DerivedRef):
            ref = self._resolve_target(expr, frame)
            value = ref.load()
            writable = not self._ref_readonly(ref)
            if isinstance(value, (np.ndarray, DerivedValue)):
                return "share", value, writable
            return "ref", ref, writable
        if isinstance(expr, Apply):
            found = self._lookup_var(frame, expr.name)
            if found is not None:
                scope, name = found
                container = scope.get(name)
                if isinstance(container, np.ndarray):
                    writable = name not in scope.readonly
                    index = fortran_slices(
                        self._eval_subscripts(expr.args, frame)
                    )
                    if any(isinstance(i, slice) for i in index):
                        return "share", container[index], writable
                    ref = ElementRef(
                        container, index,
                        guard=scope.readonly, guard_name=name,
                    )
                    return "ref", ref, writable
        return "value", self.eval(expr, frame), False

    @staticmethod
    def _ref_readonly(ref: Ref) -> bool:
        if isinstance(ref, ScopeRef):
            return ref.name in ref.scope.readonly
        guard = getattr(ref, "guard", None)
        return guard is not None and getattr(ref, "guard_name", "") in guard

    # ----------------------------------------------- intercepted procedures
    def _intercept_outfld(self, frame, arg_exprs, kw_exprs, mrt, sub):
        """Record the history field, then run the real Fortran body.

        Arguments are evaluated once: the recorded values are re-bound
        directly for the body (both dummies are ``intent(in)``).
        """
        if kw_exprs or len(arg_exprs) != 2:
            raise FortranRuntimeError(
                f"{sub.name} expects two positional arguments (name, field)"
            )
        name = self.eval(arg_exprs[0], frame)
        value = self.eval(arg_exprs[1], frame)
        self.history.record(str(name), value)
        self._call_with_values(mrt, sub, [name, value])

    def _intercept_random_raw(self, frame, arg_exprs, kw_exprs, mrt, sub):
        """Fill the harvest array from the *requesting* module's stream.

        ``shr_random_raw`` is the generator core behind the model's own
        ``shr_random_uniform`` wrapper (whose variate transform is real,
        patchable Fortran).  The stream is attributed to the nearest frame
        outside ``shr_random_mod`` so every component keeps its own
        independent, seed-derived sequence regardless of wrapper depth.
        """
        kind, payload, writable = self._bind_actual(arg_exprs[0], frame)
        if kind != "share" or not isinstance(payload, np.ndarray):
            raise FortranRuntimeError(
                "shr_random_raw requires a whole-array harvest argument"
            )
        if not writable:
            raise IntentViolationError(
                "shr_random_raw harvest argument is read-only here"
            )
        n = None
        if len(arg_exprs) > 1:
            n = int(self.eval(arg_exprs[1], frame))
        owner = frame
        while owner is not None and owner.module.node.name == mrt.node.name:
            owner = owner.caller
        owner_name = (owner or frame).module.node.name
        stream = self.prng.stream(owner_name)
        stream.fill(payload, n)

    def _intercept_setseed(self, frame, arg_exprs, kw_exprs, mrt, sub):
        seed = int(self.eval(arg_exprs[0], frame))
        self.prng.reseed(seed)
        if "seed_state" in mrt.scope:
            mrt.scope.store("seed_state", seed)

    def _call_intrinsic_subroutine(self, name, arg_exprs, kw_exprs, frame):
        if name == "random_number":
            kind, payload, writable = self._bind_actual(arg_exprs[0], frame)
            stream = self.prng.stream(frame.module.node.name)
            if kind == "share" and isinstance(payload, np.ndarray):
                stream.fill(payload)
            elif kind == "ref":
                payload.store(stream.uniform())
            else:
                raise FortranRuntimeError(
                    "random_number requires a variable argument"
                )
            return
        if name == "random_seed":
            put = kw_exprs.get("put")
            if put is not None:
                value = self.eval(put, frame)
                seed = int(np.asarray(value).reshape(-1)[0])
                self.prng.reseed(seed)
            return
        if name == "system_clock":
            if arg_exprs:
                ref = self._resolve_target(arg_exprs[0], frame)
                ref.store(self.statements_executed)
            return
        if name == "cpu_time":
            if arg_exprs:
                ref = self._resolve_target(arg_exprs[0], frame)
                ref.store(self.statements_executed * 1.0e-6)
            return
        if name in ("date_and_time", "get_command_argument"):
            return  # deterministic no-ops
        raise UndefinedNameError(f"unsupported intrinsic subroutine {name!r}")

    # ----------------------------------------------------------- execution
    def exec_body(self, body: list[Stmt], frame: Frame) -> None:
        compiler = self._compiler
        if compiler is not None:
            cached = compiler.body_cache.get(id(body))
            fns = cached[1] if cached is not None else compiler.body(body)
            for fn in fns:
                fn(frame)
            return
        for stmt in body:
            self.exec_stmt(stmt, frame)

    def _account(self, stmt: Stmt) -> None:
        """Charge one statement execution: budget check + coverage count."""
        self.statements_executed += 1
        if self.statements_executed > self.max_statements:
            raise StatementLimitExceeded(
                f"statement budget of {self.max_statements} exhausted "
                f"(possible runaway loop at {stmt.location})"
            )
        if self._cov_counts is not None:
            loc = stmt.location
            if loc.line > 0:
                key = (loc.filename, loc.line)
                self._cov_counts[key] = self._cov_counts.get(key, 0) + 1

    def exec_stmt(self, stmt: Stmt, frame: Frame) -> None:
        compiler = self._compiler
        if compiler is not None:
            cached = compiler.stmt_cache.get(id(stmt))
            fn = cached[1] if cached is not None else compiler.stmt(stmt)
            fn(frame)
            return
        self._account(stmt)
        handler = self._exec_dispatch.get(type(stmt))
        if handler is None:
            raise FortranRuntimeError(
                f"cannot execute statement {type(stmt).__name__} at "
                f"{stmt.location}"
            )
        handler(stmt, frame)

    def _exec_assignment(self, stmt, frame: Frame) -> None:
        value = self.eval(stmt.value, frame)
        ref = self._resolve_target(stmt.target, frame)
        self._coerce_store(ref, value)

    def _coerce_store(self, ref: Ref, value) -> None:
        """Store through a ref, truncating reals assigned to integer slots."""
        if isinstance(ref, ScopeRef):
            current = ref.scope.values.get(ref.name)
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
        ref.store(value)

    def _exec_call(self, stmt: CallStmt, frame: Frame) -> None:
        resolved = self._lookup_proc(frame.module, stmt.name, frozenset())
        if resolved is not None:
            target_mrt, sub = resolved
            intercept = self._intercepts.get((target_mrt.node.name, sub.name))
            if intercept is not None:
                intercept(frame, stmt.args, stmt.keywords, target_mrt, sub)
                return
            self._call_subprogram(
                target_mrt, sub, stmt.args, stmt.keywords, frame, False
            )
            return
        if stmt.name.lower() in SUBROUTINE_INTRINSICS:
            self._call_intrinsic_subroutine(
                stmt.name.lower(), stmt.args, stmt.keywords, frame
            )
            return
        raise UndefinedNameError(
            f"call to unknown subroutine {stmt.name!r} from module "
            f"{frame.module.node.name!r}"
        )

    def _exec_if(self, stmt: IfBlock, frame: Frame) -> None:
        for cond, body in stmt.branches:
            if cond is None or self._truthy(self.eval(cond, frame)):
                self.exec_body(body, frame)
                return

    def _exec_do(self, stmt: DoLoop, frame: Frame) -> None:
        start = self.eval(stmt.start, frame)
        stop = self.eval(stmt.stop, frame)
        step = self.eval(stmt.step, frame) if stmt.step is not None else 1
        if step == 0:
            raise FortranRuntimeError(f"zero do-loop step at {stmt.location}")
        found = self._lookup_var(frame, stmt.var)
        scope = found[0] if found is not None else frame.scope
        var_name = found[1] if found is not None else stmt.var
        count = int(np.trunc((stop - start + step) / step))
        if count < 0:
            count = 0
        var = start
        completed = True
        for _ in range(count):
            scope.store(var_name, var)
            try:
                self.exec_body(stmt.body, frame)
            except _Cycle:
                pass
            except _Exit:
                completed = False
                break
            var = var + step
        if completed:
            # Fortran leaves the control variable one step past the last
            scope.store(var_name, start + count * step)

    def _exec_do_while(self, stmt: DoWhile, frame: Frame) -> None:
        while self._truthy(self.eval(stmt.condition, frame)):
            try:
                self.exec_body(stmt.body, frame)
            except _Cycle:
                continue
            except _Exit:
                break
            self._account(stmt)  # charge each condition re-evaluation

    def _exec_select(self, stmt: SelectCase, frame: Frame) -> None:
        selector = self.eval(stmt.selector, frame)
        default_body = None
        for items, body in stmt.cases:
            if items is None:
                default_body = body
                continue
            for item in items:
                if self._case_matches(selector, item, frame):
                    self.exec_body(body, frame)
                    return
        if default_body is not None:
            self.exec_body(default_body, frame)

    def _case_matches(self, selector, item, frame: Frame) -> bool:
        if not item.is_range:
            return bool(selector == self.eval(item.value, frame))
        if item.lower is not None:
            if selector < self.eval(item.lower, frame):
                return False
        if item.upper is not None:
            if selector > self.eval(item.upper, frame):
                return False
        return True

    def _exec_where(self, stmt: WhereBlock, frame: Frame) -> None:
        mask = np.asarray(self.eval(stmt.mask, frame), dtype=bool)
        self._exec_masked(stmt.body, mask, frame)
        if stmt.else_body:
            self._exec_masked(stmt.else_body, ~mask, frame)

    def _exec_masked(self, body: list[Stmt], mask: np.ndarray, frame: Frame) -> None:
        for stmt in body:
            if not isinstance(stmt, Assignment):
                raise FortranRuntimeError(
                    "only assignments are supported inside where blocks "
                    f"(at {stmt.location})"
                )
            self._account(stmt)
            value = self.eval(stmt.value, frame)
            ref = self._resolve_target(stmt.target, frame)
            target = ref.load()
            if not isinstance(target, np.ndarray):
                raise FortranRuntimeError(
                    f"where-assignment target is not an array at {stmt.location}"
                )
            if self._ref_readonly(ref):
                raise IntentViolationError(
                    f"cannot assign through read-only target at {stmt.location}"
                )
            np.copyto(target, value, where=mask, casting="unsafe")

    def _exec_return(self, stmt, frame) -> None:
        raise _Return()

    def _exec_exit(self, stmt, frame) -> None:
        raise _Exit()

    def _exec_cycle(self, stmt, frame) -> None:
        raise _Cycle()

    def _exec_stop(self, stmt: StopStmt, frame) -> None:
        raise StopModel(stmt.message)

    def _exec_continue(self, stmt, frame) -> None:
        return None

    def _exec_unparsed(self, stmt: UnparsedStmt, frame) -> None:
        raise FortranRuntimeError(
            f"cannot execute unparsed statement at {stmt.location}: "
            f"{stmt.text!r}"
        )

    @staticmethod
    def _truthy(value) -> bool:
        if isinstance(value, np.ndarray):
            raise FortranRuntimeError(
                "scalar logical required (array condition in if/do while)"
            )
        return bool(value)

    # ----------------------------------------------------- target resolution
    def _resolve_target(self, expr: Expr, frame: Frame) -> Ref:
        if isinstance(expr, VarRef):
            found = self._lookup_var(frame, expr.name)
            if found is None:
                # implicit definition (e.g. an undeclared do index)
                frame.scope.define(expr.name, 0)
                return ScopeRef(frame.scope, expr.name)
            return ScopeRef(found[0], found[1])
        if isinstance(expr, Apply):
            found = self._lookup_var(frame, expr.name)
            if found is None:
                raise UndefinedNameError(
                    f"assignment to unknown array {expr.name!r}"
                )
            scope, name = found
            container = scope.get(name)
            if not isinstance(container, np.ndarray):
                raise FortranRuntimeError(
                    f"subscripted assignment to non-array {name!r}"
                )
            index = fortran_slices(self._eval_subscripts(expr.args, frame))
            return ElementRef(
                container, index, guard=scope.readonly, guard_name=name
            )
        if isinstance(expr, DerivedRef):
            root = expr
            while isinstance(root, DerivedRef):
                root = root.base
            root_name = root.name if isinstance(root, (VarRef, Apply)) else ""
            guard: Optional[set[str]] = None
            found = self._lookup_var(frame, root_name) if root_name else None
            if found is not None:
                guard = found[0].readonly
            base = self.eval(expr.base, frame)
            if not isinstance(base, DerivedValue):
                raise FortranRuntimeError(
                    f"component reference into non-derived value "
                    f"{expr.component!r}"
                )
            if expr.args:
                array = base.get(expr.component)
                if not isinstance(array, np.ndarray):
                    raise FortranRuntimeError(
                        f"subscripted non-array component {expr.component!r}"
                    )
                index = fortran_slices(self._eval_subscripts(expr.args, frame))
                return ElementRef(
                    array, index, guard=guard, guard_name=root_name
                )
            return ComponentRef(
                base, expr.component, None, guard=guard, guard_name=root_name
            )
        raise FortranRuntimeError(
            f"unsupported assignment target {type(expr).__name__}"
        )

    # ----------------------------------------------------------- evaluation
    def eval(self, expr: Expr, frame: Frame):
        compiler = self._compiler
        if compiler is not None:
            cached = compiler.expr_cache.get(id(expr))
            fn = cached[1] if cached is not None else compiler.expr(expr)
            return fn(frame)
        handler = self._eval_dispatch.get(type(expr))
        if handler is None:
            raise FortranRuntimeError(
                f"cannot evaluate expression {type(expr).__name__}"
            )
        return handler(expr, frame)

    @staticmethod
    def _eval_number(expr: NumberLit, frame: Frame):
        return int(expr.value) if expr.is_integer else float(expr.value)

    def _eval_varref(self, expr: VarRef, frame: Frame):
        found = self._lookup_var(frame, expr.name)
        if found is None:
            raise UndefinedNameError(
                f"undefined name {expr.name!r} in {frame.scope.name!r} "
                f"(module {frame.module.node.name!r})"
            )
        return found[0].get(found[1])

    def _eval_subscripts(self, args: list[Expr], frame: Frame) -> list:
        parts: list = []
        for arg in args:
            if isinstance(arg, SectionRange):
                lower = None if arg.lower is None else self.eval(arg.lower, frame)
                upper = None if arg.upper is None else self.eval(arg.upper, frame)
                stride = None if arg.stride is None else self.eval(arg.stride, frame)
                parts.append((lower, upper, stride))
            else:
                parts.append(int(self.eval(arg, frame)))
        return parts

    def _eval_apply(self, expr: Apply, frame: Frame):
        found = self._lookup_var(frame, expr.name)
        if found is not None:
            container = found[0].get(found[1])
            if isinstance(container, np.ndarray):
                index = fortran_slices(self._eval_subscripts(expr.args, frame))
                value = container[index]
                if isinstance(value, np.ndarray):
                    return value
                return value.item() if hasattr(value, "item") else value
            raise FortranRuntimeError(
                f"{expr.name!r} is not an array or function"
            )
        resolved = self._lookup_proc(frame.module, expr.name, frozenset())
        if resolved is not None:
            target_mrt, sub = resolved
            if not sub.is_function:
                raise FortranRuntimeError(
                    f"subroutine {sub.name!r} referenced as a function"
                )
            return self._call_subprogram(
                target_mrt, sub, expr.args, expr.keywords, frame, True
            )
        lowered = expr.name.lower()
        if lowered == "present":
            if len(expr.args) != 1 or not isinstance(expr.args[0], VarRef):
                raise FortranRuntimeError(
                    "present() takes exactly one dummy-argument name"
                )
            return expr.args[0].name not in frame.optional_missing
        fn = INTRINSIC_FUNCTIONS.get(lowered)
        if fn is not None:
            args = [self.eval(a, frame) for a in expr.args]
            keywords = {
                k: self.eval(v, frame) for k, v in expr.keywords.items()
            }
            return fn(*args, **keywords)
        raise UndefinedNameError(
            f"unknown function or array {expr.name!r} in module "
            f"{frame.module.node.name!r}"
        )

    def _eval_derivedref(self, expr: DerivedRef, frame: Frame):
        base = self.eval(expr.base, frame)
        if not isinstance(base, DerivedValue):
            raise FortranRuntimeError(
                f"component reference {expr.component!r} into non-derived value"
            )
        value = base.get(expr.component)
        if expr.args:
            index = fortran_slices(self._eval_subscripts(expr.args, frame))
            value = value[index]
            if not isinstance(value, np.ndarray):
                return value.item() if hasattr(value, "item") else value
        return value

    def _eval_unary(self, expr: UnaryOp, frame: Frame):
        value = self.eval(expr.operand, frame)
        if expr.op == "-":
            return -value
        if expr.op == ".not.":
            if isinstance(value, np.ndarray):
                return np.logical_not(value)
            return not value
        raise FortranRuntimeError(f"unsupported unary operator {expr.op!r}")

    def _eval_binop(self, expr: BinOp, frame: Frame):
        op = expr.op
        if op in ("+", "-"):
            fused = self._try_fma(expr, frame)
            if fused is not None:
                return fused[0]
            left = self.eval(expr.left, frame)
            right = self.eval(expr.right, frame)
            return self.fpu.add(left, right) if op == "+" else self.fpu.sub(left, right)
        left = self.eval(expr.left, frame)
        if op == ".and.":
            right = self.eval(expr.right, frame)
            if isinstance(left, np.ndarray) or isinstance(right, np.ndarray):
                return np.logical_and(left, right)
            return bool(left) and bool(right)
        if op == ".or.":
            right = self.eval(expr.right, frame)
            if isinstance(left, np.ndarray) or isinstance(right, np.ndarray):
                return np.logical_or(left, right)
            return bool(left) or bool(right)
        right = self.eval(expr.right, frame)
        if op == "*":
            return self.fpu.mul(left, right)
        if op == "/":
            return self.fpu.div(left, right)
        if op == "**":
            return self.fpu.pow(left, right)
        if op == "==":
            return left == right
        if op == "/=":
            return left != right
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        if op == ">=":
            return left >= right
        if op == "//":
            return str(left) + str(right)
        raise FortranRuntimeError(f"unsupported binary operator {op!r}")

    def _try_fma(self, expr: BinOp, frame: Frame):
        """Contract ``a*b ± c`` / ``c ± a*b`` when FMA is on for this module.

        Returns a 1-tuple with the fused result, or ``None`` when the
        pattern does not apply (then the caller evaluates unfused).
        """
        if not self.fp.fma or not self.fp.fma_enabled_in(frame.module.node.name):
            return None
        op = expr.op
        left_mul = isinstance(expr.left, BinOp) and expr.left.op == "*"
        right_mul = isinstance(expr.right, BinOp) and expr.right.op == "*"
        if left_mul:
            a = self.eval(expr.left.left, frame)
            b = self.eval(expr.left.right, frame)
            c = self.eval(expr.right, frame)
            if self._all_int(a, b, c):
                product = self.fpu.mul(a, b)
                return (self.fpu.add(product, c) if op == "+"
                        else self.fpu.sub(product, c),)
            return (self.fpu.fma(a, b, c if op == "+" else -c),)
        if right_mul:
            # left-to-right operand evaluation, as in the unfused path, so
            # FMA mode changes only the rounding, never side-effect order
            c = self.eval(expr.left, frame)
            a = self.eval(expr.right.left, frame)
            b = self.eval(expr.right.right, frame)
            if self._all_int(a, b, c):
                product = self.fpu.mul(a, b)
                return (self.fpu.add(c, product) if op == "+"
                        else self.fpu.sub(c, product),)
            if op == "+":
                return (self.fpu.fma(a, b, c),)
            return (self.fpu.fma(-a, b, c),)  # c - a*b
        return None

    @staticmethod
    def _all_int(*values) -> bool:
        return all(
            isinstance(v, (int, np.integer)) and not isinstance(v, (bool, np.bool_))
            for v in values
        )


def run_model(
    config: Optional[RunConfig] = None,
    source: Optional[ModelSource] = None,
) -> RunResult:
    """Build, initialise and step the model; collect outputs and coverage.

    Parameters
    ----------
    config:
        The :class:`RunConfig` (default: unpatched FC5 control run).
    source:
        An already-built :class:`~repro.model.builder.ModelSource` to reuse
        (its cached parse is shared with the metagraph builder).  Must match
        ``config.model``; omit it to build from the config.
    """
    config = config or RunConfig()
    if source is None:
        source = build_model_source(config.model)
    elif source.config != config.model:
        raise ValueError(
            "the provided ModelSource was built from a different ModelConfig "
            "than config.model"
        )
    asts = source.parse()

    interp = Interpreter(
        asts,
        fp=config.fp,
        seed=config.seed,
        collect_coverage=config.collect_coverage,
        max_statements=config.max_statements,
    )
    try:
        interp.call(
            "cam_comp", "cam_init", [float(config.pertlim), int(config.seed)]
        )
        for _ in range(config.nsteps):
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
    outputs: dict[str, np.ndarray] = {}
    first_outputs: dict[str, np.ndarray] = {}
    for name in declared:
        outputs[name] = np.asarray(interp.history.fields[name])
    # fields written but not declared ride along at the end, sorted
    for name in sorted(set(interp.history.fields) - set(declared)):
        outputs[name] = np.asarray(interp.history.fields[name])
    for name in outputs:
        first_outputs[name] = np.asarray(interp.history.first[name])

    coverage = interp.coverage if interp.coverage is not None else CoverageTrace()
    from ..obs import get_metrics

    metrics = get_metrics()
    metrics.inc("interpreter.runs")
    metrics.inc("interpreter.statements", interp.statements_executed)
    return RunResult(
        config=config,
        outputs=outputs,
        coverage=coverage,
        statements_executed=interp.statements_executed,
        prng_draws=interp.prng.total_draws(),
        first_outputs=first_outputs,
    )
