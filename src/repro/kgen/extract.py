"""AST-to-numpy kernel extraction.

The extractor walks a subprogram's cached AST (the same parse the
interpreter and the metagraph builder share) and emits the source of a
standalone numpy function: straight-line assignments become array
expressions, ``if``/``elseif``/``else`` blocks become sequential
``np.where`` merges under accumulated branch masks, bounded ``do`` loops
with compile-time-constant bounds are unrolled (a sequential fold, so
accumulate-style bodies keep the interpreter's exact rounding — an axis
reduction would reassociate and fail the ``nrms == 0`` gate), references
to ``use``-associated constants are resolved through a scalar
interpreter's module scopes and baked in as literals, and calls to other
extractable functions become calls to recursively extracted kernels.
``elemental`` subroutines extract too: their ``intent(out)`` /
``intent(inout)`` dummies become a returned tuple.

Everything outside that subset — unbounded or member-varying loops,
non-elemental subroutine calls, array subscripts, I/O — raises
:class:`KernelError`: a kernel either fully vectorizes or is not
generated at all.  Generated kernels are *candidates* until
:func:`verify_kernel` has measured their normalized RMS deviation from
the scalar interpreter over a sample grid and found it within the
conformance bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ..fortran.ast_nodes import (
    Apply,
    Assignment,
    BinOp,
    Declaration,
    DoLoop,
    Expr,
    IfBlock,
    LogicalLit,
    NumberLit,
    Stmt,
    Subprogram,
    UnaryOp,
    VarRef,
)
from ..errors import ReproError
from ..model.builder import ModelConfig, ModelSource, build_model_source
from ..runtime.interpreter import Frame, Interpreter
from ..runtime.values import Scope

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


class KernelError(ReproError, ValueError):
    """The subprogram uses a construct the kernel extractor cannot express."""


#: Fortran intrinsic -> numpy callable name in the kernel namespace
_INTRINSIC_MAP = {
    "abs": "np.abs",
    "acos": "np.arccos",
    "asin": "np.arcsin",
    "atan": "np.arctan",
    "atan2": "np.arctan2",
    "cos": "np.cos",
    "cosh": "np.cosh",
    "exp": "np.exp",
    "log": "np.log",
    "log10": "np.log10",
    "mod": "np.fmod",
    "sin": "np.sin",
    "sinh": "np.sinh",
    "sqrt": "np.sqrt",
    "tan": "np.tan",
    "tanh": "np.tanh",
}

#: n-ary fold intrinsics
_FOLD_MAP = {"max": "np.maximum", "min": "np.minimum"}

_BINOPS = {
    "+": "+",
    "-": "-",
    "*": "*",
    "/": "/",
    "**": "**",
    "==": "==",
    "/=": "!=",
    "<": "<",
    "<=": "<=",
    ">": ">",
    ">=": ">=",
}

_SCALAR_INITS = {"real": "0.0", "integer": "0", "logical": "False"}

#: unrolling bound for constant do loops — beyond this the generated source
#: would dwarf the interpreted body it replaces
_UNROLL_LIMIT = 64


@dataclass
class Kernel:
    """One generated, executable numpy kernel.

    ``fn(*args)`` evaluates the kernel; functions return their result
    value, elemental subroutines return a tuple of their
    ``intent(out)``/``intent(inout)`` dummies (``out_names`` order).
    """

    module: str
    function: str
    arg_names: list[str]
    source: str
    fn: Callable
    out_names: list[str] = field(default_factory=list)

    @property
    def is_subroutine(self) -> bool:
        return bool(self.out_names)

    def __call__(self, *args):
        return self.fn(*args)


@dataclass
class KernelReport:
    """Conformance measurement of a kernel against the scalar interpreter."""

    kernel: Kernel
    n_samples: int
    nrms: float
    tol: float

    @property
    def conformant(self) -> bool:
        return self.nrms <= self.tol


@dataclass(frozen=True)
class KernelTarget:
    """A named extraction target with plausible per-argument sample ranges."""

    module: str
    function: str
    ranges: tuple[tuple[str, float, float], ...]


#: the model's hot elemental functions (microphysics / radiation inner loops)
DEFAULT_KERNEL_TARGETS: tuple[KernelTarget, ...] = (
    KernelTarget(
        "wv_saturation", "goffgratch_svp", (("t", 180.0, 330.0),)
    ),
    KernelTarget("wv_saturation", "svp_ice", (("t", 180.0, 280.0),)),
    KernelTarget(
        "wv_saturation",
        "qsat_water",
        (("t", 180.0, 330.0), ("p", 5.0e3, 1.1e5)),
    ),
    KernelTarget("radsw", "gravity_norm", (("pdel", 0.5, 1.0e4),)),
)


def nrms(a: np.ndarray, b: np.ndarray) -> float:
    """Normalized RMS deviation of ``a`` from the reference ``b``:
    ``sqrt(mean((a-b)**2)) / max(|b|)`` (denominator 1 when ``b`` is all
    zero), the conformance metric kernels are gated on."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = float(np.max(np.abs(b))) if b.size else 0.0
    if scale == 0.0:
        scale = 1.0
    return float(np.sqrt(np.mean(np.square(a - b)))) / scale


class _Extractor:
    """Translates one subprogram AST into numpy function source."""

    def __init__(self, interp: Interpreter, module: str):
        self.interp = interp
        self.mrt = interp.module(module)
        self.module = module
        self.deps: dict[str, "Kernel"] = {}
        self.locals: set[str] = set()
        self.lines: list[str] = []
        self._mask_n = 0

    # ------------------------------------------------------- expressions
    def expr(self, node: Expr) -> str:
        if isinstance(node, NumberLit):
            if node.is_integer:
                return repr(int(node.value))
            return repr(float(node.value))
        if isinstance(node, LogicalLit):
            return "True" if node.value else "False"
        if isinstance(node, VarRef):
            if node.name in self.locals:
                return node.name
            return self._constant(node.name)
        if isinstance(node, UnaryOp):
            if node.op == "-":
                return f"(-{self.expr(node.operand)})"
            if node.op == "+":
                return self.expr(node.operand)
            if node.op == ".not.":
                return f"np.logical_not({self.expr(node.operand)})"
            raise KernelError(f"unsupported unary operator {node.op!r}")
        if isinstance(node, BinOp):
            if node.op == ".and.":
                return f"({self.expr(node.left)}) & ({self.expr(node.right)})"
            if node.op == ".or.":
                return f"({self.expr(node.left)}) | ({self.expr(node.right)})"
            op = _BINOPS.get(node.op)
            if op is None:
                raise KernelError(
                    f"unsupported binary operator {node.op!r}"
                )
            return f"({self.expr(node.left)} {op} {self.expr(node.right)})"
        if isinstance(node, Apply):
            return self._apply(node)
        raise KernelError(
            f"unsupported expression node {type(node).__name__}"
        )

    def _apply(self, node: Apply) -> str:
        if node.keywords:
            raise KernelError(
                f"keyword arguments in call to {node.name!r} are not "
                "supported"
            )
        args = [self.expr(a) for a in node.args]
        lowered = node.name.lower()
        fold = _FOLD_MAP.get(lowered)
        if fold is not None:
            if not args:
                raise KernelError(f"{lowered}() needs arguments")
            out = args[0]
            for a in args[1:]:
                out = f"{fold}({out}, {a})"
            return out
        mapped = _INTRINSIC_MAP.get(lowered)
        if mapped is not None:
            return f"{mapped}({', '.join(args)})"
        resolved = self.interp._lookup_proc(self.mrt, node.name, frozenset())
        if resolved is not None:
            target_mrt, sub = resolved
            dep = self.deps.get(sub.name)
            if dep is None:
                dep = extract_kernel(
                    self.interp, target_mrt.node.name, sub.name,
                    _deps=self.deps,
                )
                self.deps[sub.name] = dep
            return f"_k_{sub.name}({', '.join(args)})"
        raise KernelError(
            f"cannot extract reference {node.name!r} (array subscript, "
            "unknown function, or unsupported intrinsic)"
        )

    def _constant(self, name: str) -> str:
        """A module-level or use-associated constant, baked as a literal."""
        scope = None
        if name in self.mrt.scope:
            scope = self.mrt.scope
            rname = name
        else:
            found = self.interp._resolve_use_var(self.mrt, name, frozenset())
            if found is not None:
                scope, rname = found
        if scope is None:
            raise KernelError(
                f"unresolvable name {name!r} in {self.module!r}"
            )
        value = scope.get(rname)
        if isinstance(value, (bool, np.bool_)):
            return "True" if value else "False"
        if isinstance(value, (int, np.integer)):
            return repr(int(value))
        if isinstance(value, (float, np.floating)):
            return repr(float(value))
        raise KernelError(
            f"constant {name!r} is not a scalar (got "
            f"{type(value).__name__})"
        )

    def _const_int(self, node: Expr) -> int:
        """Fold a do-loop bound to a compile-time integer, or refuse."""
        if isinstance(node, NumberLit):
            if not node.is_integer:
                raise KernelError("do-loop bounds must be integers")
            return int(node.value)
        if isinstance(node, VarRef) and node.name not in self.locals:
            text = self._constant(node.name)
            try:
                return int(text)
            except ValueError:
                raise KernelError(
                    f"do-loop bound {node.name!r} is not an integer constant"
                ) from None
        if isinstance(node, UnaryOp):
            if node.op == "-":
                return -self._const_int(node.operand)
            if node.op == "+":
                return self._const_int(node.operand)
        if isinstance(node, BinOp):
            left = self._const_int(node.left)
            right = self._const_int(node.right)
            if node.op == "+":
                return left + right
            if node.op == "-":
                return left - right
            if node.op == "*":
                return left * right
        raise KernelError(
            "do-loop bounds must fold to compile-time integer constants "
            "(member-varying or runtime bounds cannot be unrolled)"
        )

    # -------------------------------------------------------- statements
    def emit(self, stmts: list[Stmt], mask: Optional[str], indent: str):
        for stmt in stmts:
            if isinstance(stmt, Assignment):
                self._emit_assignment(stmt, mask, indent)
            elif isinstance(stmt, IfBlock):
                self._emit_if(stmt, mask, indent)
            elif isinstance(stmt, DoLoop):
                self._emit_do(stmt, mask, indent)
            else:
                raise KernelError(
                    f"unsupported statement {type(stmt).__name__} at "
                    f"{stmt.location}"
                )

    def _emit_assignment(
        self, stmt: Assignment, mask: Optional[str], indent: str
    ):
        if not isinstance(stmt.target, VarRef):
            raise KernelError(
                f"only scalar assignment targets are supported (at "
                f"{stmt.location})"
            )
        name = stmt.target.name
        if name not in self.locals:
            raise KernelError(
                f"assignment to non-local {name!r} at {stmt.location}"
            )
        value = self.expr(stmt.value)
        if mask is None:
            self.lines.append(f"{indent}{name} = {value}")
        else:
            self.lines.append(
                f"{indent}{name} = np.where({mask}, {value}, {name})"
            )

    def _emit_if(self, stmt: IfBlock, mask: Optional[str], indent: str):
        remaining: Optional[str] = mask
        for cond, body in stmt.branches:
            if cond is None:
                # else branch: everything still remaining
                self.emit(body, remaining, indent)
                return
            n = self._mask_n
            self._mask_n += 1
            cond_src = f"np.asarray({self.expr(cond)})"
            if remaining is not None:
                cond_src += f" & {remaining}"
            self.lines.append(f"{indent}_m{n} = {cond_src}")
            self.emit(body, f"_m{n}", indent)
            if remaining is None:
                remaining = f"~_m{n}"
            else:
                remaining = f"(~_m{n} & {remaining})"

    def _emit_do(self, stmt: DoLoop, mask: Optional[str], indent: str):
        """Unroll a bounded do loop with compile-time-constant bounds.

        Unrolling (not an axis reduction) is deliberate: an accumulate
        body like ``y = y + x`` unrolls into the same sequential fold the
        interpreter executes, so rounding is bit-identical; ``np.sum``
        would reassociate and fail the ``nrms == 0`` conformance gate.
        """
        if stmt.var not in self.locals:
            raise KernelError(
                f"do-loop variable {stmt.var!r} is not a declared local at "
                f"{stmt.location}"
            )
        start = self._const_int(stmt.start)
        stop = self._const_int(stmt.stop)
        step = 1 if stmt.step is None else self._const_int(stmt.step)
        if step == 0:
            raise KernelError(f"zero do-loop step at {stmt.location}")
        count = int(np.trunc((stop - start + step) / step))
        if count < 0:
            count = 0
        if count > _UNROLL_LIMIT:
            raise KernelError(
                f"do loop at {stmt.location} spans {count} iterations — "
                f"beyond the {_UNROLL_LIMIT}-iteration unrolling bound"
            )
        value = start
        for _ in range(count):
            self.lines.append(f"{indent}{stmt.var} = {value}")
            self.emit(stmt.body, mask, indent)
            value += step
        # Fortran leaves the loop variable one step past the last value
        self.lines.append(f"{indent}{stmt.var} = {start + count * step}")


def _declared_entities(sub: Subprogram) -> dict[str, tuple[str, Optional[str]]]:
    """name -> (base type, intent) of every declared entity (args included)."""
    out: dict[str, tuple[str, Optional[str]]] = {}
    for decl in sub.declarations:
        if not isinstance(decl, Declaration):
            continue
        for entity in decl.entities:
            if entity.dims:
                raise KernelError(
                    f"array local {entity.name!r} is not supported"
                )
            out[entity.name] = (decl.base_type, decl.intent)
    return out


def extract_kernel(
    source,
    module: str,
    function: str,
    _deps: Optional[dict] = None,
) -> Kernel:
    """Extract ``module::function`` into a standalone numpy kernel.

    ``source`` is a :class:`~repro.model.builder.ModelSource`, a
    :class:`~repro.model.ModelConfig`, ``None`` (the control build) — or an
    already-constructed scalar :class:`Interpreter` when extracting several
    kernels against one build.  Functions extract to result-returning
    kernels; ``elemental`` subroutines extract to kernels taking the
    ``intent(in)``/``intent(inout)`` dummies and returning the
    ``intent(out)``/``intent(inout)`` dummies as a tuple.  Raises
    :class:`KernelError` when the subprogram falls outside the
    vectorizable subset.
    """
    if isinstance(source, Interpreter):
        interp = source
    else:
        if source is None or isinstance(source, ModelConfig):
            source = build_model_source(source)
        interp = Interpreter(source.parse(), collect_coverage=False)
    resolved = interp._lookup_proc(
        interp.module(module), function, frozenset()
    )
    if resolved is None:
        raise KernelError(f"no function {function!r} in module {module!r}")
    target_mrt, sub = resolved
    out_names: list[str] = []
    decls = _declared_entities(sub)
    if not sub.is_function:
        if "elemental" not in sub.prefixes:
            raise KernelError(
                f"{function!r} is a non-elemental subroutine; only "
                "elemental subroutines are extractable"
            )
        for name in sub.args:
            _, intent = decls.get(name, ("real", None))
            if intent is None:
                raise KernelError(
                    f"elemental subroutine dummy {name!r} has no declared "
                    "intent"
                )
            if intent in ("out", "inout"):
                out_names.append(name)
        if not out_names:
            raise KernelError(
                f"elemental subroutine {function!r} has no intent(out) or "
                "intent(inout) dummies — nothing to return"
            )
    # re-anchor on the defining module (function may be use-associated)
    ex = _Extractor(interp, target_mrt.node.name)
    if _deps is not None:
        ex.deps = _deps

    in_args = [
        name
        for name in sub.args
        if decls.get(name, ("real", None))[1] != "out"
    ]
    ex.locals = set(sub.args) | set(decls)
    if sub.is_function:
        ex.locals.add(sub.result)
    header = f"def _kernel({', '.join(in_args)}):"
    ex.lines.append(header)
    for name, (base_type, intent) in decls.items():
        if name in in_args:
            continue
        init = _SCALAR_INITS.get(base_type)
        if init is None:
            raise KernelError(
                f"local {name!r} has unsupported type {base_type!r}"
            )
        ex.lines.append(f"    {name} = {init}")
    if (
        sub.is_function
        and sub.result not in decls
        and sub.result not in sub.args
    ):
        ex.lines.append(f"    {sub.result} = 0.0")
    ex.emit(sub.body, None, "    ")
    if sub.is_function:
        ex.lines.append(f"    return {sub.result}")
    else:
        ex.lines.append(f"    return ({', '.join(out_names)},)")
    text = "\n".join(ex.lines) + "\n"

    namespace: dict = {"np": np}
    for dep_name, dep in ex.deps.items():
        namespace[f"_k_{dep_name}"] = dep.fn
    exec(compile(text, f"<kernel {module}::{function}>", "exec"), namespace)
    return Kernel(
        module=target_mrt.node.name,
        function=function,
        arg_names=in_args,
        source=text,
        fn=namespace["_kernel"],
        out_names=out_names,
    )


def _reference_outputs(
    interp: Interpreter, kernel: Kernel, scalars: list[float]
) -> tuple:
    """One scalar-interpreter evaluation of the kernel's subprogram."""
    mrt = interp.module(kernel.module)
    resolved = interp._lookup_proc(mrt, kernel.function, frozenset())
    if resolved is None:  # pragma: no cover - kernel came from this interp
        raise KernelError(
            f"no function {kernel.function!r} in module {kernel.module!r}"
        )
    target_mrt, sub = resolved
    if sub.is_function:
        return (
            float(interp.call(kernel.module, kernel.function, scalars)),
        )
    # elemental subroutine: bind scratch variables so intent(out)/inout
    # copy-back lands somewhere we can read it back from
    scratch = Frame(target_mrt, sub, Scope("<kernel-verify>"), None)
    decls = _declared_entities(sub)
    values = dict(zip(kernel.arg_names, scalars))
    for name in sub.args:
        base_type, _ = decls.get(name, ("real", None))
        init = {"real": 0.0, "integer": 0, "logical": False}[base_type]
        scratch.scope.define(name, values.get(name, init))
    interp._call_subprogram(
        target_mrt,
        sub,
        [VarRef(name) for name in sub.args],
        {},
        scratch,
        want_result=False,
    )
    return tuple(float(scratch.scope.get(name)) for name in kernel.out_names)


def _sample_columns(kernel: Kernel, samples: dict) -> list:
    """The kernel's argument columns, checked to form one non-empty grid.

    Raises ``ValueError`` naming the argument when a column is missing,
    not 1-D, of a different length than the others, or empty — a kernel
    measured on no samples would otherwise come out vacuously conformant.
    """
    columns = []
    for name in kernel.arg_names:
        if name not in samples:
            raise ValueError(
                f"no sample column or range for argument {name!r} of "
                f"kernel {kernel.module}::{kernel.function}"
            )
        column = np.asarray(samples[name], dtype=np.float64)
        if column.ndim != 1:
            raise ValueError(
                f"samples for argument {name!r} must be 1-D, got shape "
                f"{column.shape}"
            )
        columns.append(column)
    lengths = dict(zip(kernel.arg_names, map(len, columns)))
    if len(set(lengths.values())) > 1:
        listing = ", ".join(f"{n!r} has {k}" for n, k in lengths.items())
        raise ValueError(f"sample columns differ in length: {listing}")
    if columns and not len(columns[0]):
        names = ", ".join(repr(n) for n in kernel.arg_names)
        raise ValueError(f"no samples for argument(s) {names}")
    return columns


def verify_kernel(
    kernel: Kernel,
    source=None,
    samples: Optional[dict[str, np.ndarray]] = None,
    ranges: Optional[tuple[tuple[str, float, float], ...]] = None,
    n_samples: int = 256,
    seed: int = 20190624,
    tol: float = 1.0e-12,
) -> KernelReport:
    """Measure a kernel's normalized-RMS deviation from the scalar
    interpreter over a sample grid.

    ``samples`` maps argument names to equal-length 1-D arrays; without it,
    ``ranges`` (``(name, lo, hi)`` triples, e.g. from a
    :class:`KernelTarget`) drive a deterministic uniform draw.  The grid
    is checked before anything runs: a kernel argument without a column
    or range, ragged or non-1-D columns, or an empty grid raise
    ``ValueError`` naming the argument.  Subroutine
    kernels compare every returned output against the interpreter's
    copy-back values; the reported ``nrms`` is the worst output's.  The
    kernel is conformant when ``nrms <= tol`` — the default bound of
    ``1e-12`` admits only reassociation-level deviations, and in practice
    the extracted kernels reproduce the interpreter bit-for-bit.
    """
    if samples is None:
        if ranges is None:
            raise ValueError("verify_kernel needs samples or ranges")
        rng = np.random.default_rng(seed)
        samples = {
            name: rng.uniform(lo, hi, size=n_samples)
            for name, lo, hi in ranges
        }
    columns = _sample_columns(kernel, samples)
    # an argument-free kernel is a constant: one evaluation measures it
    count = len(columns[0]) if columns else 1
    if isinstance(source, Interpreter):
        interp = source
    else:
        if source is None or isinstance(source, ModelConfig):
            source = build_model_source(source)
        interp = Interpreter(source.parse(), collect_coverage=False)
    raw = kernel.fn(*columns)
    got = raw if kernel.is_subroutine else (raw,)
    got = tuple(
        np.broadcast_to(np.asarray(g, dtype=np.float64), (count,))
        for g in got
    )
    n_outputs = len(got)
    want = np.empty((n_outputs, count), dtype=np.float64)
    for i in range(count):
        refs = _reference_outputs(
            interp, kernel, [float(col[i]) for col in columns]
        )
        for j, ref in enumerate(refs):
            want[j, i] = ref
    worst = max(nrms(g, w) for g, w in zip(got, want))
    return KernelReport(
        kernel=kernel, n_samples=count, nrms=worst, tol=tol
    )


def extract_default_kernels(
    source=None, tol: float = 1.0e-12
) -> list[KernelReport]:
    """Extract and verify every :data:`DEFAULT_KERNEL_TARGETS` entry
    against one shared build; non-conformant kernels are still returned
    (``report.conformant`` is False) so callers decide the gate."""
    if source is None or isinstance(source, ModelConfig):
        source = build_model_source(source)
    interp = Interpreter(source.parse(), collect_coverage=False)
    reports = []
    for target in DEFAULT_KERNEL_TARGETS:
        kernel = extract_kernel(interp, target.module, target.function)
        reports.append(
            verify_kernel(kernel, interp, ranges=target.ranges, tol=tol)
        )
    return reports
