"""Lane regions: which ``do`` loops may run once over all their iterations.

The vectorized runtime (:mod:`repro.runtime.vec`) executes the body of a
``do`` loop whose iterations are provably independent *once*, with the
iterations as a second batch axis ("lanes") beside the member axis.  This
module decides, from the AST alone, which loops qualify; it evaluates
nothing.  What the AST leaves open (use-associated variables, derived-type
components, called procedures) a :class:`Names` object from the runtime
answers.

A loop is a region when:

* **header** — the step is absent or a literal ``1``/``-1``, and the loop
  variable is a private (below);
* **body** — only assignments, ``if``/``else if``/``else``, ``continue``
  and nested ``do`` loops (not under an ``if``, bounds free of the loop
  variable and of privates); no call statement, ``exit``/``cycle``/
  ``return``/``stop``, ``select``, ``where`` or ``do while``;
* **privates** — every scalar the body writes is a plain local of the
  subprogram (no dummy, host or module variable, no initialized or
  ``save`` local), and every read of it comes after a write in the same
  iteration on every path;
* **array writes** — the bare loop variable sits in one fixed subscript
  position and the other subscripts are lane-invariant, and every
  reference to a written array (by name or component path) has that form;
* **reads** — an array the body does not write takes any subscripts
  (lane-valued ones are gathers);
* **no array-valued subexpressions** — no section or whole-array
  reference, except as an argument of an intrinsic whose arguments are all
  lane-invariant and hold no ``/`` or ``**``, so a lane axis never
  broadcasts against a model axis and every array a division or power
  sees inside a region is a lane value;
* **calls** — elementwise intrinsics, and elemental user functions whose
  bodies pass the same rules and reference no array (:func:`elemental_ok`).

Of a perfect nest (a loop whose only statement is a loop), the innermost
loop that qualifies is the region, and the loops around it iterate.  The
runtime still guards each execution (array aliasing, trip count) and runs
the per-iteration loop when a guard fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Protocol

from ..fortran.ast_nodes import (
    Apply,
    Assignment,
    BinOp,
    ContinueStmt,
    Declaration,
    DerivedRef,
    DoLoop,
    Expr,
    IfBlock,
    LogicalLit,
    NumberLit,
    SectionRange,
    Stmt,
    StringLit,
    Subprogram,
    UnaryOp,
    UseStmt,
    VarRef,
)
from ..fortran.intrinsics import EXPRESSION_INTRINSICS

__all__ = ["ELEMENTWISE", "LanePlan", "Names", "elemental_ok", "plan_region"]

#: intrinsics computed element by element, whose arguments may carry lanes
ELEMENTWISE = frozenset({
    "abs", "acos", "aint", "asin", "atan", "atan2", "cos", "cosh", "dble",
    "dim", "erf", "erfc", "exp", "floor", "gamma", "int", "log", "log10",
    "max", "merge", "min", "mod", "nint", "real", "sign", "sin", "sinh",
    "sqrt", "tan", "tanh",
})

#: a reference key: an array's name, or the component path to it
Key = tuple[str, ...]


class Names(Protocol):
    """What the runtime knows about names the AST leaves open."""

    def kind(self, key: Key) -> Optional[str]:
        """``"array"``, ``"scalar"`` or ``"derived"`` for a variable or
        component path visible from the subprogram; None if unknown."""

    def procedure(self, name: str) -> Optional[tuple[Subprogram, "Names"]]:
        """The user procedure ``name`` resolves to, with the names its
        body sees; None for an intrinsic or an unknown name."""


@dataclass(frozen=True)
class LanePlan:
    """A loop that runs as a lane region."""

    #: scalars private to an iteration, nested loop variables included
    privates: tuple[str, ...]
    #: nested loop variables: privates whose value no lane changes
    nested_vars: tuple[str, ...]
    #: arrays the body writes that may alias another referenced array
    #: (rooted at a dummy or a non-local name), and every referenced
    #: array of that kind: the runtime's aliasing guard
    guarded_written: tuple[Key, ...]
    guarded: tuple[Key, ...]


class _NotRegion(Exception):
    """The loop (or callee) breaks a lane-region rule."""


def plan_region(loop: DoLoop, sub: Optional[Subprogram], names: Names,
                verdicts: dict) -> Optional[LanePlan]:
    """The lane plan for ``loop`` inside ``sub``, or None when it runs
    per iteration.  ``verdicts`` caches elemental-callee checks."""
    nested = loop
    while len(nested.body) == 1 and type(nested.body[0]) is DoLoop:
        nested = nested.body[0]
        if _plan(nested, sub, names, verdicts) is not None:
            return None  # a perfect nest's inner loop is the region
    return _plan(loop, sub, names, verdicts)


def _plan(loop: DoLoop, sub: Optional[Subprogram], names: Names,
          verdicts: dict) -> Optional[LanePlan]:
    if sub is None or (loop.step is not None and not _unit_step(loop.step)):
        return None
    walker = _Walker(sub, names, verdicts, lane_var=loop.var)
    if not walker.private_ok(loop.var, integer=True):
        return None
    try:
        walker.prescan(loop.body)
        walker.body(loop.body, {loop.var}, top=True)
        walker.check_forms()
    except _NotRegion:
        return None
    guarded = sorted(k for k in walker.forms if walker.may_alias(k[0]))
    return LanePlan(
        privates=tuple(sorted(walker.written_scalars)),
        nested_vars=tuple(sorted(walker.nested_vars)),
        guarded_written=tuple(k for k in guarded if k in walker.written_keys),
        guarded=tuple(guarded),
    )


def elemental_ok(sub: Subprogram, names: Names, verdicts: dict) -> bool:
    """Whether elemental function ``sub`` may run inside a lane region:
    its body passes the region rules, references no array (a region's
    form check cannot see what a callee reads), writes only its own
    scalar locals and assigns its result on every path."""
    cached = verdicts.get(id(sub))
    if cached is not None:
        return cached[1]
    verdicts[id(sub)] = (sub, False)  # a recursive callee is not lane-safe
    ok = False
    if "elemental" in sub.prefixes and sub.is_function:
        walker = _Walker(sub, names, verdicts, lane_var=None)
        try:
            walker.prescan(sub.body)
            assigned = walker.body(sub.body, set(), top=True)
            ok = sub.result in assigned and not walker.forms
        except _NotRegion:
            ok = False
    verdicts[id(sub)] = (sub, ok)
    return ok


def _unit_step(step: Expr) -> bool:
    if type(step) is UnaryOp and step.op == "-":
        step = step.operand
    return type(step) is NumberLit and step.is_integer and float(step.value) == 1


def _key(ref: Expr) -> Optional[Key]:
    """The reference key of a variable or component path, or None."""
    if type(ref) is VarRef:
        return (ref.name,)
    if type(ref) is DerivedRef and not ref.args:
        base = _key(ref.base)
        return None if base is None else base + (ref.component,)
    return None


def _ref_key(ref: Expr) -> Optional[Key]:
    """The key of a subscripted reference ``a(...)`` or ``x%c(...)``."""
    if type(ref) is Apply:
        return (ref.name,)
    base = _key(ref.base)
    return None if base is None else base + (ref.component,)


class _Walker:
    """One pass over a region body (or an elemental callee's body)."""

    def __init__(self, sub: Subprogram, names: Names, verdicts: dict,
                 lane_var: Optional[str]):
        self.names = names
        self.verdicts = verdicts
        self.lane_var = lane_var
        self.dummies = set(sub.args)
        self.declared: dict[str, tuple[Declaration, object]] = {}
        self.imported: set[str] = set()
        for decl in sub.declarations:
            if isinstance(decl, Declaration):
                for entity in decl.entities:
                    self.declared[entity.name] = (decl, entity)
            elif isinstance(decl, UseStmt):
                self.imported.update(r.local for r in decl.only)
        #: scalars and arrays the body writes (filled by the prescan):
        #: assigned scalars, nested loop variables, and both
        self.assigned_scalars: set[str] = set()
        self.nested_vars: set[str] = set()
        self.written_scalars: set[str] = set()
        self.written_keys: set[Key] = set()
        #: key -> the forms of its references: the lane-axis position,
        #: None (no lane subscript) or "gather" (lanes elsewhere)
        self.forms: dict[Key, set] = {}

    # ------------------------------------------------------------ names
    def private_ok(self, name: str, integer: bool = False) -> bool:
        """A plain scalar local: no dummy, parameter, initializer or save."""
        found = self.declared.get(name)
        if found is None or name in self.dummies or name in self.imported:
            return False
        decl, entity = found
        if entity.dims or entity.init is not None or decl.is_parameter:
            return False
        if "save" in decl.attributes:
            return False
        if integer:
            return decl.base_type == "integer"
        return decl.base_type in ("real", "integer", "logical")

    def may_alias(self, root: str) -> bool:
        """An array rooted at ``root`` may share memory with another name:
        only a local the subprogram allocates itself cannot."""
        return root in self.dummies or root not in self.declared or root in self.imported

    def kind(self, key: Key) -> Optional[str]:
        found = self.declared.get(key[0])
        if found is not None and len(key) == 1 and key[0] not in self.imported:
            decl, entity = found
            if decl.base_type in ("type", "class"):
                return "derived"
            return "array" if entity.dims else "scalar"
        return self.names.kind(key)

    # ---------------------------------------------------------- prescan
    def prescan(self, body: list[Stmt]) -> None:
        """Collect what the body writes, so that a read before the write
        in the same iteration is seen as carried, and check that every
        written scalar is a private."""
        self.collect(body)
        self.written_scalars = self.assigned_scalars | self.nested_vars
        for name in self.written_scalars:
            if not self.private_ok(name):
                raise _NotRegion(f"{name!r} is not a private")
        if self.nested_vars & self.assigned_scalars:
            raise _NotRegion("a nested loop variable is also assigned")

    def collect(self, body: list[Stmt]) -> None:
        for stmt in body:
            t = type(stmt)
            if t is Assignment:
                target = stmt.target
                if type(target) is VarRef:
                    if target.name == self.lane_var:
                        raise _NotRegion("assigns the loop variable")
                    self.assigned_scalars.add(target.name)
                elif type(target) is Apply or (
                    type(target) is DerivedRef and target.args
                ):
                    key = _ref_key(target)
                    if key is None:
                        raise _NotRegion("store through an array of types")
                    self.written_keys.add(key)
                else:
                    raise _NotRegion("unsupported assignment target")
            elif t is IfBlock:
                for _, branch in stmt.branches:
                    self.collect(branch)
            elif t is DoLoop:
                if stmt.var == self.lane_var:
                    raise _NotRegion("nested loop reuses the loop variable")
                self.nested_vars.add(stmt.var)
                self.collect(stmt.body)
            elif t is not ContinueStmt:
                raise _NotRegion(f"{t.__name__} in the body")

    # -------------------------------------------------------- statements
    def body(self, body: list[Stmt], assigned: set, top: bool) -> set:
        """Walk ``body`` with ``assigned`` the privates written on every
        path so far; return the set after it."""
        for stmt in body:
            t = type(stmt)
            if t is Assignment:
                self.expr(stmt.value, assigned)
                if type(stmt.target) is VarRef:
                    assigned = assigned | {stmt.target.name}
                else:
                    self.reference(stmt.target, assigned)
            elif t is IfBlock:
                outcomes = []
                for cond, branch in stmt.branches:
                    if cond is not None:
                        self.expr(cond, assigned)
                    outcomes.append(self.body(branch, assigned, top=False))
                if stmt.branches[-1][0] is None:
                    assigned = set.intersection(*outcomes)
            elif t is DoLoop:
                if not top:
                    raise _NotRegion("nested loop under a condition")
                for bound in (stmt.start, stmt.stop, stmt.step):
                    if bound is not None and (
                        self.expr(bound, assigned) or self.mentions_private(bound)
                    ):
                        raise _NotRegion("nested loop bounds vary by lane")
                assigned = assigned | {stmt.var}
                self.body(stmt.body, assigned, top=True)
        return assigned

    def mentions_private(self, expr: Expr) -> bool:
        t = type(expr)
        if t is VarRef:
            return expr.name in self.written_scalars
        if t is BinOp:
            return self.mentions_private(expr.left) or self.mentions_private(expr.right)
        if t is UnaryOp:
            return self.mentions_private(expr.operand)
        if t is Apply:
            return any(self.mentions_private(a)
                       for a in [*expr.args, *expr.keywords.values()])
        if t is DerivedRef:
            return any(self.mentions_private(a) for a in [expr.base, *expr.args])
        return False

    # -------------------------------------------------------- expressions
    def expr(self, expr: Expr, assigned: set) -> bool:
        """Validate a scalar-valued expression; True if it varies by lane."""
        t = type(expr)
        if t in (NumberLit, LogicalLit, StringLit):
            return False
        if t is VarRef:
            name = expr.name
            if name == self.lane_var:
                return True
            if name in self.written_scalars:
                if name not in assigned:
                    raise _NotRegion(f"{name!r} is read before it is written")
                return name not in self.nested_vars
            if self.lane_var is None and name in self.dummies:
                return True  # an elemental callee's dummies carry lanes
            if self.kind((name,)) != "scalar":
                raise _NotRegion(f"whole-array or unknown reference {name!r}")
            return False
        if t is UnaryOp:
            return self.expr(expr.operand, assigned)
        if t is BinOp:
            left = self.expr(expr.left, assigned)
            return self.expr(expr.right, assigned) or left
        if t is DerivedRef:
            if expr.args:
                return self.reference(expr, assigned)
            key = _key(expr)
            if key is None or self.kind(key) != "scalar":
                raise _NotRegion("whole-array component reference")
            return False
        if t is Apply:
            kind = self.kind((expr.name,))
            if kind == "array":
                return self.reference(expr, assigned)
            if kind is not None:
                raise _NotRegion(f"{expr.name!r} subscripted as an array")
            return self.call(expr, assigned)
        raise _NotRegion(f"{t.__name__} in an expression")

    def reference(self, ref: Expr, assigned: set) -> bool:
        """An array element reference (a load or a store target)."""
        key = _ref_key(ref)
        if key is None or self.kind(key) != "array":
            raise _NotRegion("subscripted non-array")
        if type(ref) is DerivedRef and _key(ref.base) is None:
            raise _NotRegion("derived base is not a plain path")
        if type(ref) is Apply and ref.keywords:
            raise _NotRegion("keywords in a subscript")
        varies = []
        bare = None
        for position, arg in enumerate(ref.args):
            if type(arg) is SectionRange:
                raise _NotRegion("array section in a region")
            varies.append(self.expr(arg, assigned))
            if type(arg) is VarRef and arg.name == self.lane_var:
                bare = position
        if bare is not None and sum(varies) == 1:
            form = bare
        else:
            form = "gather" if any(varies) else None
        self.forms.setdefault(key, set()).add(form)
        return any(varies)

    def call(self, expr: Apply, assigned: set) -> bool:
        args = [*expr.args, *expr.keywords.values()]
        found = self.names.procedure(expr.name)
        if found is not None:
            callee, callee_names = found
            if (
                len(expr.args) > len(callee.args)
                or len(args) != len(callee.args)
                or any(k not in callee.args for k in expr.keywords)
            ):
                raise _NotRegion(f"partially bound call {expr.name!r}")
            if not elemental_ok(callee, callee_names, self.verdicts):
                raise _NotRegion(f"{expr.name!r} is not a lane-safe elemental")
            return any([self.expr(arg, assigned) for arg in args])
        name = expr.name.lower()
        if name not in EXPRESSION_INTRINSICS:
            raise _NotRegion(f"unknown function {expr.name!r}")
        if name in ELEMENTWISE:
            return any([self.expr(arg, assigned) for arg in args])
        if name != "present" and any(self.operand_varies(a, assigned) for a in args):
            raise _NotRegion(f"lane-varying argument of {name!r}")
        return False

    def operand_varies(self, expr: Expr, assigned: set) -> bool:
        """Validate an argument of a non-elementwise intrinsic, where whole
        arrays and sections may appear; True if it varies by lane (or
        reads an array the body writes)."""
        t = type(expr)
        whole = _key(expr)
        if whole is not None and self.kind(whole) == "array":
            self.forms.setdefault(whole, set())
            return whole in self.written_keys
        if t in (Apply, DerivedRef) and any(type(a) is SectionRange for a in expr.args):
            key = _ref_key(expr)
            if key is None or self.kind(key) != "array" or key in self.written_keys:
                return True
            self.forms.setdefault(key, set())
            parts = [
                part
                for arg in expr.args
                for part in (
                    (arg.lower, arg.upper, arg.stride)
                    if type(arg) is SectionRange else (arg,)
                )
                if part is not None
            ]
            return any([self.expr(part, assigned) for part in parts])
        if t is BinOp:
            if expr.op in ("/", "**"):
                # the runtime tells a zero divisor of a masked-out lane from
                # an active one by its lane, which an array's elements lack
                raise _NotRegion(f"{expr.op!r} in an array argument")
            return (self.operand_varies(expr.left, assigned)
                    or self.operand_varies(expr.right, assigned))
        if t is UnaryOp:
            return self.operand_varies(expr.operand, assigned)
        return self.expr(expr, assigned)

    # -------------------------------------------------------------- forms
    def check_forms(self) -> None:
        """Every reference to a written array puts the bare loop variable
        in one position and keeps its other subscripts lane-invariant."""
        for key in self.written_keys:
            forms = self.forms.get(key, set())
            if len(forms) != 1 or not isinstance(next(iter(forms)), int):
                raise _NotRegion(f"written array {key} referenced across lanes")
