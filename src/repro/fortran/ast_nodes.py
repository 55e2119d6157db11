"""Abstract syntax tree node classes for the Fortran subset.

The AST intentionally keeps the same shape the paper's pipeline relies on:

* every *assignment statement* is preserved with its left-hand side and
  right-hand side expression trees (these become digraph edges);
* subroutine/function *calls* keep their argument expression trees so the
  graph builder can map call arguments onto dummy arguments;
* ``use`` statements keep only-lists and renames so module-local names can
  be resolved to their defining module;
* derived-type component references keep the full component path so a
  *canonical name* (the trailing component, e.g. ``omega`` for
  ``state%omega``) can be computed;
* every node records its source location so graph nodes carry
  (module, subprogram, line) metadata.

The same AST is consumed by two very different clients: the digraph builder
(:mod:`repro.graphs.build`) and the numerical interpreter
(:mod:`repro.runtime.interpreter`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

from .errors import SourceLocation


# --------------------------------------------------------------------------- #
# Expressions
# --------------------------------------------------------------------------- #
@dataclass
class Expr:
    """Base class of all expression nodes."""

    def walk(self) -> Iterator["Expr"]:
        """Yield this node and all sub-expressions, depth first."""
        yield self


@dataclass
class NumberLit(Expr):
    """Integer or real literal, e.g. ``8.1328e-3_r8``.

    ``value`` is the parsed Python float/int; ``kind`` keeps the kind suffix
    (``r8``) when present so source can be round-tripped.
    """

    value: float
    kind: Optional[str] = None
    is_integer: bool = False


@dataclass
class StringLit(Expr):
    """Character literal, e.g. the output name in ``call outfld('QRL', qrl)``."""

    value: str


@dataclass
class LogicalLit(Expr):
    """``.true.`` or ``.false.``"""

    value: bool


@dataclass
class VarRef(Expr):
    """A bare variable reference, e.g. ``gravit``."""

    name: str


@dataclass
class Apply(Expr):
    """A name applied to an argument list: ``foo(a, b)``.

    Fortran syntax cannot distinguish an array reference from a function
    call; the paper resolves this after parsing all files using a hash table
    of known function names.  The parser therefore emits a single ``Apply``
    node and downstream passes (graph builder, interpreter) resolve it.
    """

    name: str
    args: list[Expr] = field(default_factory=list)
    #: Named (keyword) arguments, e.g. ``qsat(t, p, es=esat)``.
    keywords: dict[str, Expr] = field(default_factory=dict)

    def walk(self) -> Iterator[Expr]:
        yield self
        for a in self.args:
            yield from a.walk()
        for a in self.keywords.values():
            yield from a.walk()


@dataclass
class SectionRange(Expr):
    """An array section bound pair, e.g. the ``1:ncol`` in ``t(1:ncol, k)``.

    Either bound may be ``None`` for ``:`` (whole dimension).
    """

    lower: Optional[Expr] = None
    upper: Optional[Expr] = None
    stride: Optional[Expr] = None

    def walk(self) -> Iterator[Expr]:
        yield self
        for part in (self.lower, self.upper, self.stride):
            if part is not None:
                yield from part.walk()


@dataclass
class DerivedRef(Expr):
    """A derived-type component reference: ``state%omega(i, k)``.

    ``base`` is the leading expression (usually a :class:`VarRef` or
    :class:`Apply` such as ``elem(ie)``); ``component`` is a single component
    name; chains like ``elem(ie)%derived%omega_p`` nest ``DerivedRef`` nodes.
    ``args`` holds trailing subscripts applied to the component itself.
    """

    base: Expr
    component: str
    args: list[Expr] = field(default_factory=list)

    def walk(self) -> Iterator[Expr]:
        yield self
        yield from self.base.walk()
        for a in self.args:
            yield from a.walk()

    @property
    def canonical_name(self) -> str:
        """The paper's canonical name: the trailing component name."""
        return self.component


@dataclass
class UnaryOp(Expr):
    """Unary operator application: ``-x`` or ``.not. flag``."""

    op: str
    operand: Expr

    def walk(self) -> Iterator[Expr]:
        yield self
        yield from self.operand.walk()


@dataclass
class BinOp(Expr):
    """Binary operator application.

    ``op`` is one of ``** * / + - // == /= < <= > >= .and. .or.``.
    The interpreter treats ``a*b + c`` specially when the FPU model has FMA
    enabled for the enclosing module (see :mod:`repro.runtime.fpu`).
    """

    op: str
    left: Expr
    right: Expr

    def walk(self) -> Iterator[Expr]:
        yield self
        yield from self.left.walk()
        yield from self.right.walk()


# --------------------------------------------------------------------------- #
# Statements
# --------------------------------------------------------------------------- #
@dataclass
class Stmt:
    """Base class of all statement nodes."""

    location: SourceLocation = field(default_factory=SourceLocation, kw_only=True)

    def children(self) -> Sequence["Stmt"]:
        """Nested statements (bodies of if/do); flat statements return ()."""
        return ()

    def walk(self) -> Iterator["Stmt"]:
        yield self
        for child in self.children():
            yield from child.walk()


@dataclass
class Assignment(Stmt):
    """``lhs = rhs`` — the fundamental unit of the paper's digraph."""

    target: Expr
    value: Expr
    #: True when this was parsed by the regex fallback parser rather than the
    #: recursive-descent parser (mirrors the paper's multi-parser strategy).
    from_fallback: bool = False


@dataclass
class PointerAssignment(Stmt):
    """``ptr => target`` — treated like a normal assignment (paper §4.2)."""

    target: Expr
    value: Expr


@dataclass
class CallStmt(Stmt):
    """``call sub(a, b, c)``."""

    name: str
    args: list[Expr] = field(default_factory=list)
    keywords: dict[str, Expr] = field(default_factory=dict)


@dataclass
class IfBlock(Stmt):
    """``if (...) then / else if (...) then / else / end if``.

    ``branches`` is a list of (condition, body) pairs; the final ``else``
    branch has condition ``None``.
    """

    branches: list[tuple[Optional[Expr], list[Stmt]]] = field(default_factory=list)

    def children(self) -> Sequence[Stmt]:
        out: list[Stmt] = []
        for _, body in self.branches:
            out.extend(body)
        return out


@dataclass
class DoLoop(Stmt):
    """``do var = start, stop [, step]`` ... ``end do``."""

    var: str
    start: Expr
    stop: Expr
    step: Optional[Expr] = None
    body: list[Stmt] = field(default_factory=list)

    def children(self) -> Sequence[Stmt]:
        return self.body


@dataclass
class DoWhile(Stmt):
    """``do while (cond)`` ... ``end do``."""

    condition: Expr = None  # type: ignore[assignment]
    body: list[Stmt] = field(default_factory=list)

    def children(self) -> Sequence[Stmt]:
        return self.body


@dataclass
class CaseItem:
    """One item of a ``case`` selector list: a single value or a range.

    ``case (3)`` is a value item; ``case (1:5)``, ``case (:0)`` and
    ``case (7:)`` are (inclusive) range items with the absent bound ``None``.
    """

    value: Optional[Expr] = None
    lower: Optional[Expr] = None
    upper: Optional[Expr] = None
    is_range: bool = False


@dataclass
class SelectCase(Stmt):
    """``select case (expr)`` ... ``case (...)`` / ``case default`` ... ``end select``.

    ``cases`` is a list of (items, body) pairs in source order; the
    ``case default`` branch has items ``None``.
    """

    selector: Expr = None  # type: ignore[assignment]
    cases: list[tuple[Optional[list[CaseItem]], list[Stmt]]] = field(
        default_factory=list
    )

    def children(self) -> Sequence[Stmt]:
        out: list[Stmt] = []
        for _, body in self.cases:
            out.extend(body)
        return out


@dataclass
class WhereBlock(Stmt):
    """``where (mask)`` ... ``end where`` (masked array assignment block)."""

    mask: Expr = None  # type: ignore[assignment]
    body: list[Stmt] = field(default_factory=list)
    else_body: list[Stmt] = field(default_factory=list)

    def children(self) -> Sequence[Stmt]:
        return list(self.body) + list(self.else_body)


@dataclass
class ReturnStmt(Stmt):
    """``return``"""


@dataclass
class ExitStmt(Stmt):
    """``exit`` — leave the innermost do loop."""


@dataclass
class CycleStmt(Stmt):
    """``cycle`` — next iteration of the innermost do loop."""


@dataclass
class StopStmt(Stmt):
    """``stop`` or ``stop 'message'``."""

    message: Optional[str] = None


@dataclass
class ContinueStmt(Stmt):
    """``continue`` — no-op."""


@dataclass
class UnparsedStmt(Stmt):
    """A statement neither parser could handle; kept for bookkeeping.

    The paper reports 10 such assignments out of 660k lines; we keep them in
    the AST so the metagraph can report how many statements were skipped.
    """

    text: str = ""


# --------------------------------------------------------------------------- #
# Declarations and program units
# --------------------------------------------------------------------------- #
@dataclass
class Rename:
    """One item of a use-only list: ``local => remote`` or plain ``name``."""

    local: str
    remote: str

    @classmethod
    def plain(cls, name: str) -> "Rename":
        return cls(local=name, remote=name)


@dataclass
class UseStmt(Stmt):
    """``use mod, only: a, b => c``; ``only`` empty means "use everything"."""

    module: str = ""
    only: list[Rename] = field(default_factory=list)
    has_only: bool = False


@dataclass
class EntityDecl:
    """One declared entity: name, array spec, optional initializer."""

    name: str
    dims: list[Expr] = field(default_factory=list)
    init: Optional[Expr] = None


@dataclass
class Declaration(Stmt):
    """A type declaration statement.

    Examples::

        real(r8), parameter :: gravit = 9.80616_r8
        real(r8), intent(in) :: t(pcols, pver)
        type(physics_state) :: state
        integer :: i, k
    """

    base_type: str = "real"          # real / integer / logical / character / type
    kind: Optional[str] = None        # r8, i8, len spec for character
    type_name: Optional[str] = None   # derived type name for ``type(x)``
    attributes: list[str] = field(default_factory=list)
    intent: Optional[str] = None
    is_parameter: bool = False
    entities: list[EntityDecl] = field(default_factory=list)


@dataclass
class AccessStmt(Stmt):
    """``public`` / ``private`` [:: names] — kept for fidelity, not semantics."""

    access: str = "public"
    names: list[str] = field(default_factory=list)


@dataclass
class TypeDef(Stmt):
    """A derived type definition: ``type physics_state ... end type``."""

    name: str = ""
    components: list[Declaration] = field(default_factory=list)


@dataclass
class InterfaceBlock(Stmt):
    """``interface name ... module procedure a, b ... end interface``.

    The paper notes static analysis cannot know which specific procedure an
    interface call executes, so all possible connections are mapped; we keep
    the procedure list for that purpose.
    """

    name: str = ""
    procedures: list[str] = field(default_factory=list)


@dataclass
class Subprogram:
    """A subroutine or function."""

    name: str
    kind: str                                    # "subroutine" | "function"
    args: list[str] = field(default_factory=list)
    result_name: Optional[str] = None            # functions only
    prefixes: list[str] = field(default_factory=list)  # elemental, pure, recursive
    declarations: list[Stmt] = field(default_factory=list)
    body: list[Stmt] = field(default_factory=list)
    location: SourceLocation = field(default_factory=SourceLocation)
    #: Nested (contained) subprograms.
    contains: list["Subprogram"] = field(default_factory=list)

    @property
    def is_function(self) -> bool:
        return self.kind == "function"

    @property
    def result(self) -> str:
        """The name that holds a function's return value."""
        return self.result_name or self.name

    def walk_statements(self) -> Iterator[Stmt]:
        """Yield all executable statements (recursing into control flow)."""
        for stmt in self.body:
            yield from stmt.walk()

    def assignments(self) -> Iterator[Assignment]:
        for stmt in self.walk_statements():
            if isinstance(stmt, Assignment):
                yield stmt


@dataclass
class ModuleNode:
    """A parsed Fortran module: the unit of the paper's quotient graph."""

    name: str
    uses: list[UseStmt] = field(default_factory=list)
    declarations: list[Stmt] = field(default_factory=list)
    type_defs: dict[str, TypeDef] = field(default_factory=dict)
    interfaces: dict[str, InterfaceBlock] = field(default_factory=dict)
    subprograms: dict[str, Subprogram] = field(default_factory=dict)
    filename: str = "<string>"
    #: statements that could not be parsed by any parser
    unparsed: list[UnparsedStmt] = field(default_factory=list)

    def module_variable_names(self) -> list[str]:
        """Names of module-level variables (including parameters)."""
        names: list[str] = []
        for decl in self.declarations:
            if isinstance(decl, Declaration):
                names.extend(e.name for e in decl.entities)
        return names

    def all_assignments(self) -> Iterator[tuple[Subprogram, Assignment]]:
        """Yield (subprogram, assignment) pairs for every assignment,
        including assignments in contained subprograms."""
        for sub, stmt in self.walk_statements():
            if isinstance(stmt, Assignment):
                yield sub, stmt

    def walk_statements(self) -> Iterator[tuple[Subprogram, Stmt]]:
        """Yield (subprogram, statement) for every executable statement.

        Recurses into control-flow bodies and contained subprograms; this is
        the walk the metagraph builder compiles edges from.
        """
        for sub in self.subprograms.values():
            stack = [sub]
            while stack:
                current = stack.pop()
                for stmt in current.walk_statements():
                    yield current, stmt
                stack.extend(current.contains)


@dataclass
class SourceFileAST:
    """The AST of one source file (one or more modules)."""

    filename: str
    modules: list[ModuleNode] = field(default_factory=list)

    def walk_statements(self) -> Iterator[tuple[ModuleNode, Subprogram, Stmt]]:
        """Yield (module, subprogram, statement) over the whole file."""
        for mod in self.modules:
            for sub, stmt in mod.walk_statements():
                yield mod, sub, stmt
