"""Compile parsed Fortran ASTs into the variable-dependency metagraph.

This is the paper's source-to-digraph step (§4.2): every assignment becomes a
set of edges from the variables read on the right-hand side (and in the
target's subscripts) to the variable written; every ``call`` and function
reference binds actual arguments onto the callee's dummy arguments across the
subroutine boundary, honouring declared ``intent``; ``use``-association
(including renames like ``r8 => shr_kind_r8``) resolves names to the module
that defines them, which is what makes the resulting graph *cross-module*.

Scoping: dummies and locals are scoped per subprogram, module variables per
module, and derived-type component accesses (``state%t``) get component
nodes hanging off the aggregate variable's node (reads flow aggregate ->
component, writes component -> aggregate), so data carried through a
``type(physics_state)`` argument stays connected across call chains.

Deliberate simplifications, mirroring the paper:

* intrinsic references (``max``, ``sqrt`` ...) are inlined — their arguments
  are read directly, no hub node is created for the intrinsic;
* control dependencies (``if`` conditions guarding a store) are not edges —
  the digraph is data flow over assignments;
* a dummy argument with no declared intent is treated as ``inout``: all
  possible connections are mapped, as the paper does for interface calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from ..fortran.ast_nodes import (
    Apply,
    Assignment,
    Declaration,
    DerivedRef,
    DoLoop,
    Expr,
    CallStmt,
    ModuleNode,
    PointerAssignment,
    SectionRange,
    SourceFileAST,
    Stmt,
    Subprogram,
    UnaryOp,
    BinOp,
    UseStmt,
    VarRef,
)
from ..fortran.intrinsics import is_intrinsic
from ..obs import get_tracer
from .metagraph import MetaGraph, NodeKey


@dataclass
class _SubScope:
    """Name environment of one subprogram."""

    sub: Subprogram
    names: set[str] = field(default_factory=set)
    intents: dict[str, str] = field(default_factory=dict)

    def kind_of(self, name: str) -> str:
        if name in self.sub.args:
            return "dummy"
        if name == self.sub.result and self.sub.is_function:
            return "result"
        return "local"


@dataclass
class _ModuleIndex:
    """Per-module symbol tables built in the first pass."""

    node: ModuleNode
    variables: set[str] = field(default_factory=set)
    subprograms: dict[str, Subprogram] = field(default_factory=dict)
    renames: dict[str, tuple[str, str]] = field(default_factory=dict)
    blanket_uses: list[str] = field(default_factory=list)
    scopes: dict[str, _SubScope] = field(default_factory=dict)


class MetaGraphBuilder:
    """Two-pass builder: index symbols, then compile statements to edges."""

    def __init__(self, asts: Mapping[str, SourceFileAST]):
        self.asts = dict(asts)
        self.graph = MetaGraph()
        self.index: dict[str, _ModuleIndex] = {}
        #: call references to names no module defines (diagnostics)
        self.unresolved_calls: list[tuple[str, str, int]] = []

    # ------------------------------------------------------------ pass one
    def _index_modules(self) -> None:
        for ast in self.asts.values():
            for mod in ast.modules:
                idx = _ModuleIndex(node=mod)
                idx.variables.update(mod.module_variable_names())
                for use in mod.uses:
                    self._index_use(idx, use)
                subs: list[Subprogram] = list(mod.subprograms.values())
                while subs:
                    sub = subs.pop()
                    idx.subprograms[sub.name] = sub
                    idx.scopes[sub.name] = self._build_scope(sub)
                    # subprogram-level `use` statements resolve the same
                    # cross-module names (module-level approximation: the
                    # import is indexed for the whole module, which can only
                    # add resolutions, never lose them)
                    for decl in sub.declarations:
                        if isinstance(decl, UseStmt):
                            self._index_use(idx, decl)
                    subs.extend(sub.contains)
                self.index[mod.name] = idx

    @staticmethod
    def _index_use(idx: _ModuleIndex, use: UseStmt) -> None:
        if use.has_only or use.only:
            for rename in use.only:
                idx.renames[rename.local] = (use.module, rename.remote)
        else:
            idx.blanket_uses.append(use.module)

    @staticmethod
    def _build_scope(sub: Subprogram) -> _SubScope:
        scope = _SubScope(sub=sub)
        scope.names.update(sub.args)
        if sub.is_function:
            scope.names.add(sub.result)
        for decl in sub.declarations:
            if isinstance(decl, Declaration):
                for entity in decl.entities:
                    scope.names.add(entity.name)
                if decl.intent:
                    for entity in decl.entities:
                        scope.intents[entity.name] = decl.intent
        return scope

    # ------------------------------------------------------ name resolution
    def _resolve_module_name(
        self, module: str, name: str, _visited: frozenset[str] = frozenset()
    ) -> NodeKey | None:
        """Resolve ``name`` at module level, following use-association."""
        if module in _visited or module not in self.index:
            return None
        idx = self.index[module]
        if name in idx.variables:
            return (module, "", name)
        visited = _visited | {module}
        if name in idx.renames:
            target_mod, remote = idx.renames[name]
            resolved = self._resolve_module_name(target_mod, remote, visited)
            if resolved is not None:
                return resolved
            # renamed to something that is not a variable (e.g. a function)
            return None
        for target_mod in idx.blanket_uses:
            resolved = self._resolve_module_name(target_mod, name, visited)
            if resolved is not None:
                return resolved
        return None

    def _resolve_var(
        self, module: str, sub: Subprogram | None, name: str, line: int
    ) -> NodeKey:
        """Resolve a variable reference to a node key, creating the node."""
        idx = self.index[module]
        if sub is not None:
            scope = idx.scopes.get(sub.name)
            if scope is not None and name in scope.names:
                node = self.graph.add_node(
                    module, sub.name, name, kind=scope.kind_of(name), line=line
                )
                return node.key
        resolved = self._resolve_module_name(module, name)
        if resolved is not None:
            mod, _, var = resolved
            return self.graph.add_node(mod, "", var, kind="module-var", line=line).key
        # Unknown name (implicit or out-of-subset): keep it local so the
        # statement still contributes structure instead of being dropped.
        scope_name = sub.name if sub is not None else ""
        return self.graph.add_node(
            module, scope_name, name, kind="implicit", line=line
        ).key

    def _resolve_proc(
        self,
        module: str,
        name: str,
        _visited: frozenset[tuple[str, str]] = frozenset(),
    ) -> list[tuple[str, Subprogram]]:
        """All subprograms a name may refer to from ``module`` (paper: map
        every possible connection for generic interfaces)."""
        if (module, name) in _visited or module not in self.index:
            return []
        visited = _visited | {(module, name)}
        idx = self.index[module]
        if name in idx.subprograms:
            return [(module, idx.subprograms[name])]
        if name in idx.node.interfaces:
            out: list[tuple[str, Subprogram]] = []
            for proc in idx.node.interfaces[name].procedures:
                out.extend(self._resolve_proc(module, proc, visited))
            return out
        if name in idx.renames:
            target_mod, remote = idx.renames[name]
            return self._resolve_proc(target_mod, remote, visited)
        out = []
        for target_mod in idx.blanket_uses:
            out.extend(self._resolve_proc(target_mod, name, visited))
        return out

    # --------------------------------------------------- expression -> reads
    def _component_key(self, base: NodeKey, component: str, line: int, write: bool) -> NodeKey:
        """Node for ``base%component``; link it to the aggregate node."""
        mod, scope, base_name = base
        node = self.graph.add_node(
            mod, scope, f"{base_name}%{component}", kind="component", line=line
        )
        if write:
            self.graph.add_edge(node.key, base, line=line)
        else:
            self.graph.add_edge(base, node.key, line=line)
        return node.key

    def _ref_target(
        self, module: str, sub: Subprogram | None, expr: Expr, line: int, write: bool
    ) -> NodeKey | None:
        """The primary variable node a reference expression designates."""
        if isinstance(expr, VarRef):
            return self._resolve_var(module, sub, expr.name, line)
        if isinstance(expr, Apply):
            # array element / section; subscripts handled by the caller
            if is_intrinsic(expr.name) and not self._shadowed(module, sub, expr.name):
                return None
            return self._resolve_var(module, sub, expr.name, line)
        if isinstance(expr, DerivedRef):
            base = self._ref_target(module, sub, expr.base, line, write=False)
            if base is None:
                return None
            return self._component_key(base, expr.component, line, write=write)
        return None

    @staticmethod
    def _chain_subscripts(expr: Expr) -> list[Expr]:
        """Every subscript expression along a reference chain.

        For ``a%b(i)%c(j)`` this yields ``j`` and ``i`` — including the
        subscripts of *intermediate* components, which a naive unwrap to the
        root base would skip.
        """
        subscripts: list[Expr] = []
        current: Expr | None = expr
        while current is not None:
            if isinstance(current, DerivedRef):
                subscripts.extend(current.args)
                current = current.base
            elif isinstance(current, Apply):
                subscripts.extend(current.args)
                subscripts.extend(current.keywords.values())
                current = None
            else:
                current = None
        return subscripts

    def _shadowed(self, module: str, sub: Subprogram | None, name: str) -> bool:
        """True when a local declaration shadows an intrinsic name."""
        if sub is None:
            return name in self.index[module].variables
        scope = self.index[module].scopes.get(sub.name)
        return (scope is not None and name in scope.names) or (
            name in self.index[module].variables
        )

    def _collect_reads(
        self, module: str, sub: Subprogram | None, expr: Expr, line: int
    ) -> list[NodeKey]:
        """Variable nodes read by ``expr``; binds function-call arguments."""
        reads: list[NodeKey] = []
        if isinstance(expr, VarRef):
            reads.append(self._resolve_var(module, sub, expr.name, line))
        elif isinstance(expr, Apply):
            reads.extend(self._apply_reads(module, sub, expr, line))
        elif isinstance(expr, DerivedRef):
            target = self._ref_target(module, sub, expr, line, write=False)
            if target is not None:
                reads.append(target)
            # subscripts at every level of the chain (``elem(ie)%d(j)%omega``)
            for arg in self._chain_subscripts(expr):
                reads.extend(self._collect_reads(module, sub, arg, line))
        elif isinstance(expr, (UnaryOp,)):
            reads.extend(self._collect_reads(module, sub, expr.operand, line))
        elif isinstance(expr, BinOp):
            reads.extend(self._collect_reads(module, sub, expr.left, line))
            reads.extend(self._collect_reads(module, sub, expr.right, line))
        elif isinstance(expr, SectionRange):
            for part in (expr.lower, expr.upper, expr.stride):
                if part is not None:
                    reads.extend(self._collect_reads(module, sub, part, line))
        # literals contribute nothing
        return reads

    def _apply_reads(
        self, module: str, sub: Subprogram | None, expr: Apply, line: int
    ) -> list[NodeKey]:
        reads: list[NodeKey] = []
        arg_exprs = list(expr.args) + list(expr.keywords.values())
        shadowed = self._shadowed(module, sub, expr.name)
        if is_intrinsic(expr.name) and not shadowed:
            # inline the intrinsic: read its arguments directly (paper
            # localizes intrinsics to avoid spurious hub nodes)
            for arg in arg_exprs:
                reads.extend(self._collect_reads(module, sub, arg, line))
            return reads
        if not shadowed:
            callees = self._resolve_proc(module, expr.name)
            if callees:
                for callee_mod, callee in callees:
                    if callee.is_function:
                        reads.append(
                            self.graph.add_node(
                                callee_mod, callee.name, callee.result,
                                kind="result", line=line,
                            ).key
                        )
                    self._bind_arguments(module, sub, callee_mod, callee, expr.args,
                                         expr.keywords, line)
                return reads
        # plain array reference: the named variable plus its subscripts
        reads.append(self._resolve_var(module, sub, expr.name, line))
        for arg in arg_exprs:
            reads.extend(self._collect_reads(module, sub, arg, line))
        return reads

    # ------------------------------------------------------- call bindings
    def _bind_arguments(
        self,
        module: str,
        sub: Subprogram | None,
        callee_mod: str,
        callee: Subprogram,
        args: list[Expr],
        keywords: dict[str, Expr],
        line: int,
    ) -> None:
        """Map actual arguments onto dummy arguments across the call."""
        scope = self.index[callee_mod].scopes[callee.name]
        pairs: list[tuple[str, Expr]] = []
        pairs.extend(zip(callee.args, args))
        for kw, actual in keywords.items():
            if kw in callee.args:
                pairs.append((kw, actual))
        for dummy, actual in pairs:
            dummy_key = self.graph.add_node(
                callee_mod, callee.name, dummy, kind="dummy", line=line
            ).key
            intent = scope.intents.get(dummy)  # None -> treat as inout
            if intent != "out":
                for read in self._collect_reads(module, sub, actual, line):
                    self.graph.add_edge(read, dummy_key, line=line)
            if intent in (None, "out", "inout"):
                target = self._ref_target(module, sub, actual, line, write=True)
                if target is not None:
                    self.graph.add_edge(dummy_key, target, line=line)

    # ------------------------------------------------------------ pass two
    def _compile_module(self, mod: ModuleNode) -> None:
        # module-level variables and initializers
        for decl in mod.declarations:
            if not isinstance(decl, Declaration):
                continue
            for entity in decl.entities:
                node = self.graph.add_node(
                    mod.name, "", entity.name, kind="module-var",
                    line=decl.location.line,
                )
                if entity.init is not None:
                    for read in self._collect_reads(
                        mod.name, None, entity.init, decl.location.line
                    ):
                        self.graph.add_edge(read, node.key, line=decl.location.line)
        # subprogram-local initializers and executable statements
        for sub, stmt in mod.walk_statements():
            self._compile_statement(mod.name, sub, stmt)
        for sub_name, scope in self.index[mod.name].scopes.items():
            sub = self.index[mod.name].subprograms[sub_name]
            for decl in sub.declarations:
                if not isinstance(decl, Declaration):
                    continue
                for entity in decl.entities:
                    if entity.init is not None:
                        key = self.graph.add_node(
                            mod.name, sub_name, entity.name,
                            kind=scope.kind_of(entity.name),
                            line=decl.location.line,
                        ).key
                        for read in self._collect_reads(
                            mod.name, sub, entity.init, decl.location.line
                        ):
                            self.graph.add_edge(read, key, line=decl.location.line)

    def _compile_statement(self, module: str, sub: Subprogram, stmt: Stmt) -> None:
        line = stmt.location.line
        if isinstance(stmt, (Assignment, PointerAssignment)):
            target = self._ref_target(module, sub, stmt.target, line, write=True)
            reads = self._collect_reads(module, sub, stmt.value, line)
            # subscripts of the target select the stored element: reads too
            if isinstance(stmt.target, (Apply, DerivedRef)):
                for arg in self._chain_subscripts(stmt.target):
                    reads.extend(self._collect_reads(module, sub, arg, line))
            if target is None:
                return
            for read in reads:
                self.graph.add_edge(read, target, line=line)
        elif isinstance(stmt, CallStmt):
            callees = self._resolve_proc(module, stmt.name)
            if not callees:
                if not is_intrinsic(stmt.name):
                    self.unresolved_calls.append((module, stmt.name, line))
                return
            for callee_mod, callee in callees:
                self._bind_arguments(
                    module, sub, callee_mod, callee, stmt.args, stmt.keywords, line
                )
        elif isinstance(stmt, DoLoop):
            var_key = self._resolve_var(module, sub, stmt.var, line)
            for bound in (stmt.start, stmt.stop, stmt.step):
                if bound is not None:
                    for read in self._collect_reads(module, sub, bound, line):
                        self.graph.add_edge(read, var_key, line=line)
        # if/where conditions are control, not data flow: no edges (see
        # module docstring); their bodies arrive via walk_statements.

    # -------------------------------------------------------------- driver
    def build(self) -> MetaGraph:
        self._index_modules()
        for ast in self.asts.values():
            for mod in ast.modules:
                self._compile_module(mod)
        return self.graph


def build_metagraph(source) -> MetaGraph:
    """Build the metagraph for a model source or a set of parsed files.

    ``source`` may be a :class:`repro.model.builder.ModelSource` (its
    compiled files are parsed with the compset macros), a mapping of
    ``{filename: source text}``, or a mapping of ``{filename:
    SourceFileAST}``.  The build itself, apart from any parse, runs under
    a ``graphs.build`` span with the graph's ``nodes`` and ``edges``.
    """
    from ..fortran import parse_source  # local import: keep module light

    if hasattr(source, "parse"):
        asts = source.parse()
    elif isinstance(source, Mapping):
        asts = {}
        for name, value in source.items():
            if isinstance(value, SourceFileAST):
                asts[name] = value
            else:
                asts[name] = parse_source(value, filename=name)
    else:
        raise TypeError(
            "build_metagraph expects a ModelSource or a mapping of filenames "
            f"to source text / SourceFileAST, got {type(source).__name__}"
        )
    with get_tracer().span("graphs.build") as span:
        graph = MetaGraphBuilder(asts).build()
        span.annotate(nodes=graph.node_count, edges=graph.edge_count)
    return graph


__all__ = ["MetaGraphBuilder", "build_metagraph"]
