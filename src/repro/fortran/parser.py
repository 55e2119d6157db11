"""Recursive-descent parser for the Fortran subset.

This is the primary parser in the paper's three-parser strategy
(fparser / KGen helpers / regex fallback).  It converts preprocessed logical
lines into the AST defined in :mod:`repro.fortran.ast_nodes`.  Statements it
cannot handle raise :class:`UnsupportedStatementError`; the driver
(:func:`parse_source`) retries them with the regex fallback parser before
recording them as :class:`UnparsedStmt`.
"""

from __future__ import annotations

from typing import Optional

from .ast_nodes import (
    AccessStmt,
    Apply,
    Assignment,
    BinOp,
    CallStmt,
    CaseItem,
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
    InterfaceBlock,
    LogicalLit,
    ModuleNode,
    NumberLit,
    PointerAssignment,
    Rename,
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
from .errors import (
    FortranFrontEndError,
    ParseError,
    SourceLocation,
    UnsupportedStatementError,
)
from .lexer import tokenize_line
from .preprocessor import LogicalLine, preprocess
from .tokens import Token, TokenType

__all__ = ["ExpressionParser", "Parser", "parse_source", "parse_expression"]


# --------------------------------------------------------------------------- #
# Expression parsing (precedence climbing)
# --------------------------------------------------------------------------- #
_BINARY_PRECEDENCE: dict[str, int] = {
    ".or.": 1,
    ".and.": 2,
    "==": 4,
    "/=": 4,
    "<": 4,
    "<=": 4,
    ">": 4,
    ">=": 4,
    "//": 5,
    "+": 6,
    "-": 6,
    "*": 7,
    "/": 7,
    "**": 9,
}

#: right-associative operators
_RIGHT_ASSOC = {"**"}


class ExpressionParser:
    """Parse an expression from a token list starting at ``pos``."""

    def __init__(self, tokens: list[Token], pos: int = 0):
        self.tokens = tokens
        self.pos = pos

    # ----------------------------------------------------------------- utils
    def peek(self, offset: int = 0) -> Token:
        idx = self.pos + offset
        if idx < len(self.tokens):
            return self.tokens[idx]
        return self.tokens[-1]  # EOL token

    def advance(self) -> Token:
        tok = self.peek()
        if tok.type is not TokenType.EOL:
            self.pos += 1
        return tok

    def expect_op(self, op: str) -> Token:
        tok = self.peek()
        if not tok.is_op(op):
            raise ParseError(f"expected {op!r}, found {tok.value!r}", tok.location)
        return self.advance()

    def at_end(self) -> bool:
        return self.peek().type is TokenType.EOL

    # ------------------------------------------------------------ components
    def parse_expression(self, min_prec: int = 0) -> Expr:
        left = self.parse_unary()
        while True:
            tok = self.peek()
            op = None
            if tok.type is TokenType.OPERATOR and tok.value in _BINARY_PRECEDENCE:
                op = tok.value
            elif tok.type is TokenType.DOTOP and tok.value in _BINARY_PRECEDENCE:
                op = tok.value
            if op is None:
                break
            prec = _BINARY_PRECEDENCE[op]
            if prec < min_prec:
                break
            self.advance()
            next_min = prec if op in _RIGHT_ASSOC else prec + 1
            right = self.parse_expression(next_min)
            left = BinOp(op=op, left=left, right=right)
        return left

    def parse_unary(self) -> Expr:
        tok = self.peek()
        if tok.is_op("-") or tok.is_op("+"):
            self.advance()
            # Fortran gives ** higher precedence than unary minus: -a**b is
            # -(a**b).  Parse the operand at the precedence of ** so the
            # exponentiation binds to the operand before the sign applies.
            operand = self.parse_expression(_BINARY_PRECEDENCE["**"])
            if tok.value == "+":
                return operand
            return UnaryOp(op="-", operand=operand)
        if tok.type is TokenType.DOTOP and tok.value == ".not.":
            self.advance()
            # .not. binds tighter than .and./.or. but looser than the
            # relational operators: .not. a == b is .not. (a == b).
            operand = self.parse_expression(_BINARY_PRECEDENCE[".and."] + 1)
            return UnaryOp(op=".not.", operand=operand)
        return self.parse_power_operand()

    def parse_power_operand(self) -> Expr:
        """Parse a primary followed by ``%`` component references."""
        expr = self.parse_primary()
        while self.peek().is_op("%"):
            self.advance()
            comp_tok = self.peek()
            if comp_tok.type is not TokenType.NAME:
                raise ParseError(
                    f"expected component name after '%', found {comp_tok.value!r}",
                    comp_tok.location,
                )
            self.advance()
            args: list[Expr] = []
            if self.peek().is_op("("):
                args = self.parse_argument_list()[0]
            expr = DerivedRef(base=expr, component=comp_tok.value, args=args)
        return expr

    def parse_primary(self) -> Expr:
        tok = self.peek()
        if tok.type is TokenType.INTEGER:
            self.advance()
            body, _, kind = tok.value.partition("_")
            return NumberLit(value=float(int(body)), kind=kind or None, is_integer=True)
        if tok.type is TokenType.REAL:
            self.advance()
            body, _, kind = tok.value.partition("_")
            body = body.replace("d", "e")
            return NumberLit(value=float(body), kind=kind or None, is_integer=False)
        if tok.type is TokenType.STRING:
            self.advance()
            return StringLit(value=tok.value)
        if tok.type is TokenType.LOGICAL:
            self.advance()
            return LogicalLit(value=tok.value == ".true.")
        if tok.is_op("("):
            self.advance()
            inner = self.parse_expression()
            self.expect_op(")")
            return inner
        if tok.type is TokenType.NAME:
            self.advance()
            if self.peek().is_op("("):
                args, keywords = self.parse_argument_list()
                return Apply(name=tok.value, args=args, keywords=keywords)
            return VarRef(name=tok.value)
        raise ParseError(f"unexpected token {tok.value!r} in expression", tok.location)

    def parse_argument_list(self) -> tuple[list[Expr], dict[str, Expr]]:
        """Parse ``( arg, arg, kw=arg, ... )`` including array sections."""
        self.expect_op("(")
        args: list[Expr] = []
        keywords: dict[str, Expr] = {}
        if self.peek().is_op(")"):
            self.advance()
            return args, keywords
        while True:
            arg = self.parse_argument()
            if isinstance(arg, tuple):
                keywords[arg[0]] = arg[1]
            else:
                args.append(arg)
            tok = self.peek()
            if tok.is_op(","):
                self.advance()
                continue
            self.expect_op(")")
            break
        return args, keywords

    def parse_argument(self):
        """One actual argument: expression, section range, or keyword=expr."""
        tok = self.peek()
        # keyword argument: NAME '=' (not '==')
        if tok.type is TokenType.NAME and self.peek(1).is_op("="):
            name = tok.value
            self.advance()
            self.advance()
            return (name, self.parse_expression())
        # bare ':' or leading ':' section
        if tok.is_op(":"):
            self.advance()
            upper = None
            if not (self.peek().is_op(",") or self.peek().is_op(")")):
                upper = self.parse_expression()
            return SectionRange(lower=None, upper=upper)
        expr = self.parse_expression()
        if self.peek().is_op(":"):
            self.advance()
            upper = None
            if not (self.peek().is_op(",") or self.peek().is_op(")")):
                upper = self.parse_expression()
            stride = None
            if self.peek().is_op(":"):
                self.advance()
                stride = self.parse_expression()
            return SectionRange(lower=expr, upper=upper, stride=stride)
        return expr


def parse_expression(text: str) -> Expr:
    """Parse a standalone expression from source text (testing helper)."""
    tokens = tokenize_line(text)
    parser = ExpressionParser(tokens)
    expr = parser.parse_expression()
    if not parser.at_end():
        tok = parser.peek()
        raise ParseError(f"trailing tokens after expression: {tok.value!r}", tok.location)
    return expr


# --------------------------------------------------------------------------- #
# Statement / program-unit parsing
# --------------------------------------------------------------------------- #
_DECL_KEYWORDS = {"real", "integer", "logical", "character", "type", "class"}
_ATTRIBUTE_NAMES = {
    "parameter",
    "save",
    "public",
    "private",
    "allocatable",
    "pointer",
    "target",
    "optional",
    "dimension",
    "intent",
    "external",
    "intrinsic",
}
_SUBPROGRAM_PREFIXES = {"elemental", "pure", "recursive"}


class Parser:
    """Parse the logical lines of one source file into a :class:`SourceFileAST`."""

    def __init__(self, lines: list[LogicalLine], filename: str = "<string>",
                 use_fallback: bool = True):
        self.lines = lines
        self.filename = filename
        self.index = 0
        self.use_fallback = use_fallback
        #: statements the primary parser failed on and the fallback recovered
        self.fallback_statements: list[SourceLocation] = []
        #: statements no parser could handle
        self.unparsed: list[UnparsedStmt] = []
        #: the last line lexed and its tokens: a block's opening line is
        #: lexed to dispatch on and read again by the block's parser
        self._lexed: tuple[Optional[LogicalLine], list[Token]] = (None, [])

    # ----------------------------------------------------------------- lines
    def _current(self) -> Optional[LogicalLine]:
        if self.index < len(self.lines):
            return self.lines[self.index]
        return None

    def _advance_line(self) -> LogicalLine:
        line = self.lines[self.index]
        self.index += 1
        return line

    def _tokens(self, line: LogicalLine) -> list[Token]:
        """The tokens of ``line``, lexed once however often it is read."""
        lexed, tokens = self._lexed
        if line is not lexed:
            tokens = tokenize_line(line.text, filename=self.filename, line=line.line)
            self._lexed = (line, tokens)
        return tokens

    @staticmethod
    def _loc(line: LogicalLine) -> SourceLocation:
        return SourceLocation(line.filename, line.line)

    # ------------------------------------------------------------------ file
    def parse_file(self) -> SourceFileAST:
        ast = SourceFileAST(filename=self.filename)
        while self._current() is not None:
            line = self._current()
            tokens = self._tokens(line)
            first = tokens[0]
            if first.is_name("module") and not (
                len(tokens) > 1 and tokens[1].is_name("procedure")
            ):
                ast.modules.append(self.parse_module())
            else:
                # Anything outside a module (bare programs) is out of scope.
                raise UnsupportedStatementError(
                    f"top-level statement outside a module: {line.text!r}",
                    self._loc(line),
                )
        return ast

    # ---------------------------------------------------------------- module
    def parse_module(self) -> ModuleNode:
        header = self._advance_line()
        tokens = self._tokens(header)
        if len(tokens) < 2 or tokens[1].type is not TokenType.NAME:
            raise ParseError("malformed module header", self._loc(header))
        module = ModuleNode(name=tokens[1].value, filename=self.filename)

        in_contains = False
        while True:
            line = self._current()
            if line is None:
                raise ParseError(
                    f"unexpected end of file inside module {module.name!r}",
                    SourceLocation(self.filename, header.line),
                )
            tokens = self._tokens(line)
            first = tokens[0]

            if self._is_end_of(tokens, "module"):
                self._advance_line()
                break
            if first.is_name("contains"):
                in_contains = True
                self._advance_line()
                continue
            if first.is_name("subroutine", "function") or (
                first.value in _SUBPROGRAM_PREFIXES
                and any(t.is_name("subroutine", "function") for t in tokens[1:3])
            ) or (
                first.is_name("real", "integer", "logical")
                and any(t.is_name("function") for t in tokens[1:4])
            ):
                sub = self.parse_subprogram()
                module.subprograms[sub.name] = sub
                continue
            if in_contains:
                raise ParseError(
                    f"unexpected statement in contains section: {line.text!r}",
                    self._loc(line),
                )
            # -------------------------- module header (specification) region
            self._advance_line()
            stmt = self._parse_specification_statement(tokens, line)
            if isinstance(stmt, UseStmt):
                module.uses.append(stmt)
            elif isinstance(stmt, TypeDef):
                module.type_defs[stmt.name] = stmt
            elif isinstance(stmt, InterfaceBlock):
                module.interfaces[stmt.name] = stmt
            elif stmt is not None:
                module.declarations.append(stmt)
        module.unparsed = list(self.unparsed)
        return module

    def _is_end_of(self, tokens: list[Token], unit: str) -> bool:
        first = tokens[0]
        if first.is_name(f"end{unit}"):
            return True
        if first.is_name("end"):
            if len(tokens) == 1 or tokens[1].type is TokenType.EOL:
                # a bare "end" closes the innermost unit; callers only ask
                # about the unit they are currently parsing.
                return True
            return tokens[1].is_name(unit)
        return False

    # ---------------------------------------------------- specification part
    def _parse_specification_statement(
        self, tokens: list[Token], line: LogicalLine
    ) -> Optional[Stmt]:
        first = tokens[0]
        loc = self._loc(line)
        if first.is_name("use"):
            return self._parse_use(tokens, loc)
        if first.is_name("implicit"):
            return None
        if first.is_name("save"):
            return None
        if first.is_name("public", "private"):
            names = [t.value for t in tokens[1:] if t.type is TokenType.NAME]
            return AccessStmt(access=first.value, names=names, location=loc)
        if first.is_name("type") and not (len(tokens) > 1 and tokens[1].is_op("(")):
            return self._parse_type_def(tokens, line)
        if first.is_name("interface"):
            return self._parse_interface(tokens, line)
        if first.value in _DECL_KEYWORDS:
            return self._parse_declaration(tokens, loc)
        raise UnsupportedStatementError(
            f"unsupported specification statement: {line.text!r}", loc
        )

    def _parse_use(self, tokens: list[Token], loc: SourceLocation) -> UseStmt:
        if len(tokens) < 2 or tokens[1].type is not TokenType.NAME:
            raise ParseError("malformed use statement", loc)
        stmt = UseStmt(module=tokens[1].value, location=loc)
        idx = 2
        if idx < len(tokens) and tokens[idx].is_op(","):
            idx += 1
            if idx < len(tokens) and tokens[idx].is_name("only"):
                stmt.has_only = True
                idx += 1
                if idx < len(tokens) and tokens[idx].is_op(":"):
                    idx += 1
                # parse rename list: a, b => c, d
                while idx < len(tokens) and tokens[idx].type is TokenType.NAME:
                    local = tokens[idx].value
                    idx += 1
                    if idx < len(tokens) and tokens[idx].is_op("=>"):
                        idx += 1
                        if idx >= len(tokens) or tokens[idx].type is not TokenType.NAME:
                            raise ParseError("malformed rename in use statement", loc)
                        remote = tokens[idx].value
                        idx += 1
                        stmt.only.append(Rename(local=local, remote=remote))
                    else:
                        stmt.only.append(Rename.plain(local))
                    if idx < len(tokens) and tokens[idx].is_op(","):
                        idx += 1
        return stmt

    def _parse_type_def(self, tokens: list[Token], line: LogicalLine) -> TypeDef:
        loc = self._loc(line)
        # header: "type name" or "type :: name" or "type, public :: name"
        name = None
        for tok in tokens[1:]:
            if tok.type is TokenType.NAME and tok.value not in _ATTRIBUTE_NAMES:
                name = tok.value
        if name is None:
            raise ParseError("malformed derived type definition", loc)
        typedef = TypeDef(name=name, location=loc)
        while True:
            inner = self._current()
            if inner is None:
                raise ParseError(f"unterminated type definition {name!r}", loc)
            itokens = self._tokens(inner)
            if self._is_end_of(itokens, "type"):
                self._advance_line()
                break
            self._advance_line()
            if itokens[0].value in _DECL_KEYWORDS:
                typedef.components.append(
                    self._parse_declaration(itokens, self._loc(inner))
                )
            # access statements inside type defs are ignored
        return typedef

    def _parse_interface(self, tokens: list[Token], line: LogicalLine) -> InterfaceBlock:
        loc = self._loc(line)
        name = tokens[1].value if len(tokens) > 1 and tokens[1].type is TokenType.NAME else ""
        block = InterfaceBlock(name=name, location=loc)
        while True:
            inner = self._current()
            if inner is None:
                raise ParseError(f"unterminated interface block {name!r}", loc)
            itokens = self._tokens(inner)
            if self._is_end_of(itokens, "interface"):
                self._advance_line()
                break
            self._advance_line()
            if itokens[0].is_name("module") and len(itokens) > 1 and itokens[1].is_name("procedure"):
                block.procedures.extend(
                    t.value for t in itokens[2:] if t.type is TokenType.NAME
                )
            elif itokens[0].is_name("procedure"):
                block.procedures.extend(
                    t.value for t in itokens[1:] if t.type is TokenType.NAME
                )
        return block

    # ------------------------------------------------------------ declaration
    def _parse_declaration(self, tokens: list[Token], loc: SourceLocation) -> Declaration:
        parser = ExpressionParser(tokens)
        decl = Declaration(location=loc)
        first = parser.advance()
        decl.base_type = first.value
        # kind / len spec / derived type name
        if parser.peek().is_op("("):
            parser.advance()
            depth = 1
            spec_tokens: list[Token] = []
            while depth > 0:
                tok = parser.advance()
                if tok.type is TokenType.EOL:
                    raise ParseError("unterminated type spec", loc)
                if tok.is_op("("):
                    depth += 1
                elif tok.is_op(")"):
                    depth -= 1
                    if depth == 0:
                        break
                spec_tokens.append(tok)
            spec_names = [t.value for t in spec_tokens if t.type is TokenType.NAME]
            spec_text = "".join(t.value for t in spec_tokens)
            if decl.base_type in ("type", "class"):
                decl.type_name = spec_names[0] if spec_names else None
            elif decl.base_type == "character":
                decl.kind = spec_text or None
            else:
                # real(r8), real(kind=r8), integer(i8)...
                decl.kind = spec_names[-1] if spec_names else spec_text or None
        # attributes up to '::'
        while parser.peek().is_op(","):
            parser.advance()
            attr_tok = parser.advance()
            if attr_tok.type is not TokenType.NAME:
                raise ParseError(f"malformed attribute near {attr_tok.value!r}", loc)
            attr = attr_tok.value
            if attr == "intent":
                parser.expect_op("(")
                intent_tok = parser.advance()
                decl.intent = intent_tok.value
                # allow "in out"
                if parser.peek().type is TokenType.NAME:
                    decl.intent += parser.advance().value
                parser.expect_op(")")
            elif attr == "dimension":
                args, _ = parser.parse_argument_list()
                decl.attributes.append("dimension")
                decl.attributes.append(f"dims:{len(args)}")
            else:
                if attr == "parameter":
                    decl.is_parameter = True
                decl.attributes.append(attr)
        if parser.peek().is_op("::"):
            parser.advance()
        # entity list
        while True:
            name_tok = parser.peek()
            if name_tok.type is not TokenType.NAME:
                break
            parser.advance()
            entity = EntityDecl(name=name_tok.value)
            if parser.peek().is_op("("):
                args, _ = parser.parse_argument_list()
                entity.dims = args
            if parser.peek().is_op("=") or parser.peek().is_op("=>"):
                parser.advance()
                entity.init = parser.parse_expression()
            decl.entities.append(entity)
            if parser.peek().is_op(","):
                parser.advance()
                continue
            break
        return decl

    # ------------------------------------------------------------ subprogram
    def parse_subprogram(self) -> Subprogram:
        header = self._advance_line()
        tokens = self._tokens(header)
        loc = self._loc(header)
        parser = ExpressionParser(tokens)
        prefixes: list[str] = []
        while parser.peek().type is TokenType.NAME and (
            parser.peek().value in _SUBPROGRAM_PREFIXES
            or parser.peek().value in ("real", "integer", "logical")
        ):
            tok = parser.peek()
            if tok.value in ("subroutine", "function"):
                break
            prefixes.append(tok.value)
            parser.advance()
            # skip a kind spec after a type prefix, e.g. "real(r8) function f(x)"
            if parser.peek().is_op("("):
                depth = 0
                while True:
                    t = parser.advance()
                    if t.is_op("("):
                        depth += 1
                    elif t.is_op(")"):
                        depth -= 1
                        if depth == 0:
                            break
        kind_tok = parser.advance()
        if not kind_tok.is_name("subroutine", "function"):
            raise ParseError(
                f"expected subroutine/function, found {kind_tok.value!r}", loc
            )
        kind = kind_tok.value
        name_tok = parser.advance()
        if name_tok.type is not TokenType.NAME:
            raise ParseError("missing subprogram name", loc)
        sub = Subprogram(name=name_tok.value, kind=kind, prefixes=prefixes, location=loc)
        if parser.peek().is_op("("):
            parser.advance()
            while not parser.peek().is_op(")"):
                arg_tok = parser.advance()
                if arg_tok.type is TokenType.NAME:
                    sub.args.append(arg_tok.value)
                elif arg_tok.type is TokenType.EOL:
                    raise ParseError("unterminated argument list", loc)
            parser.advance()  # ')'
        if parser.peek().is_name("result"):
            parser.advance()
            parser.expect_op("(")
            res_tok = parser.advance()
            sub.result_name = res_tok.value
            parser.expect_op(")")

        # ------------------------------------------------ declarations + body
        body_started = False
        while True:
            line = self._current()
            if line is None:
                raise ParseError(f"unterminated {kind} {sub.name!r}", loc)
            try:
                tokens = self._tokens(line)
            except FortranFrontEndError:
                # untokenizable statement inside the body: fallback directly
                self._advance_line()
                if not self.use_fallback:
                    raise
                body_started = True
                stmt = self._fallback(line)
                if stmt is not None:
                    sub.body.append(stmt)
                continue
            first = tokens[0]
            if self._is_end_of(tokens, kind):
                self._advance_line()
                break
            if first.is_name("contains"):
                self._advance_line()
                while True:
                    inner = self._current()
                    if inner is None:
                        raise ParseError(f"unterminated {kind} {sub.name!r}", loc)
                    itokens = self._tokens(inner)
                    if self._is_end_of(itokens, kind):
                        self._advance_line()
                        return sub
                    sub.contains.append(self.parse_subprogram())
                # not reached
            if not body_started and (
                first.value in _DECL_KEYWORDS
                or first.is_name("use", "implicit", "save", "public", "private", "external", "intrinsic")
            ) and not (first.is_name("type") and len(tokens) > 1 and tokens[1].is_op("(") is False and any(
                t.is_op("%") for t in tokens
            )):
                self._advance_line()
                try:
                    stmt = self._parse_specification_statement(tokens, line)
                except UnsupportedStatementError:
                    stmt = None
                if stmt is not None:
                    sub.declarations.append(stmt)
                continue
            body_started = True
            stmt = self._parse_executable(line)
            if stmt is not None:
                sub.body.append(stmt)
        return sub

    # ----------------------------------------------------------- executables
    def _parse_executable(self, line: LogicalLine) -> Optional[Stmt]:
        """Parse one executable statement (possibly a whole block)."""
        try:
            tokens = self._tokens(line)
        except FortranFrontEndError:
            # the lexer itself rejected the statement (e.g. an unsupported
            # character); hand the raw text to the fallback parser.
            self._advance_line()
            if not self.use_fallback:
                raise
            return self._fallback(line)
        first = tokens[0]
        if first.is_name("if") and self._has_then(tokens):
            return self._parse_if_block()
        if first.is_name("do"):
            return self._parse_do()
        if first.is_name("selectcase") or (
            first.is_name("select")
            and len(tokens) > 1
            and tokens[1].is_name("case")
        ):
            # only select *case*; `select type` stays on the simple-statement
            # path so it degrades to the fallback parser like any other
            # out-of-subset construct
            return self._parse_select_case()
        if first.is_name("where") and self._is_where_block(tokens):
            return self._parse_where_block()
        self._advance_line()
        return self._parse_simple_statement(tokens, line)

    @staticmethod
    def _has_then(tokens: list[Token]) -> bool:
        for tok in reversed(tokens):
            if tok.type is TokenType.EOL:
                continue
            return tok.is_name("then")
        return False

    @staticmethod
    def _is_where_block(tokens: list[Token]) -> bool:
        """A block ``where`` has nothing after the closing paren of the mask."""
        depth = 0
        seen_open = False
        for tok in tokens[1:]:
            if tok.is_op("("):
                depth += 1
                seen_open = True
            elif tok.is_op(")"):
                depth -= 1
                if depth == 0 and seen_open:
                    idx = tokens.index(tok)
                    rest = tokens[idx + 1:]
                    return all(t.type is TokenType.EOL for t in rest)
        return False

    def _parse_if_block(self) -> IfBlock:
        header = self._advance_line()
        tokens = self._tokens(header)
        loc = self._loc(header)
        block = IfBlock(location=loc)
        cond = self._parse_paren_condition(tokens, skip=1, loc=loc)
        current_body: list[Stmt] = []
        block.branches.append((cond, current_body))
        while True:
            line = self._current()
            if line is None:
                raise ParseError("unterminated if block", loc)
            tokens = self._tokens(line)
            first = tokens[0]
            if self._is_end_of(tokens, "if"):
                self._advance_line()
                break
            if first.is_name("elseif") or (
                first.is_name("else") and len(tokens) > 1 and tokens[1].is_name("if")
            ):
                self._advance_line()
                skip = 1 if first.is_name("elseif") else 2
                cond = self._parse_paren_condition(tokens, skip=skip, loc=self._loc(line))
                current_body = []
                block.branches.append((cond, current_body))
                continue
            if first.is_name("else"):
                self._advance_line()
                current_body = []
                block.branches.append((None, current_body))
                continue
            stmt = self._parse_executable(line)
            if stmt is not None:
                current_body.append(stmt)
        return block

    def _parse_paren_condition(
        self, tokens: list[Token], skip: int, loc: SourceLocation
    ) -> Expr:
        parser = ExpressionParser(tokens, pos=skip)
        parser.expect_op("(")
        cond = parser.parse_expression()
        parser.expect_op(")")
        return cond

    def _parse_do(self) -> Stmt:
        header = self._advance_line()
        tokens = self._tokens(header)
        loc = self._loc(header)
        # do while (cond)
        if len(tokens) > 1 and tokens[1].is_name("while"):
            cond = self._parse_paren_condition(tokens, skip=2, loc=loc)
            loop = DoWhile(condition=cond, location=loc)
            loop.body.extend(self._parse_do_body(loc))
            return loop
        # do var = start, stop [, step]
        parser = ExpressionParser(tokens, pos=1)
        var_tok = parser.advance()
        if var_tok.type is not TokenType.NAME:
            raise ParseError("malformed do statement", loc)
        parser.expect_op("=")
        start = parser.parse_expression()
        parser.expect_op(",")
        stop = parser.parse_expression()
        step = None
        if parser.peek().is_op(","):
            parser.advance()
            step = parser.parse_expression()
        loop = DoLoop(var=var_tok.value, start=start, stop=stop, step=step, location=loc)
        loop.body.extend(self._parse_do_body(loc))
        return loop

    def _parse_do_body(self, loc: SourceLocation) -> list[Stmt]:
        body: list[Stmt] = []
        while True:
            line = self._current()
            if line is None:
                raise ParseError("unterminated do loop", loc)
            tokens = self._tokens(line)
            if self._is_end_of(tokens, "do"):
                self._advance_line()
                break
            stmt = self._parse_executable(line)
            if stmt is not None:
                body.append(stmt)
        return body

    def _parse_where_block(self) -> WhereBlock:
        header = self._advance_line()
        tokens = self._tokens(header)
        loc = self._loc(header)
        mask = self._parse_paren_condition(tokens, skip=1, loc=loc)
        block = WhereBlock(mask=mask, location=loc)
        target = block.body
        while True:
            line = self._current()
            if line is None:
                raise ParseError("unterminated where block", loc)
            tokens = self._tokens(line)
            first = tokens[0]
            if self._is_end_of(tokens, "where"):
                self._advance_line()
                break
            if first.is_name("elsewhere") or (
                first.is_name("else") and len(tokens) > 1 and tokens[1].is_name("where")
            ):
                self._advance_line()
                target = block.else_body
                continue
            stmt = self._parse_executable(line)
            if stmt is not None:
                target.append(stmt)
        return block

    def _parse_select_case(self) -> SelectCase:
        header = self._advance_line()
        tokens = self._tokens(header)
        loc = self._loc(header)
        # "select case (expr)" or the squashed "selectcase (expr)"; the
        # dispatch in _parse_executable guarantees one of the two shapes
        skip = 1 if tokens[0].is_name("selectcase") else 2
        selector = self._parse_paren_condition(tokens, skip=skip, loc=loc)
        block = SelectCase(selector=selector, location=loc)
        current_body: Optional[list[Stmt]] = None
        while True:
            line = self._current()
            if line is None:
                raise ParseError("unterminated select case block", loc)
            tokens = self._tokens(line)
            first = tokens[0]
            if self._is_end_of(tokens, "select"):
                self._advance_line()
                break
            if first.is_name("case"):
                self._advance_line()
                case_loc = self._loc(line)
                if len(tokens) > 1 and tokens[1].is_name("default"):
                    current_body = []
                    block.cases.append((None, current_body))
                    continue
                items = self._parse_case_items(tokens, case_loc)
                current_body = []
                block.cases.append((items, current_body))
                continue
            if current_body is None:
                raise ParseError(
                    f"statement before first case in select case: {line.text!r}",
                    self._loc(line),
                )
            stmt = self._parse_executable(line)
            if stmt is not None:
                current_body.append(stmt)
        return block

    def _parse_case_items(
        self, tokens: list[Token], loc: SourceLocation
    ) -> list[CaseItem]:
        """Parse the selector list of one ``case (...)`` statement.

        Reuses the argument-list parser: plain expressions become value items
        and array-section-style ranges (``1:5``, ``:0``, ``7:``) become
        inclusive range items.
        """
        parser = ExpressionParser(tokens, pos=1)
        args, keywords = parser.parse_argument_list()
        if keywords:
            raise ParseError("keyword syntax is not valid in a case list", loc)
        if not args:
            raise ParseError("empty case selector list", loc)
        items: list[CaseItem] = []
        for arg in args:
            if isinstance(arg, SectionRange):
                if arg.stride is not None:
                    raise ParseError("a case range cannot carry a stride", loc)
                items.append(
                    CaseItem(lower=arg.lower, upper=arg.upper, is_range=True)
                )
            else:
                items.append(CaseItem(value=arg))
        return items

    def _parse_simple_statement(
        self, tokens: list[Token], line: LogicalLine
    ) -> Optional[Stmt]:
        loc = self._loc(line)
        first = tokens[0]
        try:
            if first.is_name("call"):
                return self._parse_call(tokens, loc)
            if first.is_name("return"):
                return ReturnStmt(location=loc)
            if first.is_name("exit"):
                return ExitStmt(location=loc)
            if first.is_name("cycle"):
                return CycleStmt(location=loc)
            if first.is_name("continue"):
                return ContinueStmt(location=loc)
            if first.is_name("stop"):
                msg = None
                if len(tokens) > 1 and tokens[1].type is TokenType.STRING:
                    msg = tokens[1].value
                return StopStmt(message=msg, location=loc)
            if first.is_name("if"):
                # one-line if: if (cond) statement
                parser = ExpressionParser(tokens, pos=1)
                parser.expect_op("(")
                cond = parser.parse_expression()
                parser.expect_op(")")
                rest_tokens = tokens[parser.pos:]
                rest_line = LogicalLine(
                    text="", line=line.line, filename=line.filename
                )
                inner = self._parse_simple_statement(rest_tokens, rest_line)
                block = IfBlock(location=loc)
                block.branches.append((cond, [inner] if inner is not None else []))
                return block
            if first.is_name("allocate", "deallocate", "nullify"):
                # memory management has no dataflow meaning for the digraph
                return ContinueStmt(location=loc)
            if first.is_name("where"):
                # one-line where: where (mask) assignment
                parser = ExpressionParser(tokens, pos=1)
                parser.expect_op("(")
                mask = parser.parse_expression()
                parser.expect_op(")")
                rest_tokens = tokens[parser.pos:]
                inner = self._parse_simple_statement(rest_tokens, line)
                block = WhereBlock(mask=mask, location=loc)
                if inner is not None:
                    block.body.append(inner)
                return block
            return self._parse_assignment(tokens, loc, line)
        except ParseError:
            if not self.use_fallback:
                raise
            return self._fallback(line)

    def _parse_call(self, tokens: list[Token], loc: SourceLocation) -> CallStmt:
        parser = ExpressionParser(tokens, pos=1)
        name_tok = parser.advance()
        if name_tok.type is not TokenType.NAME:
            raise ParseError("malformed call statement", loc)
        args: list[Expr] = []
        keywords: dict[str, Expr] = {}
        if parser.peek().is_op("("):
            args, keywords = parser.parse_argument_list()
        return CallStmt(name=name_tok.value, args=args, keywords=keywords, location=loc)

    def _parse_assignment(
        self, tokens: list[Token], loc: SourceLocation, line: LogicalLine
    ) -> Stmt:
        parser = ExpressionParser(tokens)
        target = parser.parse_power_operand()
        tok = parser.peek()
        if tok.is_op("=>"):
            parser.advance()
            value = parser.parse_expression()
            return PointerAssignment(target=target, value=value, location=loc)
        if not tok.is_op("="):
            raise UnsupportedStatementError(
                f"expected assignment, found {line.text!r}", loc
            )
        parser.advance()
        value = parser.parse_expression()
        if not parser.at_end():
            trailing = parser.peek()
            raise ParseError(
                f"trailing tokens after assignment: {trailing.value!r}", trailing.location
            )
        return Assignment(target=target, value=value, location=loc)

    def _fallback(self, line: LogicalLine) -> Optional[Stmt]:
        """Attempt the regex fallback parser; record unparsed statements."""
        from .fallback import parse_statement_fallback  # local import: avoid cycle

        loc = self._loc(line)
        stmt = parse_statement_fallback(line.text, loc)
        if stmt is not None:
            self.fallback_statements.append(loc)
            return stmt
        unparsed = UnparsedStmt(text=line.text, location=loc)
        self.unparsed.append(unparsed)
        return unparsed


# --------------------------------------------------------------------------- #
# Public driver
# --------------------------------------------------------------------------- #
def parse_source(
    source: str,
    filename: str = "<string>",
    macros: dict[str, str] | None = None,
    use_fallback: bool = True,
) -> SourceFileAST:
    """Preprocess and parse one Fortran source file.

    Parameters
    ----------
    source:
        Text of the Fortran file.
    filename:
        Name carried into source locations and node metadata.
    macros:
        Preprocessor macros considered defined for this build configuration.
    use_fallback:
        When True (default) statements the recursive-descent parser rejects
        are retried with the regex fallback parser before being recorded as
        unparsed, mirroring the paper's multi-parser strategy.
    """
    pre = preprocess(source, filename=filename, macros=macros)
    parser = Parser(pre.lines, filename=filename, use_fallback=use_fallback)
    return parser.parse_file()
