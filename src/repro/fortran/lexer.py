"""Lexer for the Fortran subset used by the synthetic CESM-like model.

The lexer operates on a single *logical* line (continuations already merged
by the preprocessor) and produces a flat list of :class:`~repro.fortran.tokens.Token`
objects.  Fortran is case-insensitive, so identifiers are lower-cased on the
way in; string literal contents are preserved verbatim.

One compiled pattern matches every token in turn.  Its alternatives are
tried in order, so a ``.`` followed by a digit starts a number before it
can start a dot word.  Source outside string literals and comments is
ASCII: any other character, the KELVIN SIGN (which ``str.lower`` maps to
``k``) included, is an unexpected character.
"""

from __future__ import annotations

import re

from .errors import LexError, SourceLocation
from .tokens import (
    DOT_OPERATORS,
    DOT_RELATIONAL_EQUIVALENTS,
    MULTI_CHAR_OPERATORS,
    SINGLE_CHAR_OPERATORS,
    Token,
    TokenType,
)


def _alternation(words) -> str:
    """The regex alternation of ``words``, in the given order."""
    return "|".join(re.escape(word) for word in words)


#: The dot-delimited words, without their dots: logical constants and
#: operators (``1.eq.2`` is INTEGER OPERATOR INTEGER)
_DOT_WORDS = ("true", "false", *sorted(w[1:-1] for w in DOT_OPERATORS))

#: One alternative per token kind; the ``space`` and ``comment`` groups
#: emit nothing and ``unterminated`` / ``unexpected`` raise.
_TOKEN = re.compile(
    rf"""
    (?P<space>[ \t]+)
  | (?P<name>[a-z_][a-z0-9_]*)
  | (?P<number>
        (?=\.?[0-9])[0-9]*
        # a dot is a decimal point unless a name letter other than the
        # exponent's e/d follows it, or it starts a dot word
        (?P<fraction>\.(?![abcf-z_]|(?:{_alternation(
            w for w in _DOT_WORDS if w[0] in "ed")})\.)[0-9]*)?
        (?P<exponent>[ed][+-]?[0-9]+)?
        (?:_[a-z0-9_]+)?           # kind suffix, e.g. _r8
    )
  | (?P<dot>\.(?:{_alternation(_DOT_WORDS)})\.)
  # a doubled quote is an escaped quote: the literal ends at the first
  # quote that no second quote follows
  | (?P<string>'(?:[^']|'')*'(?!')|"(?:[^"]|"")*"(?!"))
  | (?P<unterminated>['"])
  | (?P<eol>;)
  | (?P<operator>{_alternation(MULTI_CHAR_OPERATORS)}
        |[{re.escape("".join(SINGLE_CHAR_OPERATORS))}])
  | (?P<comment>!)
  | (?P<unexpected>.)
    """,
    re.ASCII | re.IGNORECASE | re.VERBOSE | re.DOTALL,
)


class Lexer:
    """Tokenize one logical Fortran line.

    Parameters
    ----------
    text:
        The logical line text (no trailing comment, no continuation marks).
    filename, line:
        Used to build :class:`SourceLocation` objects for diagnostics.
    """

    def __init__(self, text: str, filename: str = "<string>", line: int = 0):
        self.text = text
        self.filename = filename
        self.line = line

    def tokenize(self) -> list[Token]:
        """Return the token list for the line, terminated by an EOL token."""
        filename, line = self.filename, self.line
        tokens: list[Token] = []
        append = tokens.append
        end = len(self.text)
        for match in _TOKEN.finditer(self.text):
            kind = match.lastgroup
            if kind == "space":
                continue
            column = match.start() + 1
            value = match.group()
            if kind == "name":
                token = Token(TokenType.NAME, value.lower(),
                              SourceLocation(filename, line, column))
            elif kind == "operator":
                token = Token(TokenType.OPERATOR, value,
                              SourceLocation(filename, line, column))
            elif kind == "number":
                real = match.group("fraction") or match.group("exponent")
                token = Token(TokenType.REAL if real else TokenType.INTEGER,
                              value.lower(), SourceLocation(filename, line, column))
            elif kind == "dot":
                word = value.lower()
                if word in (".true.", ".false."):
                    type_ = TokenType.LOGICAL
                elif word in DOT_RELATIONAL_EQUIVALENTS:
                    type_, word = TokenType.OPERATOR, DOT_RELATIONAL_EQUIVALENTS[word]
                else:
                    type_ = TokenType.DOTOP
                token = Token(type_, word, SourceLocation(filename, line, column))
            elif kind == "string":
                quote = value[0]
                token = Token(TokenType.STRING,
                              value[1:-1].replace(quote + quote, quote),
                              SourceLocation(filename, line, column))
            elif kind == "eol":
                token = Token(TokenType.EOL, ";",
                              SourceLocation(filename, line, column))
            elif kind == "comment":
                end = match.start()
                break
            elif kind == "unterminated":
                raise LexError("unterminated string literal",
                               SourceLocation(filename, line, column))
            else:
                raise LexError(f"unexpected character {value!r}",
                               SourceLocation(filename, line, column))
            append(token)
        append(Token(TokenType.EOL, "", SourceLocation(filename, line, end + 1)))
        return tokens


def tokenize_line(text: str, filename: str = "<string>", line: int = 0) -> list[Token]:
    """Convenience wrapper: tokenize a single logical line."""
    return Lexer(text, filename=filename, line=line).tokenize()
