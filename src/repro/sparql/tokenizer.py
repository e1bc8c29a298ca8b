"""Tokenizer for the SPARQL query language.

Covers the SPARQL 1.0 grammar subset implemented by the parser: SELECT /
ASK / CONSTRUCT forms, PREFIX/BASE prologue, braces and brackets, triple
punctuation, variables, IRIs, prefixed names, blank nodes, literals,
operators used in FILTER expressions and the keywords the evaluator
understands.

Every token carries its exact source extent (start and one-past-end
line/column, both 1-based) so parser errors and static-analysis
diagnostics can point at precise positions; :class:`SourceSpan` is the
shared span value used throughout the SPARQL stack.
"""

from __future__ import annotations

import re
from dataclasses import dataclass


__all__ = [
    "SourceSpan",
    "SparqlToken",
    "SparqlLexError",
    "tokenize_sparql",
    "KEYWORDS",
]


@dataclass(frozen=True)
class SourceSpan:
    """A contiguous extent of query text: 1-based, end-exclusive columns."""

    line: int
    column: int
    end_line: int
    end_column: int

    def __str__(self) -> str:
        return f"line {self.line}, column {self.column}"

    def cover(self, other: SourceSpan | None) -> SourceSpan:
        """The smallest span containing both ``self`` and ``other``."""
        if other is None:
            return self
        start = min((self.line, self.column), (other.line, other.column))
        end = max((self.end_line, self.end_column), (other.end_line, other.end_column))
        return SourceSpan(start[0], start[1], end[0], end[1])


class SparqlLexError(ValueError):
    """Raised when SPARQL text cannot be tokenised."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class SparqlToken:
    """A lexical token: ``kind`` is a symbolic name, ``value`` the raw text."""

    kind: str
    value: str
    line: int
    column: int
    end_line: int = 0
    end_column: int = 0

    @property
    def span(self) -> SourceSpan:
        """The token's source extent (end positions default to the start)."""
        if self.end_line:
            return SourceSpan(self.line, self.column, self.end_line, self.end_column)
        return SourceSpan(self.line, self.column, self.line, self.column + max(len(self.value), 1))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SparqlToken({self.kind}, {self.value!r})"


#: Keywords recognised case-insensitively.  The lexer emits them as
#: ``KEYWORD`` tokens with the upper-case spelling in ``value``.
KEYWORDS = {
    "SELECT", "CONSTRUCT", "ASK", "DESCRIBE", "WHERE", "FILTER", "OPTIONAL",
    "UNION", "PREFIX", "BASE", "DISTINCT", "REDUCED", "ORDER", "BY", "ASC",
    "DESC", "LIMIT", "OFFSET", "FROM", "NAMED", "GRAPH", "A", "VALUES", "UNDEF",
    "BOUND", "REGEX", "STR", "LANG", "LANGMATCHES", "DATATYPE", "ISURI",
    "ISIRI", "ISLITERAL", "ISBLANK", "SAMETERM", "TRUE", "FALSE", "NOT", "IN",
}

_TOKEN_PATTERNS = [
    ("COMMENT", r"#[^\n]*"),
    ("IRIREF", r"<[^<>\"{}|^`\\\x00-\x20]*>"),
    ("VAR", r"[?$][A-Za-z0-9_]+"),
    # Only the two long-string forms may span lines, so only they are DOTALL.
    ("STRING_LONG", r'(?s:"""(?:[^"\\]|\\.|"(?!""))*""")'),
    ("STRING", r'"(?:[^"\\\n]|\\.)*"'),
    ("STRING_LONG_SQ", r"(?s:'''(?:[^'\\]|\\.|'(?!''))*''')"),
    ("STRING_SQ", r"'(?:[^'\\\n]|\\.)*'"),
    ("LANGTAG", r"@[a-zA-Z]+(?:-[a-zA-Z0-9]+)*"),
    ("DATATYPE_MARKER", r"\^\^"),
    ("BLANK_NODE", r"_:[A-Za-z0-9_][A-Za-z0-9_.-]*"),
    ("DOUBLE", r"[+-]?(?:\d+\.\d*[eE][+-]?\d+|\.?\d+[eE][+-]?\d+)"),
    ("DECIMAL", r"[+-]?\d*\.\d+"),
    ("INTEGER", r"[+-]?\d+"),
    ("NEQ", r"!="),
    ("LE", r"<="),
    ("GE", r">="),
    ("AND", r"&&"),
    ("OR", r"\|\|"),
    ("EQ", r"="),
    ("BANG", r"!"),
    ("LT", r"<"),
    ("GT", r">"),
    ("PLUS", r"\+"),
    ("MINUS", r"-"),
    ("STAR", r"\*"),
    ("SLASH", r"/"),
    ("LBRACE", r"\{"),
    ("RBRACE", r"\}"),
    ("LPAREN", r"\("),
    ("RPAREN", r"\)"),
    ("LBRACKET", r"\["),
    ("RBRACKET", r"\]"),
    ("SEMICOLON", r";"),
    ("COMMA", r","),
    ("DOT", r"\."),
    # Prefixed names and bare keywords share word-ish shapes; keywords are
    # disambiguated after the match (a PNAME always contains ':').
    ("PNAME", r"[A-Za-z_][A-Za-z0-9_.-]*:[A-Za-z0-9_]?[A-Za-z0-9_.\-%]*|:[A-Za-z0-9_][A-Za-z0-9_.\-%]*|[A-Za-z_][A-Za-z0-9_.-]*:"),
    ("WORD", r"[A-Za-z_][A-Za-z0-9_]*"),
]

#: One ordered alternation: the first alternative that matches at a position
#: wins, exactly as trying the patterns one by one would, and
#: ``match.lastgroup`` names it (the patterns hold no capturing groups).
_TOKEN_RE = re.compile("|".join(f"(?P<{kind}>{pattern})" for kind, pattern in _TOKEN_PATTERNS))

_LONG_STRING_KINDS = {"STRING_LONG", "STRING_LONG_SQ"}


def tokenize_sparql(text: str) -> list[SparqlToken]:
    """Tokenise SPARQL text into a list ending with an ``EOF`` token."""
    tokens: list[SparqlToken] = []
    position = 0
    line = 1
    line_start = 0
    length = len(text)
    match_token = _TOKEN_RE.match

    while position < length:
        ch = text[position]
        if ch in " \t\r":
            position += 1
            continue
        if ch == "\n":
            position += 1
            line += 1
            line_start = position
            continue

        column = position - line_start + 1
        match = match_token(text, position)
        if match is None or match.lastgroup is None:
            raise SparqlLexError(f"unexpected character {ch!r}", line, column)
        kind = match.lastgroup
        end = match.end()
        if kind == "COMMENT":
            position = end
            continue
        value = match.group()
        end_line = line
        if kind == "WORD":
            upper = value.upper()
            if upper in KEYWORDS:
                kind, value = "KEYWORD", upper
        elif kind == "PNAME":
            if value.endswith("."):
                value = value.rstrip(".")
                end = position + len(value)
        elif kind in _LONG_STRING_KINDS:
            kind = "STRING"
            newlines = value.count("\n")
            if newlines:
                end_line = line + newlines
                line_start = position + value.rindex("\n") + 1
        elif kind == "STRING_SQ":
            kind = "STRING"
        tokens.append(
            SparqlToken(kind, value, line, column, end_line, end - line_start + 1)
        )
        line = end_line
        position = end

    tokens.append(SparqlToken("EOF", "", line, 1, line, 2))
    return tokens
