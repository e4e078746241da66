"""Reference lexers for cross-checking ``pddl._read`` and ``rules._tokenize``.

The lexers as they were before each became one scan over the whole text:
``read`` walks the PDDL text one token at a time with ``re.match``,
keeping line and column as it goes, and ``tokenize`` splits rule text with
``str.splitlines``, cuts each line at its first ``%`` and matches the
tokens of the rest. Their token and node classes are frozen dataclasses
with the package's field names; only the error classes come from the
package.
"""

import re
from dataclasses import dataclass

from planhunt.errors import PddlSyntaxError, RuleSyntaxError


@dataclass(frozen=True)
class Sym:
    text: str
    line: int
    col: int


@dataclass(frozen=True)
class Node:
    items: tuple
    line: int
    col: int


_LEX_RE = re.compile(r"\s+|;[^\n]*|\(|\)|[^\s();]+")


def read(text: str):
    """Tokenize and build the nested s-expression forms."""
    stack: list[list] = [[]]
    positions: list[tuple[int, int]] = []
    line = 1
    col = 1
    pos = 0
    while pos < len(text):
        match = _LEX_RE.match(text, pos)
        if match is None:
            raise PddlSyntaxError(line, col, f"bad character {text[pos]!r}")
        tok = match.group()
        tok_line, tok_col = line, col
        newlines = tok.count("\n")
        if newlines:
            line += newlines
            col = len(tok) - tok.rindex("\n")
        else:
            col += len(tok)
        pos = match.end()
        if tok.isspace() or tok.startswith(";"):
            continue
        if tok == "(":
            stack.append([])
            positions.append((tok_line, tok_col))
        elif tok == ")":
            if len(stack) == 1:
                raise PddlSyntaxError(tok_line, tok_col, "unbalanced ')'")
            items = stack.pop()
            open_line, open_col = positions.pop()
            stack[-1].append(Node(tuple(items), open_line, open_col))
        else:
            stack[-1].append(Sym(tok.lower(), tok_line, tok_col))
    if len(stack) != 1:
        open_line, open_col = positions[-1]
        raise PddlSyntaxError(open_line, open_col, "unclosed '('")
    return stack[0]


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    col: int


_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<arrow>:-)
    | (?P<op><=|>=|!=|<|>)
    | (?P<int>-?\d+)
    | (?P<var>[A-Z][A-Za-z0-9_]*)
    | (?P<ident>[a-z][A-Za-z0-9_]*(?:-[A-Za-z0-9_]+)*)
    | (?P<anon>_)
    | (?P<lpar>\()
    | (?P<rpar>\))
    | (?P<comma>,)
    | (?P<dot>\.)
    """,
    re.VERBOSE,
)


def tokenize(text: str, start_line: int = 1) -> list[Token]:
    tokens: list[Token] = []
    for offset, raw in enumerate(text.splitlines()):
        line_no = start_line + offset
        line = raw.split("%", 1)[0]
        pos = 0
        while pos < len(line):
            match = _TOKEN_RE.match(line, pos)
            if match is None:
                raise RuleSyntaxError(line_no, pos + 1, f"bad character {line[pos]!r}")
            kind = match.lastgroup or ""
            if kind != "ws":
                tokens.append(Token(kind, match.group(), line_no, pos + 1))
            pos = match.end()
    return tokens
