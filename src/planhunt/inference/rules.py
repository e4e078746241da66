"""Rule language: a function-free Datalog dialect with negation as failure.

Syntax
------
* ``head :- lit1, ..., litN.`` with statements spanning lines until the dot;
  a bodyless ``head.`` is an unconditional rule over ground terms.
* Literals are atoms, ``not`` atoms, or comparisons (``< <= > >= !=``).
* Variables start uppercase, ``_`` is anonymous, constants are lowercase
  tokens (hyphens allowed) or integers. ``%`` starts a comment.
* Pack directives, one per line:
  ``#pred name/arity extensional|intensional`` declares a predicate,
  ``#order strict|loose`` selects the event-ordering reading,
  ``#tokens class tok...`` extends the closed vocabulary table.

Under ``#order strict`` (the default), a rule whose body mentions two or more
``invoked`` atoms with distinct named timestamp variables gets explicit
``T1 < T2`` comparisons injected in body order, so co-occurrence rules read
as ordered event patterns while the rule text stays declarative.
"""

import re
from dataclasses import dataclass

from ..errors import (
    ArityConflict,
    DeclarationConflict,
    DuplicateRule,
    RuleSyntaxError,
    UnsafeRule,
)
from ..vocab import INVOKED, INVOKED_TS_ARG

__all__ = [
    "Var",
    "Atom",
    "Literal",
    "Comparison",
    "Rule",
    "RulePack",
    "parse_rule_pack",
    "rule_pack",
    "parse_body",
    "render_body",
]

Const = str | int
CMP_OPS = ("<=", ">=", "!=", "<", ">")


@dataclass(frozen=True)
class Var:
    name: str

    def __str__(self) -> str:
        # Parser-generated anonymous variables render back to "_" so that
        # rendered bodies reparse cleanly.
        return "_" if self.name.startswith("_G") else self.name


Term = Var | str | int


@dataclass(frozen=True)
class Atom:
    predicate: str
    args: tuple[Term, ...] = ()

    def __str__(self) -> str:
        if not self.args:
            return self.predicate
        return f"{self.predicate}({', '.join(str(a) for a in self.args)})"

    def variables(self) -> set[str]:
        return {t.name for t in self.args if isinstance(t, Var)}


@dataclass(frozen=True)
class Literal:
    """An atom occurrence in a rule body, possibly negated."""

    atom: Atom
    negated: bool = False

    def __str__(self) -> str:
        return f"not {self.atom}" if self.negated else str(self.atom)


@dataclass(frozen=True)
class Comparison:
    """A built-in filter between two bound terms."""

    op: str
    lhs: Term
    rhs: Term

    def __str__(self) -> str:
        return f"{self.lhs} {self.op} {self.rhs}"

    def variables(self) -> set[str]:
        out = set()
        for term in (self.lhs, self.rhs):
            if isinstance(term, Var):
                out.add(term.name)
        return out


BodyItem = Literal | Comparison


@dataclass(frozen=True)
class Rule:
    head: Atom
    body: tuple[BodyItem, ...] = ()

    def __str__(self) -> str:
        if not self.body:
            return f"{self.head}."
        return f"{self.head} :- {render_body(self.body)}."


def render_body(body: tuple[BodyItem, ...]) -> str:
    return ", ".join(str(item) for item in body)


@dataclass
class RulePack:
    """A parsed rule program plus its manifest."""

    rules: tuple[Rule, ...]
    declared: dict[str, tuple[int, str]]  # predicate -> (arity, kind)
    token_table: dict[str, frozenset[str]]
    order_mode: str = "strict"

    def arity_of(self, predicate: str) -> int | None:
        entry = self.declared.get(predicate)
        return entry[0] if entry else None

    def extensional(self) -> set[str]:
        return {p for p, (_, kind) in self.declared.items() if kind == "extensional"}

    def intensional(self) -> set[str]:
        return {p for p, (_, kind) in self.declared.items() if kind == "intensional"}


# --- tokenizer ------------------------------------------------------------------


@dataclass(frozen=True)
class _Token:
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


def _tokenize(text: str, start_line: int = 1) -> list[_Token]:
    tokens: list[_Token] = []
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
                tokens.append(_Token(kind, match.group(), line_no, pos + 1))
            pos = match.end()
    return tokens


# --- parser ---------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.anon_counter = 0

    def _error(self, reason: str) -> RuleSyntaxError:
        if self.pos < len(self.tokens):
            tok = self.tokens[self.pos]
            return RuleSyntaxError(tok.line, tok.col, reason)
        last = self.tokens[-1] if self.tokens else _Token("", "", 1, 1)
        return RuleSyntaxError(last.line, last.col + len(last.text), reason)

    def peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, kind: str | None = None) -> _Token:
        tok = self.peek()
        if tok is None:
            raise self._error("unexpected end of input")
        if kind is not None and tok.kind != kind:
            raise self._error(f"expected {kind}, found {tok.text!r}")
        self.pos += 1
        return tok

    def at_end(self) -> bool:
        return self.pos >= len(self.tokens)

    def parse_term(self) -> Term:
        tok = self.peek()
        if tok is None:
            raise self._error("expected a term")
        if tok.kind == "var":
            self.take()
            return Var(tok.text)
        if tok.kind == "anon":
            self.take()
            self.anon_counter += 1
            return Var(f"_G{self.anon_counter}")
        if tok.kind == "int":
            self.take()
            return int(tok.text)
        if tok.kind == "ident":
            self.take()
            return tok.text
        raise self._error(f"expected a term, found {tok.text!r}")

    def parse_atom_after_name(self, name_tok: _Token) -> Atom:
        args: list[Term] = []
        tok = self.peek()
        if tok is not None and tok.kind == "lpar":
            self.take()
            if self.peek() is not None and self.peek().kind == "rpar":
                raise self._error("empty argument list; write a bare atom instead")
            args.append(self.parse_term())
            while self.peek() is not None and self.peek().kind == "comma":
                self.take()
                args.append(self.parse_term())
            self.take("rpar")
        return Atom(name_tok.text, tuple(args))

    def parse_body_item(self) -> BodyItem:
        tok = self.peek()
        if tok is None:
            raise self._error("expected a body literal")
        if tok.kind == "ident" and tok.text == "not":
            nxt = self.tokens[self.pos + 1] if self.pos + 1 < len(self.tokens) else None
            if nxt is not None and nxt.kind == "ident":
                self.take()
                atom = self.parse_atom_after_name(self.take("ident"))
                return Literal(atom, negated=True)
        if tok.kind == "ident":
            self.take()
            atom = self.parse_atom_after_name(tok)
            nxt = self.peek()
            if nxt is not None and nxt.kind == "op":
                if atom.args:
                    raise self._error("comparison operand cannot take arguments")
                op = self.take("op").text
                return Comparison(op, atom.predicate, self.parse_term())
            return Literal(atom)
        # Starts with a variable or integer: must be a comparison.
        lhs = self.parse_term()
        nxt = self.peek()
        if nxt is None or nxt.kind != "op":
            raise self._error("expected a comparison operator")
        op = self.take("op").text
        return Comparison(op, lhs, self.parse_term())

    def parse_rule(self) -> Rule:
        # Anonymous numbering restarts per rule so syntactically identical
        # rules compare equal for duplicate detection.
        self.anon_counter = 0
        head_tok = self.take("ident")
        head = self.parse_atom_after_name(head_tok)
        tok = self.peek()
        if tok is not None and tok.kind == "arrow":
            self.take()
            body: list[BodyItem] = [self.parse_body_item()]
            while self.peek() is not None and self.peek().kind == "comma":
                self.take()
                body.append(self.parse_body_item())
            self.take("dot")
            return Rule(head, tuple(body))
        self.take("dot")
        return Rule(head)


# --- directives and pack assembly -------------------------------------------------


_PRED_DIRECTIVE_RE = re.compile(
    r"#pred\s+(?P<name>[a-z][A-Za-z0-9_]*(?:-[A-Za-z0-9_]+)*)\s*/\s*(?P<arity>\d+)"
    r"\s+(?P<kind>extensional|intensional)\s*\Z"
)
_ORDER_DIRECTIVE_RE = re.compile(r"#order\s+(?P<mode>strict|loose)\s*\Z")
_TOKENS_DIRECTIVE_RE = re.compile(
    r"#tokens\s+(?P<cls>[a-z][a-z0-9_]*)\s+(?P<toks>.+?)\s*\Z"
)


def parse_rule_pack(text: str) -> RulePack:
    """Parse rule text plus directives into a validated RulePack.

    Checks declared arities, predicate kind consistency, rule safety, and
    duplicate rules; applies the strict-order rewriting when selected.
    """
    declared: dict[str, tuple[int, str]] = {}
    token_table: dict[str, set[str]] = {}
    order_mode = "strict"

    rule_lines: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("%", 1)[0].strip()
        if stripped.startswith("#"):
            rule_lines.append("")
            match = _PRED_DIRECTIVE_RE.match(stripped)
            if match:
                name = match.group("name")
                arity = int(match.group("arity"))
                kind = match.group("kind")
                if name in declared and declared[name] != (arity, kind):
                    prev_arity, prev_kind = declared[name]
                    if prev_arity != arity:
                        raise ArityConflict(name, arity, prev_arity)
                    raise DeclarationConflict(
                        name, f"declared both {prev_kind} and {kind}"
                    )
                declared[name] = (arity, kind)
                continue
            match = _ORDER_DIRECTIVE_RE.match(stripped)
            if match:
                order_mode = match.group("mode")
                continue
            match = _TOKENS_DIRECTIVE_RE.match(stripped)
            if match:
                token_table.setdefault(match.group("cls"), set()).update(
                    match.group("toks").split()
                )
                continue
            raise RuleSyntaxError(lineno, 1, f"unknown directive: {stripped!r}")
        rule_lines.append(raw)

    parser = _Parser(_tokenize("\n".join(rule_lines)))
    rules: list[Rule] = []
    while not parser.at_end():
        rules.append(parser.parse_rule())

    _check_arities(rules, declared)
    _infer_declarations(rules, declared)
    if order_mode == "strict":
        rules = [_inject_event_order(rule) for rule in rules]

    seen: set[Rule] = set()
    for rule in rules:
        if rule in seen:
            raise DuplicateRule(str(rule))
        seen.add(rule)
        _check_safety(rule)

    return RulePack(
        rules=tuple(rules),
        declared=declared,
        token_table={cls: frozenset(toks) for cls, toks in token_table.items()},
        order_mode=order_mode,
    )


def rule_pack(rules: "list[Rule] | tuple[Rule, ...]") -> RulePack:
    """A pack over generated rules, each predicate declared by its use."""
    declared: dict[str, tuple[int, str]] = {}
    _infer_declarations(rules, declared)
    return RulePack(rules=tuple(rules), declared=declared, token_table={})


def _iter_atoms(rule: Rule):
    yield rule.head, False
    for item in rule.body:
        if isinstance(item, Literal):
            yield item.atom, item.negated


def _check_arities(rules: list[Rule], declared: dict[str, tuple[int, str]]) -> None:
    seen: dict[str, int] = {p: a for p, (a, _) in declared.items()}
    for rule in rules:
        for atom, _neg in _iter_atoms(rule):
            known = seen.get(atom.predicate)
            if known is None:
                seen[atom.predicate] = len(atom.args)
            elif known != len(atom.args):
                raise ArityConflict(atom.predicate, len(atom.args), known)


def _infer_declarations(
    rules: "list[Rule] | tuple[Rule, ...]", declared: dict[str, tuple[int, str]]
) -> None:
    """Fill in declarations for undeclared predicates and check kinds.

    A predicate defined by a rule head must not be declared extensional; an
    undeclared predicate is classified by use (head -> intensional).
    """
    head_preds = {rule.head.predicate for rule in rules}
    for rule in rules:
        for atom, _neg in _iter_atoms(rule):
            pred = atom.predicate
            if pred in declared:
                continue
            kind = "intensional" if pred in head_preds else "extensional"
            declared[pred] = (len(atom.args), kind)
    for pred in head_preds:
        if declared[pred][1] == "extensional":
            raise DeclarationConflict(
                pred, "declared extensional but defined by a rule head"
            )


def _inject_event_order(rule: Rule) -> Rule:
    """Rewrite for strict mode: chain ``<`` over distinct event timestamps."""
    ts_vars: list[Var] = []
    for item in rule.body:
        if isinstance(item, Literal) and not item.negated:
            atom = item.atom
            if atom.predicate == INVOKED and len(atom.args) > INVOKED_TS_ARG:
                term = atom.args[INVOKED_TS_ARG]
                if (
                    isinstance(term, Var)
                    and not term.name.startswith("_G")
                    and term not in ts_vars
                ):
                    ts_vars.append(term)
    if len(ts_vars) < 2:
        return rule
    extra = tuple(
        Comparison("<", ts_vars[i], ts_vars[i + 1]) for i in range(len(ts_vars) - 1)
    )
    return Rule(rule.head, rule.body + extra)


def _check_safety(rule: Rule) -> None:
    bound: set[str] = set()
    for item in rule.body:
        if isinstance(item, Literal) and not item.negated:
            bound |= item.atom.variables()
    for var in sorted(rule.head.variables() - bound):
        raise UnsafeRule(str(rule), var)
    for item in rule.body:
        if isinstance(item, Literal) and item.negated:
            loose = item.atom.variables() - bound
        elif isinstance(item, Comparison):
            loose = item.variables() - bound
        else:
            continue
        for var in sorted(loose):
            raise UnsafeRule(str(rule), var)


def parse_body(text: str) -> tuple[BodyItem, ...]:
    """Parse a bare body (comma-separated literals, no trailing dot), such
    as the body of a generated rule; safety is not enforced here, as the
    body has no head yet.
    """
    parser = _Parser(_tokenize(text))
    if parser.at_end():
        return ()
    body: list[BodyItem] = [parser.parse_body_item()]
    while not parser.at_end():
        parser.take("comma")
        body.append(parser.parse_body_item())
    return tuple(body)
