"""Domain parser and problem renderer for the supported PDDL subset.

Domains are read from PDDL text; problems are built in memory (see
``state.build_problem``) and only rendered, for ``plan --dump-problem``.
Supported requirements: :strips :typing :negative-preconditions
:disjunctive-preconditions :action-costs. Preconditions are and/or trees
over literals with negation applied to atoms only; the parser builds each
straight into its disjunctive normal form (``model.Precondition``) and
rejects one with more than ``MAX_DISJUNCTS`` disjuncts. Effects are
add/delete lists plus an optional constant (increase (total-cost) n).
Symbols are case-insensitive and normalized to lowercase; ``;`` starts a
comment.
"""

import re
from typing import NamedTuple

from ..errors import (
    PddlSyntaxError,
    UndeclaredObject,
    UndeclaredPredicate,
    UndeclaredType,
    UndeclaredVariable,
    UnsupportedRequirement,
)
from .model import (
    ActionSchema,
    DomainModel,
    FAtom,
    Parameter,
    Precondition,
    PredicateSchema,
    ProblemInstance,
    TypeHierarchy,
)

__all__ = ["parse_domain", "render_problem"]

SUPPORTED_REQUIREMENTS = (
    ":strips",
    ":typing",
    ":negative-preconditions",
    ":disjunctive-preconditions",
    ":action-costs",
)

# A precondition with more disjuncts than this is a modeling error,
# reported at the action.
MAX_DISJUNCTS = 64


class _Sym(NamedTuple):
    text: str
    line: int
    col: int


class _Node(NamedTuple):
    items: tuple
    line: int
    col: int


# A newline, a comment, a paren or a symbol; the search skips any other
# whitespace.
_LEX_RE = re.compile(r"(?P<newline>\n)|;[^\n]*|(?P<open>\()|(?P<close>\))|(?P<sym>[^\s();]+)")


def _read(text: str):
    """Tokenize and build the nested s-expression forms."""
    stack: list[list] = [[]]
    positions: list[tuple[int, int]] = []
    line = 1
    line_start = 0
    for match in _LEX_RE.finditer(text):
        kind = match.lastgroup
        if kind == "newline":
            line += 1
            line_start = match.end()
        elif kind == "open":
            stack.append([])
            positions.append((line, match.start() - line_start + 1))
        elif kind == "close":
            if len(stack) == 1:
                raise PddlSyntaxError(line, match.start() - line_start + 1, "unbalanced ')'")
            items = stack.pop()
            stack[-1].append(_Node(tuple(items), *positions.pop()))
        elif kind == "sym":
            stack[-1].append(_Sym(match.group().lower(), line, match.start() - line_start + 1))
    if len(stack) != 1:
        raise PddlSyntaxError(*positions[-1], "unclosed '('")
    return stack[0]


def _err(node, reason: str) -> PddlSyntaxError:
    return PddlSyntaxError(node.line, node.col, reason)


def _sym_text(node, context: str) -> str:
    if not isinstance(node, _Sym):
        raise _err(node, f"expected a name in {context}")
    return node.text


def _parse_typed_list(items, context: str) -> list[tuple[str, str]]:
    """Parse ``a b - t c - u d`` into (name, type) pairs; trailing names
    without a dash default to type object."""
    out: list[tuple[str, str]] = []
    pending: list[str] = []
    i = 0
    while i < len(items):
        text = _sym_text(items[i], context)
        if text == "-":
            if not pending:
                raise _err(items[i], f"dangling '-' in {context}")
            if i + 1 >= len(items):
                raise _err(items[i], f"missing type after '-' in {context}")
            type_name = _sym_text(items[i + 1], context)
            out.extend((name, type_name) for name in pending)
            pending = []
            i += 2
        else:
            pending.append(text)
            i += 1
    out.extend((name, "object") for name in pending)
    return out


# --- domains ---------------------------------------------------------------------


def parse_domain(text: str) -> DomainModel:
    forms = _read(text)
    if len(forms) != 1 or not isinstance(forms[0], _Node):
        raise PddlSyntaxError(1, 1, "expected a single (define ...) form")
    top = forms[0]
    items = top.items
    if (
        len(items) < 2
        or not isinstance(items[0], _Sym)
        or items[0].text != "define"
        or not isinstance(items[1], _Node)
        or len(items[1].items) != 2
        or _sym_text(items[1].items[0], "define") != "domain"
    ):
        raise _err(top, "expected (define (domain NAME) ...)")
    name = _sym_text(items[1].items[1], "domain name")

    types = TypeHierarchy()
    predicates: dict[str, PredicateSchema] = {}
    constants: dict[str, str] = {}
    actions: dict[str, ActionSchema] = {}

    for section in items[2:]:
        if not isinstance(section, _Node) or not section.items:
            raise _err(section, "expected a (:section ...) form")
        head = _sym_text(section.items[0], "section")
        rest = section.items[1:]
        if head == ":requirements":
            for req in (_sym_text(s, ":requirements") for s in rest):
                if req not in SUPPORTED_REQUIREMENTS:
                    raise UnsupportedRequirement(req)
        elif head == ":types":
            for type_name, parent in _parse_typed_list(rest, ":types"):
                if parent != "object" and not types.known(parent):
                    types.declare(parent, "object")
                types.declare(type_name, parent)
        elif head == ":constants":
            for obj, type_name in _parse_typed_list(rest, ":constants"):
                if not types.known(type_name):
                    raise UndeclaredType(type_name)
                if obj in constants:
                    raise _err(section, f"constant {obj} declared twice")
                constants[obj] = type_name
        elif head == ":predicates":
            for decl in rest:
                if not isinstance(decl, _Node) or not decl.items:
                    raise _err(decl, "expected a predicate declaration")
                pred_name = _sym_text(decl.items[0], ":predicates")
                if pred_name in predicates:
                    raise _err(decl, f"predicate {pred_name} declared twice")
                params = _parse_typed_list(decl.items[1:], f"predicate {pred_name}")
                for _, type_name in params:
                    if not types.known(type_name):
                        raise UndeclaredType(type_name)
                predicates[pred_name] = PredicateSchema(
                    pred_name, tuple(t for _, t in params)
                )
        elif head == ":functions":
            # Only (total-cost) is meaningful; anything else is rejected.
            for decl in rest:
                if (
                    not isinstance(decl, _Node)
                    or len(decl.items) != 1
                    or _sym_text(decl.items[0], ":functions") != "total-cost"
                ):
                    raise _err(decl, "only (total-cost) is supported in :functions")
        elif head == ":action":
            action = _parse_action(section, types, predicates, constants)
            if action.name in actions:
                raise _err(section, f"action {action.name} declared twice")
            actions[action.name] = action
        else:
            raise _err(section, f"unknown domain section {head}")

    return DomainModel(
        name=name,
        types=types,
        predicates=predicates,
        constants=constants,
        actions=tuple(actions.values()),
    )


def _parse_action(section, types, predicates, constants) -> ActionSchema:
    items = section.items
    if len(items) < 2 or not isinstance(items[1], _Sym):
        raise _err(section, "action needs a name")
    name = items[1].text
    fields: dict[str, object] = {}
    i = 2
    while i < len(items):
        key = _sym_text(items[i], f"action {name}")
        if key not in (":parameters", ":precondition", ":effect"):
            raise _err(items[i], f"unknown key {key} in action {name}")
        if key in fields:
            raise _err(items[i], f"repeated key {key} in action {name}")
        if i + 1 >= len(items):
            raise _err(items[i], f"missing value for {key} in action {name}")
        fields[key] = items[i + 1]
        i += 2
    if ":parameters" not in fields or not isinstance(fields[":parameters"], _Node):
        raise _err(section, f"action {name} needs :parameters (...)")

    params: list[Parameter] = []
    for var, type_name in _parse_typed_list(
        fields[":parameters"].items, f"action {name} parameters"
    ):
        if not var.startswith("?"):
            raise _err(fields[":parameters"], f"parameter {var} must start with '?'")
        if not types.known(type_name):
            raise UndeclaredType(type_name)
        if any(p.name == var for p in params):
            raise _err(fields[":parameters"], f"parameter {var} declared twice in action {name}")
        params.append(Parameter(var, type_name))
    param_types = {p.name: p.type for p in params}

    precondition: Precondition | None = ((),)
    if ":precondition" in fields:
        precondition = _parse_formula(
            fields[":precondition"], predicates, param_types, constants, types
        )
        if precondition is None:
            raise _err(section, f"action {name}: precondition has more than {MAX_DISJUNCTS} disjuncts")

    add: list[FAtom] = []
    delete: list[FAtom] = []
    cost = 1
    if ":effect" in fields:
        cost = _parse_effect(
            fields[":effect"], predicates, param_types, constants, types, add, delete
        )
    for atom in add:
        if atom in delete:
            raise _err(section, f"action {name} both adds and deletes {atom.render()}")
    return ActionSchema(
        name=name,
        parameters=tuple(params),
        precondition=precondition,
        add=tuple(add),
        delete=tuple(delete),
        cost=cost,
    )


def _check_atom_args(node, pred: PredicateSchema, args, param_types, constants, types):
    if len(args) != len(pred.param_types):
        raise _err(
            node,
            f"predicate {pred.name} takes {len(pred.param_types)} arguments, "
            f"got {len(args)}",
        )
    for arg, want in zip(args, pred.param_types):
        if arg.startswith("?"):
            if arg not in param_types:
                raise UndeclaredVariable(arg)
            have = param_types[arg]
        elif arg in constants:
            have = constants[arg]
        else:
            raise UndeclaredObject(arg)
        if not types.is_subtype(have, want):
            raise _err(
                node, f"argument {arg} of {pred.name} has type {have}, needs {want}"
            )


def _parse_atom(node, predicates, param_types, constants, types) -> FAtom:
    if not isinstance(node, _Node) or not node.items:
        raise _err(node, "expected an atom")
    pred_name = _sym_text(node.items[0], "atom")
    if pred_name in ("and", "or", "not"):
        raise _err(node, f"expected an atom, found a nested {pred_name}")
    if pred_name not in predicates:
        raise UndeclaredPredicate(pred_name)
    args = tuple(_sym_text(a, f"atom {pred_name}") for a in node.items[1:])
    _check_atom_args(node, predicates[pred_name], args, param_types, constants, types)
    return FAtom(pred_name, args)


def _parse_formula(node, predicates, param_types, constants, types) -> Precondition | None:
    """A formula's disjunctive normal form: ``and`` is the left-major product
    of its parts', ``or`` the concatenation, literals in written order. None
    once a product or concatenation has more than ``MAX_DISJUNCTS``
    disjuncts; every atom is checked all the same."""
    if not isinstance(node, _Node) or not node.items:
        raise _err(node, "expected a formula")
    head = node.items[0]
    if isinstance(head, _Sym) and head.text in ("and", "or"):
        parts = [
            _parse_formula(part, predicates, param_types, constants, types)
            for part in node.items[1:]
        ]
        if None in parts:
            return None
        if head.text == "or":
            if sum(map(len, parts)) > MAX_DISJUNCTS:
                return None
            return tuple(d for part in parts for d in part)
        disjuncts = ((),)
        for part in parts:
            if len(disjuncts) * len(part) > MAX_DISJUNCTS:
                return None
            disjuncts = tuple(left + right for left in disjuncts for right in part)
        return disjuncts
    if isinstance(head, _Sym) and head.text == "not":
        if len(node.items) != 2:
            raise _err(node, "not takes exactly one atom")
        return (((_parse_atom(node.items[1], predicates, param_types, constants, types), True),),)
    return (((_parse_atom(node, predicates, param_types, constants, types), False),),)


def _parse_effect(
    node, predicates, param_types, constants, types, add, delete
) -> int:
    """Collect add/delete atoms; returns the action cost (default 1)."""
    cost = 1

    def walk(part) -> None:
        nonlocal cost
        if not isinstance(part, _Node) or not part.items:
            raise _err(part, "expected an effect")
        head = part.items[0]
        if isinstance(head, _Sym) and head.text == "and":
            for sub in part.items[1:]:
                walk(sub)
            return
        if isinstance(head, _Sym) and head.text == "not":
            if len(part.items) != 2:
                raise _err(part, "not takes exactly one atom")
            delete.append(
                _parse_atom(part.items[1], predicates, param_types, constants, types)
            )
            return
        if isinstance(head, _Sym) and head.text == "increase":
            if (
                len(part.items) != 3
                or not isinstance(part.items[1], _Node)
                or len(part.items[1].items) != 1
                or _sym_text(part.items[1].items[0], "increase") != "total-cost"
                or not isinstance(part.items[2], _Sym)
                or not (part.items[2].text.isascii() and part.items[2].text.isdigit())
            ):
                raise _err(part, "expected (increase (total-cost) N)")
            cost = int(part.items[2].text)
            return
        if isinstance(head, _Sym) and head.text == "or":
            raise _err(part, "disjunction is only allowed in preconditions")
        add.append(_parse_atom(part, predicates, param_types, constants, types))

    walk(node)
    return cost


# --- rendering -------------------------------------------------------------------


def render_problem(problem: ProblemInstance) -> str:
    """Render a problem back to PDDL text (stable object/atom order)."""
    lines = [f"(define (problem {problem.name})"]
    lines.append(f"  (:domain {problem.domain_name})")
    if problem.objects:
        by_type: dict[str, list[str]] = {}
        for obj, type_name in problem.objects.items():
            by_type.setdefault(type_name, []).append(obj)
        parts = []
        for type_name in sorted(by_type):
            parts.append(" ".join(sorted(by_type[type_name])) + f" - {type_name}")
        lines.append("  (:objects " + "\n            ".join(parts) + ")")
    lines.append(f"  (:init {_render_atoms(problem.init)})")
    goal = _render_atoms(problem.goal)
    if len(problem.goal) != 1:
        goal = f"(and {goal})"
    lines.append(f"  (:goal {goal})")
    lines.append(")")
    return "\n".join(lines) + "\n"


def _render_atoms(atoms) -> str:
    return " ".join(FAtom(p, a).render() for p, a in sorted(atoms))
