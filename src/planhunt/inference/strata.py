"""Stratification and rule planning for the inference engine.

Stratification condenses the predicate dependency graph; a negative edge
inside a strongly connected component means the program has no perfect
model and raises NegationCycle. Each rule's body order is planned once, at
stratification, as written, with filters placed as soon as their variables
bind; the plan also records, for each literal, the argument positions bound
when it runs, and marks the atoms that may read a per-group minimum (see
``inference.engine``). The engine compiles each planned rule into kernels
on first use and keeps them on the rule.
"""

from collections import Counter
from dataclasses import dataclass

from ..errors import NegationCycle, UnsafeRule
from .rules import Atom, BodyItem, Comparison, Literal, Rule, RulePack, Var

__all__ = ["PlannedRule", "StratifiedProgram", "stratify"]

# (group positions, timestamp position) of an atom read through a minimum
# index; None for a plain lookup.
Least = tuple[tuple[int, ...], int] | None
PlanStep = tuple[int, tuple[int, ...], Least]


class PlannedRule:
    """A rule, its body order, and its positive current-stratum atoms.

    Each plan step is (body index, argument positions bound when the
    literal runs, minimum); a comparison's positions are empty, and the
    minimum is set only on an atom marked for the lone-timestamp
    rewrite. ``kernels`` holds the engine's compiled kernels per delta
    position, filled on first use and left out of pickles."""

    __slots__ = ("rule", "plan", "recursive", "kernels")

    def __init__(self, rule: Rule, plan: tuple[PlanStep, ...], recursive: tuple[int, ...]):
        self.rule = rule
        self.plan = plan
        self.recursive = recursive
        self.kernels: dict = {}

    def __reduce__(self):
        return PlannedRule, (self.rule, self.plan, self.recursive)


@dataclass(frozen=True)
class StratifiedProgram:
    """Planned rules in dense strata; lower strata never depend on higher."""

    pack: RulePack
    strata: tuple[tuple[PlannedRule, ...], ...]
    stratum_of: dict[str, int]
    # Per stratum, each predicate's delta readers: (rule, body index).
    readers: tuple[dict[str, list[tuple[PlannedRule, int]]], ...]
    intensional: frozenset[str]


def stratify(pack: RulePack) -> StratifiedProgram:
    """Layer the pack so negation only reaches strictly lower strata."""
    predicates = set(pack.declared)
    pos_edges: dict[str, set[str]] = {p: set() for p in predicates}
    neg_edges: dict[str, set[str]] = {p: set() for p in predicates}
    for rule in pack.rules:
        head = rule.head.predicate
        for item in rule.body:
            if not isinstance(item, Literal):
                continue
            source = item.atom.predicate
            (neg_edges if item.negated else pos_edges)[source].add(head)

    component_of = _condense(predicates, pos_edges, neg_edges)
    members: dict[int, list[str]] = {}
    for pred, comp in component_of.items():
        members.setdefault(comp, []).append(pred)
    for comp, preds in members.items():
        for src in preds:
            for dst in neg_edges[src]:
                if component_of[dst] == comp:
                    raise NegationCycle(tuple(preds))

    # Longest-path layering over the condensation. Tarjan numbers each
    # component after every component it reaches, so descending numbers
    # are a topological order.
    level: dict[int, int] = {comp: 0 for comp in members}
    for comp in sorted(members, reverse=True):
        for src in members[comp]:
            for dst in pos_edges[src]:
                level[component_of[dst]] = max(level[component_of[dst]], level[comp])
            for dst in neg_edges[src]:
                level[component_of[dst]] = max(level[component_of[dst]], level[comp] + 1)

    pred_level = {p: level[component_of[p]] for p in predicates}
    height = max(pred_level.values(), default=0) + 1 if pack.rules else 1
    strata: list[list[Rule]] = [[] for _ in range(height)]
    for rule in pack.rules:
        strata[pred_level[rule.head.predicate]].append(rule)
    planned = tuple(
        tuple(plan_rule(rule, {r.head.predicate for r in group}) for rule in group)
        for group in strata
    )
    readers: list[dict[str, list[tuple[PlannedRule, int]]]] = []
    for group in planned:
        readers.append({})
        for rule in group:
            for i in rule.recursive:
                readers[-1].setdefault(rule.rule.body[i].atom.predicate, []).append((rule, i))
    return StratifiedProgram(
        pack=pack,
        strata=planned,
        stratum_of=pred_level,
        readers=tuple(readers),
        intensional=frozenset(pack.intensional()),
    )


def _condense(
    predicates: set[str],
    pos_edges: dict[str, set[str]],
    neg_edges: dict[str, set[str]],
) -> dict[str, int]:
    """Iterative Tarjan SCC over the combined dependency graph."""
    succ = {p: sorted(pos_edges[p] | neg_edges[p]) for p in predicates}
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    component_of: dict[str, int] = {}
    counter = 0
    comp_counter = 0

    for root in sorted(predicates):
        if root in index:
            continue
        work: list[tuple[str, int]] = [(root, 0)]
        while work:
            node, child_i = work[-1]
            if child_i == 0:
                index[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            for i in range(child_i, len(succ[node])):
                child = succ[node][i]
                if child not in index:
                    work[-1] = (node, i + 1)
                    work.append((child, 0))
                    advanced = True
                    break
                if child in on_stack:
                    low[node] = min(low[node], index[child])
            if advanced:
                continue
            if low[node] == index[node]:
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component_of[member] = comp_counter
                    if member == node:
                        break
                comp_counter += 1
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return component_of


def variable_uses(rule: Rule) -> Counter:
    """Occurrences of each variable in the whole rule."""
    terms = list(rule.head.args)
    for item in rule.body:
        terms += item.atom.args if isinstance(item, Literal) else (item.lhs, item.rhs)
    return Counter(term.name for term in terms if isinstance(term, Var))


def plan_rule(rule: Rule, local: set[str]) -> PlannedRule:
    """Order body items for evaluation: each positive atom in written order,
    with comparisons and negations placed as soon as their variables bind.
    Each literal records the argument positions bound when it runs: its
    constants and the variables earlier items bind. Positive atoms over
    ``local`` predicates are the recursive positions. Raises UnsafeRule when
    a comparison or negation variable never binds.

    A positive atom is marked to read a minimum index (see
    ``inference.engine.Relations``) when it repeats no variable and one of
    its variables, ``T``, occurs in the rule only there and once more, as
    the lesser side of an order comparison (``T < X``, ``T <= X``,
    ``X > T``, ``X >= T``): not in the head, a negation, another atom or
    another comparison. Its groups are the values of the atom's unbound
    variables that the rule uses elsewhere. With ``T`` used nowhere else,
    only whether some ``T`` lies below ``X`` matters, and for integers that
    holds exactly when the least ``T`` of the group does."""
    pending: list[tuple[int, BodyItem]] = list(enumerate(rule.body))
    plan: list[PlanStep] = []
    bound: set[str] = set()
    # The variables on the lesser side of an order comparison.
    lesser: set[str] = set()
    for item in rule.body:
        if isinstance(item, Comparison) and item.op != "!=":
            side = item.lhs if item.op in ("<", "<=") else item.rhs
            if isinstance(side, Var):
                lesser.add(side.name)
    uses = variable_uses(rule)

    def positions(atom: Atom) -> tuple[int, ...]:
        return tuple(
            i for i, term in enumerate(atom.args)
            if not isinstance(term, Var) or term.name in bound
        )

    def least(atom: Atom) -> Least:
        names = [term.name for term in atom.args if isinstance(term, Var)]
        if len(names) != len(set(names)):
            return None
        for ts, term in enumerate(atom.args):
            if isinstance(term, Var) and term.name in lesser and uses[term.name] == 2:
                group = tuple(
                    i for i, other in enumerate(atom.args)
                    if isinstance(other, Var)
                    and other.name not in bound
                    and i != ts
                    and uses[other.name] > 1
                )
                return group, ts
        return None

    def flush_filters() -> None:
        # Filters bind nothing, so one pass places every ready filter.
        for i, item in list(pending):
            if isinstance(item, Literal) and not item.negated:
                continue
            if isinstance(item, Comparison):
                needs, bound_positions = item.variables(), ()
            else:
                needs, bound_positions = item.atom.variables(), positions(item.atom)
            if needs <= bound:
                plan.append((i, bound_positions, None))
                pending.remove((i, item))

    flush_filters()
    for i, item in list(pending):
        if isinstance(item, Literal) and not item.negated:
            plan.append((i, positions(item.atom), least(item.atom)))
            pending.remove((i, item))
            bound |= item.atom.variables()
            flush_filters()
    for _i, item in pending:
        needs = item.atom.variables() if isinstance(item, Literal) else item.variables()
        raise UnsafeRule(str(rule), min(needs - bound))
    recursive = tuple(
        i
        for i, item in enumerate(rule.body)
        if isinstance(item, Literal) and not item.negated and item.atom.predicate in local
    )
    return PlannedRule(rule, tuple(plan), recursive)
