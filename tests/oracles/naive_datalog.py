"""Reference Datalog evaluator for cross-checking the engine.

Deliberately shares no machinery with the production engine: stratification
is an iterative level-bumping fixpoint (not SCC condensation), and rule
firing enumerates full cross products of the current relations on every
round (no semi-naive deltas, no join planning). Slow but obviously correct.
"""

import itertools

from planhunt.errors import ComparisonTypeError, NegationCycle
from planhunt.inference.rules import Atom, Comparison, Literal, Rule, RulePack, Var
from planhunt.inference.engine import Relations


def naive_strata(pack: RulePack) -> dict[str, int]:
    """Assign stratum levels by bumping until fixpoint.

    level(head) >= level(positive dep), level(head) >= level(negative dep)+1.
    If levels keep growing past the predicate count, some negation sits on a
    cycle and no stratification exists.
    """
    level = {p: 0 for p in pack.declared}
    bound = len(pack.declared) + 1
    for _ in range(bound * bound):
        changed = False
        for rule in pack.rules:
            head = rule.head.predicate
            for item in rule.body:
                if not isinstance(item, Literal):
                    continue
                need = level[item.atom.predicate] + (1 if item.negated else 0)
                if level[head] < need:
                    level[head] = need
                    changed = True
        if not changed:
            return level
        if max(level.values()) > bound:
            break
    cyclic = sorted(p for p, l in level.items() if l > bound)
    raise NegationCycle(tuple(cyclic) or tuple(sorted(pack.declared)))


def _bind_term(term, binding):
    if isinstance(term, Var):
        return binding[term.name]
    return term


def _match_atom(atom: Atom, row: tuple, binding: dict) -> dict | None:
    if len(atom.args) != len(row):
        return None
    new = dict(binding)
    for term, value in zip(atom.args, row):
        if isinstance(term, Var):
            if term.name in new:
                if new[term.name] != value:
                    return None
            else:
                new[term.name] = value
        elif term != value:
            return None
    return new


def _comparison_holds(item: Comparison, binding: dict) -> bool:
    lhs = _bind_term(item.lhs, binding)
    rhs = _bind_term(item.rhs, binding)
    if item.op == "!=":
        return lhs != rhs
    if not (isinstance(lhs, int) and isinstance(rhs, int)):
        raise ComparisonTypeError(f"{item.op} needs integers, got {lhs!r}, {rhs!r}")
    if item.op == "<":
        return lhs < rhs
    if item.op == "<=":
        return lhs <= rhs
    if item.op == ">":
        return lhs > rhs
    if item.op == ">=":
        return lhs >= rhs
    raise AssertionError(item.op)


def _fire_rule(rule: Rule, relations: dict[str, set[tuple]]) -> set[tuple]:
    positives = [
        item for item in rule.body if isinstance(item, Literal) and not item.negated
    ]
    others = [
        item
        for item in rule.body
        if isinstance(item, Comparison) or (isinstance(item, Literal) and item.negated)
    ]
    pools = [sorted(relations.get(lit.atom.predicate, set())) for lit in positives]
    produced: set[tuple] = set()
    for rows in itertools.product(*pools):
        binding: dict | None = {}
        for lit, row in zip(positives, rows):
            binding = _match_atom(lit.atom, row, binding)
            if binding is None:
                break
        if binding is None:
            continue
        ok = True
        for item in others:
            if isinstance(item, Comparison):
                if not _comparison_holds(item, binding):
                    ok = False
                    break
            else:
                ground = tuple(_bind_term(t, binding) for t in item.atom.args)
                assert all(not isinstance(v, Var) for v in ground), (
                    "unsafe negation reached the oracle"
                )
                if ground in relations.get(item.atom.predicate, set()):
                    ok = False
                    break
        if not ok:
            continue
        head_row = tuple(_bind_term(t, binding) for t in rule.head.args)
        assert all(not isinstance(v, Var) for v in head_row), (
            "unsafe head reached the oracle"
        )
        produced.add(head_row)
    return produced


def evaluate_naive(pack: RulePack, base: Relations) -> Relations:
    """Return the intensional slice of the perfect model, the slow way."""
    level = naive_strata(pack)
    relations: dict[str, set[tuple]] = {}
    for fact in base:
        relations.setdefault(fact.predicate, set()).add(fact.args)

    for stratum in sorted(set(level.values())):
        rules = [r for r in pack.rules if level[r.head.predicate] == stratum]
        while True:
            grew = False
            for rule in rules:
                for row in _fire_rule(rule, relations):
                    bucket = relations.setdefault(rule.head.predicate, set())
                    if row not in bucket:
                        bucket.add(row)
                        grew = True
            if not grew:
                break

    out = Relations()
    intensional = pack.intensional()
    for predicate, rows in relations.items():
        if predicate in intensional:
            for row in rows:
                out.add(predicate, row)
    return out
