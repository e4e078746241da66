"""Stratification and bottom-up evaluation of rule packs.

Stratification condenses the predicate dependency graph; a negative edge
inside a strongly connected component means the program has no perfect
model and raises NegationCycle. Each rule's body order is planned once, at
stratification, as written, with filters placed as soon as their variables
bind; the plan also records, for each literal, the argument positions bound
when it runs. Evaluation runs semi-naive within each stratum: after one
naive round, rules only re-fire with at least one current-stratum body atom
restricted to the facts new in the last round.

Facts live in a ``Relations`` store: the rows of each predicate plus hash
indexes per (predicate, bound positions), each built on its first lookup
and updated by every later add. A literal with bound positions is a lookup
on its index, a fully bound one a single membership test; a literal with
none, and the delta atom, are scanned. ``evaluate`` builds one store per
call. ``match_body`` checks a body against a store the caller builds, so
the confirmation checks of one sample share one store and its indexes.

Lone timestamps. An event rule such as ``h :- e(T1, P), f(T2, P), T1 < T2``
needs only some ``T1`` below ``T2``, so of the ``e`` rows sharing a ``P``
only the one with the least ``T1`` can matter. The planner marks a
positive atom for this per-group minimum (Soufflé's ``min`` aggregate,
applied where it is sound: Jordan, Scholz & Subotić, CAV 2016) when a
variable ``T`` in it occurs nowhere else in the rule but once, as the
lesser side of one order comparison, and the atom repeats no variable.
The atom then reads a minimum index: per value of its bound positions, one
row per distinct value of its other variables that the rule uses
elsewhere, the one with the least integer ``T``; rows whose ``T`` is not
an integer are all kept, so the comparison still raises on them. Any
``T`` below the other side implies the least one is, so the rule derives
the same heads, and an event rule's join grows with its rows, not with
the product of its two atoms' rows.
"""

import logging
from collections import Counter
from collections.abc import Collection, Iterable
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import NamedTuple

from ..errors import (
    ArityConflict,
    ComparisonTypeError,
    DeclarationConflict,
    NegationCycle,
    ResourceLimit,
    UnsafeRule,
)
from ..telemetry import Fact, FactBase
from .rules import Atom, BodyItem, Comparison, Literal, Rule, RulePack, Var

logger = logging.getLogger(__name__)

__all__ = [
    "StratifiedProgram",
    "DerivedFacts",
    "Relations",
    "stratify",
    "evaluate",
    "match_body",
]

DEFAULT_FACT_LIMIT = 10**6


# (group positions, timestamp position) of an atom read through a minimum
# index; None for a plain lookup.
Least = tuple[tuple[int, ...], int] | None
PlanStep = tuple[int, tuple[int, ...], Least]


class PlannedRule(NamedTuple):
    """A rule, its body order, and its positive current-stratum atoms.

    Each plan step is (body index, argument positions bound when the
    literal runs, minimum); a comparison's positions are empty, and the
    minimum is set only on an atom marked for the lone-timestamp
    rewrite."""

    rule: Rule
    plan: tuple[PlanStep, ...]
    recursive: tuple[int, ...]


@dataclass(frozen=True)
class StratifiedProgram:
    """Planned rules in dense strata; lower strata never depend on higher."""

    pack: RulePack
    strata: tuple[tuple[PlannedRule, ...], ...]
    stratum_of: dict[str, int]


@dataclass(frozen=True)
class DerivedFacts:
    """Output of evaluation: the intensional slice of the perfect model."""

    facts: FactBase


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
    return StratifiedProgram(
        pack=pack,
        strata=tuple(
            tuple(_plan_rule(rule, {r.head.predicate for r in group}) for rule in group)
            for group in strata
        ),
        stratum_of=pred_level,
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


# --- relations ------------------------------------------------------------------


class Relations:
    """The rows of each predicate, with hash indexes on bound positions.

    An index maps the values at some argument positions to the rows holding
    them. A minimum index keeps, per such key, only the row with the least
    integer at a timestamp position for each distinct value at its group
    positions, plus every row whose timestamp is not an integer. Each index
    is built on the first lookup by its positions, and every later ``add``
    updates it, so the store can grow while rules read it.
    """

    def __init__(self, facts: Iterable[Fact] = ()):
        self._rows: dict[str, set[tuple]] = {}
        self._arity: dict[str, int] = {}
        self._indexes: dict[str, dict[tuple[tuple[int, ...], Least], _Index]] = {}
        for fact in facts:
            self.add(fact.predicate, fact.args)

    def rows(self, predicate: str) -> Collection[tuple]:
        return self._rows.get(predicate, ())

    def add(self, predicate: str, row: tuple) -> bool:
        """Store a row; False when it was already there."""
        rows = self._rows.get(predicate)
        if rows is None:
            rows = self._rows[predicate] = set()
            self._arity[predicate] = len(row)
            self._indexes[predicate] = {}
        elif row in rows:
            return False
        rows.add(row)
        for index in self._indexes[predicate].values():
            index.file((row,))
        return True

    def lookup(
        self,
        predicate: str,
        positions: tuple[int, ...],
        key: tuple,
        least: Least = None,
    ) -> Collection[tuple]:
        """The rows whose values at ``positions`` (ascending) equal ``key``;
        with ``least`` = (group positions, timestamp position), only those
        a minimum index keeps."""
        rows = self._rows.get(predicate)
        if not rows:
            return ()
        if least is None:
            if not positions:
                return rows
            if len(positions) == self._arity[predicate]:
                return (key,) if key in rows else ()
        indexes = self._indexes[predicate]
        index = indexes.get((positions, least))
        if index is None:
            index = indexes[positions, least] = _Index(positions, least)
            index.file(rows)
        bucket = index.buckets.get(key)
        if bucket is None:
            return ()
        return bucket if least is None else bucket.values()


def _getter(positions: tuple[int, ...]):
    """A function from a row to the tuple of its values at ``positions``."""
    if len(positions) > 1:
        return itemgetter(*positions)
    if positions:
        (i,) = positions
        return lambda row: (row[i],)
    return lambda row: ()


# Keys the rows of a minimum index whose timestamp is not an integer apart
# from every group of values.
_NOT_INT = object()


class _Index:
    """The buckets of one index: per key, a list of rows, or for a minimum
    index a dict from group values (or ``_NOT_INT`` and the row) to a row."""

    __slots__ = ("key", "group", "ts", "buckets")

    def __init__(self, positions: tuple[int, ...], least: Least):
        self.key = _getter(positions)
        self.group = None if least is None else _getter(least[0])
        self.ts = None if least is None else least[1]
        self.buckets: dict[tuple, list[tuple] | dict[tuple, tuple]] = {}

    def file(self, rows: Iterable[tuple]) -> None:
        key_of, buckets = self.key, self.buckets
        if self.group is None:
            for row in rows:
                key = key_of(row)
                bucket = buckets.get(key)
                # Not setdefault, whose default list is built and dropped
                # on every call: that churn raised the peak RSS of repeated
                # 300-event hunts by about 0.5 MB.
                if bucket is None:
                    buckets[key] = [row]
                else:
                    bucket.append(row)
            return
        group_of, ts = self.group, self.ts
        for row in rows:
            key = key_of(row)
            bucket = buckets.get(key)
            if bucket is None:
                bucket = buckets[key] = {}
            value = row[ts]
            if not isinstance(value, int):
                bucket[_NOT_INT, row] = row
                continue
            group = group_of(row)
            kept = bucket.get(group)
            if kept is None or value < kept[ts]:
                bucket[group] = row


# --- evaluation -------------------------------------------------------------------


def evaluate(
    program: StratifiedProgram,
    base: FactBase,
    max_derived: int = DEFAULT_FACT_LIMIT,
) -> DerivedFacts:
    """Compute the perfect model and return its intensional slice.

    The base must be arity-consistent with the pack and contain only
    extensional predicates. Raises ResourceLimit past ``max_derived``
    derived facts.
    """
    pack = program.pack
    intensional = pack.intensional()
    for pred, arity in base.arity.items():
        declared = pack.arity_of(pred)
        if declared is not None and declared != arity:
            raise ArityConflict(pred, arity, declared)
        if pred in intensional:
            raise DeclarationConflict(pred, "intensional predicate given as input")

    relations = Relations(base)
    derived_total = 0
    for stratum_index, planned in enumerate(program.strata):
        # The first round (no delta yet) is naive over everything known so
        # far; in later rounds one recursive body atom ranges over the last
        # round's delta. Each firing is materialized before insertion so
        # rows and index buckets stay stable under the generator's iteration.
        delta: dict[str, set[tuple]] | None = None
        while delta is None or any(delta.values()):
            fresh: dict[str, set[tuple]] = {p.rule.head.predicate: set() for p in planned}
            for rule, plan, recursive in planned:
                sources = [(None, None)] if delta is None else [
                    (i, delta[rule.body[i].atom.predicate])
                    for i in recursive
                    if delta[rule.body[i].atom.predicate]
                ]
                head = rule.head.predicate
                for position, rows in sources:
                    for args in list(_fire(rule, plan, relations, position, rows)):
                        if relations.add(head, args):
                            fresh[head].add(args)
                            derived_total += 1
            _check_budget(derived_total, max_derived)
            delta = fresh
        logger.debug(
            "stratum %d fixpoint: %d facts derived so far", stratum_index, derived_total
        )

    out = FactBase()
    for pred in sorted(intensional):
        for args in relations.rows(pred):
            out.add(Fact(pred, args))
    return DerivedFacts(facts=out)


def _check_budget(total: int, limit: int) -> None:
    if total > limit:
        raise ResourceLimit(limit)


def _plan_rule(rule: Rule, local: set[str]) -> PlannedRule:
    """Order body items for evaluation: each positive atom in written order,
    with comparisons and negations placed as soon as their variables bind.
    Each literal records the argument positions bound when it runs: its
    constants and the variables earlier items bind. Positive atoms over
    ``local`` predicates are the recursive positions. Raises UnsafeRule when
    a comparison variable never binds.

    A positive atom is marked to read a minimum index (see ``Relations``)
    when it repeats no variable and one of its variables, ``T``, occurs in
    the rule only there and once more, as the lesser side of an order
    comparison (``T < X``, ``T <= X``, ``X > T``, ``X >= T``): not in the
    head, a negation, another atom or another comparison. Its groups are the
    values of the atom's unbound variables that the rule uses elsewhere.
    With ``T`` used nowhere else, only whether some ``T`` lies below ``X``
    matters, and for integers that holds exactly when the least ``T`` of
    the group does."""
    pending: list[tuple[int, BodyItem]] = list(enumerate(rule.body))
    plan: list[PlanStep] = []
    bound: set[str] = set()
    # Occurrences of each variable in the whole rule, and the variables on
    # the lesser side of an order comparison.
    terms = list(rule.head.args)
    lesser: set[str] = set()
    for item in rule.body:
        if isinstance(item, Literal):
            terms += item.atom.args
            continue
        terms += (item.lhs, item.rhs)
        side = item.lhs if item.op in ("<", "<=") else item.rhs
        if item.op != "!=" and isinstance(side, Var):
            lesser.add(side.name)
    uses = Counter(term.name for term in terms if isinstance(term, Var))

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
    # Safety guarantees rules leave no residue. Bare patterns skip the
    # safety check, so a negation may keep wildcard variables: it runs
    # last, as a lookup for any matching fact.
    for i, item in list(pending):
        if isinstance(item, Literal):
            plan.append((i, positions(item.atom), None))
            pending.remove((i, item))
    for _i, item in pending:
        raise UnsafeRule(str(rule), min(item.variables() - bound))
    recursive = tuple(
        i
        for i, item in enumerate(rule.body)
        if isinstance(item, Literal) and not item.negated and item.atom.predicate in local
    )
    return PlannedRule(rule, tuple(plan), recursive)


def _fire(
    rule: Rule,
    plan: tuple[PlanStep, ...],
    relations: Relations,
    delta_position: int | None,
    delta_relation: set[tuple] | None,
):
    """Yield head argument tuples derivable by one rule firing.

    A literal's rows come from the index on its bound positions (a minimum
    index for a marked atom), or from the delta relation when it is the
    delta position; they still pass through ``_match``, which checks
    repeated variables."""

    def step(plan_index: int, binding: dict[str, object]):
        if plan_index == len(plan):
            yield _substitute(rule.head, binding)
            return
        body_index, positions, least = plan[plan_index]
        item = rule.body[body_index]
        if isinstance(item, Comparison):
            if _compare(item, binding):
                yield from step(plan_index + 1, binding)
            return
        atom = item.atom
        if body_index == delta_position:
            rows = delta_relation
        else:
            key = tuple([_resolve(atom.args[i], binding) for i in positions])
            rows = relations.lookup(atom.predicate, positions, key, least)
        if not item.negated:
            for row in rows:
                extended = _match(atom, row, binding)
                if extended is not None:
                    yield from step(plan_index + 1, extended)
        # A negation holds only when no row matches; its unbound variables
        # act as wildcards.
        elif not any(_match(atom, row, binding) is not None for row in rows):
            yield from step(plan_index + 1, binding)

    yield from step(0, {})


def _match(atom: Atom, row: tuple, binding: dict) -> dict | None:
    if len(atom.args) != len(row):
        return None
    local = binding
    copied = False
    for term, value in zip(atom.args, row):
        if isinstance(term, Var):
            seen = local.get(term.name)
            if seen is None:
                if not copied:
                    local = dict(local)
                    copied = True
                local[term.name] = value
            elif seen != value:
                return None
        elif term != value:
            return None
    return local


def _substitute(atom: Atom, binding: dict) -> tuple:
    out = []
    for term in atom.args:
        if isinstance(term, Var):
            out.append(binding[term.name])
        else:
            out.append(term)
    return tuple(out)


def _resolve(term, binding: dict):
    if isinstance(term, Var):
        return binding[term.name]
    return term


def _compare(item: Comparison, binding: dict) -> bool:
    lhs = _resolve(item.lhs, binding)
    rhs = _resolve(item.rhs, binding)
    if item.op == "!=":
        return lhs != rhs
    if not isinstance(lhs, int) or not isinstance(rhs, int):
        raise ComparisonTypeError(
            f"order comparison on non-integer terms: {lhs!r} {item.op} {rhs!r}"
        )
    if item.op == "<":
        return lhs < rhs
    if item.op == "<=":
        return lhs <= rhs
    if item.op == ">":
        return lhs > rhs
    return lhs >= rhs


def match_body(body: tuple[BodyItem, ...], relations: Relations) -> bool:
    """Check whether a conjunction of literals has a satisfying binding in
    ``relations`` alone. Negation is closed-world over the store; variables
    a negated atom never binds act as wildcards (no matching row may
    exist). A body whose comparison variable never binds cannot match.
    Lookups build indexes in ``relations``, so checks that share one store
    share its indexes."""
    probe = _planned_probe(body)
    if probe is None:
        return False
    return next(_fire(probe.rule, probe.plan, relations, None, None), None) is not None


# Confirmation checks the same few pattern bodies of a pack again and
# again; a plan depends on the body alone.
@lru_cache(maxsize=1024)
def _planned_probe(body: tuple[BodyItem, ...]) -> PlannedRule | None:
    try:
        return _plan_rule(Rule(Atom("__match__"), body), set())
    except UnsafeRule:
        return None
