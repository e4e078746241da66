"""Bottom-up evaluation of stratified rule packs on one fact store.

``saturate`` runs a ``StratifiedProgram`` (see ``inference.strata``) over
a caller's store, semi-naive within each stratum: after one naive round, a
rule only re-fires with one current-stratum body atom restricted to the
rows new in the last round.

Facts live in a ``Relations`` store, the one fact container of the
pipeline: the rows of each predicate plus hash indexes per (predicate,
bound positions), each built on its first lookup and updated by every later
add. Telemetry fills a store with the extensional rows; ``evaluate``
saturates a copy of it and returns that copy with the derived rows, and
confirmation probes that copy's model with ``Relations.holds``.
Grounding seeds a store of its own and reads its model straight from it.

Kernels. A planned rule runs as a kernel, one per delta position (or none,
for the naive round), compiled from its plan on first use: a chain of
closures, one per plan step, over a list of slots. Each variable the rule
reads again gets a slot, numbered in binding order, and each constant one
after them, so a step's lookup key and the head are itemgetters over the
slots. A literal with bound positions is a lookup on its index, a fully
bound one a single membership test, and one with none a scan; the delta
atom scans the last round's rows and checks its bound positions itself.
A positive atom binds its new variables in place, one slice assignment per
row, and checks a repeated variable against its first occurrence; an atom
that binds nothing only needs some row. Heads go to a sink.

Lone timestamps. An event rule such as ``h :- e(T1, P), f(T2, P), T1 < T2``
needs only some ``T1`` below ``T2``, so of the ``e`` rows sharing a ``P``
only the one with the least ``T1`` can matter. The planner marks such an
atom (Soufflé's ``min`` aggregate, applied where it is sound: Jordan,
Scholz & Subotić, CAV 2016), and the atom reads a minimum index: per value
of its bound positions, one row per distinct value of its other variables
that the rule uses elsewhere, the one with the least integer ``T``. Rows
whose ``T`` is not an integer are all kept, so the comparison raises on
them. Any ``T`` below the other side implies the least one is, so the
rule derives the same heads, and an event rule's join grows with its rows,
not with the product of its two atoms' rows.
"""

import logging
from collections.abc import Callable, Collection, Iterable
from dataclasses import dataclass
from operator import ge, gt, itemgetter, le, lt

from ..errors import ArityConflict, ComparisonTypeError, DeclarationConflict, ResourceLimit
from .rules import Comparison, Literal, Rule, Var
from .strata import Least, PlannedRule, PlanStep, StratifiedProgram, stratify, variable_uses

logger = logging.getLogger(__name__)

__all__ = [
    "Fact",
    "StratifiedProgram",
    "DerivedFacts",
    "Relations",
    "stratify",
    "saturate",
    "evaluate",
]

DEFAULT_FACT_LIMIT = 10**6

# A head sink, called once per derived head.
Sink = Callable[[tuple], None]
# A compiled rule: (store, delta rows or None, sink).
Kernel = Callable[["Relations", Collection[tuple] | None, Sink], None]


@dataclass(frozen=True)
class Fact:
    """One row of a predicate, as the store's iteration yields it."""

    predicate: str
    args: tuple[str | int, ...] = ()

    def __str__(self) -> str:
        if not self.args:
            return f"{self.predicate}."
        rendered = ",".join(str(a) for a in self.args)
        return f"{self.predicate}({rendered})."


@dataclass(frozen=True)
class DerivedFacts:
    """Output of evaluation: the intensional slice of the perfect model,
    and the store that holds the whole model with its indexes."""

    facts: "Relations"
    relations: "Relations"


# --- relations ------------------------------------------------------------------


class Relations:
    """The rows of each predicate, with hash indexes on bound positions.

    An index maps the values at some argument positions to the rows holding
    them. A minimum index keeps, per such key, only the row with the least
    integer at a timestamp position for each distinct value at its group
    positions, and every row whose timestamp is not an integer. Each index
    is built on the first lookup by its positions, and every later ``add``
    updates it, so the store can grow while rules read it. ``arity`` maps
    each predicate to the arity of its rows; a row of another arity raises
    ArityConflict.

    As a set of facts, the store has one ``Fact`` per row: its length
    counts rows over all predicates, and two stores are equal when they
    hold the same rows.
    """

    def __init__(self, facts: Iterable[Fact] = ()):
        self._rows: dict[str, set[tuple]] = {}
        self.arity: dict[str, int] = {}
        self._indexes: dict[str, dict[tuple[tuple[int, ...], Least], _Index]] = {}
        for fact in facts:
            self.add(fact.predicate, fact.args)

    def rows(self, predicate: str) -> Collection[tuple]:
        return self._rows.get(predicate, ())

    def copy(self) -> "Relations":
        """A store with the same rows and no indexes."""
        out = Relations()
        out._rows = {pred: set(rows) for pred, rows in self._rows.items()}
        out.arity = dict(self.arity)
        out._indexes = {pred: {} for pred in self._rows}
        return out

    def __len__(self) -> int:
        return sum(map(len, self._rows.values()))

    def __iter__(self):
        for pred, rows in self._rows.items():
            for row in rows:
                yield Fact(pred, row)

    def __contains__(self, fact: Fact) -> bool:
        return fact.args in self._rows.get(fact.predicate, ())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Relations) and self._rows == other._rows

    def sorted(self) -> list[Fact]:
        return sorted(self, key=lambda f: (f.predicate, tuple(map(str, f.args))))

    def add(self, predicate: str, row: tuple) -> bool:
        """Store a row; False when it was already there."""
        rows = self._rows.get(predicate)
        if rows is None:
            rows = self._rows[predicate] = set()
            self.arity[predicate] = len(row)
            self._indexes[predicate] = {}
        elif row in rows:
            return False
        elif len(row) != self.arity[predicate]:
            raise ArityConflict(predicate, len(row), self.arity[predicate])
        rows.add(row)
        for index in self._indexes[predicate].values():
            index.file((row,))
        return True

    def holds(self, predicate: str, pattern: tuple) -> bool:
        """Whether some row of ``predicate`` matches ``pattern``, where None
        matches any value; a pattern of another arity matches no row. The
        lookup builds or reuses the index on the pattern's bound positions."""
        if len(pattern) != self.arity.get(predicate, len(pattern)):
            return False
        positions = tuple(i for i, value in enumerate(pattern) if value is not None)
        return bool(self.lookup(predicate, positions, tuple(pattern[i] for i in positions)))

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
            if len(positions) == self.arity[predicate]:
                return (key,) if key in rows else ()
        indexes = self._indexes[predicate]
        index = indexes.get((positions, least))
        if index is None:
            index = indexes[positions, least] = _Index(positions, least)
            index.file(rows)
        bucket = index.buckets.get(key, ())
        return bucket if least is None or not bucket else bucket.values()


def _getter(positions: tuple[int, ...]):
    """A function from a sequence to the tuple of its values at ``positions``."""
    if len(positions) > 1:
        return itemgetter(*positions)
    if positions:
        (i,) = positions
        return lambda row: (row[i],)
    return lambda row: ()


class _Index:
    """The buckets of one index: per key, a list of rows, or for a minimum
    index a dict from group values to a row."""

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
            value = row[ts]
            # A row whose timestamp is not an integer is kept under itself,
            # which no group tuple equals, being longer.
            group = group_of(row) if isinstance(value, int) else row
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = {group: row}
                continue
            kept = bucket.get(group)
            if kept is None or value < kept[ts]:
                bucket[group] = row


# --- evaluation -------------------------------------------------------------------


def evaluate(
    program: StratifiedProgram,
    base: Relations,
    max_derived: int = DEFAULT_FACT_LIMIT,
) -> DerivedFacts:
    """Compute the perfect model over ``base``, which is left unchanged:
    its intensional facts, and a store holding base and derived rows for
    later ``holds`` probes.

    The base must be arity-consistent with the pack and contain only
    extensional predicates. Raises ResourceLimit past ``max_derived``
    derived facts.
    """
    relations = base.copy()
    saturate(program, relations, max_derived)
    out = Relations()
    for pred in sorted(program.intensional):
        for args in relations.rows(pred):
            out.add(pred, args)
    return DerivedFacts(facts=out, relations=relations)


def saturate(
    program: StratifiedProgram,
    relations: Relations,
    max_derived: int = DEFAULT_FACT_LIMIT,
) -> None:
    """Add the program's perfect model to ``relations``, which must hold
    only extensional predicates at their declared arities. Raises
    ResourceLimit past ``max_derived`` derived rows."""
    for pred, arity in relations.arity.items():
        declared = program.pack.arity_of(pred)
        if declared is not None and declared != arity:
            raise ArityConflict(pred, arity, declared)
        if pred in program.intensional:
            raise DeclarationConflict(pred, "intensional predicate given as input")

    derived_total = 0
    for stratum_index, planned in enumerate(program.strata):
        readers = program.readers[stratum_index]
        # The first round (no delta yet) is naive over everything known so
        # far; in later rounds one recursive body atom ranges over the last
        # round's delta. Each firing is materialized before insertion so
        # rows and index buckets stay stable while the kernel reads them.
        firings = [(rule, None, None) for rule in planned]
        while firings:
            fresh: dict[str, list[tuple]] = {}
            for rule, position, rows in firings:
                heads: list[tuple] = []
                _kernel(rule, position)(relations, rows, heads.append)
                if not heads:
                    continue
                head = rule.rule.head.predicate
                new = fresh.get(head)
                if new is None:
                    new = fresh[head] = []
                for args in heads:
                    if relations.add(head, args):
                        new.append(args)
                        derived_total += 1
            _check_budget(derived_total, max_derived)
            firings = [
                (rule, position, rows)
                for pred, rows in fresh.items()
                if rows
                for rule, position in readers.get(pred, ())
            ]
        logger.debug(
            "stratum %d fixpoint: %d facts derived so far", stratum_index, derived_total
        )


def _check_budget(total: int, limit: int) -> None:
    if total > limit:
        raise ResourceLimit(limit)


# --- kernels ------------------------------------------------------------------------


def _kernel(rule: PlannedRule, delta: int | None) -> Kernel:
    """The rule's kernel whose body atom ``delta`` scans the delta rows,
    compiled on first use."""
    kernel = rule.kernels.get(delta)
    if kernel is None:
        kernel = rule.kernels[delta] = _compile(rule.rule, rule.plan, delta)
    return kernel


def _compile(rule: Rule, plan: tuple[PlanStep, ...], delta: int | None) -> Kernel:
    """Compile a planned rule into a kernel whose body atom ``delta`` (a
    body index, or None) scans the rows the kernel is given.

    Variables get slots in binding order, so the new variables of one atom
    fill consecutive slots; a variable the rule reads nowhere else gets
    none. Constants get the slots after them, filled in the template each
    call copies. Steps are built from the last one back; each calls the
    next with (slots, store, delta rows, sink)."""
    uses = variable_uses(rule)
    slot_of: dict[str, int] = {}
    for body_index, _positions, _least in plan:
        item = rule.body[body_index]
        if isinstance(item, Literal) and not item.negated:
            for term in item.atom.args:
                if isinstance(term, Var) and uses[term.name] > 1:
                    slot_of.setdefault(term.name, len(slot_of))
    constants: list = []

    def ref(term) -> int:
        if isinstance(term, Var):
            return slot_of[term.name]
        constants.append(term)
        return len(slot_of) + len(constants) - 1

    makers = []
    for body_index, positions, least in plan:
        item = rule.body[body_index]
        if isinstance(item, Comparison):
            makers.append((_test_step, item, ref(item.lhs), ref(item.rhs)))
            continue
        atom = item.atom
        key = _getter(tuple(ref(atom.args[i]) for i in positions))
        if item.negated:
            # A safe rule binds every variable of a negated atom before it
            # runs, so its key is the whole row.
            makers.append((_negation_step, atom.predicate, key))
            continue
        # The variables this atom binds, at their first position, and each
        # repeat as (position, first position).
        first: dict[str, int] = {}
        repeats: list[tuple[int, int]] = []
        for i, term in enumerate(atom.args):
            if isinstance(term, Var) and i not in positions:
                if term.name in first:
                    repeats.append((i, first[term.name]))
                else:
                    first[term.name] = i
        same = None
        if repeats:
            same = (_getter(tuple(i for i, _ in repeats)), _getter(tuple(j for _, j in repeats)))
        binds = tuple(i for name, i in first.items() if name in slot_of)
        lo = slot_of[atom.args[binds[0]].name] if binds else 0
        if body_index == delta:
            makers.append((_delta_step, _getter(positions), key, same, lo, binds))
        else:
            makers.append((_atom_step, atom.predicate, positions, key, least, same, lo, binds))

    head = _getter(tuple(ref(term) for term in rule.head.args))

    def step(s, rel, rows, sink):
        sink(head(s))

    for make, *spec in reversed(makers):
        step = make(step, *spec)
    template = [None] * len(slot_of) + constants

    def kernel(rel: Relations, rows: Collection[tuple] | None, sink: Sink) -> None:
        step(template.copy(), rel, rows, sink)

    return kernel


def _test_step(nxt, item: Comparison, a: int, b: int):
    if item.op == "!=":
        def step(s, rel, rows, sink):
            if s[a] != s[b]:
                nxt(s, rel, rows, sink)
        return step
    pair = itemgetter(a, b)

    def step(s, rel, rows, sink):
        # ``_compare`` is looked up on each call, so tests can count calls.
        if _compare(item, pair(s)):
            nxt(s, rel, rows, sink)
    return step


def _negation_step(nxt, predicate, row):
    def step(s, rel, rows, sink):
        if row(s) not in rel.rows(predicate):
            nxt(s, rel, rows, sink)
    return step


def _atom_step(nxt, predicate, positions, key, least, same, lo, binds):
    """A positive atom read through its index: rows pass the repeat check
    ``same`` and bind the values at ``binds`` into slots ``lo`` on."""
    if same is not None:
        left, right = same
        bind, hi = _getter(binds), lo + len(binds)

        def step(s, rel, rows, sink):
            for row in rel.lookup(predicate, positions, key(s), least):
                if left(row) == right(row):
                    s[lo:hi] = bind(row)
                    nxt(s, rel, rows, sink)
        return step
    if not binds:
        # Every row leads to the same continuation.
        def step(s, rel, rows, sink):
            if rel.lookup(predicate, positions, key(s), least):
                nxt(s, rel, rows, sink)
        return step
    if len(binds) == 1:
        (i,) = binds

        def step(s, rel, rows, sink):
            for row in rel.lookup(predicate, positions, key(s), least):
                s[lo] = row[i]
                nxt(s, rel, rows, sink)
        return step
    bind, hi = itemgetter(*binds), lo + len(binds)

    def step(s, rel, rows, sink):
        for row in rel.lookup(predicate, positions, key(s), least):
            s[lo:hi] = bind(row)
            nxt(s, rel, rows, sink)
    return step


def _delta_step(nxt, at, key, same, lo, binds):
    """The delta atom: it scans the rows the kernel was given, so it checks
    their bound positions (``at``) against the key itself."""
    left, right = same or (_getter(()), _getter(()))
    bind, hi = _getter(binds), lo + len(binds)

    def step(s, rel, rows, sink):
        want = key(s)
        for row in rows:
            if at(row) == want and left(row) == right(row):
                s[lo:hi] = bind(row)
                nxt(s, rel, rows, sink)
    return step


def _compare(item: Comparison, values: tuple) -> bool:
    """An order comparison of two bound values, which must be integers."""
    lhs, rhs = values
    if not isinstance(lhs, int) or not isinstance(rhs, int):
        raise ComparisonTypeError(
            f"order comparison on non-integer terms: {lhs!r} {item.op} {rhs!r}"
        )
    return _ORDER[item.op](lhs, rhs)


_ORDER = {"<": lt, "<=": le, ">": gt, ">=": ge}
