"""Bottom-up evaluation of stratified rule packs on one fact store.

``saturate`` runs a ``StratifiedProgram`` (see ``inference.strata``) over
a caller's store, semi-naive within each stratum: after one naive round, a
rule only re-fires with one current-stratum body atom restricted to the
rows new in the last round. A caller that extends a model it saturated
before passes the rows it added as a delta: every stratum then skips the
naive round and starts from the delta, through every body atom that reads
it.

Facts live in a ``Relations`` store, the one fact container of the
pipeline: the rows of each predicate plus hash indexes per (predicate,
bound positions), each built on its first lookup and updated by every later
add. An index other than a plain one on one position is partitioned on its
first position: it files the rows at a value there on that value's first
lookup, from the plain index on that position, which the predicate's
indexes share (after Subotić et al., PVLDB 2018), so it files only the
values rules read. Telemetry fills a store with the extensional rows;
``evaluate`` saturates an overlay of it, which shares its rows and indexes,
and returns the overlay with the derived rows, and confirmation probes that
model with ``Relations.holds``. Grounding seeds a store of its own and
reads its model straight from it; on a static world, that store is an
overlay of the world's saturated store.

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
from collections.abc import Callable, Collection, Iterable, Sequence
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
    "check_budget",
    "evaluate",
]

# The count budget: the derived rows a store may hold; see Relations.spent.
FACT_LIMIT = 10**6

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
    updates it (a partitioned one only at values it has filed), so the
    store can grow while rules read it. ``arity`` maps each predicate to
    the arity of its rows; a row of another arity raises ArityConflict.

    As a set of facts, the store has one ``Fact`` per row: its length
    counts rows over all predicates, and two stores are equal when they
    hold the same rows. ``spent`` counts the rows ``saturate`` derived into
    the store, an overlay's from its base's count on, against ``FACT_LIMIT``.
    """

    def __init__(self, facts: Iterable[Fact] = ()):
        self.spent = 0
        self._rows: dict[str, set[tuple]] = {}
        self.arity: dict[str, int] = {}
        self._indexes: dict[str, dict[tuple[tuple[int, ...], Least], _Index]] = {}
        for fact in facts:
            self.add(fact.predicate, fact.args)

    def rows(self, predicate: str) -> Collection[tuple]:
        return self._rows.get(predicate, ())

    def overlay(self) -> "Relations":
        """A store with this one's rows and ``spent`` that reads its rows and
        indexes and copies a predicate's rows only when it adds a row to it,
        so the predicates it leaves alone cost nothing. This store must not
        change while the overlay is in use."""
        out = _Overlay()
        out.spent = self.spent
        out._rows = dict(self._rows)
        out.arity = dict(self.arity)
        out._indexes = dict(self._indexes)
        out._borrowed = set(self._rows)
        return out

    def __reduce__(self):
        # Indexes hold closures, which do not pickle; lookups rebuild them.
        # An overlay pickles as a plain store of its rows.
        state = {"_rows": self._rows, "arity": self.arity, "spent": self.spent,
                 "_indexes": {p: {} for p in self._rows}}
        return Relations, (), state

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
            if index.filed is None or row[index.first] in index.filed:
                index.file((row,))
        return True

    def update(self, predicate: str, rows: Sequence[tuple]) -> None:
        """Store many rows of one predicate: as one set when the store holds
        none of its rows yet and they share one arity."""
        if predicate not in self._rows and rows and len(set(map(len, rows))) == 1:
            self._rows[predicate] = set(rows)
            self.arity[predicate] = len(rows[0])
            self._indexes[predicate] = {}
        else:
            for row in rows:
                self.add(predicate, row)

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
        index = self._indexes[predicate].get((positions, least))
        if index is None:
            index = self._new_index(predicate, positions, least)
        bucket = index.buckets.get(key)
        if bucket is None:
            filed = index.filed
            if filed is None or key[0] in filed:
                return ()
            filed.add(key[0])
            index.file(index.partition.buckets.get(key[:1], ()))
            bucket = index.buckets.get(key, ())
        return bucket if least is None or not bucket else bucket.values()

    def _new_index(self, predicate: str, positions: tuple[int, ...], least: Least) -> "_Index":
        """A new index on ``positions``: filed with every row, or
        partitioned (see the module docstring)."""
        indexes = self._indexes[predicate]
        index = indexes[positions, least] = _Index(positions, least)
        if len(positions) > 1 or (positions and least is not None):
            first = positions[:1]
            index.partition = indexes.get((first, None)) or self._new_index(predicate, first, None)
            index.filed = set()
        else:
            index.file(self._rows[predicate])
        return index


class _Overlay(Relations):
    """A store over another's rows and indexes; see ``Relations.overlay``.
    ``_borrowed`` holds the predicates whose rows it still shares."""

    def add(self, predicate: str, row: tuple) -> bool:
        if predicate in self._borrowed:
            rows = self._rows[predicate]
            if row in rows:
                return False
            self._borrowed.discard(predicate)
            self._rows[predicate] = set(rows)
            self._indexes[predicate] = {}
        return super().add(predicate, row)


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
    index a dict from group values to a row. A partitioned index holds
    only the rows whose first-position value is in ``filed``; the rest
    wait in ``partition``, the plain index on that position."""

    __slots__ = ("key", "group", "ts", "buckets", "first", "filed", "partition")

    def __init__(self, positions: tuple[int, ...], least: Least):
        self.key = _getter(positions)
        self.group = None if least is None else _getter(least[0])
        self.ts = None if least is None else least[1]
        self.buckets: dict[tuple, list[tuple] | dict[tuple, tuple]] = {}
        self.first = positions[0] if positions else None
        self.filed: set | None = None
        self.partition: _Index | None = None

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


def evaluate(program: StratifiedProgram, base: Relations) -> DerivedFacts:
    """Compute the perfect model over ``base``, which is left unchanged:
    its intensional facts, and a store holding base and derived rows for
    later ``holds`` probes.

    The base must be arity-consistent with the pack and contain only
    extensional predicates. Raises ResourceLimit as ``saturate`` does.
    """
    for pred in base.arity:
        if pred in program.intensional:
            raise DeclarationConflict(pred, "intensional predicate given as input")
    relations = base.overlay()
    saturate(program, relations)
    out = Relations()
    for pred in sorted(program.intensional):
        for args in relations.rows(pred):
            out.add(pred, args)
    return DerivedFacts(facts=out, relations=relations)


def saturate(
    program: StratifiedProgram,
    relations: Relations,
    delta: dict[str, Collection[tuple]] | None = None,
) -> None:
    """Add the program's perfect model to ``relations``, taking the rows it
    holds as facts, at their declared arities: rows of an intensional
    predicate hold as if bodiless rules stated them. The rows derived are
    added to the store's ``spent``, once per round; past ``FACT_LIMIT``,
    on entry or after a round, raises ResourceLimit.

    A caller that extends a model passes the rows it added as ``delta``
    (per predicate, rows the store holds): the store must hold the
    program's model of its other rows. Each stratum then starts its
    semi-naive rounds from the delta and the rows earlier strata derive
    from it, skipping the naive round. That is sound only when no rule
    reads negated a row the delta adds or derives that could retract a
    row of that model.
    """
    for pred, arity in relations.arity.items():
        declared = program.pack.arity_of(pred)
        if declared is not None and declared != arity:
            raise ArityConflict(pred, arity, declared)

    spent = relations.spent
    check_budget(spent)
    # Per predicate, the rows new to the store in this call.
    changed = None if delta is None else {pred: list(rows) for pred, rows in delta.items()}
    for stratum_index, planned in enumerate(program.strata):
        readers = program.readers[stratum_index]
        # A naive first round (no delta rows) reads everything known so far;
        # in later rounds, and in every round of an extension, one body atom
        # ranges over the delta rows. Each firing is materialized before
        # insertion so rows and index buckets stay stable while the kernel
        # reads them.
        if changed is None:
            firings = [(rule, None, None) for rule in planned]
        else:
            firings = _firings(readers, changed)
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
                        spent += 1
            relations.spent = spent
            check_budget(spent)
            if changed is not None:
                for pred, rows in fresh.items():
                    changed.setdefault(pred, []).extend(rows)
            firings = _firings(readers, fresh)
        logger.debug("stratum %d fixpoint: %d rows derived into the store", stratum_index, spent)


def _firings(readers: dict, rows_of: dict[str, list[tuple]]) -> list[tuple]:
    """(rule, delta position, rows) for each reader of each predicate's rows."""
    return [
        (rule, position, rows)
        for pred, rows in rows_of.items()
        if rows
        for rule, position in readers.get(pred, ())
    ]


def check_budget(spent: int) -> None:
    """Raise ResourceLimit when ``spent`` derived rows exceed ``FACT_LIMIT``."""
    if spent > FACT_LIMIT:
        raise ResourceLimit(FACT_LIMIT)


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
