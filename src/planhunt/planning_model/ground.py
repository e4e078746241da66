"""Typed grounding: schemas x objects -> propositional task.

Grounding is a rule program evaluated by ``inference.engine``: each domain
compiles once into Datalog exploration rules (Helmert, "Concise
finite-domain representations for PDDL planning tasks", AIJ 2009) whose
model is the delete-relaxed reachable atoms and the actions that can fire
under the relaxation, so its cost follows that output, not the typed
bindings. The parser keeps each precondition in disjunctive normal form;
each disjunct becomes its own ground action (identical effects) whose name
gains a ``~orN`` suffix when a schema has more than one disjunct.

Static atoms (predicate never occurring in any effect) are init checks, not
state variables. The applicability rules join static precondition literals
against the init, so a ground action's static preconditions hold in every
state and leave its masks; a static goal atom is checked against the init
once, and the task's atom indices cover only the fluent reachable atoms.
Negative literals and deletes over atoms that can never become true are
dropped.

A problem seeds a ``Relations`` store with rows: its init atoms, each as
a row of its own predicate, and one type row per object and parameter type
it belongs to, found by walking the object's type chain once.
``state.build_problem`` builds every problem on its bundle's static world
(``state.StaticWorld``, checked when the assets load). The world's model
is a store of the rows of the world's atoms, its objects and the domain's
constants, saturated under the program once per world, on the first
grounding. Grounding a problem on the world reads that model through an
overlay, adds only the problem's own rows, and extends the model from them
as a delta (every stratum's semi-naive rounds start from those rows), so
the per-problem work does not grow with the world. A problem whose own
rows reach a static predicate that some rule reads negated, or a problem
without a world, such as a hand-made one, or a copy of a built problem
whose init is no longer a ``WorldAtoms`` view or whose objects are no
longer a ``ChainMap``, is seeded from an empty store and saturated from
scratch. The task is decoded from the fluent and applicability rows; no
fact objects are built on the way.

A sample's hypotheses share one problem and differ only in the goal
(``state.pose``), so the world keeps a memo of its last grounding: the task
without its goal and the store's ``spent``, under the rows it added (the
problem's own atoms and objects). A problem with equal rows takes that
task, its ``spent`` checked against the budget again, so the budget trips
at the same limits; a failed grounding stores nothing.

A goal is a set of ground atoms that must all hold, so the task keeps it as
one mask. A goal atom that cannot hold in any state, a fluent one outside
the reachable atoms or a static one outside the init, leaves the task
without a goal mask, and the planner answers ``no_plan`` without search.
"""

import logging
from bisect import bisect_left
from collections import ChainMap
from dataclasses import dataclass

from ..inference.engine import Relations, StratifiedProgram, check_budget, saturate, stratify
from ..inference.rules import Atom, Literal, Rule, Var, rule_pack
from .model import DomainModel, FAtom, GroundAtom, ProblemInstance, WorldAtoms

logger = logging.getLogger(__name__)

__all__ = [
    "GroundAction",
    "GroundedTask",
    "explore_domain",
    "add_rows",
    "ground_task",
]


@dataclass(frozen=True)
class GroundAction:
    """One ground action with bitmask views over the task's atom universe."""

    name: str  # schema name plus ~orN suffix for compiled disjuncts
    schema: str
    args: tuple[str, ...]
    disjunct: int | None
    cost: int
    pre_pos: int
    pre_neg: int
    add: int
    delete: int

    def render(self) -> str:
        return f"({' '.join((self.name, *self.args))})"


@dataclass(frozen=True)
class GroundedTask:
    """A propositional task: indexed atoms, bitmask init and goal, actions.

    Atom indices are a bijection onto the fluent delete-relaxed reachable
    atoms, in sorted order; a static atom (its predicate occurs in no
    effect) never changes, so grounding checks it once against the initial
    state and leaves it out of the masks. Action order (the tie-break order
    for plan enumeration) follows schema declaration order, then parameter
    binding order over alphabetically sorted objects, then disjunct index.
    ``goal`` is the mask of the goal atoms, or None when one of them cannot
    hold in any state.
    """

    atoms: tuple[GroundAtom, ...]
    actions: tuple[GroundAction, ...]
    init: int
    goal: int | None

    def satisfies_goal(self, state: int) -> bool:
        return self.goal is not None and state & self.goal == self.goal

    def find_action(self, name: str, args: tuple[str, ...]) -> int | None:
        for i, action in enumerate(self.actions):
            if action.name == name and action.args == args:
                return i
        return None

    @classmethod
    def assemble(cls, atoms, action_specs, init_atoms, goal_atoms) -> "GroundedTask":
        """Build a task from symbolic pieces (used directly by test task
        generators; ground_task goes through here too).

        ``action_specs`` rows: (name, schema, args, disjunct, pre_pos,
        pre_neg, add, delete, cost), the four middle entries being atom
        collections that become the action's bitmasks. ``goal_atoms`` is a
        collection of atoms that must all hold, or None for a goal that
        cannot hold.
        """
        atoms = tuple(atoms)
        index = {atom: i for i, atom in enumerate(atoms)}

        def mask(atom_iter) -> int:
            out = 0
            for atom in atom_iter:
                out |= 1 << index[atom]
            return out

        actions = tuple(
            GroundAction(
                name=name,
                schema=schema,
                args=tuple(args),
                disjunct=disjunct,
                cost=cost,
                pre_pos=mask(pre_pos),
                pre_neg=mask(pre_neg),
                add=mask(add),
                delete=mask(delete),
            )
            for name, schema, args, disjunct, pre_pos, pre_neg, add, delete, cost
            in action_specs
        )
        if goal_atoms is not None and not all(a in index for a in goal_atoms):
            goal_atoms = None
        return cls(
            atoms=atoms,
            actions=actions,
            init=mask(init_atoms),
            goal=None if goal_atoms is None else mask(goal_atoms),
        )


# --- grounding ---------------------------------------------------------------------

# Generated predicate names hold a space, which no PDDL name can contain.
TYPE = "type {}"


@dataclass(frozen=True)
class Exploration:
    """A domain's grounding rule program and what decoding its model needs."""

    program: StratifiedProgram
    # predicates some effect mentions
    fluents: frozenset[str]
    # parameter type -> its TYPE relation
    types: dict[str, str]
    # applicability predicate -> (schema index, disjunct or 0, fluent pre+,
    # fluent pre-); static literals hold wherever the predicate has a row
    actions: dict[str, tuple[int, int, list[FAtom], list[FAtom]]]
    # the static predicates some rule reads negated
    negated: frozenset[str]


def explore_domain(domain: DomainModel) -> Exploration:
    """Compile a domain into its grounding rule program.

    Init atoms are given rows of their predicates, fluent (some effect
    mentions it) or static alike. Each schema disjunct gets one applicability rule whose body joins its
    positive literals as written, one type literal per parameter, its static
    negative literals and negated guards against contradictory bindings;
    fluent negative literals and deletes are relaxed away. Each add effect
    gets one rule deriving its atom from the applicability predicate.
    """
    arity = {a.predicate: len(a.args) for s in domain.actions for a in (*s.add, *s.delete)}
    static = set(domain.predicates) - set(arity)
    rules: list[Rule] = []
    actions = {}
    negated: set[str] = set()
    for index, schema in enumerate(domain.actions):
        params = tuple(p.name for p in schema.parameters)
        typing = [FAtom(TYPE.format(p.type), (p.name,)) for p in schema.parameters]
        for d_index, disjunct in enumerate(schema.precondition, start=1):
            positive = [atom for atom, negated in disjunct if not negated]
            negative = [atom for atom, negated in disjunct if negated]
            # An add and a delete of one atom, or a fluent atom needed both
            # true and false, exclude a binding before relaxation.
            clashes = [(a, e) for a in schema.add for e in schema.delete]
            clashes += [(p, n) for p in positive for n in negative if p.predicate not in static]
            unifiers = [u for pair in clashes if (u := _unify(*pair)) is not None]
            if {} in unifiers:
                continue  # contradictory under every binding
            head = _atom(FAtom(f"applicable {index} {d_index}", params))
            body = [Literal(_atom(a)) for a in (*positive, *typing)]
            body += [Literal(_atom(a), negated=True) for a in negative if a.predicate in static]
            negated.update(a.predicate for a in negative if a.predicate in static)
            guards = [_guard(f"{head.predicate} clash {g}", schema, u) for g, u in enumerate(unifiers)]
            rules += [guard for guard, _ in guards]
            body += [negation for _, negation in guards]
            rules.append(Rule(head, tuple(dict.fromkeys(body))))
            rules += [Rule(_atom(a), (Literal(head),)) for a in schema.add]
            label = d_index if len(schema.precondition) > 1 else 0
            actions[head.predicate] = (
                index,
                label,
                [atom for atom in positive if atom.predicate in arity],
                [atom for atom in negative if atom.predicate in arity],
            )
    return Exploration(
        program=stratify(rule_pack(rules)),
        fluents=frozenset(arity),
        types={p.type: TYPE.format(p.type) for s in domain.actions for p in s.parameters},
        actions=actions,
        negated=frozenset(negated),
    )


def _atom(atom: FAtom) -> Atom:
    """A schema atom as a rule atom; parameters ("?x") become variables."""
    return Atom(atom.predicate, tuple(Var(a) if a.startswith("?") else a for a in atom.args))


def _unify(left: FAtom, right: FAtom) -> dict[str, str] | None:
    """Most general unifier of two schema atoms, mapping each parameter it
    binds to its representative (a parameter or an object); None when no
    binding makes the atoms equal."""
    if left.predicate != right.predicate:
        return None
    subst: dict[str, str] = {}

    def find(term: str) -> str:
        while term in subst:
            term = subst[term]
        return term

    for a, b in zip(left.args, right.args):
        a, b = sorted((find(a), find(b)), key=lambda term: not term.startswith("?"))
        if a != b and not a.startswith("?"):
            return None  # two different objects
        if a != b:
            subst[a] = b
    return {name: find(name) for name in subst}


def _guard(name: str, schema, unifier: dict[str, str]) -> tuple[Rule, Literal]:
    """A rule deriving the bindings a unifier describes, over only the
    parameters it constrains, and the literal that excludes them."""
    involved = [p for p in schema.parameters if p.name in {*unifier, *unifier.values()}]
    head = _atom(FAtom(name, tuple(unifier.get(p.name, p.name) for p in involved)))
    body = [Literal(Atom(TYPE.format(p.type), (t,))) for p, t in zip(involved, head.args)]
    negation = Literal(Atom(name, tuple(Var(p.name) for p in involved)), negated=True)
    return Rule(head, tuple(dict.fromkeys(body))), negation


def add_rows(
    relations: Relations, domain: DomainModel, atoms, objects: dict[str, str]
) -> dict[str, list[tuple]]:
    """Add grounding rows to a store: each atom as a row of its own
    predicate, and per object one row for each parameter type on its type
    chain. Returns the rows the store did not hold, per predicate."""
    exploration = domain.exploration
    added: dict[str, list[tuple]] = {}

    def add(pred: str, row: tuple) -> None:
        if relations.add(pred, row):
            added.setdefault(pred, []).append(row)

    for pred, args in atoms:
        add(pred, args)
    typed: dict[str, list[str]] = {}
    for obj, obj_type in objects.items():
        names = typed.get(obj_type)
        if names is None:
            names = typed[obj_type] = [
                exploration.types[t] for t in domain.types.chain(obj_type)
                if t in exploration.types
            ]
        for name in names:
            add(name, (obj,))
    return added


def ground_task(domain: DomainModel, problem: ProblemInstance) -> GroundedTask:
    """Ground a problem by saturating a store seeded with its rows under
    its domain's exploration program.

    A problem built on a static world for this domain, its init still a
    ``WorldAtoms`` view and its objects a ``ChainMap`` as ``build_problem``
    left them, reads the world's model, saturated once per world, through an
    overlay, adds only the rows the world lacks, and extends the model from
    them. Rows a problem adds to a static predicate that some rule reads
    negated could retract a row of that model, so such a problem, like one
    without a world, is seeded from an empty store; the guard rows a
    problem's objects derive name those objects and retract nothing. The
    world's derived rows count against the budget as if each call had
    derived them.

    A problem whose own atoms and objects equal those of the world's last
    grounding takes its task from the world's memo, and raises at the same
    limit as a grounding would, by checking the stored ``spent`` against
    ``FACT_LIMIT`` at call time. The goal mask is set per call.

    Raises ArityConflict when the init uses a predicate at two arities, or
    at another arity than the program's rules, and ResourceLimit when the
    store holds more derived rows than ``FACT_LIMIT``; each ground action
    is one of them.
    """
    exploration = domain.exploration
    world = problem.world
    if (
        world is not None
        and world.domain is domain
        and isinstance(problem.init, WorldAtoms)
        and isinstance(problem.objects, ChainMap)
        and exploration.negated.isdisjoint(pred for pred, _ in problem.init.own)
    ):
        own, objects = problem.init.own, problem.objects.maps[0]
        memo = world.grounded
        if memo is not None and memo[0] == own and memo[1] == objects:
            check_budget(memo[2])
            task = memo[3]
        else:
            relations = world.model.overlay()
            delta = add_rows(relations, domain, own, objects)
            saturate(exploration.program, relations, delta)
            task = _decode(domain, relations, problem.init)
            object.__setattr__(world, "grounded", (own, dict(objects), relations.spent, task))
    else:
        relations = Relations()
        add_rows(relations, domain, problem.init, {**domain.constants, **problem.objects})
        saturate(exploration.program, relations)
        task = _decode(domain, relations, problem.init)
    goal = _goal_mask(task.atoms, problem.goal, problem.init, exploration.fluents)
    task = GroundedTask(task.atoms, task.actions, task.init, goal)
    logger.debug(
        "grounded %s/%s: %d atoms, %d actions",
        domain.name,
        problem.name,
        len(task.atoms),
        len(task.actions),
    )
    return task


def _decode(domain: DomainModel, relations: Relations, init) -> GroundedTask:
    """The task, without a goal, that a saturated store holds."""
    exploration = domain.exploration
    atoms = sorted((pred, args) for pred in exploration.fluents for args in relations.rows(pred))
    reachable = set(atoms)
    found = [
        (args, spec)
        for pred, spec in exploration.actions.items()
        for args in relations.rows(pred)
    ]
    # Objects sort alphabetically, so (schema, binding, disjunct) order is the
    # binding order of a product over typed object pools.
    found.sort(key=lambda row: (row[1][0], row[0], row[1][1]))

    specs = []
    for args, (index, disjunct, positive, negative) in found:
        schema = domain.actions[index]
        binding = {p.name: obj for p, obj in zip(schema.parameters, args)}
        # An unreachable negated atom can never become true, so the literal
        # always holds and is dropped; same for deletes of unreachable atoms.
        specs.append(
            (
                schema.name + (f"~or{disjunct}" if disjunct else ""),
                schema.name,
                args,
                disjunct or None,
                [_bind(atom, binding) for atom in positive],
                [a for atom in negative if (a := _bind(atom, binding)) in reachable],
                [_bind(atom, binding) for atom in schema.add],
                [a for atom in schema.delete if (a := _bind(atom, binding)) in reachable],
                schema.cost,
            )
        )
    return GroundedTask.assemble(atoms, specs, [a for a in atoms if a in init], None)


def _goal_mask(atoms, goal, init, fluents) -> int | None:
    """The mask of the goal's fluent atoms over the sorted ``atoms``, or None
    when a goal atom cannot hold: a fluent one outside ``atoms``, or a static
    one (it holds in every state or in none) outside ``init``."""
    mask = 0
    for atom in goal:
        if atom[0] not in fluents:
            if atom not in init:
                return None
            continue
        i = bisect_left(atoms, atom)
        if i == len(atoms) or atoms[i] != atom:
            return None
        mask |= 1 << i
    return mask


def _bind(atom: FAtom, binding: dict[str, str]) -> GroundAtom:
    return (atom.predicate, tuple(binding.get(a, a) for a in atom.args))
