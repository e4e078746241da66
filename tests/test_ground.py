"""Grounding: disjunct compilation, pruning, reachability, bitmask tasks.

The random section checks the grounder against a reference that applies
lifted schemas directly (tests/oracles/lifted_search.py): both sides must
agree on the reachable state graph and the cheapest goal cost.
"""

import heapq
import itertools
import random
from dataclasses import replace

import pytest

from oracles import dnf
from oracles.lifted_search import ExplorationCap, explore, optimal_cost
from planhunt.errors import ArityConflict, PddlSyntaxError, ResourceLimit
from planhunt.planning_model.ground import GroundedTask, ground_task
from planhunt.planning_model.model import (
    ActionSchema,
    DomainModel,
    FAtom,
    Parameter,
    PredicateSchema,
    ProblemInstance,
    TypeHierarchy,
)
from planhunt.planning_model.pddl import parse_domain
from taskgen import applicable, apply, state_atoms

WALK_DOMAIN = """
(define (domain walkabout)
  (:requirements :strips :typing :negative-preconditions
                 :disjunctive-preconditions :action-costs)
  (:types spot - object)
  (:predicates (at ?s - spot) (link ?a - spot ?b - spot) (lit ?s - spot) (done))
  (:action walk
    :parameters (?a - spot ?b - spot)
    :precondition (and (at ?a) (link ?a ?b))
    :effect (and (at ?b) (not (at ?a))))
  (:action finish
    :parameters (?s - spot)
    :precondition (or (lit ?s) (at ?s))
    :effect (done))
)
"""

WALK_PROBLEM = ProblemInstance(
    name="stroll",
    domain_name="walkabout",
    objects={"x": "spot", "y": "spot", "z": "spot"},
    init=frozenset({("at", ("x",)), ("link", ("x", "y")), ("lit", ("z",))}),
    goal=frozenset({("done", ())}),
)


def walk_task(goal=WALK_PROBLEM.goal):
    return ground_task(parse_domain(WALK_DOMAIN), replace(WALK_PROBLEM, goal=frozenset(goal)))


def static_init(domain, problem) -> frozenset:
    """The init atoms whose predicate no effect mentions: they hold in every
    state, so a grounded task checks them once and leaves them out."""
    fluent = {a.predicate for schema in domain.actions for a in (*schema.add, *schema.delete)}
    return frozenset(atom for atom in problem.init if atom[0] not in fluent)


# link and lit occur in no effect.
WALK_STATIC = static_init(parse_domain(WALK_DOMAIN), WALK_PROBLEM)


class TestGrounding:
    def test_action_order_and_disjunct_naming(self):
        task = walk_task()
        assert [(a.name, a.args) for a in task.actions] == [
            ("walk", ("x", "y")),
            ("finish~or2", ("x",)),
            ("finish~or2", ("y",)),
            ("finish~or1", ("z",)),
        ]
        assert task.actions[0].disjunct is None
        assert task.actions[3].disjunct == 1

    def test_contradictory_instantiation_is_skipped(self):
        # walk with ?a = ?b would both add and delete (at ?a).
        task = walk_task()
        assert task.find_action("walk", ("x", "x")) is None

    def test_static_literals_prune_and_survive(self):
        task = walk_task()
        # link never appears in an effect, so walk bindings without a link
        # fact are gone; the satisfied literal held at grounding and leaves
        # the precondition with the task's atoms.
        assert task.find_action("walk", ("y", "x")) is None
        walk = task.actions[0]
        assert state_atoms(task, walk.pre_pos) == {("at", ("x",))}
        assert ("link", ("x", "y")) not in task.atoms

    def test_unreachable_atoms_are_outside_the_universe(self):
        task = walk_task()
        assert ("at", ("z",)) not in task.atoms
        # Only fluent atoms: the static link and lit hold in every state.
        assert set(task.atoms) == {("at", ("x",)), ("at", ("y",)), ("done", ())}

    def test_transition_semantics(self):
        task = walk_task()
        walk = task.actions[0]
        assert applicable(task.init, walk)
        after = apply(task.init, walk)
        assert state_atoms(task, after) == frozenset({("at", ("y",))})
        assert not applicable(after, walk)
        assert not task.satisfies_goal(after)
        finish = task.actions[3]
        assert task.satisfies_goal(apply(after, finish))

    def test_render_and_find_action(self):
        task = walk_task()
        assert task.actions[3].render() == "(finish~or1 z)"
        assert task.find_action("finish~or1", ("z",)) == 3

    def test_ground_action_budget(self, monkeypatch):
        monkeypatch.setattr("planhunt.inference.engine.FACT_LIMIT", 3)
        with pytest.raises(ResourceLimit):
            ground_task(parse_domain(WALK_DOMAIN), WALK_PROBLEM)

    def test_init_arity_conflicts_raise(self):
        # Grounding seeds its store with rows, not facts, so the store
        # itself must refuse a predicate at two arities, static (link) or
        # fluent (at), and the program one at another arity than the domain.
        domain = parse_domain(WALK_DOMAIN)
        problem = WALK_PROBLEM
        inits = [
            problem.init | {("link", ("x",))},
            problem.init | {("at", ("x", "y"))},
            problem.init - {("lit", ("z",))} | {("lit", ("z", "x"))},
        ]
        for init in inits:
            with pytest.raises(ArityConflict):
                ground_task(domain, replace(problem, init=init))

    def test_dnf_size_guard(self):
        pairs = [(f"p{i}", f"q{i}") for i in range(7)]
        preds = " ".join(f"({p}) ({q})" for p, q in pairs)
        clause = " ".join(f"(or ({p}) ({q}))" for p, q in pairs)
        text = (
            f"(define (domain wide) (:predicates {preds} (r))"
            f" (:action a :parameters () :precondition (and {clause})"
            "  :effect (r)))"
        )
        # 2**7 disjuncts: a modeling error, reported at the action on load.
        with pytest.raises(PddlSyntaxError) as err:
            parse_domain(text)
        assert err.value.reason == "action a: precondition has more than 64 disjuncts"


UNREACHABLE_DOMAIN = """
(define (domain spectral)
  (:predicates (a) (b) (ghost))
  (:action go
    :parameters ()
    :precondition (and (a) (not (ghost)))
    :effect (and (b) (not (ghost))))
  (:action odd
    :parameters ()
    :precondition (and (a) (not (a)))
    :effect (b))
)
"""


class TestReachabilityFiltering:
    def task(self, goal=(("b", ()),)):
        problem = ProblemInstance(
            name="p",
            domain_name="spectral",
            objects={},
            init=frozenset({("a", ())}),
            goal=frozenset(goal),
        )
        return ground_task(parse_domain(UNREACHABLE_DOMAIN), problem)

    def test_unreachable_negative_literals_and_deletes_drop(self):
        task = self.task()
        (go,) = [a for a in task.actions if a.schema == "go"]
        assert go.pre_neg == 0
        assert go.delete == 0
        assert ("ghost", ()) not in task.atoms

    def test_self_contradictory_disjunct_never_grounds(self):
        assert all(a.schema != "odd" for a in self.task().actions)

    def test_goal_over_unreachable_atom(self):
        # One unreachable goal atom leaves the task without a goal mask,
        # and no state, even one holding every atom, satisfies it.
        for goal in ([("ghost", ())], [("b", ()), ("ghost", ())]):
            task = self.task(goal)
            assert task.goal is None
            assert not task.satisfies_goal((1 << 30) - 1)

    def test_empty_precondition_is_always_applicable(self):
        domain = parse_domain(
            "(define (domain free) (:predicates (a)) (:action go :parameters ()"
            " :effect (a)))"
        )
        problem = ProblemInstance("p", "free", {}, frozenset(), frozenset({("a", ())}))
        task = ground_task(domain, problem)
        assert applicable(task.init, task.actions[0])


class TestGoalMask:
    GOALS = [
        (),
        (("done", ()),),
        (("lit", ("z",)), ("at", ("y",))),
        (("at", ("x",)), ("at", ("y",))),
        (("at", ("q",)),),  # outside the task's atoms
        (("done", ()), ("at", ("q",))),
        (("link", ("y", "x")),),  # static, and not in init
    ]

    def test_mask_and_set_inclusion_agree(self):
        task = walk_task()
        states = [task.init]
        for state in states:
            for action in task.actions:
                if applicable(state, action):
                    succ = apply(state, action)
                    if succ not in states:
                        states.append(succ)
        for goal in self.GOALS:
            task = walk_task(goal)
            possible = set(task.atoms) | WALK_STATIC
            assert (task.goal is None) == any(atom not in possible for atom in goal)
            for state in states:
                assert task.satisfies_goal(state) == (
                    set(goal) <= state_atoms(task, state) | WALK_STATIC
                )


# --- randomized equivalence with the lifted reference ------------------------------


def random_instance(rng: random.Random):
    """A small single-type domain/problem pair with random precondition
    trees, converted by the reference DNF, and a goal of one or two atoms."""
    types = TypeHierarchy()
    types.declare("thing")
    objects = {f"o{i}": "thing" for i in range(rng.randint(2, 3))}

    predicates: dict[str, PredicateSchema] = {}
    for i in range(rng.randint(2, 4)):
        arity = rng.choice((0, 1, 1, 2))
        predicates[f"p{i}"] = PredicateSchema(f"p{i}", ("thing",) * arity)

    def lifted_atom(params: tuple[Parameter, ...]) -> FAtom:
        name = rng.choice(sorted(predicates))
        pool = [p.name for p in params] + sorted(objects)
        arity = len(predicates[name].param_types)
        return FAtom(name, tuple(rng.choice(pool) for _ in range(arity)))

    def formula(params, depth):
        roll = rng.random()
        if depth == 0 or roll < 0.45:
            atom = lifted_atom(params)
            return ("not", atom) if rng.random() < 0.3 else atom
        parts = tuple(formula(params, depth - 1) for _ in range(rng.randint(2, 3)))
        return ("and" if roll < 0.8 else "or", *parts)

    actions = []
    for i in range(rng.randint(2, 3)):
        params = tuple(
            Parameter(f"?x{j}", "thing") for j in range(rng.randint(0, 2))
        )
        add: tuple[FAtom, ...] = ()
        delete: tuple[FAtom, ...] = ()
        while not (add or delete):
            add = (lifted_atom(params),) if rng.random() < 0.8 else ()
            delete = (lifted_atom(params),) if rng.random() < 0.5 else ()
            if add and delete and add == delete:
                add = ()
        actions.append(
            ActionSchema(
                name=f"act{i}",
                parameters=params,
                precondition=dnf.precondition(formula(params, rng.randint(1, 2))),
                add=add,
                delete=delete,
                cost=rng.randint(1, 3),
            )
        )

    domain = DomainModel(
        name="rand",
        types=types,
        predicates=predicates,
        constants={},
        actions=tuple(actions),
    )
    universe = [
        (name, args)
        for name, schema in sorted(predicates.items())
        for args in itertools.product(sorted(objects), repeat=len(schema.param_types))
    ]
    init = frozenset(atom for atom in universe if rng.random() < 0.35)
    problem = ProblemInstance(
        name="rand",
        domain_name="rand",
        objects=objects,
        init=init,
        goal=frozenset(rng.choice(universe) for _ in range(rng.randint(1, 2))),
    )
    return domain, problem


def explore_task(task: GroundedTask, static: frozenset = frozenset(), cap: int = 20000):
    """Reachable state graph of a grounded task, keyed by atom sets, each
    with the ``static`` atoms the task leaves out."""
    graph: dict[int, set[int]] = {}
    frontier = [task.init]
    while frontier:
        state = frontier.pop()
        if state in graph:
            continue
        assert len(graph) < cap
        successors = {
            apply(state, action)
            for action in task.actions
            if applicable(state, action)
        }
        graph[state] = successors
        frontier.extend(succ for succ in successors if succ not in graph)
    return {
        state_atoms(task, state) | static: {state_atoms(task, s) | static for s in successors}
        for state, successors in graph.items()
    }


def task_optimal_cost(task: GroundedTask) -> int | None:
    best = {task.init: 0}
    tick = itertools.count()
    heap = [(0, next(tick), task.init)]
    while heap:
        cost, _, state = heapq.heappop(heap)
        if cost > best.get(state, cost):
            continue
        if task.satisfies_goal(state):
            return cost
        for action in task.actions:
            if not applicable(state, action):
                continue
            succ = apply(state, action)
            total = cost + action.cost
            if total < best.get(succ, total + 1):
                best[succ] = total
                heapq.heappush(heap, (total, next(tick), succ))
    return None


def test_random_grounding_matches_lifted_semantics():
    compared = 0
    for seed in range(120):
        rng = random.Random(seed)
        domain, problem = random_instance(rng)
        try:
            reference = explore(domain, problem)
        except ExplorationCap:
            continue
        task = ground_task(domain, problem)
        static = static_init(domain, problem)
        assert explore_task(task, static) == reference, f"seed {seed}"
        assert task_optimal_cost(task) == optimal_cost(domain, problem), f"seed {seed}"
        compared += 1
        if compared >= 60:
            break
    assert compared >= 60
