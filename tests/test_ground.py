"""Grounding: disjunct compilation, pruning, reachability, bitmask tasks.

The random section checks the grounder against a reference that applies
lifted schemas directly (tests/oracles/lifted_search.py): both sides must
agree on the reachable state graph and the cheapest goal cost.
"""

import heapq
import itertools
import random

import pytest

from oracles.enumerate import eval_ast
from oracles.lifted_search import ExplorationCap, explore, optimal_cost
from planhunt.errors import GroundingExplosion
from planhunt.planning_model import (
    DomainModel,
    FAnd,
    FAtom,
    FNot,
    FOr,
    Parameter,
    PredicateSchema,
    ProblemInstance,
    TypeHierarchy,
    parse_domain,
    parse_problem,
)
from planhunt.planning_model.ground import (
    GroundedTask,
    eval_ast_mask,
    formula_to_ast,
    ground_task,
)
from planhunt.planning_model.model import ActionSchema
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

WALK_PROBLEM = """
(define (problem stroll)
  (:domain walkabout)
  (:objects x y z - spot)
  (:init (at x) (link x y) (lit z))
  (:goal (done))
)
"""


def walk_task():
    domain = parse_domain(WALK_DOMAIN)
    return ground_task(domain, parse_problem(WALK_PROBLEM, domain))


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
        # fact are gone; the satisfied literal stays in the precondition.
        assert task.find_action("walk", ("y", "x")) is None
        walk = task.actions[0]
        assert ("link", ("x", "y")) in state_atoms(task, walk.pre_pos)

    def test_unreachable_atoms_are_outside_the_universe(self):
        task = walk_task()
        assert ("at", ("z",)) not in task.atom_index
        assert set(task.atoms) == {
            ("at", ("x",)),
            ("at", ("y",)),
            ("link", ("x", "y")),
            ("lit", ("z",)),
            ("done", ()),
        }

    def test_transition_semantics(self):
        task = walk_task()
        walk = task.actions[0]
        assert applicable(task.init, walk)
        after = apply(task.init, walk)
        assert state_atoms(task, after) == frozenset(
            {("at", ("y",)), ("link", ("x", "y")), ("lit", ("z",))}
        )
        assert not applicable(after, walk)
        assert not task.satisfies_goal(after)
        finish = task.actions[3]
        assert task.satisfies_goal(apply(after, finish))

    def test_render_and_find_action(self):
        task = walk_task()
        assert task.actions[3].render() == "(finish~or1 z)"
        assert task.find_action("finish~or1", ("z",)) == 3

    def test_ground_action_budget(self):
        domain = parse_domain(WALK_DOMAIN)
        problem = parse_problem(WALK_PROBLEM, domain)
        with pytest.raises(GroundingExplosion):
            ground_task(domain, problem, max_ground_actions=3)

    def test_dnf_size_guard(self):
        pairs = [(f"p{i}", f"q{i}") for i in range(7)]
        preds = " ".join(f"({p}) ({q})" for p, q in pairs)
        clause = " ".join(f"(or ({p}) ({q}))" for p, q in pairs)
        text = (
            f"(define (domain wide) (:predicates {preds} (r))"
            f" (:action a :parameters () :precondition (and {clause})"
            "  :effect (r)))"
        )
        with pytest.raises(GroundingExplosion):
            domain = parse_domain(text)
            problem = ProblemInstance(
                name="p",
                domain_name="wide",
                objects={},
                init=frozenset(),
                goal=FAtom("r", ()),
            )
            ground_task(domain, problem)


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
    def task(self, goal="(b)"):
        domain = parse_domain(UNREACHABLE_DOMAIN)
        problem = parse_problem(
            f"(define (problem p) (:domain spectral) (:init (a)) (:goal {goal}))",
            domain,
        )
        return ground_task(domain, problem)

    def test_unreachable_negative_literals_and_deletes_drop(self):
        task = self.task()
        (go,) = [a for a in task.actions if a.schema == "go"]
        assert go.pre_neg == 0
        assert go.delete == 0
        assert ("ghost", ()) not in task.atom_index

    def test_self_contradictory_disjunct_never_grounds(self):
        assert all(a.schema != "odd" for a in self.task().actions)

    def test_goal_over_unreachable_atom(self):
        assert not self.task(goal="(ghost)").satisfies_goal(1 << 30)
        task = self.task(goal="(not (ghost))")
        assert task.satisfies_goal(task.init)

    def test_empty_precondition_is_always_applicable(self):
        domain = parse_domain(
            "(define (domain free) (:predicates (a)) (:action go :parameters ()"
            " :effect (a)))"
        )
        problem = parse_problem(
            "(define (problem p) (:domain free) (:goal (a)))", domain
        )
        task = ground_task(domain, problem)
        assert applicable(task.init, task.actions[0])


class TestGoalAst:
    CASES = [
        ("true",),
        ("false",),
        ("atom", ("done", ())),
        ("atom", ("at", ("q",))),  # outside every universe
        ("not", ("atom", ("at", ("x",)))),
        ("and", (("atom", ("lit", ("z",))), ("not", ("atom", ("done", ()))))),
        ("or", (("atom", ("at", ("q",))), ("atom", ("at", ("y",))))),
    ]

    def test_mask_and_set_evaluation_agree(self):
        task = walk_task()
        states = [task.init]
        for state in states:
            for action in task.actions:
                if applicable(state, action):
                    succ = apply(state, action)
                    if succ not in states:
                        states.append(succ)
        for state in states:
            atoms = state_atoms(task, state)
            for ast in self.CASES:
                assert eval_ast(ast, atoms) == eval_ast_mask(
                    ast, state, task.atom_index
                )

    def test_bad_node_rejected(self):
        with pytest.raises(ValueError):
            eval_ast(("xor", ()), frozenset())


# --- randomized equivalence with the lifted reference ------------------------------


def random_instance(rng: random.Random):
    """A small single-type domain/problem pair with random formula trees."""
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
            return FNot(atom) if rng.random() < 0.3 else atom
        parts = tuple(formula(params, depth - 1) for _ in range(rng.randint(2, 3)))
        return FAnd(parts) if roll < 0.8 else FOr(parts)

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
                precondition=formula(params, rng.randint(1, 2)),
                add=add,
                delete=delete,
                cost=rng.randint(1, 3),
            )
        )

    domain = DomainModel(
        name="rand",
        requirements=(),
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
        goal=formula((), rng.randint(0, 2)),
    )
    return domain, problem


def explore_task(task: GroundedTask, cap: int = 20000):
    """Reachable state graph of a grounded task, keyed by atom sets."""
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
        state_atoms(task, state): {state_atoms(task, s) for s in successors}
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
        assert explore_task(task) == reference, f"seed {seed}"
        assert task_optimal_cost(task) == optimal_cost(domain, problem), f"seed {seed}"
        compared += 1
        if compared >= 60:
            break
    assert compared >= 60
