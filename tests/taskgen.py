"""Random grounded tasks and transition helpers for planner tests.

Generated tasks are monotone-biased (actions mostly add atoms, deletes are
rare), which keeps simple-path spaces enumerable, and goals are drawn from
atoms some action adds, so most instances are solvable. A tiny unsolvable
mode keeps the exhaust-everything path honest without risking blowup.
"""

import heapq
import itertools
import random

from planhunt.planning_model.ground import GroundedTask

__all__ = ["random_task", "dijkstra_cost", "applicable", "apply", "state_atoms"]


def applicable(state: int, action) -> bool:
    return (state & action.pre_pos) == action.pre_pos and not state & action.pre_neg


def apply(state: int, action) -> int:
    return (state & ~action.delete) | action.add


def state_atoms(task: GroundedTask, state: int) -> frozenset:
    return frozenset(atom for i, atom in enumerate(task.atoms) if state >> i & 1)


def _random_goal(rng: random.Random, atoms, pool):
    def leaf():
        if rng.random() < 0.2:
            return ("not", ("atom", rng.choice(atoms)))
        return ("atom", rng.choice(pool))

    roll = rng.random()
    if roll < 0.5:
        return leaf()
    parts = (leaf(), leaf())
    return ("and", parts) if roll < 0.8 else ("or", parts)


def _tiny_unsolvable(rng: random.Random) -> GroundedTask:
    atoms = tuple((f"a{i}", ()) for i in range(rng.randint(2, 4)))
    specs = []
    for i in range(rng.randint(1, 3)):
        add = [rng.choice(atoms)]
        specs.append((f"act{i}", f"act{i}", (), None, [], [], add, [], 1))
    # The goal names an atom no action adds and init never holds.
    return GroundedTask.assemble(
        atoms, specs, frozenset(), ("atom", ("nowhere", ()))
    )


def random_task(
    rng: random.Random, max_atoms: int = 8, max_actions: int = 6
) -> GroundedTask:
    if rng.random() < 0.15:
        return _tiny_unsolvable(rng)
    n_atoms = rng.randint(3, max_atoms)
    atoms = tuple((f"a{i}", ()) for i in range(n_atoms))
    added: set[int] = set()
    specs = []
    for i in range(rng.randint(2, max_actions)):
        pre_pos = rng.sample(range(n_atoms), rng.randint(0, 2))
        rest = [j for j in range(n_atoms) if j not in pre_pos]
        pre_neg = rng.sample(rest, min(rng.randint(0, 1), len(rest)))
        add = rng.sample(range(n_atoms), rng.randint(1, 2))
        deletable = [j for j in range(n_atoms) if j not in add]
        delete = (
            rng.sample(deletable, 1)
            if deletable and rng.random() < 0.15
            else []
        )
        added.update(add)
        specs.append(
            (
                f"act{i}",
                f"act{i}",
                (),
                None,
                [atoms[j] for j in pre_pos],
                [atoms[j] for j in pre_neg],
                [atoms[j] for j in add],
                [atoms[j] for j in delete],
                rng.randint(1, 3),
            )
        )
    init = frozenset(atom for atom in atoms if rng.random() < 0.3)
    pool = [atoms[j] for j in sorted(added)]
    return GroundedTask.assemble(atoms, specs, init, _random_goal(rng, atoms, pool))


def dijkstra_cost(task: GroundedTask) -> int | None:
    """Cheapest goal cost over plain state search; None when unreachable."""
    best = {task.init: 0}
    tick = itertools.count()
    heap: list[tuple[int, int, int]] = [(0, next(tick), task.init)]
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
