"""Reference semantics for grounded tasks: lifted schemas applied directly.

Transitions come from evaluating each schema's precondition, the
disjunctive normal form the parser gives it, under a parameter binding
against a set-of-atoms state. No static pruning, reachability restriction,
or bitmask encoding is involved, so this is an independent check on the
production grounder; the conversion to DNF is checked on its own, against
tests/oracles/dnf.py. Bindings whose ground add and delete lists overlap
are skipped, mirroring the grounder's refusal of contradictory
instantiations.
"""

import heapq
import itertools

from planhunt.planning_model.model import DomainModel, FAtom, Precondition, ProblemInstance

__all__ = ["ExplorationCap", "explore", "optimal_cost", "holds"]


class ExplorationCap(Exception):
    """Raised when a reference search outgrows its state budget."""


def _ground(atom: FAtom, binding: dict) -> tuple:
    return (atom.predicate, tuple(binding.get(a, a) for a in atom.args))


def holds(precondition: Precondition, binding: dict, atoms) -> bool:
    """Whether some disjunct has every literal true under ``binding``."""
    return any(
        all((_ground(atom, binding) in atoms) != negated for atom, negated in disjunct)
        for disjunct in precondition
    )


def _successors(domain: DomainModel, objects: dict, atoms: frozenset):
    """Yield (cost, successor state) for every applicable schema binding."""
    for schema in domain.actions:
        pools = [
            sorted(
                obj
                for obj, type_name in objects.items()
                if domain.types.is_subtype(type_name, param.type)
            )
            for param in schema.parameters
        ]
        for assignment in itertools.product(*pools):
            binding = {
                param.name: obj for param, obj in zip(schema.parameters, assignment)
            }
            add = {_ground(atom, binding) for atom in schema.add}
            delete = {_ground(atom, binding) for atom in schema.delete}
            if add & delete:
                continue
            if not holds(schema.precondition, binding, atoms):
                continue
            yield schema.cost, frozenset((atoms - delete) | add)


def explore(
    domain: DomainModel, problem: ProblemInstance, cap: int = 20000
) -> dict[frozenset, set[frozenset]]:
    """Map every reachable set-of-atoms state to its successor-state set."""
    objects = dict(domain.constants)
    objects.update(problem.objects)
    graph: dict[frozenset, set[frozenset]] = {}
    frontier = [frozenset(problem.init)]
    while frontier:
        state = frontier.pop()
        if state in graph:
            continue
        if len(graph) >= cap:
            raise ExplorationCap(cap)
        successors = {succ for _, succ in _successors(domain, objects, state)}
        graph[state] = successors
        frontier.extend(succ for succ in successors if succ not in graph)
    return graph


def optimal_cost(
    domain: DomainModel, problem: ProblemInstance, cap: int = 20000
) -> int | None:
    """Cheapest goal cost under lifted semantics; None when unreachable."""
    objects = dict(domain.constants)
    objects.update(problem.objects)
    init = frozenset(problem.init)
    best = {init: 0}
    tick = itertools.count()
    heap: list[tuple[int, int, frozenset]] = [(0, next(tick), init)]
    settled = 0
    while heap:
        cost, _, state = heapq.heappop(heap)
        if cost > best.get(state, cost):
            continue
        if problem.goal <= state:
            return cost
        settled += 1
        if settled > cap:
            raise ExplorationCap(cap)
        for step_cost, succ in _successors(domain, objects, state):
            total = cost + step_cost
            if total < best.get(succ, total + 1):
                best[succ] = total
                heapq.heappush(heap, (total, next(tick), succ))
    return None
