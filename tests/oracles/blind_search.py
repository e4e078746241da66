"""Reference top-k search: uniform-cost search over simple paths.

``blind_top_k`` is ``planhunt.planner.find_top_k`` without its estimate:
it pops paths in (cost, steps) order and expands every non-goal path up to
the k-th plan's cost, and at the k-th plan its status is ``truncated_k``
exactly when its frontier is not empty. Its plans, statuses and
expansion counts are the ones the planner must reproduce (plans and
status) and never exceed (expansions). It keeps no time or memory budget.
"""

import heapq

from planhunt.planner import Plan, PlanSet

__all__ = ["blind_top_k"]


def blind_top_k(task, k: int = 10) -> PlanSet:
    """Enumerate the k cheapest simple plans by uniform-cost search."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if task.goal is None:
        return PlanSet(plans=(), status="no_plan")
    actions = task.actions
    heap: list[tuple[int, tuple[int, ...], int]] = [(0, (), task.init)]
    plans: list[Plan] = []
    expanded = 0
    while heap:
        cost, seq, state = heapq.heappop(heap)
        if task.satisfies_goal(state):
            plans.append(Plan(steps=seq, cost=cost))
            if len(plans) >= k:
                return PlanSet(tuple(plans), "truncated_k" if heap else "complete", expanded)
        expanded += 1
        visited = _trajectory(task, seq)
        for index, action in enumerate(actions):
            if (state & action.pre_pos) != action.pre_pos or state & action.pre_neg:
                continue
            successor = (state & ~action.delete) | action.add
            if successor in visited:
                continue
            heapq.heappush(heap, (cost + action.cost, seq + (index,), successor))
    return PlanSet(tuple(plans), "complete" if plans else "no_plan", expanded)


def _trajectory(task, seq: tuple[int, ...]) -> set[int]:
    """States visited along a path, recomputed from its steps."""
    state = task.init
    visited = {state}
    for index in seq:
        action = task.actions[index]
        state = (state & ~action.delete) | action.add
        visited.add(state)
    return visited
