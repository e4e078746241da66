"""Reference top-k enumeration: every simple plan, by depth-first search.

``oracle_enumerate`` walks every simple action sequence (optionally
cost-bounded), filters it to valid plans and sorts them in the planner's
order. It shares no search machinery with ``planhunt.planner.find_top_k``
and works on atom sets, which it derives once from the task's bitmasks.
"""

from bisect import insort

from planhunt.planner import Plan, PlanSet
from taskgen import state_atoms

__all__ = ["CapExceeded", "oracle_enumerate"]


class CapExceeded(Exception):
    """The exhaustive enumerator hit its hard exploration cap."""

    def __init__(self, cap: int):
        self.cap = cap
        super().__init__(f"enumeration cap exceeded ({cap})")


def oracle_enumerate(
    task, cost_bound: int | None = None, k: int = 10, cap: int = 10**6
) -> PlanSet:
    """Exhaustively enumerate simple plans by depth-first search.

    Every simple action sequence whose cost stays within ``cost_bound`` (if
    given) is considered; valid plans are ranked by (cost, lexicographic
    index sequence) and the first k returned. Sequences provably outside
    the current top k (strictly costlier than the k-th best so far) are
    skipped, which never changes the returned plans. Raises CapExceeded
    after ``cap`` node visits.

    Status: ``truncated_k`` when enumeration saw more valid plans than k,
    ``no_plan`` when none was found, ``complete`` otherwise. Completeness
    is relative to ``cost_bound`` when one is given, and cost pruning may
    hide strictly-costlier plans beyond the k-th; neither affects the
    returned plans.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if task.goal is None:
        # A goal atom outside the task's atoms: no state can hold the goal.
        return PlanSet(plans=(), status="no_plan")
    # Per action: (positive pre, negative pre, add, delete) as atom sets.
    actions = [
        tuple(state_atoms(task, mask) for mask in (a.pre_pos, a.pre_neg, a.add, a.delete))
        for a in task.actions
    ]
    costs = [a.cost for a in task.actions]
    goal = state_atoms(task, task.goal)
    found: list[tuple[int, tuple[int, ...]]] = []
    visits = 0

    root = state_atoms(task, task.init)
    # Stack rows: (state, path, cost, child action index to try next).
    stack: list[list] = [[root, (), 0, 0]]
    path_states: set[frozenset] = {root}

    while stack:
        row = stack[-1]
        atoms, seq, cost, next_child = row
        if next_child == 0:
            visits += 1
            if visits > cap:
                raise CapExceeded(cap)
            within = cost_bound is None or cost <= cost_bound
            if within and goal <= atoms:
                insort(found, (cost, seq))
                if len(found) > k + 1:
                    # Keep one extra entry so truncation is detectable.
                    found.pop()
        pushed = False
        for index in range(next_child, len(actions)):
            pre_pos, pre_neg, add, delete = actions[index]
            if not pre_pos <= atoms or pre_neg & atoms:
                continue
            next_cost = cost + costs[index]
            if cost_bound is not None and next_cost > cost_bound:
                continue
            if len(found) >= k and next_cost > found[k - 1][0]:
                # Strictly costlier than the k-th best: cannot enter the
                # top k, and extensions never get cheaper.
                continue
            successor = (atoms - delete) | add
            if successor in path_states:
                continue
            row[3] = index + 1
            stack.append([successor, seq + (index,), next_cost, 0])
            path_states.add(successor)
            pushed = True
            break
        if not pushed:
            stack.pop()
            path_states.discard(atoms)

    plans = tuple(Plan(steps=seq, cost=cost) for cost, seq in found[:k])
    if not plans:
        status = "no_plan"
    elif len(found) > k:
        status = "truncated_k"
    else:
        status = "complete"
    return PlanSet(plans=plans, status=status, expanded=visits)
