"""Top-k plan enumeration over grounded tasks.

``find_top_k`` lists plans in the order of uniform-cost search over the
space of simple paths (no repeated state within one path): by accumulated
cost, with ties broken lexicographically over ground-action index
sequences. Every path whose state satisfies the goal is a plan; expansion
continues through goal states so longer plans that pass through them are
found too. No state-level dominance pruning is applied: with the
simple-path constraint such pruning can drop valid plans, and shipped task
sizes do not need it.

The search is A* in that order. A path's key is its cost plus 0 on a goal
state, else the least cost of any action whose add mask meets the goal:
every path from a state that misses the goal contains such an action, so
the estimate is admissible. Every prefix of a plan then keys at most the
plan's cost, and on a tie its steps, a prefix of the plan's, sort first,
so plans are popped in (cost, steps) order, and paths whose cost plus
estimate passes the k-th plan's cost are never expanded. The statuses
keep their uniform-cost meaning: at the k-th plan, the frontier's entries
ranked before it in (cost, steps) order, which uniform-cost search would
already have expanded, are walked depth first until a simple path ranked
after the plan shows there are candidates left (``truncated_k``). The
walk expands only paths uniform-cost search would have expanded before the
plan, so ``expanded`` never exceeds that search's count.

Before searching, a task without a goal mask, whose goal names an atom no
state can hold, is answered ``no_plan`` with no expansion, whatever the
budget. A grounded task's atoms are its fluent delete-relaxed reachable
atoms, so most impossible hypotheses are settled this way instead of by
exhausting every simple path.
"""

import heapq
import time
from dataclasses import dataclass

from .errors import MalformedRecord
from .planning_model.ground import GroundedTask
from .planning_model.model import FAtom

__all__ = [
    "Limits",
    "Plan",
    "PlanSet",
    "ValidationResult",
    "find_top_k",
    "validate_plan",
    "render_plan",
    "parse_plan_text",
]

GIB = 2**30


@dataclass(frozen=True)
class Limits:
    """Enumeration budget: plan count, wall clock, memory."""

    k: int = 10
    wall_time: float = 3600.0
    memory: int = 8 * GIB


@dataclass(frozen=True)
class Plan:
    """An action-index sequence into a task's action table, plus total cost."""

    steps: tuple[int, ...]
    cost: int


@dataclass(frozen=True)
class PlanSet:
    """Enumeration result. status:
    complete        every simple plan was enumerated (at most k existed)
    truncated_k     k plans returned, and a simple path that does not
                    extend the k-th plan ranks after it in (cost, steps)
                    order: uniform-cost search would hold candidates
    truncated_limit the memory budget cut enumeration short
    timed_out       the wall clock expired, before the k-th plan or while
                    the walk after it told truncated_k from complete
    no_plan         exhaustive search found nothing, or the task has no
                    goal mask (for a grounded task: a goal atom is
                    delete-relaxed unreachable, or static and not in the
                    init), settled without search with expanded 0
    ``expanded`` counts the paths whose successors were generated, by the
    search and by the walk that settles ``truncated_k``.
    """

    plans: tuple[Plan, ...]
    status: str
    expanded: int = 0


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    step: int | None = None
    reason: str = "ok"


def find_top_k(task: GroundedTask, limits: Limits | None = None) -> PlanSet:
    """Enumerate the k cheapest simple plans in deterministic order."""
    limits = limits or Limits()
    if limits.k < 1:
        raise ValueError("k must be at least 1")
    goal = task.goal
    if goal is None:
        return PlanSet(plans=(), status="no_plan")
    deadline = time.monotonic() + limits.wall_time

    actions = [
        (index, a.pre_pos, a.pre_neg, ~a.delete, a.add, a.cost)
        for index, a in enumerate(task.actions)
    ]
    # The estimate for a state that misses the goal: any path from it to
    # the goal takes an action whose add mask meets the goal. 0 when no
    # action's does.
    rest = min((a.cost for a in task.actions if a.add & goal), default=0)
    # A state is an int over the task's atoms, which are fluent only.
    state_bytes = 48 + (len(task.atoms) >> 3)
    init = task.init
    # Entries: (cost + estimate, steps, cost, state); steps are unique, so
    # entries never compare past them.
    heap: list[tuple[int, tuple[int, ...], int, int]] = [
        (0 if init & goal == goal else rest, (), 0, init)
    ]
    plans: list[Plan] = []
    expanded = 0
    longest = 0
    status: str | None = None

    while heap:
        if time.monotonic() > deadline:
            status = "timed_out"
            break
        # Approximate frontier footprint; entries dominate everything else.
        estimate = len(heap) * (256 + state_bytes + 8 * longest)
        if estimate > limits.memory:
            status = "truncated_limit"
            break
        _, seq, cost, state = heapq.heappop(heap)
        if state & goal == goal:
            plans.append(Plan(steps=seq, cost=cost))
            if len(plans) >= limits.k:
                status, walked = _rank_after(heap, (cost, seq), actions, init, deadline)
                expanded += walked
                break
        expanded += 1
        successors = _successors(actions, init, seq, state, cost)
        if successors and len(seq) >= longest:
            longest = len(seq) + 1
        for next_cost, next_seq, successor in successors:
            key = next_cost if successor & goal == goal else next_cost + rest
            heapq.heappush(heap, (key, next_seq, next_cost, successor))

    if status is None:
        # Frontier exhausted below k plans.
        status = "complete" if plans else "no_plan"
    return PlanSet(
        plans=tuple(plans),
        status=status,
        expanded=expanded,
    )


def _successors(actions, init: int, seq: tuple[int, ...], state: int, cost: int):
    """The simple one-step extensions of a path, as (cost, steps, state).

    The states the path visited are recomputed from its steps, which trades
    a little CPU for not storing a visited set per frontier entry.
    """
    visited = {init}
    passed = init
    for index in seq:
        _, _, _, keep, add, _ = actions[index]
        passed = passed & keep | add
        visited.add(passed)
    out = []
    for index, pre_pos, pre_neg, keep, add, step_cost in actions:
        if state & pre_pos != pre_pos or state & pre_neg:
            continue
        successor = state & keep | add
        if successor not in visited:
            out.append((cost + step_cost, seq + (index,), successor))
    return out


def _rank_after(heap, plan: tuple, actions, init: int, deadline: float) -> tuple[str, int]:
    """The status at the k-th plan, ``plan`` as (cost, steps), and the paths
    expanded to find it.

    Uniform-cost search would pop every simple path ranked before the plan
    first, so it holds candidates exactly when some simple path that does
    not extend the plan ranks after it. The frontier's entries and their
    extensions are walked depth first: an entry ranked before the plan is
    one that search would have expanded, so the walk never expands a path
    that search would not.
    """
    pending = fresh = [(cost, seq, state) for _, seq, cost, state in heap]
    expanded = 0
    while not any((cost, seq) > plan for cost, seq, _ in fresh):
        if not pending:
            return "complete", expanded
        if time.monotonic() > deadline:
            return "timed_out", expanded
        expanded += 1
        cost, seq, state = pending.pop()
        fresh = _successors(actions, init, seq, state, cost)
        pending += fresh
    return "truncated_k", expanded


def validate_plan(task: GroundedTask, plan: Plan) -> ValidationResult:
    """Check executability, goal satisfaction, and cost bookkeeping.

    On failure, reports the first violated step (goal violations use the
    index one past the last step) and the literal involved.
    """
    state = task.init
    total = 0
    for position, index in enumerate(plan.steps):
        if index < 0 or index >= len(task.actions):
            raise ValueError(f"plan references unknown action index {index}")
        action = task.actions[index]
        for unmet, problem in (
            (action.pre_pos & ~state, "precondition {} not satisfied"),
            (action.pre_neg & state, "negative precondition (not {}) violated"),
        ):
            if unmet:
                atom = FAtom(*task.atoms[_lowest_bit(unmet)]).render()
                reason = f"step {position} ({action.name}): " + problem.format(atom)
                return ValidationResult(False, position, reason)
        state = (state & ~action.delete) | action.add
        total += action.cost
    if not task.satisfies_goal(state):
        return ValidationResult(False, len(plan.steps), "goal not satisfied")
    if total != plan.cost:
        return ValidationResult(
            False, len(plan.steps), f"cost mismatch: steps sum to {total}, plan says {plan.cost}"
        )
    return ValidationResult(True)


def _lowest_bit(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


# --- plan text ---------------------------------------------------------------------


def render_plan(task: GroundedTask, plan: Plan) -> str:
    """One step per line as ``(name arg ...)`` plus a trailing cost comment."""
    lines = [task.actions[index].render() for index in plan.steps]
    lines.append(f"; cost = {plan.cost}")
    return "\n".join(lines) + "\n"


def parse_plan_text(task: GroundedTask, text: str) -> Plan:
    """Parse plan text back into indices against ``task``.

    Step names are matched through the action-alias table, so underscored
    renderings resolve to the same actions. A line that is not a step of
    ``task``, a ``; cost =`` line whose value is not an integer, or a step
    after the plan's cost line, which starts a second plan, raises
    MalformedRecord.
    """
    from .planning_model.aliases import canonical_action_name

    steps: list[int] = []
    total = 0
    declared_cost: int | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith(";"):
            comment = line.lstrip("; ").replace(" ", "")
            if comment.startswith("cost="):
                try:
                    declared_cost = int(comment[len("cost="):])
                except ValueError:
                    raise MalformedRecord(lineno, "plan cost is not an integer") from None
            continue
        if declared_cost is not None:
            raise MalformedRecord(lineno, "step after the plan's cost line: one plan per file")
        if not (line.startswith("(") and line.endswith(")")):
            raise MalformedRecord(lineno, "expected (name args...)")
        parts = line[1:-1].split()
        if not parts:
            raise MalformedRecord(lineno, "empty step")
        name = canonical_action_name(parts[0].lower())
        args = tuple(p.lower() for p in parts[1:])
        index = task.find_action(name, args)
        if index is None:
            raise MalformedRecord(lineno, f"unknown action ({name} {' '.join(args)})")
        steps.append(index)
        total += task.actions[index].cost
    return Plan(steps=tuple(steps), cost=declared_cost if declared_cost is not None else total)
