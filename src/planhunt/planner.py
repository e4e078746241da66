"""Top-k plan enumeration over grounded tasks.

``find_top_k`` runs best-first search over the space of simple paths
(no repeated state within one path), ordered by accumulated cost with ties
broken lexicographically over ground-action index sequences. Every popped
path whose state satisfies the goal is emitted as a plan; expansion
continues through goal states so longer plans that pass through them are
found too. No state-level dominance pruning is applied: with the
simple-path constraint such pruning can drop valid plans, and shipped task
sizes do not need it.

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
    truncated_k     k plans returned, candidate paths remained
    truncated_limit the memory budget cut enumeration short
    timed_out       the wall clock expired
    no_plan         exhaustive search found nothing, or the task has no
                    goal mask (for a grounded task: a goal atom is
                    delete-relaxed unreachable, or static and not in the
                    init), settled without search with expanded 0
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
    if task.goal is None:
        return PlanSet(plans=(), status="no_plan")
    deadline = time.monotonic() + limits.wall_time

    actions = task.actions
    # A state is an int over the task's atoms, which are fluent only.
    state_bytes = 48 + (len(task.atoms) >> 3)
    heap: list[tuple[int, tuple[int, ...], int]] = [(0, (), task.init)]
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
        cost, seq, state = heapq.heappop(heap)
        if task.satisfies_goal(state):
            plans.append(Plan(steps=seq, cost=cost))
            if len(plans) >= limits.k:
                status = "truncated_k" if heap else "complete"
                break
        expanded += 1
        visited = _trajectory(task, seq)
        for index, action in enumerate(actions):
            if (state & action.pre_pos) != action.pre_pos or state & action.pre_neg:
                continue
            successor = (state & ~action.delete) | action.add
            if successor in visited:
                continue
            next_seq = seq + (index,)
            if len(next_seq) > longest:
                longest = len(next_seq)
            heapq.heappush(heap, (cost + action.cost, next_seq, successor))

    if status is None:
        # Frontier exhausted below k plans.
        status = "complete" if plans else "no_plan"
    return PlanSet(
        plans=tuple(plans),
        status=status,
        expanded=expanded,
    )


def _trajectory(task: GroundedTask, seq: tuple[int, ...]) -> set[int]:
    """States visited along a path, recomputed from the action sequence.

    Recomputing trades a little CPU for not storing a visited set per
    frontier entry.
    """
    state = task.init
    visited = {state}
    for index in seq:
        action = task.actions[index]
        state = (state & ~action.delete) | action.add
        visited.add(state)
    return visited


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
