"""Typed grounding: schemas x objects -> propositional task.

Disjunctive preconditions are compiled at the lifted level into DNF; each
disjunct becomes its own ground action (identical effects) whose name gains
a ``~orN`` suffix when a schema has more than one disjunct. Ground actions
whose static precondition literals fail in the initial state are pruned
(static = predicate never occurring in any effect), and the atom universe
is restricted to delete-relaxed reachable atoms, which also drops actions
that can never fire and negative literals that can never be false.
"""

import itertools
import logging
from dataclasses import dataclass

from ..errors import GroundingExplosion
from .model import (
    DomainModel,
    FAnd,
    FAtom,
    FNot,
    FOr,
    Formula,
    GroundAtom,
    ProblemInstance,
)

logger = logging.getLogger(__name__)

__all__ = ["GroundAction", "GroundedTask", "ground_task", "formula_to_ast"]

DEFAULT_ACTION_LIMIT = 10**6
# DNF size guard: disjunct count per schema beyond this is a modeling error.
MAX_DISJUNCTS = 64

# Goal ASTs are plain data so independent implementations can evaluate them:
# ("atom", GroundAtom) | ("and", (ast, ...)) | ("or", (ast, ...))
# | ("not", ast) | ("true",) | ("false",)
GoalAst = tuple


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
        if self.args:
            return f"({self.name} {' '.join(self.args)})"
        return f"({self.name})"


@dataclass(frozen=True)
class GroundedTask:
    """A propositional task: indexed atoms, bitmask init, goal AST, actions.

    Atom indices are a bijection onto the delete-relaxed reachable atom set;
    action order (the tie-break order for plan enumeration) follows schema
    declaration order, then parameter binding order over alphabetically
    sorted objects, then disjunct index.
    """

    atoms: tuple[GroundAtom, ...]
    atom_index: dict[GroundAtom, int]
    actions: tuple[GroundAction, ...]
    init: int
    goal_ast: GoalAst
    domain_name: str = ""
    problem_name: str = ""

    def satisfies_goal(self, state: int) -> bool:
        return eval_ast_mask(self.goal_ast, state, self.atom_index)

    def find_action(self, name: str, args: tuple[str, ...]) -> int | None:
        for i, action in enumerate(self.actions):
            if action.name == name and action.args == args:
                return i
        return None

    @classmethod
    def assemble(
        cls,
        atoms,
        action_specs,
        init_atoms,
        goal_ast: GoalAst,
        domain_name: str = "",
        problem_name: str = "",
    ) -> "GroundedTask":
        """Build a task from symbolic pieces (used directly by test task
        generators; ground_task goes through here too).

        ``action_specs`` rows: (name, schema, args, disjunct, pre_pos,
        pre_neg, add, delete, cost), the four middle entries being atom
        collections that become the action's bitmasks.
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
        return cls(
            atoms=atoms,
            atom_index=index,
            actions=actions,
            init=mask(init_atoms),
            goal_ast=goal_ast,
            domain_name=domain_name,
            problem_name=problem_name,
        )


# --- formula helpers ---------------------------------------------------------------


def _dnf(formula: Formula) -> list[list[tuple[FAtom, bool]]]:
    """Lifted DNF: a list of disjuncts, each a list of (atom, negated)."""
    if isinstance(formula, FAtom):
        return [[(formula, False)]]
    if isinstance(formula, FNot):
        return [[(formula.atom, True)]]
    if isinstance(formula, FAnd):
        disjuncts: list[list[tuple[FAtom, bool]]] = [[]]
        for part in formula.parts:
            expanded = []
            for left in disjuncts:
                for right in _dnf(part):
                    expanded.append(left + right)
                    if len(expanded) > MAX_DISJUNCTS:
                        raise GroundingExplosion(MAX_DISJUNCTS)
            disjuncts = expanded
        return disjuncts
    if isinstance(formula, FOr):
        out: list[list[tuple[FAtom, bool]]] = []
        for part in formula.parts:
            out.extend(_dnf(part))
            if len(out) > MAX_DISJUNCTS:
                raise GroundingExplosion(MAX_DISJUNCTS)
        return out
    raise TypeError(f"unknown formula node {formula!r}")


def formula_to_ast(formula: Formula, binding: dict[str, str] | None = None) -> GoalAst:
    """Ground a formula into the plain-data goal AST."""
    binding = binding or {}

    def ground_atom(atom: FAtom) -> GroundAtom:
        return (atom.predicate, tuple(binding.get(a, a) for a in atom.args))

    if isinstance(formula, FAtom):
        return ("atom", ground_atom(formula))
    if isinstance(formula, FNot):
        return ("not", ("atom", ground_atom(formula.atom)))
    if isinstance(formula, FAnd):
        if not formula.parts:
            return ("true",)
        return ("and", tuple(formula_to_ast(p, binding) for p in formula.parts))
    if isinstance(formula, FOr):
        if not formula.parts:
            return ("false",)
        return ("or", tuple(formula_to_ast(p, binding) for p in formula.parts))
    raise TypeError(f"unknown formula node {formula!r}")


def eval_ast_mask(ast: GoalAst, state: int, index: dict[GroundAtom, int]) -> bool:
    """Evaluate a goal AST against a bitmask state; atoms outside the
    universe are false."""
    tag = ast[0]
    if tag == "atom":
        i = index.get(ast[1])
        return i is not None and bool(state >> i & 1)
    if tag == "not":
        return not eval_ast_mask(ast[1], state, index)
    if tag == "and":
        return all(eval_ast_mask(p, state, index) for p in ast[1])
    if tag == "or":
        return any(eval_ast_mask(p, state, index) for p in ast[1])
    if tag == "true":
        return True
    if tag == "false":
        return False
    raise ValueError(f"unknown ast node {tag!r}")


# --- grounding ---------------------------------------------------------------------


def ground_task(
    domain: DomainModel,
    problem: ProblemInstance,
    max_ground_actions: int = DEFAULT_ACTION_LIMIT,
) -> GroundedTask:
    objects: dict[str, str] = dict(domain.constants)
    objects.update(problem.objects)

    # Alphabetical object order per type drives deterministic binding order.
    def objects_of(type_name: str) -> list[str]:
        return sorted(
            obj for obj, t in objects.items() if domain.types.is_subtype(t, type_name)
        )

    static_preds = _static_predicates(domain)
    init = frozenset(problem.init)

    candidates: list[tuple[str, str, tuple[str, ...], int | None, list, list, list, list, int]] = []
    budget = 0
    for schema in domain.actions:
        disjuncts = _dnf(schema.precondition)
        pools = [objects_of(p.type) for p in schema.parameters]
        combos = 1
        for pool in pools:
            combos *= len(pool)
        budget += combos * len(disjuncts)
        if budget > max_ground_actions:
            raise GroundingExplosion(max_ground_actions)
        suffix_needed = len(disjuncts) > 1
        for assignment in itertools.product(*pools):
            binding = {
                p.name: obj for p, obj in zip(schema.parameters, assignment)
            }
            add = [_bind(atom, binding) for atom in schema.add]
            delete = [_bind(atom, binding) for atom in schema.delete]
            if set(add) & set(delete):
                continue  # contradictory instantiation
            for d_index, disjunct in enumerate(disjuncts, start=1):
                pre_pos: list[GroundAtom] = []
                pre_neg: list[GroundAtom] = []
                ok = True
                seen: set[tuple[GroundAtom, bool]] = set()
                for atom, negated in disjunct:
                    ground = _bind(atom, binding)
                    if (ground, negated) in seen:
                        continue
                    seen.add((ground, negated))
                    if (ground, not negated) in seen:
                        ok = False  # p and (not p) in one disjunct
                        break
                    # Static literals are resolved against init right away.
                    if atom.predicate in static_preds:
                        holds = ground in init
                        if holds == negated:
                            ok = False
                            break
                    (pre_neg if negated else pre_pos).append(ground)
                if not ok:
                    continue
                name = schema.name + (f"~or{d_index}" if suffix_needed else "")
                candidates.append(
                    (
                        name,
                        schema.name,
                        assignment,
                        d_index if suffix_needed else None,
                        pre_pos,
                        pre_neg,
                        add,
                        delete,
                        schema.cost,
                    )
                )

    # Delete-relaxed reachability over the static-pruned candidates.
    reachable: set[GroundAtom] = set(init)
    alive = [False] * len(candidates)
    changed = True
    while changed:
        changed = False
        for i, cand in enumerate(candidates):
            if alive[i]:
                continue
            if all(atom in reachable for atom in cand[4]):
                alive[i] = True
                new_atoms = [a for a in cand[6] if a not in reachable]
                if new_atoms:
                    reachable.update(new_atoms)
                changed = True

    surviving = []
    for i, cand in enumerate(candidates):
        if not alive[i]:
            continue
        name, schema_name, args, disjunct, pre_pos, pre_neg, add, delete, cost = cand
        # An unreachable negated atom can never become true, so the literal
        # always holds and is dropped; same for deletes of unreachable atoms.
        pre_neg = [a for a in pre_neg if a in reachable]
        delete = [a for a in delete if a in reachable]
        surviving.append(
            (name, schema_name, args, disjunct, pre_pos, pre_neg, add, delete, cost)
        )

    atoms = tuple(sorted(reachable))
    goal_ast = formula_to_ast(problem.goal)
    task = GroundedTask.assemble(
        atoms,
        surviving,
        init,
        goal_ast,
        domain_name=domain.name,
        problem_name=problem.name,
    )
    logger.debug(
        "grounded %s/%s: %d atoms, %d actions",
        domain.name,
        problem.name,
        len(task.atoms),
        len(task.actions),
    )
    return task


def _bind(atom: FAtom, binding: dict[str, str]) -> GroundAtom:
    return (atom.predicate, tuple(binding.get(a, a) for a in atom.args))


def _static_predicates(domain: DomainModel) -> set[str]:
    dynamic = set()
    for schema in domain.actions:
        for atom in schema.add:
            dynamic.add(atom.predicate)
        for atom in schema.delete:
            dynamic.add(atom.predicate)
    return set(domain.predicates) - dynamic
