"""Reference grounder: typed Cartesian enumeration plus a naive relaxed loop.

This is the grounder ``planning_model.ground`` used before grounding became
a rule program on the inference engine. Every typed binding of every schema
is enumerated over alphabetically sorted objects, static literals are
checked against init per candidate, and a naive fixpoint over the surviving
candidates computes the delete-relaxed reachable atoms. Its output is the
specification the rule-program grounder must reproduce exactly: atoms,
init, goal, masks and action order.
"""

import itertools

from planhunt.errors import ResourceLimit
from planhunt.planning_model.ground import GroundedTask
from planhunt.planning_model.model import DomainModel, FAtom, GroundAtom, ProblemInstance

DEFAULT_ACTION_LIMIT = 10**6


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
        disjuncts = schema.precondition
        pools = [objects_of(p.type) for p in schema.parameters]
        combos = 1
        for pool in pools:
            combos *= len(pool)
        budget += combos * len(disjuncts)
        if budget > max_ground_actions:
            raise ResourceLimit(max_ground_actions)
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

    return GroundedTask.assemble(tuple(sorted(reachable)), surviving, init, problem.goal)


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
