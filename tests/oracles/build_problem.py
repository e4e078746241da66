"""Reference problem builder: every hypothesis types its whole init.

This is ``planning_model.state.build_problem`` as it was before the static
world: the capability atoms and the mapped derived atoms are joined, sorted
and checked together on every call, on top of the object template. It is
the reference for valid worlds, those whose capability atoms pass the
domain's checks and name no CVE like a template object, and samples whose
mapped atoms do not contradict the types the world's atoms give: there the
world-based builder must reproduce its problem's name, objects, init and
goal, or the same error. A world that fails its checks is rejected when
the assets load, and a mapped atom that contradicts the world's types is
the sample's error; this builder may instead blame whichever atom sorts
later.
"""

from planhunt.errors import InputError, UnmappedPredicate
from planhunt.inference.engine import Relations
from planhunt.planning_model.model import (
    THREAT_POSSIBLE,
    DomainModel,
    GroundAtom,
    ProblemInstance,
    ThreatHypothesis,
)
from planhunt.planning_model.state import CapabilityTable, MappingTable
from planhunt.telemetry import SampleRecord
from planhunt.vocab import ACCOUNT, APP, FACTOR, SENSORS


def construct_initial_state(
    derived: Relations,
    capabilities: CapabilityTable,
    mapping: MappingTable,
) -> frozenset[GroundAtom]:
    """Union of mapped derived facts and the static capability atoms.

    Every derived predicate must be mapped or explicitly ignored; anything
    else raises UnmappedPredicate.
    """
    atoms: set[GroundAtom] = set(capabilities.atoms())
    for fact in derived.sorted():
        atom = map_fact(mapping, fact.predicate, fact.args)
        if atom is not None:
            atoms.add(atom)
    return frozenset(atoms)


def map_fact(mapping: MappingTable, predicate: str, args: tuple) -> GroundAtom | None:
    """The atom one derived fact maps to, looked up in the table's entries
    and ignore lines by predicate and arity: None for an ignored predicate,
    UnmappedPredicate for one the table lacks. The planner's builder maps
    per predicate instead, its table checked whole when the assets load."""
    key = (predicate, len(args))
    if key in mapping.ignored:
        return None
    if key not in mapping.entries:
        raise UnmappedPredicate(predicate)
    name, slots = mapping.entries[key]
    return (name, tuple(str(args[i - 1]) for i in slots))


def construct_goal(hypothesis: ThreatHypothesis) -> GroundAtom:
    """The planning goal: the threat-possible atom for this hypothesis."""
    return (THREAT_POSSIBLE, (hypothesis.threat, hypothesis.mechanism, APP))


def build_problem(
    derived: Relations,
    sample: SampleRecord,
    domain: DomainModel,
    capabilities: CapabilityTable,
    mapping: MappingTable,
    hypothesis: ThreatHypothesis,
) -> ProblemInstance:
    """Assemble the per-sample planning problem for one hypothesis."""
    init = construct_initial_state(derived, capabilities, mapping)

    objects: dict[str, str] = {APP: "app"}
    for sensor in SENSORS:
        objects[sensor] = "sensor"
    for cve in capabilities.cves():
        objects[cve] = "vuln"
    objects[ACCOUNT] = "account"
    objects[FACTOR] = "factor"

    # Objects referenced by init atoms but absent from the template are
    # typed from the predicate schema they appear under.
    for predicate, args in sorted(init):
        schema = domain.predicates.get(predicate)
        if schema is None:
            raise InputError(
                f"initial-state atom uses undeclared predicate {predicate!r}"
            )
        if len(args) != len(schema.param_types):
            raise InputError(
                f"initial-state atom ({predicate} {' '.join(args)}) has arity "
                f"{len(args)}, predicate takes {len(schema.param_types)}"
            )
        for arg, want in zip(args, schema.param_types):
            if arg in domain.constants:
                have = domain.constants[arg]
            elif arg in objects:
                have = objects[arg]
            else:
                objects[arg] = want
                continue
            if not (
                domain.types.is_subtype(have, want)
                or domain.types.is_subtype(want, have)
            ):
                raise InputError(
                    f"object {arg!r} used as {want} but declared as {have}"
                )

    return ProblemInstance(
        name=f"hunt-{sample.sample_id}-{hypothesis.threat}-{hypothesis.mechanism}",
        domain_name=domain.name,
        objects=objects,
        init=init,
        goal=frozenset({construct_goal(hypothesis)}),
    )
