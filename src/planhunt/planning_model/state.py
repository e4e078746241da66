"""Initial-state and goal construction from derived facts.

Derived predicates pass into the initial state through a mapping table of
atom templates; static world knowledge (which vulnerability escalates
privileges, enables a sensor, or pivots to another) is injected from a
capability table. Problem objects come from a fixed template (the subject
app, the sensor list, one account and one second factor) plus every
vulnerability the capability table or the derived facts mention.

A problem has two parts. The static world (``StaticWorld``) holds the
template, the capability atoms and the objects they type, checked against
the domain once. An asset bundle builds it on first use
(``HuntAssets.world``) and shares it across samples and hypotheses; its
grounding seed is built on the first grounding. Per hypothesis,
``build_problem`` checks and types only the mapped atoms the world lacks.
"""

import re
from dataclasses import dataclass
from functools import cached_property

from ..errors import InputError, MalformedRecord, UnmappedPredicate
from ..inference.engine import Relations
from ..telemetry import SampleRecord
from ..vocab import ACCOUNT, APP, FACTOR, SENSORS
from .ground import add_rows
from .model import (
    DomainModel,
    GroundAtom,
    ProblemInstance,
    ThreatHypothesis,
    THREAT_POSSIBLE,
)

__all__ = [
    "CapabilityRow",
    "CapabilityTable",
    "MappingTable",
    "load_capability_table",
    "load_mapping_table",
    "mapped_atoms",
    "construct_goal",
    "StaticWorld",
    "build_problem",
]

CAPABILITIES = {
    "enables-privilege-escalation": 0,  # value: extra argument count
    "enables-sensor": 1,
    "pivot-exploit-from-to": 1,
}

SOURCES = ("core", "extended")


@dataclass(frozen=True)
class CapabilityRow:
    cve: str
    capability: str
    argument: str | None
    source: str

    def to_atom(self) -> GroundAtom:
        if self.argument is None:
            return (self.capability, (self.cve,))
        return (self.capability, (self.cve, self.argument))


@dataclass(frozen=True)
class CapabilityTable:
    rows: tuple[CapabilityRow, ...]

    def atoms(self) -> list[GroundAtom]:
        return [row.to_atom() for row in self.rows]

    def cves(self) -> list[str]:
        seen = {row.cve for row in self.rows}
        seen.update(
            row.argument
            for row in self.rows
            if row.capability == "pivot-exploit-from-to" and row.argument
        )
        return sorted(seen)


def load_capability_table(text: str) -> CapabilityTable:
    """Parse the whitespace-separated table: cve capability argument source.

    A ``-`` argument means the capability takes no extra argument.
    """
    rows: list[CapabilityRow] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 4:
            raise MalformedRecord(lineno, f"expected 4 columns, got {len(parts)}")
        cve, capability, argument, origin = parts
        if capability not in CAPABILITIES:
            raise MalformedRecord(lineno, f"unknown capability {capability!r}")
        want_arg = CAPABILITIES[capability]
        if want_arg == 0 and argument != "-":
            raise MalformedRecord(lineno, f"{capability} takes no argument")
        if want_arg == 1 and argument == "-":
            raise MalformedRecord(lineno, f"{capability} needs an argument")
        if origin not in SOURCES:
            raise MalformedRecord(lineno, f"unknown source {origin!r}")
        rows.append(
            CapabilityRow(
                cve=cve,
                capability=capability,
                argument=None if argument == "-" else argument,
                source=origin,
            )
        )
    return CapabilityTable(rows=tuple(rows))


_TEMPLATE_RE = re.compile(
    r"\(\s*(?P<name>[a-z][a-z0-9_-]*)\s*(?P<slots>(?:\$\d+\s*)*)\)\s*\Z"
)
_ENTRY_RE = re.compile(
    r"(?P<pred>[a-z][A-Za-z0-9_-]*)\s*/\s*(?P<arity>\d+)\s+(?P<template>\(.*\))\s*\Z"
)
_IGNORE_RE = re.compile(
    r"ignore\s+(?P<pred>[a-z][A-Za-z0-9_-]*)\s*/\s*(?P<arity>\d+)\s*\Z"
)


@dataclass(frozen=True)
class MappingTable:
    """Derived predicate -> initial-state atom template.

    Each entry maps a predicate/arity to a target atom name and an argument
    slot order (1-based indices into the derived fact's arguments).
    """

    entries: dict[tuple[str, int], tuple[str, tuple[int, ...]]]
    ignored: frozenset[tuple[str, int]]

    def map_fact(self, predicate: str, args: tuple) -> GroundAtom | None:
        key = (predicate, len(args))
        if key in self.ignored:
            return None
        entry = self.entries.get(key)
        if entry is None:
            raise UnmappedPredicate(predicate)
        name, slots = entry
        return (name, tuple(str(args[i - 1]) for i in slots))


def load_mapping_table(text: str) -> MappingTable:
    entries: dict[tuple[str, int], tuple[str, tuple[int, ...]]] = {}
    ignored: set[tuple[str, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        match = _IGNORE_RE.match(line)
        if match:
            ignored.add((match.group("pred"), int(match.group("arity"))))
            continue
        match = _ENTRY_RE.match(line)
        if match is None:
            raise MalformedRecord(lineno, f"bad mapping line: {line!r}")
        template = _TEMPLATE_RE.match(match.group("template"))
        if template is None:
            raise MalformedRecord(lineno, f"bad atom template: {match.group('template')!r}")
        arity = int(match.group("arity"))
        slots = tuple(int(s[1:]) for s in template.group("slots").split())
        if any(s < 1 or s > arity for s in slots):
            raise MalformedRecord(lineno, "template slot out of range")
        entries[(match.group("pred"), arity)] = (template.group("name"), slots)
    return MappingTable(entries=entries, ignored=frozenset(ignored))


def mapped_atoms(derived: Relations, mapping: MappingTable) -> frozenset[GroundAtom]:
    """The initial-state atoms the derived facts map to.

    Every derived predicate must be mapped or explicitly ignored; anything
    else raises UnmappedPredicate (the first in sorted fact order).
    """
    atoms: set[GroundAtom] = set()
    for fact in derived.sorted():
        atom = mapping.map_fact(fact.predicate, fact.args)
        if atom is not None:
            atoms.add(atom)
    return frozenset(atoms)


def construct_goal(hypothesis: ThreatHypothesis) -> GroundAtom:
    """The planning goal: the threat-possible atom for this hypothesis."""
    return (THREAT_POSSIBLE, (hypothesis.threat, hypothesis.mechanism, APP))


def _type_atoms(atoms, objects: dict[str, str], domain: DomainModel) -> None:
    """Check atoms, in sorted order, against their predicate schemas; an
    object that neither ``objects`` nor the domain's constants hold is
    typed into ``objects`` from the first atom it appears in."""
    for predicate, args in sorted(atoms):
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


@dataclass(frozen=True, eq=False)
class StaticWorld:
    """The part of every problem that a domain and a capability table fix.

    ``HuntAssets.world`` builds it on first use and every sample and
    hypothesis of the bundle shares it. Its atoms are the capability atoms,
    checked once here; its objects are the template plus the objects those
    atoms type (``typed``). When an atom fails a check, ``typed`` is None
    and ``objects`` is just the template, so each problem checks its whole
    init and raises where it always did.
    """

    domain: DomainModel
    template: dict[str, str]
    atoms: frozenset[GroundAtom]
    objects: dict[str, str]
    typed: frozenset[str] | None

    @classmethod
    def build(cls, domain: DomainModel, capabilities: CapabilityTable) -> "StaticWorld":
        template: dict[str, str] = {APP: "app"}
        for sensor in SENSORS:
            template[sensor] = "sensor"
        for cve in capabilities.cves():
            template[cve] = "vuln"
        template[ACCOUNT] = "account"
        template[FACTOR] = "factor"
        atoms = frozenset(capabilities.atoms())
        objects = dict(template)
        try:
            _type_atoms(atoms, objects, domain)
        except InputError:
            return cls(domain, template, atoms, template, None)
        return cls(domain, template, atoms, objects, frozenset(objects.keys() - template.keys()))

    @cached_property
    def seed(self) -> Relations:
        """The grounding store's rows for the world: its atoms, and the
        type rows of its objects and the domain's constants. Built on the
        first grounding, since it needs the domain's exploration program."""
        seed = Relations()
        add_rows(seed, self.domain, self.atoms, {**self.domain.constants, **self.objects})
        return seed


def build_problem(
    derived: Relations,
    sample: SampleRecord,
    world: StaticWorld,
    mapping: MappingTable,
    hypothesis: ThreatHypothesis,
) -> ProblemInstance:
    """Assemble the per-sample planning problem for one hypothesis.

    The init is the world's atoms plus the mapped derived atoms. Only the
    mapped atoms the world lacks are checked and typed, on top of the
    world's objects. If the world failed its checks, or one of those atoms
    names an object the world's atoms typed, the whole init is checked on
    top of the template instead. Either way the objects and any error are
    those of checking the init in sorted order.
    """
    domain = world.domain
    own = mapped_atoms(derived, mapping) - world.atoms
    init = world.atoms | own
    if world.typed is not None and world.typed.isdisjoint(a for _, args in own for a in args):
        objects, extends = dict(world.objects), world
        _type_atoms(own, objects, domain)
    else:
        objects, extends = dict(world.template), None
        _type_atoms(init, objects, domain)

    return ProblemInstance(
        name=f"hunt-{sample.sample_id}-{hypothesis.threat}-{hypothesis.mechanism}",
        domain_name=domain.name,
        objects=objects,
        init=init,
        goal=frozenset({construct_goal(hypothesis)}),
        world=extends,
    )
