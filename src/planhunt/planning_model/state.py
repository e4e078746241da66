"""Initial-state and goal construction from derived facts.

Derived predicates pass into the initial state through a mapping table of
atom templates; static world knowledge (which vulnerability escalates
privileges, enables a sensor, or pivots to another) is injected from a
capability table. Problem objects come from a fixed template (the subject
app, the sensor list, one account and one second factor) plus every
vulnerability the capability table or the derived facts mention.

A problem has two parts. The static world (``StaticWorld``) holds the
capability atoms and the objects of the template and of those atoms,
checked against the domain once: ``HuntAssets.load`` builds it, so a table
that fails the checks is rejected at load, and every sample and hypothesis
of the bundle shares it. Its model, the store of its grounding rows
saturated under the domain's exploration program, is built on the first
grounding. Per sample, ``build_problem`` checks and types only the mapped
atoms the world lacks, on top of the world's objects, and the problem's
init and objects read the world's through views instead of copying them;
``pose`` adds a hypothesis's name suffix and goal, and shares the rest.
"""

import re
from collections import ChainMap
from collections.abc import MutableMapping
from dataclasses import dataclass, field
from functools import cached_property

from ..defaults import table_lines
from ..errors import InputError, MalformedRecord, UnmappedPredicate
from ..inference.engine import Relations, saturate
from ..inference.rules import RulePack, Var
from ..telemetry import SampleRecord
from ..vocab import ACCOUNT, APP, FACTOR, SENSORS
from .ground import add_rows
from .model import (
    DomainModel,
    GroundAtom,
    ProblemInstance,
    ThreatHypothesis,
    THREAT_POSSIBLE,
    WorldAtoms,
)

__all__ = [
    "CapabilityRow",
    "CapabilityTable",
    "MappingTable",
    "load_capability_table",
    "load_mapping_table",
    "mapped_atoms",
    "StaticWorld",
    "build_problem",
    "pose",
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

    A ``-`` argument means the capability takes no extra argument. Tokens
    are case-insensitive and normalized to lowercase, like PDDL symbols.
    """
    rows: list[CapabilityRow] = []
    for lineno, line in table_lines(text):
        parts = line.lower().split()
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
        rows.append(CapabilityRow(cve, capability, None if argument == "-" else argument))
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

    def check(self, world: "StaticWorld", pack: RulePack) -> None:
        """Raise InputError at the first entry, in file order, whose target
        predicate the world's domain does not declare or takes another
        number of arguments than the entry has slots; then at the first
        head of ``pack``'s rules that sends a constant through an entry into
        a slot whose parameter type does not fit the constant's type, taken
        from the domain's constants or the world's objects. A constant
        neither types is typed by the sample. Last, raise UnmappedPredicate
        at the first intensional predicate of ``pack.declared`` that the map
        neither maps nor ignores at its declared arity."""
        domain, types = world.domain, world.domain.types
        for (pred, arity), (name, slots) in self.entries.items():
            schema = domain.predicates.get(name)
            if schema is None or len(schema.param_types) != len(slots):
                reason = (
                    f"undeclared predicate {name!r}" if schema is None
                    else f"predicate takes {len(schema.param_types)}, template has {len(slots)}"
                )
                raise InputError(f"{pred}/{arity} maps to ({_template(name, slots)}): {reason}")
        for head in (rule.head for rule in pack.rules):
            entry = self.entries.get((head.predicate, len(head.args)))
            if entry is None:
                continue
            name, slots = entry
            for slot, want in zip(slots, domain.predicates[name].param_types):
                arg = head.args[slot - 1]
                if isinstance(arg, Var):
                    continue
                have = domain.constants.get(str(arg)) or world.objects.get(str(arg))
                if have and not (types.is_subtype(have, want) or types.is_subtype(want, have)):
                    raise InputError(
                        f"{head.predicate}/{len(head.args)} maps to ({_template(name, slots)}): "
                        f"object {str(arg)!r} used as {want} but declared as {have}, "
                        f"in rule head {head}"
                    )
        for pred, (arity, kind) in pack.declared.items():
            key = (pred, arity)
            if kind == "intensional" and key not in self.entries and key not in self.ignored:
                raise UnmappedPredicate(pred)


def _template(name: str, slots: tuple[int, ...]) -> str:
    return " ".join([name, *(f"${s}" for s in slots)])


def load_mapping_table(text: str) -> MappingTable:
    """Parse ``pred/arity (name $i ...)`` and ``ignore pred/arity`` lines;
    a second line for one predicate/arity raises MalformedRecord."""
    entries: dict[tuple[str, int], tuple[str, tuple[int, ...]]] = {}
    ignored: set[tuple[str, int]] = set()
    for lineno, line in table_lines(text):
        match = _IGNORE_RE.match(line) or _ENTRY_RE.match(line)
        if match is None:
            raise MalformedRecord(lineno, f"bad mapping line: {line!r}")
        key = (match.group("pred"), int(match.group("arity")))
        if key in entries or key in ignored:
            raise MalformedRecord(lineno, f"second line for {key[0]}/{key[1]}")
        if match.re is _IGNORE_RE:
            ignored.add(key)
            continue
        template = _TEMPLATE_RE.match(match.group("template"))
        if template is None:
            raise MalformedRecord(lineno, f"bad atom template: {match.group('template')!r}")
        slots = tuple(int(s[1:]) for s in template.group("slots").split())
        if any(s < 1 or s > key[1] for s in slots):
            raise MalformedRecord(lineno, "template slot out of range")
        entries[key] = (template.group("name"), slots)
    return MappingTable(entries=entries, ignored=frozenset(ignored))


def mapped_atoms(derived: Relations, mapping: MappingTable) -> frozenset[GroundAtom]:
    """The initial-state atoms the derived facts map to: each entry's
    template filled from every row of its predicate, when the store holds
    that predicate at the entry's arity. ``MappingTable.check`` has seen
    that the map covers every predicate the pack derives."""
    return frozenset(
        (name, tuple(str(row[i - 1]) for i in slots))
        for (pred, arity), (name, slots) in mapping.entries.items()
        if derived.arity.get(pred) == arity
        for row in derived.rows(pred)
    )


def _type_atoms(atoms, objects: MutableMapping[str, str], domain: DomainModel) -> None:
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

    ``HuntAssets.load`` builds it and every sample and hypothesis of the
    bundle shares it. Its atoms are the capability atoms; its objects are
    the template, with the catalog's CVEs as vulns, plus the objects those
    atoms type.
    """

    domain: DomainModel
    atoms: frozenset[GroundAtom]
    objects: dict[str, str]
    # ground_task's memo: (own atoms, own objects, spent, task without goal)
    # of the last problem it grounded on this world.
    grounded: tuple | None = field(default=None, init=False, repr=False)

    @classmethod
    def build(cls, domain: DomainModel, capabilities: CapabilityTable) -> "StaticWorld":
        """Check the capability atoms, in sorted order, on top of the
        template; raise InputError if one fails, or if a CVE is named like
        a template object."""
        objects = {APP: "app", **dict.fromkeys(SENSORS, "sensor")}
        for cve in capabilities.cves():
            if objects.setdefault(cve, "vuln") != "vuln":
                raise InputError(f"object {cve!r} used as vuln but declared as {objects[cve]}")
        objects.update({ACCOUNT: "account", FACTOR: "factor"})
        atoms = frozenset(capabilities.atoms())
        _type_atoms(atoms, objects, domain)
        return cls(domain, atoms, objects)

    @cached_property
    def model(self) -> Relations:
        """The grounding store of the world's rows (its atoms, and the type
        rows of its objects and the domain's constants) with their model
        under the domain's exploration program. Built on the first
        grounding, since it needs the program."""
        store = Relations()
        add_rows(store, self.domain, self.atoms, {**self.domain.constants, **self.objects})
        saturate(self.domain.exploration.program, store)
        return store


def build_problem(
    derived: Relations, sample: SampleRecord, world: StaticWorld, mapping: MappingTable
) -> ProblemInstance:
    """Assemble a sample's planning problem, without a goal: ``pose`` sets one.

    The init is the world's atoms plus the mapped derived atoms, read
    through a ``WorldAtoms`` view, and the objects are the world's plus
    those the mapped atoms type, through a ``ChainMap``. The mapped
    atoms the world lacks are checked, in sorted order, on top of the
    world's objects, so an atom that contradicts the world's types is the
    sample's error; an object only they name is typed from the first of
    them it appears in. A map that lacks a derived predicate fails at load.
    """
    domain = world.domain
    own = mapped_atoms(derived, mapping) - world.atoms
    objects = ChainMap({}, world.objects)
    _type_atoms(own, objects, domain)
    return ProblemInstance(
        name=f"hunt-{sample.sample_id}",
        domain_name=domain.name,
        objects=objects,
        init=WorldAtoms(world.atoms, own),
        goal=frozenset(),
        world=world,
    )


def pose(problem: ProblemInstance, hypothesis: ThreatHypothesis) -> ProblemInstance:
    """``problem`` named for a hypothesis, with its threat-possible atom as
    the goal; the init, objects and world stay ``problem``'s own objects."""
    threat, mechanism = hypothesis.threat, hypothesis.mechanism
    goal = frozenset({(THREAT_POSSIBLE, (threat, mechanism, APP))})
    return ProblemInstance(
        f"{problem.name}-{threat}-{mechanism}", problem.domain_name,
        problem.objects, problem.init, goal, problem.world,
    )
