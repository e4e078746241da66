"""Initial-state and goal construction from derived facts.

Derived predicates pass into the initial state through a mapping table of
atom templates; static world knowledge (which vulnerability escalates
privileges, enables a sensor, or pivots to another) is injected from a
capability table. Problem objects come from a fixed template (the subject
app, the sensor list, one account and one second factor) plus every
vulnerability the capability table or the derived facts mention.
"""

import re
from dataclasses import dataclass

from ..errors import InputError, MalformedRecord, UnmappedPredicate
from ..inference.engine import Relations
from ..telemetry import SampleRecord
from ..vocab import ACCOUNT, APP, FACTOR, SENSORS
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
    "construct_initial_state",
    "construct_goal",
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
        atom = mapping.map_fact(fact.predicate, fact.args)
        if atom is not None:
            atoms.add(atom)
    return frozenset(atoms)


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
