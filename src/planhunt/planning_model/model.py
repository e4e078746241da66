"""Typed STRIPS model: types, predicates, formulas, actions, problems."""

from dataclasses import dataclass
from functools import cached_property

from ..errors import UndeclaredType
from ..vocab import MECHANISMS, THREATS

__all__ = [
    "TypeHierarchy",
    "PredicateSchema",
    "Parameter",
    "Formula",
    "FAtom",
    "FAnd",
    "FOr",
    "FNot",
    "ActionSchema",
    "DomainModel",
    "ProblemInstance",
    "GroundAtom",
    "ThreatHypothesis",
    "THREAT_POSSIBLE",
]

# A ground atom is hashable data: (predicate, (arg, ...)).
GroundAtom = tuple[str, tuple[str, ...]]

THREAT_POSSIBLE = "threat-possible"

ROOT_TYPE = "object"


class TypeHierarchy:
    """Single-inheritance type tree rooted at ``object``."""

    def __init__(self):
        self._parent: dict[str, str | None] = {ROOT_TYPE: None}

    def declare(self, name: str, parent: str = ROOT_TYPE) -> None:
        if parent not in self._parent:
            raise UndeclaredType(parent)
        existing = self._parent.get(name)
        if existing is not None and existing != parent:
            raise UndeclaredType(f"{name} redeclared under {parent}")
        self._parent.setdefault(name, parent)

    def known(self, name: str) -> bool:
        return name in self._parent

    def is_subtype(self, name: str, ancestor: str) -> bool:
        return ancestor in self.chain(name)

    def chain(self, name: str) -> list[str]:
        """``name`` and its ancestors, up to ``object``."""
        if name not in self._parent:
            raise UndeclaredType(name)
        out = []
        current: str | None = name
        while current is not None:
            out.append(current)
            current = self._parent[current]
        return out


@dataclass(frozen=True)
class PredicateSchema:
    name: str
    param_types: tuple[str, ...]


@dataclass(frozen=True)
class Parameter:
    name: str  # keeps the '?' prefix, e.g. "?a"
    type: str


class Formula:
    """Base class for precondition/goal trees."""

    __slots__ = ()


@dataclass(frozen=True)
class FAtom(Formula):
    predicate: str
    args: tuple[str, ...]  # parameter names ("?x") or object names

    def render(self) -> str:
        if not self.args:
            return f"({self.predicate})"
        return f"({self.predicate} {' '.join(self.args)})"


@dataclass(frozen=True)
class FAnd(Formula):
    parts: tuple[Formula, ...]


@dataclass(frozen=True)
class FOr(Formula):
    parts: tuple[Formula, ...]


@dataclass(frozen=True)
class FNot(Formula):
    # Negation is atom-level only; the parser enforces this.
    atom: FAtom


@dataclass(frozen=True)
class ActionSchema:
    """A lifted action: conjunctive/disjunctive precondition, add/delete
    effects, a constant non-negative cost (unit unless declared)."""

    name: str
    parameters: tuple[Parameter, ...]
    precondition: Formula
    add: tuple[FAtom, ...]
    delete: tuple[FAtom, ...]
    cost: int = 1


@dataclass(frozen=True)
class DomainModel:
    name: str
    requirements: tuple[str, ...]
    types: TypeHierarchy
    predicates: dict[str, PredicateSchema]
    constants: dict[str, str]  # object -> type
    actions: tuple[ActionSchema, ...]

    @cached_property
    def exploration(self):
        """The grounding rule program, compiled on first use."""
        from .ground import explore_domain  # ground imports this module

        return explore_domain(self)

    def without_actions(self, names: tuple[str, ...]) -> "DomainModel":
        """A copy with the named actions removed (strict-domain mode)."""
        keep = tuple(a for a in self.actions if a.name not in names)
        return DomainModel(
            name=self.name,
            requirements=self.requirements,
            types=self.types,
            predicates=self.predicates,
            constants=self.constants,
            actions=keep,
        )


@dataclass(frozen=True)
class ProblemInstance:
    name: str
    domain_name: str
    objects: dict[str, str]  # object -> type (domain constants excluded)
    init: frozenset[GroundAtom]
    goal: Formula


@dataclass(frozen=True)
class ThreatHypothesis:
    """One catalog entry: a threat/mechanism pair for the subject app."""

    threat: str
    mechanism: str

    def __post_init__(self):
        if self.threat not in THREATS:
            raise ValueError(f"unknown threat {self.threat!r}")
        if self.mechanism not in MECHANISMS:
            raise ValueError(f"unknown mechanism {self.mechanism!r}")

    @property
    def label(self) -> str:
        return f"{self.threat}/{self.mechanism}"


def default_catalog() -> tuple[ThreatHypothesis, ...]:
    """All threat/mechanism combinations, in reporting order."""
    return tuple(
        ThreatHypothesis(threat, mechanism) for threat in THREATS for mechanism in MECHANISMS
    )
