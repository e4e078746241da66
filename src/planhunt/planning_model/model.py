"""Typed STRIPS model: types, predicates, actions with DNF preconditions, problems."""

from collections.abc import Mapping, Set
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import chain
from typing import TYPE_CHECKING

from ..errors import InputError, UndeclaredType

if TYPE_CHECKING:
    from .state import StaticWorld

__all__ = [
    "TypeHierarchy",
    "PredicateSchema",
    "Parameter",
    "FAtom",
    "Precondition",
    "ActionSchema",
    "DomainModel",
    "ProblemInstance",
    "WorldAtoms",
    "GroundAtom",
    "ThreatHypothesis",
    "hypothesis_catalog",
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


@dataclass(frozen=True)
class FAtom:
    predicate: str
    args: tuple[str, ...]  # parameter names ("?x") or object names

    def render(self) -> str:
        return f"({' '.join((self.predicate, *self.args))})"


# A precondition in disjunctive normal form: its disjuncts, each a tuple of
# (atom, negated) literals. Disjunct order numbers the ``~orN`` ground
# actions and the ``@N`` indicator templates; no precondition is one empty
# disjunct.
Precondition = tuple[tuple[tuple[FAtom, bool], ...], ...]


@dataclass(frozen=True)
class ActionSchema:
    """A lifted action: a precondition in disjunctive normal form, add/delete
    effects, a constant non-negative cost (unit unless declared)."""

    name: str
    parameters: tuple[Parameter, ...]
    precondition: Precondition
    add: tuple[FAtom, ...]
    delete: tuple[FAtom, ...]
    cost: int = 1


@dataclass(frozen=True)
class DomainModel:
    name: str
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
        return replace(self, actions=tuple(a for a in self.actions if a.name not in names))


class WorldAtoms(Set):
    """A problem's init on a static world, read through without a copy:
    the world's atoms and ``own``, the problem's atoms the world lacks."""

    __slots__ = ("world", "own")

    def __init__(self, world: frozenset[GroundAtom], own: frozenset[GroundAtom]):
        self.world = world
        self.own = own

    def __contains__(self, atom) -> bool:
        return atom in self.own or atom in self.world

    def __iter__(self):
        return chain(self.world, self.own)

    def __len__(self) -> int:
        return len(self.world) + len(self.own)

    # Set operators on a view build frozensets.
    _from_iterable = frozenset


@dataclass(frozen=True)
class ProblemInstance:
    name: str
    domain_name: str
    objects: Mapping[str, str]  # object -> type (domain constants excluded)
    init: Set[GroundAtom]
    goal: frozenset[GroundAtom]  # every atom must hold
    # The state.StaticWorld this problem extends. state.build_problem sets
    # it, with ``init`` a WorldAtoms view and ``objects`` a ChainMap whose
    # first map holds the objects the world lacks, so neither copies the world.
    # state.pose keeps all three, and so does dataclasses.replace: ground_task
    # takes the world's path only while init is a WorldAtoms and objects a
    # ChainMap, and grounds any other copy from scratch.
    world: "StaticWorld | None" = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class ThreatHypothesis:
    """One catalog entry: a threat/mechanism pair for the subject app."""

    threat: str
    mechanism: str

    @property
    def label(self) -> str:
        return f"{self.threat}/{self.mechanism}"


def hypothesis_catalog(domain: DomainModel) -> tuple[ThreatHypothesis, ...]:
    """The hunt's hypotheses: each ``threat`` constant of ``domain`` with
    each ``mechanism`` constant (a subtype's constants count), threat-major,
    in declaration order. A domain without either raises InputError."""
    threats, mechanisms = (
        [name for name, type_name in domain.constants.items() if domain.types.is_subtype(type_name, kind)]
        for kind in ("threat", "mechanism"))
    if not (threats and mechanisms):
        raise InputError(f"domain {domain.name} needs a threat constant and a mechanism constant")
    return tuple(ThreatHypothesis(t, m) for t in threats for m in mechanisms)


def default_catalog() -> tuple[ThreatHypothesis, ...]:
    """The bundled domain's catalog; the hunt reads ``HuntAssets.catalog``."""
    from ..defaults import DOMAIN_FILE, asset_text
    from .pddl import parse_domain  # pddl imports this module

    return hypothesis_catalog(parse_domain(asset_text(DOMAIN_FILE)))
