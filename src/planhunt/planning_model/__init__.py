"""Planning layer: PDDL-subset domains, problem assembly, typed grounding."""

from .model import (
    ActionSchema,
    DomainModel,
    FAtom,
    FAnd,
    FNot,
    FOr,
    Formula,
    GroundAtom,
    Parameter,
    PredicateSchema,
    ProblemInstance,
    ThreatHypothesis,
    TypeHierarchy,
    default_catalog,
)
from .pddl import parse_domain, render_problem
from .ground import GroundAction, GroundedTask, ground_task
from .state import (
    CapabilityTable,
    MappingTable,
    build_problem,
    construct_goal,
    construct_initial_state,
    load_capability_table,
    load_mapping_table,
)
from .aliases import ACTION_ALIASES, canonical_action_name

__all__ = [
    "ActionSchema",
    "DomainModel",
    "FAtom",
    "FAnd",
    "FNot",
    "FOr",
    "Formula",
    "GroundAtom",
    "Parameter",
    "PredicateSchema",
    "ProblemInstance",
    "ThreatHypothesis",
    "TypeHierarchy",
    "default_catalog",
    "parse_domain",
    "render_problem",
    "GroundAction",
    "GroundedTask",
    "ground_task",
    "CapabilityTable",
    "MappingTable",
    "build_problem",
    "construct_goal",
    "construct_initial_state",
    "load_capability_table",
    "load_mapping_table",
    "ACTION_ALIASES",
    "canonical_action_name",
]
