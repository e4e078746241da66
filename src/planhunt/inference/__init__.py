"""Stratified rule inference over telemetry fact bases."""

from .rules import (
    Atom,
    Comparison,
    Literal,
    Rule,
    RulePack,
    Var,
    parse_body,
    parse_rule_pack,
    render_body,
)
from .engine import (
    DerivedFacts,
    Relations,
    StratifiedProgram,
    evaluate,
    saturate,
    stratify,
)

__all__ = [
    "Atom",
    "Comparison",
    "Literal",
    "Rule",
    "RulePack",
    "Var",
    "parse_body",
    "parse_rule_pack",
    "render_body",
    "DerivedFacts",
    "Relations",
    "StratifiedProgram",
    "evaluate",
    "saturate",
    "stratify",
]
