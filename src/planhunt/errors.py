"""Exception hierarchy for the hunting pipeline.

Every error raised on bad input derives from InputError so the CLI can map it
to exit code 1; anything else escaping the pipeline is an internal fault and
maps to exit code 2.
"""

import copyreg


class PlanHuntError(Exception):
    """Base class for all library errors."""

    def __reduce__(self):
        # Most subclasses take other __init__ arguments than the message kept
        # in self.args, so unpickling (say, in a batch's parent process)
        # rebuilds without __init__ and restores the attributes as state.
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class InputError(PlanHuntError):
    """Bad user input: malformed files, inconsistent declarations, bad flags."""


class PositionedSyntaxError(InputError):
    """Lex or parse failure in a text; carries line and column."""

    def __init__(self, line: int, col: int, reason: str):
        self.line = line
        self.col = col
        self.reason = reason
        super().__init__(f"line {line}, col {col}: {reason}")


# --- telemetry ---------------------------------------------------------------

class MalformedRecord(InputError):
    """A line of an input file (sample, column map, asset table, plan file)
    that cannot be decoded or normalized."""

    def __init__(self, line: int, reason: str):
        self.line = line
        self.reason = reason
        super().__init__(f"line {line}: {reason}")


class ArityConflict(InputError):
    """The same predicate used with two different arities."""

    def __init__(self, predicate: str, seen: int, expected: int):
        self.predicate = predicate
        self.seen = seen
        self.expected = expected
        super().__init__(
            f"predicate {predicate!r} used with arity {seen}, expected {expected}"
        )


# --- rule language ------------------------------------------------------------

class RuleSyntaxError(PositionedSyntaxError):
    """Lex or parse failure in rule/fact text."""


class UnsafeRule(InputError):
    """A rule with a head, negated, or comparison variable not bound positively."""

    def __init__(self, rule: str, variable: str):
        self.rule = rule
        self.variable = variable
        super().__init__(f"unsafe variable {variable!r} in rule: {rule}")


class DuplicateRule(InputError):
    """Two syntactically identical rules in one pack."""

    def __init__(self, rule: str):
        self.rule = rule
        super().__init__(f"duplicate rule: {rule}")


class DeclarationConflict(InputError):
    """A predicate declared or used as both extensional and intensional."""

    def __init__(self, predicate: str, reason: str):
        self.predicate = predicate
        super().__init__(f"predicate {predicate!r}: {reason}")


class NegationCycle(InputError):
    """Negation through a recursive component; the program is not stratifiable."""

    def __init__(self, predicates: tuple[str, ...]):
        self.predicates = tuple(sorted(predicates))
        super().__init__(
            "negation cycle through predicates: " + ", ".join(self.predicates)
        )


class ResourceLimit(PlanHuntError):
    """A count budget ran out: the facts a rule program derives, in
    inference or in grounding, where each ground action is one of them."""

    def __init__(self, limit: int):
        self.limit = limit
        super().__init__(f"derived-fact limit exceeded ({limit})")


class ComparisonTypeError(InputError):
    """An order comparison applied to non-integer arguments at evaluation time."""


# --- planning model -----------------------------------------------------------

class PddlSyntaxError(PositionedSyntaxError):
    """Lex or structural failure in a PDDL file."""


class UnsupportedRequirement(InputError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unsupported requirement {name}")


class UndeclaredType(InputError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"undeclared type {name!r}")


class UndeclaredPredicate(InputError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"undeclared predicate {name!r}")


class UndeclaredVariable(InputError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"variable {name} is not a declared parameter")


class UndeclaredObject(InputError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"undeclared object {name!r}")


class UnmappedPredicate(InputError):
    """A derived predicate with neither a state-mapping row nor an ignore row."""

    def __init__(self, predicate: str):
        self.predicate = predicate
        super().__init__(
            f"derived predicate {predicate!r} has no initial-state mapping"
        )


# --- hunt ---------------------------------------------------------------------

class DuplicateSampleId(InputError):
    def __init__(self, sample_id: str):
        self.sample_id = sample_id
        super().__init__(f"duplicate sample id {sample_id!r} in corpus")
