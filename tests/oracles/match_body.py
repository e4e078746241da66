"""Reference body matcher: does a conjunction of literals hold in a store?

The package once matched general bodies against a store for confirmation;
it now probes single atoms with ``Relations.holds``. This matcher keeps the
general check for tests, and shares no machinery with the engine: it
backtracks over ``Relations.rows`` binding positive atoms in written
order, and checks each filter once the positive atoms that can bind its
variables have.
"""

from planhunt.errors import ComparisonTypeError
from planhunt.inference.engine import Relations
from planhunt.inference.rules import BodyItem, Comparison, Literal, Var


def match_body(body: tuple[BodyItem, ...], relations: Relations) -> bool:
    """Whether some binding satisfies every item of ``body`` in
    ``relations``. Negation is closed-world: a negated atom's variables that
    no positive atom binds act as wildcards, so no row may match it, and a
    repeated one needs equal values. A comparison over a variable that no
    positive atom binds cannot hold. An atom matches no row of another
    arity, so such a negated atom always holds. An order comparison on a
    non-integer raises ComparisonTypeError."""
    atoms = [item.atom for item in body if _positive(item)]
    filters = [item for item in body if not _positive(item)]
    bindable = {term.name for atom in atoms for term in atom.args if isinstance(term, Var)}
    for item in filters:
        if isinstance(item, Comparison) and not item.variables() <= bindable:
            return False
    return _search(atoms, filters, {}, bindable, relations)


def _positive(item: BodyItem) -> bool:
    return isinstance(item, Literal) and not item.negated


def _search(atoms, filters, binding: dict, bindable: set, relations: Relations) -> bool:
    waiting = []
    for item in filters:
        names = item.variables() if isinstance(item, Comparison) else item.atom.variables()
        if not names & bindable <= binding.keys():
            waiting.append(item)
        elif not _filter_holds(item, binding, relations):
            return False
    if not atoms:
        return True
    first, rest = atoms[0], atoms[1:]
    for row in relations.rows(first.predicate):
        extended = _unify(first.args, row, binding)
        if extended is not None and _search(rest, waiting, extended, bindable, relations):
            return True
    return False


def _unify(args: tuple, row: tuple, binding: dict) -> dict | None:
    """``binding`` extended so that ``args`` equal ``row``, or None."""
    if len(args) != len(row):
        return None
    out = dict(binding)
    for term, value in zip(args, row):
        if isinstance(term, Var):
            if out.setdefault(term.name, value) != value:
                return None
        elif term != value:
            return None
    return out


def _filter_holds(item, binding: dict, relations: Relations) -> bool:
    if isinstance(item, Literal):
        return not any(
            _unify(item.atom.args, row, binding) is not None
            for row in relations.rows(item.atom.predicate)
        )
    lhs, rhs = (binding[t.name] if isinstance(t, Var) else t for t in (item.lhs, item.rhs))
    if item.op == "!=":
        return lhs != rhs
    if not (isinstance(lhs, int) and isinstance(rhs, int)):
        raise ComparisonTypeError(f"{item.op} needs integers, got {lhs!r}, {rhs!r}")
    return {"<": lhs < rhs, "<=": lhs <= rhs, ">": lhs > rhs, ">=": lhs >= rhs}[item.op]
