"""Reference precondition conversion: formula trees to disjunctive normal form.

A tree is nested tuples: an ``FAtom``, ``("not", atom)``, or ``("and",
*parts)`` / ``("or", *parts)``. ``render`` writes a tree as PDDL.
``precondition`` converts one the way the grounder did before the parser
built the normal form itself: ``and`` is the left-major product of its
parts' disjuncts, ``or`` their concatenation, literals stay in written
order, and every product step and every concatenation is capped at
``MAX_DISJUNCTS``, so an ``and`` whose running product passes the cap
fails even if a later empty part would bring it back to none.
"""

from planhunt.errors import InputError
from planhunt.planning_model.model import FAtom, Precondition

MAX_DISJUNCTS = 64

__all__ = ["MAX_DISJUNCTS", "precondition", "render"]


def precondition(tree) -> Precondition:
    """The disjuncts of ``tree``, each a tuple of (atom, negated); raises
    InputError past ``MAX_DISJUNCTS`` disjuncts."""
    return tuple(tuple(disjunct) for disjunct in _dnf(tree))


def _dnf(tree) -> list[list[tuple[FAtom, bool]]]:
    if isinstance(tree, FAtom):
        return [[(tree, False)]]
    head, *parts = tree
    if head == "not":
        return [[(parts[0], True)]]
    if head == "and":
        disjuncts: list[list[tuple[FAtom, bool]]] = [[]]
        for part in parts:
            right = _dnf(part)
            disjuncts = _capped([left + r for left in disjuncts for r in right])
        return disjuncts
    if head == "or":
        return _capped([d for part in parts for d in _dnf(part)])
    raise TypeError(f"unknown formula node {tree!r}")


def _capped(disjuncts: list) -> list:
    if len(disjuncts) > MAX_DISJUNCTS:
        raise InputError(f"precondition has more than {MAX_DISJUNCTS} disjuncts")
    return disjuncts


def render(tree) -> str:
    if isinstance(tree, FAtom):
        return tree.render()
    head, *parts = tree
    return f"({' '.join([head, *map(render, parts)])})"
