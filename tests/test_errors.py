"""Library errors cross process boundaries intact."""

import inspect
import pickle

import pytest

from planhunt import errors


def subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from subclasses(sub)


# One argument value per __init__ annotation used in planhunt.errors.
ARGUMENTS = {int: 7, str: "token", tuple[str, ...]: ("b", "a")}


def instance(cls):
    params = list(inspect.signature(cls.__init__).parameters.values())[1:]
    if any(p.kind is p.VAR_POSITIONAL for p in params):
        return cls("message")
    return cls(*(ARGUMENTS[p.annotation] for p in params))


@pytest.mark.parametrize(
    "cls", sorted(set(subclasses(errors.PlanHuntError)), key=lambda c: c.__name__)
)
def test_pickle_round_trip(cls):
    original = instance(cls)
    copy = pickle.loads(pickle.dumps(original))
    assert type(copy) is cls
    assert str(copy) == str(original)
    assert vars(copy) == vars(original)
