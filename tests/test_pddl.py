"""Domain parsing for the supported PDDL subset, and problem rendering."""

import random

import pytest

from oracles import dnf
from planhunt.hunt import HuntAssets
from planhunt.errors import (
    InputError,
    PddlSyntaxError,
    UndeclaredObject,
    UndeclaredPredicate,
    UndeclaredType,
    UndeclaredVariable,
    UnsupportedRequirement,
)
from planhunt.planning_model.model import FAtom, ProblemInstance
from planhunt.planning_model.pddl import parse_domain, render_problem

TOY_DOMAIN = """
(define (domain toy)
  (:requirements :strips :typing :negative-preconditions
                 :disjunctive-preconditions :action-costs)
  (:types box room - object)
  (:constants depot - room)
  (:predicates (in ?b - box ?r - room) (open ?r - room) (sealed ?b - box))
  (:functions (total-cost))
  (:action move
    :parameters (?b - box ?from - room ?to - room)
    :precondition (and (in ?b ?from) (open ?to) (not (sealed ?b)))
    :effect (and (in ?b ?to) (not (in ?b ?from)) (increase (total-cost) 2)))
  (:action unseal
    :parameters (?b - box)
    :precondition (or (in ?b depot) (sealed ?b))
    :effect (not (sealed ?b)))
)
"""


def toy():
    return parse_domain(TOY_DOMAIN)


class TestDomainParsing:
    def test_structure(self):
        domain = toy()
        assert domain.name == "toy"
        assert domain.constants == {"depot": "room"}
        assert set(domain.predicates) == {"in", "open", "sealed"}
        assert domain.predicates["in"].param_types == ("box", "room")
        assert [a.name for a in domain.actions] == ["move", "unseal"]

    def test_type_hierarchy(self):
        types = toy().types
        assert types.is_subtype("box", "object")
        assert types.is_subtype("room", "object")
        assert not types.is_subtype("box", "room")

    def test_action_fields(self):
        move = toy().actions[0]
        assert [p.name for p in move.parameters] == ["?b", "?from", "?to"]
        assert [p.type for p in move.parameters] == ["box", "room", "room"]
        assert move.cost == 2
        assert move.add == (FAtom("in", ("?b", "?to")),)
        assert move.delete == (FAtom("in", ("?b", "?from")),)
        assert move.precondition == ((
            (FAtom("in", ("?b", "?from")), False),
            (FAtom("open", ("?to",)), False),
            (FAtom("sealed", ("?b",)), True),
        ),)

    def test_default_cost_is_one(self):
        assert toy().actions[1].cost == 1

    def test_disjunctive_precondition(self):
        unseal = toy().actions[1]
        assert unseal.precondition == (
            ((FAtom("in", ("?b", "depot")), False),),
            ((FAtom("sealed", ("?b",)), False),),
        )

    def test_no_precondition_is_one_empty_disjunct(self):
        domain = parse_domain("(define (domain x) (:predicates (p)) (:action a :parameters () :effect (p)))")
        assert domain.actions[0].precondition == ((),)

    def test_symbols_are_case_insensitive(self):
        domain = parse_domain(
            "(define (domain UP)\n"
            "  (:predicates (Flag ?x))\n"
            "  (:action Raise :parameters (?X) :effect (FLAG ?x)))\n"
        )
        assert domain.name == "up"
        assert domain.actions[0].add == (FAtom("flag", ("?x",)),)

    def test_comments_are_skipped(self):
        domain = parse_domain(
            "; prologue\n(define (domain c) ; trailing\n"
            "  (:predicates (p)))\n"
        )
        assert domain.name == "c"

    @pytest.mark.parametrize(
        "text,error",
        [
            ("(define (domain x) (:requirements :adl))", UnsupportedRequirement),
            ("(define (domain x) (:constants a - widget))", UndeclaredType),
            (
                "(define (domain x) (:predicates (p ?a - widget)))",
                UndeclaredType,
            ),
            (
                "(define (domain x) (:predicates (p))"
                " (:action a :parameters (?v - widget)))",
                UndeclaredType,
            ),
            (
                "(define (domain x) (:predicates (p))"
                " (:action a :parameters () :precondition (q)))",
                UndeclaredPredicate,
            ),
            (
                "(define (domain x) (:predicates (p ?a))"
                " (:action a :parameters () :precondition (p ?v)))",
                UndeclaredVariable,
            ),
            (
                "(define (domain x) (:predicates (p ?a))"
                " (:action a :parameters () :precondition (p somewhere)))",
                UndeclaredObject,
            ),
        ],
    )
    def test_declaration_errors(self, text, error):
        with pytest.raises(error):
            parse_domain(text)

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("(define (domain x)", "unclosed"),
            ("(define (domain x)))", "unbalanced"),
            ("(define (problem x))", "expected (define (domain NAME)"),
            ("(define (domain x) (:widgets))", "unknown domain section"),
            (
                "(define (domain x) (:functions (fuel)))",
                "only (total-cost)",
            ),
            (
                "(define (domain x) (:predicates (p ?a ?b))"
                " (:action a :parameters () :precondition (p)))",
                "takes 2 arguments",
            ),
            (
                "(define (domain x) (:predicates (p))"
                " (:action a :parameters () :effect (or (p))))",
                "disjunction is only allowed in preconditions",
            ),
            (
                "(define (domain x) (:predicates (p))"
                " (:action a :parameters ()"
                "  :effect (increase (total-cost) lots)))",
                "(increase (total-cost) N)",
            ),
            (
                "(define (domain x) (:predicates (p))"
                " (:action a :parameters () :effect (and (p) (not (p)))))",
                "both adds and deletes",
            ),
            (
                "(define (domain x) (:predicates (p)) (:action a))",
                "needs :parameters",
            ),
        ],
    )
    def test_syntax_errors(self, text, fragment):
        with pytest.raises(PddlSyntaxError) as err:
            parse_domain(text)
        assert fragment in str(err.value)

    @pytest.mark.parametrize(
        "text,position,reason",
        [
            ("(:action a :parameters () :preconditon (p) :effect (q))", 29, "unknown key :preconditon in action a"),
            (
                "(:action a :parameters () :precondition (p) :precondition (q) :effect (q))",
                47, "repeated key :precondition in action a",
            ),
            ("(:action a :parameters () :effect (q)) (:action a :parameters ())", 42, "action a declared twice"),
            ("(:predicates (q ?a))", 16, "predicate q declared twice"),
            ("(:types t u) (:constants a - t a - u)", 16, "constant a declared twice"),
            ("(:action a :parameters (?x ?x) :effect (q))", 26, "parameter ?x declared twice in action a"),
        ],
    )
    def test_action_keys_and_names_are_checked(self, text, position, reason):
        with pytest.raises(PddlSyntaxError) as err:
            parse_domain(f"(define (domain x) (:predicates (p) (q))\n  {text})")
        assert ((err.value.line, err.value.col), err.value.reason) == ((2, position), reason)

    def test_error_carries_position(self):
        with pytest.raises(PddlSyntaxError) as err:
            parse_domain("(define (domain x)\n  (:widgets))")
        assert err.value.line == 2
        assert err.value.col == 3

    def test_typed_list_trailing_names_default_to_object(self):
        domain = parse_domain(
            "(define (domain x) (:types t) (:predicates (p ?a - t ?b)))"
        )
        assert domain.predicates["p"].param_types == ("t", "object")

    def test_negation_wraps_atoms_only(self):
        with pytest.raises(PddlSyntaxError) as err:
            parse_domain(
                "(define (domain x) (:predicates (p) (q))"
                " (:action a :parameters ()"
                "  :precondition (not (and (p) (q)))))"
            )
        assert "nested and" in str(err.value)

    def test_without_actions(self):
        trimmed = toy().without_actions(("unseal",))
        assert [a.name for a in trimmed.actions] == ["move"]
        assert set(trimmed.predicates) == {"in", "open", "sealed"}


# A precondition past the cap is reported at its action: line 2, col 3.
DNF_DOMAIN = (
    "(define (domain d) (:constants c) (:predicates (p) (q ?v) (r ?v ?w) (done))\n"
    "  (:action a :parameters (?x ?y) :precondition {} :effect (done)))"
)
ARITY = {"p": 0, "q": 1, "r": 2}
OR9 = ("or", *(("or", *(FAtom("q", (arg,)),) * 3) for arg in ("?x", "?y", "c")))


def random_tree(rng: random.Random, depth: int = 3):
    """A precondition tree of depth at most ``depth`` and width at most 3:
    literals, empty (and) and (or), ``or`` just above the literals and
    mostly ``and`` higher up, so that some trees pass the cap."""
    if depth == 0 or rng.random() < 0.05:
        name = rng.choice(sorted(ARITY))
        atom = FAtom(name, tuple(rng.choice(("?x", "?y", "c")) for _ in range(ARITY[name])))
        return ("not", atom) if rng.random() < 0.3 else atom
    head = "or" if depth == 1 or rng.random() < 0.2 else "and"
    return (head, *(random_tree(rng, depth - 1) for _ in range(rng.choice((0, 2, 3, 3)))))


class TestPreconditionDnf:
    """The parser's DNF against the reference conversion
    (tests/oracles/dnf.py): the same disjuncts in the same order, or the
    same cap error at the same position."""

    def parsed(self, tree):
        try:
            return parse_domain(DNF_DOMAIN.format(dnf.render(tree))).actions[0].precondition
        except PddlSyntaxError as err:
            return str(err)

    def expected(self, tree):
        try:
            return dnf.precondition(tree)
        except InputError as exc:
            return f"line 2, col 3: action a: {exc}"

    def test_random_trees_match_the_reference(self):
        capped = 0
        for seed in range(600):
            tree = random_tree(random.Random(seed))
            expected = self.expected(tree)
            assert self.parsed(tree) == expected, dnf.render(tree)
            capped += isinstance(expected, str)
        assert 20 <= capped <= 200

    @pytest.mark.parametrize(
        "tree",
        [
            ("and", OR9, OR9, ("or",)),  # the running product passes the cap
            ("and", ("or",), ("and", OR9, OR9)),
            ("and", OR9, ("or", *(OR9,) * 3), ("not", FAtom("p", ()))),
            ("or", *(OR9,) * 7, ("or",), ("not", FAtom("p", ()))),
            ("and", ("and",), ("not", FAtom("r", ("c", "?x"))), ("or", FAtom("p", ()), ("and",))),
        ],
    )
    def test_edge_trees_match_the_reference(self, tree):
        assert self.parsed(tree) == self.expected(tree)

    def test_an_undeclared_atom_wins_over_the_cap(self):
        with pytest.raises(UndeclaredPredicate):
            parse_domain(DNF_DOMAIN.format(f"(and (and {dnf.render(OR9)} {dnf.render(OR9)}) (bogus))"))


class TestRendering:
    def problem(self, goal):
        return ProblemInstance(
            name="stash",
            domain_name="toy",
            objects={"b2": "box", "attic": "room", "b1": "box"},
            init=frozenset({("sealed", ("b2",)), ("in", ("b1", "depot")), ("open", ("attic",))}),
            goal=frozenset(goal),
        )

    def test_problem_text(self):
        text = render_problem(self.problem({("in", ("b1", "attic"))}))
        assert text == (
            "(define (problem stash)\n"
            "  (:domain toy)\n"
            "  (:objects b1 b2 - box\n"
            "            attic - room)\n"
            "  (:init (in b1 depot) (open attic) (sealed b2))\n"
            "  (:goal (in b1 attic))\n"
            ")\n"
        )

    def test_several_goal_atoms_render_as_a_sorted_conjunction(self):
        goal = {("sealed", ("b1",)), ("in", ("b2", "attic")), ("open", ("attic",))}
        text = render_problem(self.problem(goal))
        assert "  (:goal (and (in b2 attic) (open attic) (sealed b1)))\n" in text


class TestBundledDomain:
    def test_parses_with_expected_surface(self):
        domain = HuntAssets.load().domain
        assert domain.name == "android-threats"
        assert [a.name for a in domain.actions] == [
            "surveillance-via-permission",
            "surveillance-via-exploit",
            "grant-permission-to-sensor",
            "pivot-exploit",
            "fin-fraud-mechanism-exploit",
            "fin-fraud-mechanism-permission",
            "harvest-credentials",
            "capture-otp",
        ]
        assert all(action.cost == 1 for action in domain.actions)
        assert "threat-possible" in domain.predicates
