"""Domain/problem parsing for the supported PDDL subset, plus rendering."""

import pytest
from hypothesis import given, strategies as st

from planhunt.hunt import HuntAssets
from planhunt.errors import (
    PddlSyntaxError,
    UndeclaredObject,
    UndeclaredPredicate,
    UndeclaredType,
    UndeclaredVariable,
    UnsupportedRequirement,
)
from planhunt.planning_model import (
    FAnd,
    FAtom,
    FNot,
    FOr,
    parse_domain,
    parse_problem,
    render_problem,
)
from planhunt.planning_model.pddl import render_formula

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
        assert domain.requirements == (
            ":strips",
            ":typing",
            ":negative-preconditions",
            ":disjunctive-preconditions",
            ":action-costs",
        )
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
        pre = move.precondition
        assert isinstance(pre, FAnd)
        assert pre.parts == (
            FAtom("in", ("?b", "?from")),
            FAtom("open", ("?to",)),
            FNot(FAtom("sealed", ("?b",))),
        )

    def test_default_cost_is_one(self):
        assert toy().actions[1].cost == 1

    def test_disjunctive_precondition(self):
        unseal = toy().actions[1]
        assert isinstance(unseal.precondition, FOr)
        assert unseal.precondition.parts == (
            FAtom("in", ("?b", "depot")),
            FAtom("sealed", ("?b",)),
        )

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


TOY_PROBLEM = """
(define (problem stash)
  (:domain toy)
  (:objects b1 b2 - box attic - room)
  (:init (in b1 depot) (in b2 attic) (sealed b2) (open attic)
         (= (total-cost) 0))
  (:goal (and (in b1 attic) (not (sealed b2))))
  (:metric minimize (total-cost))
)
"""


class TestProblemParsing:
    def test_structure(self):
        problem = parse_problem(TOY_PROBLEM, toy())
        assert problem.name == "stash"
        assert problem.domain_name == "toy"
        assert problem.objects == {"b1": "box", "b2": "box", "attic": "room"}
        assert problem.init == frozenset(
            {
                ("in", ("b1", "depot")),
                ("in", ("b2", "attic")),
                ("sealed", ("b2",)),
                ("open", ("attic",)),
            }
        )
        assert problem.goal == FAnd(
            (FAtom("in", ("b1", "attic")), FNot(FAtom("sealed", ("b2",))))
        )

    def test_metric_and_cost_init_are_ignored(self):
        problem = parse_problem(TOY_PROBLEM, toy())
        assert all(pred != "=" for pred, _ in problem.init)

    def test_domain_name_mismatch(self):
        text = TOY_PROBLEM.replace("(:domain toy)", "(:domain other)")
        with pytest.raises(PddlSyntaxError) as err:
            parse_problem(text, toy())
        assert "references domain 'other'" in str(err.value)

    def test_goal_is_required(self):
        with pytest.raises(PddlSyntaxError) as err:
            parse_problem("(define (problem p) (:domain toy))", toy())
        assert "no :goal" in str(err.value)

    def test_init_atom_with_unknown_object(self):
        with pytest.raises(UndeclaredObject):
            parse_problem(
                "(define (problem p) (:domain toy)"
                " (:init (open cellar)) (:goal (open depot)))",
                toy(),
            )

    def test_unknown_object_type(self):
        with pytest.raises(UndeclaredType):
            parse_problem(
                "(define (problem p) (:domain toy)"
                " (:objects c - crate) (:goal (open depot)))",
                toy(),
            )


class TestRendering:
    def test_formula_rendering(self):
        formula = FOr(
            (
                FAnd((FAtom("p", ("a",)), FNot(FAtom("q", ())))),
                FAtom("r", ("a", "b")),
            )
        )
        assert render_formula(formula) == "(or (and (p a) (not (q))) (r a b))"

    def test_problem_round_trip(self):
        domain = toy()
        problem = parse_problem(TOY_PROBLEM, domain)
        again = parse_problem(render_problem(problem), domain)
        assert again.objects == problem.objects
        assert again.init == problem.init
        assert again.goal == problem.goal

    @given(
        boxes=st.sets(st.sampled_from(["b1", "b2", "b3"]), min_size=1),
        rooms=st.sets(st.sampled_from(["attic", "cellar"]), min_size=1),
        seal_flags=st.lists(st.booleans(), min_size=3, max_size=3),
        goal_negated=st.booleans(),
    )
    def test_random_problem_round_trip(self, boxes, rooms, seal_flags, goal_negated):
        domain = toy()
        objects = {box: "box" for box in sorted(boxes)}
        objects.update({room: "room" for room in sorted(rooms)})
        init = set()
        for box, sealed in zip(sorted(boxes), seal_flags):
            init.add(("in", (box, sorted(rooms)[0])))
            if sealed:
                init.add(("sealed", (box,)))
        box = sorted(boxes)[0]
        goal = FNot(FAtom("sealed", (box,))) if goal_negated else FAtom("sealed", (box,))
        from planhunt.planning_model import ProblemInstance

        problem = ProblemInstance(
            name="gen",
            domain_name="toy",
            objects=objects,
            init=frozenset(init),
            goal=goal,
        )
        again = parse_problem(render_problem(problem), domain)
        assert again.objects == problem.objects
        assert again.init == problem.init
        assert again.goal == problem.goal


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
