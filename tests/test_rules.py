"""Rule-pack parsing: syntax, directives, safety, ordering injection."""

import pytest
from hypothesis import given, strategies as st

from planhunt.errors import (
    ArityConflict,
    DeclarationConflict,
    DuplicateRule,
    RuleSyntaxError,
    UnsafeRule,
)
from planhunt.inference.rules import (
    Atom,
    Comparison,
    Literal,
    Var,
    parse_rule_pack,
    render_body,
)

from bodies import parse_body

BASE_DECLS = """
#pred edge/2 extensional
#pred path/2 intensional
"""


def pack(text):
    return parse_rule_pack(BASE_DECLS + text)


class TestParsing:
    def test_simple_rule(self):
        rp = pack("path(X, Y) :- edge(X, Y).")
        (rule,) = rp.rules
        assert rule.head == Atom("path", (Var("X"), Var("Y")))
        assert rule.body == (Literal(Atom("edge", (Var("X"), Var("Y")))),)

    def test_terms(self):
        rp = pack("path(a, 3) :- edge(a, 3).")
        assert rp.rules[0].head.args == ("a", 3)

    def test_zero_arity_atom(self):
        rp = parse_rule_pack(
            "#pred seen/0 intensional\n#pred edge/2 extensional\n"
            "seen :- edge(_, _).\n"
        )
        assert rp.rules[0].head == Atom("seen")

    def test_hyphenated_predicate_names(self):
        rp = parse_rule_pack(
            "#pred perm-granted/1 intensional\n#pred edge/2 extensional\n"
            "perm-granted(X) :- edge(X, granted).\n"
        )
        assert rp.rules[0].head.predicate == "perm-granted"

    def test_negation_and_comparison(self):
        rp = parse_rule_pack(
            "#pred val/2 extensional\n#pred top/1 intensional\n"
            "top(X) :- val(X, N), val(_, M), N >= M, not val(X, 0).\n"
        )
        body = rp.rules[0].body
        assert isinstance(body[2], Comparison) and body[2].op == ">="
        assert isinstance(body[3], Literal) and body[3].negated

    def test_anonymous_variables_are_distinct(self):
        rp = pack("path(X, X) :- edge(X, _), edge(_, X).")
        body = rp.rules[0].body
        first = body[0].atom.args[1]
        second = body[1].atom.args[0]
        assert first != second

    def test_bodyless_ground_rule_is_a_fact(self):
        rp = pack("path(a, b).")
        assert rp.rules[0].body == ()

    def test_bodyless_rule_with_variable_is_unsafe(self):
        with pytest.raises(UnsafeRule):
            pack("path(a, X).")

    @pytest.mark.parametrize(
        "text",
        [
            "path(X Y) :- edge(X, Y).",
            "path(X, Y) : edge(X, Y).",
            "path(X, Y) :- edge(X, Y)",
            "path(X, Y) :- .",
            "PATH(X, Y) :- edge(X, Y).",
        ],
    )
    def test_syntax_errors(self, text):
        with pytest.raises(RuleSyntaxError):
            pack(text)

    def test_error_carries_position(self):
        with pytest.raises(RuleSyntaxError) as err:
            parse_rule_pack("#pred p/1 intensional\n#pred q/1 extensional\np(X) :- q(X)\n")
        assert err.value.line == 3

    def test_comments_ignored(self):
        rp = pack("% prose\npath(X, Y) :- edge(X, Y). % trailing\n")
        assert len(rp.rules) == 1


class TestDirectives:
    def test_declarations_recorded(self):
        rp = pack("path(X, Y) :- edge(X, Y).")
        assert rp.declared["edge"] == (2, "extensional")
        assert rp.declared["path"] == (2, "intensional")
        assert set(rp.declared) - rp.intensional() == {"edge"}

    def test_undeclared_predicates_inferred(self):
        rp = parse_rule_pack("link(X, Y) :- arc(X, Y).")
        assert rp.declared["arc"] == (2, "extensional")
        assert rp.declared["link"] == (2, "intensional")

    def test_head_declared_extensional_conflicts(self):
        with pytest.raises(DeclarationConflict):
            parse_rule_pack("#pred p/1 extensional\np(X) :- p(X).")

    def test_declared_arity_enforced(self):
        with pytest.raises(ArityConflict):
            pack("path(X) :- edge(X, X).")

    def test_conflicting_declarations(self):
        with pytest.raises(ArityConflict):
            parse_rule_pack("#pred p/1 extensional\n#pred p/2 extensional\n")

    def test_tokens_directive(self):
        rp = parse_rule_pack("#tokens syscall mmap read\n#tokens syscall write\n")
        assert rp.token_table["syscall"] == frozenset({"mmap", "read", "write"})

    def test_unknown_directive(self):
        with pytest.raises(RuleSyntaxError):
            parse_rule_pack("#frobnicate on\n")

    def test_duplicate_rule_rejected(self):
        with pytest.raises(DuplicateRule):
            pack("path(X, Y) :- edge(X, Y).\npath(X, Y) :- edge(X, Y).")

    def test_duplicate_detection_sees_through_anon_numbering(self):
        with pytest.raises(DuplicateRule):
            pack("path(X, X) :- edge(X, _).\npath(X, X) :- edge(X, _).")


class TestSafety:
    def test_unbound_head_variable(self):
        with pytest.raises(UnsafeRule) as err:
            pack("path(X, Y) :- edge(X, X).")
        assert err.value.variable == "Y"

    def test_unbound_negation_variable(self):
        with pytest.raises(UnsafeRule):
            pack("path(X, X) :- edge(X, X), not edge(X, Z).")

    def test_unbound_comparison_variable(self):
        with pytest.raises(UnsafeRule):
            pack("path(X, X) :- edge(X, X), X != Z.")

    def test_constants_never_unsafe(self):
        rp = pack("path(a, b) :- edge(_, _).")
        assert len(rp.rules) == 1


INVOKED_DECLS = """
#pred invoked/7 extensional
#pred hit/0 intensional
"""


class TestOrderInjection:
    def test_strict_appends_chained_comparisons(self):
        rp = parse_rule_pack(
            INVOKED_DECLS
            + "#order strict\n"
            + "hit :- invoked(T1, a, P, _, x, y, 0), invoked(T2, b, P, _, x, y, 0),"
            + " invoked(T3, c, P, _, x, y, 0).\n"
        )
        comparisons = [i for i in rp.rules[0].body if isinstance(i, Comparison)]
        assert [(c.lhs, c.op, c.rhs) for c in comparisons] == [
            (Var("T1"), "<", Var("T2")),
            (Var("T2"), "<", Var("T3")),
        ]

    def test_strict_is_the_default(self):
        rp = parse_rule_pack(
            INVOKED_DECLS
            + "hit :- invoked(T1, a, P, _, x, y, 0), invoked(T2, b, P, _, x, y, 0).\n"
        )
        assert any(isinstance(i, Comparison) for i in rp.rules[0].body)

    def test_loose_skips_injection(self):
        rp = parse_rule_pack(
            INVOKED_DECLS
            + "#order loose\n"
            + "hit :- invoked(T1, a, P, _, x, y, 0), invoked(T2, b, P, _, x, y, 0).\n"
        )
        assert not any(isinstance(i, Comparison) for i in rp.rules[0].body)

    def test_single_event_rule_untouched(self):
        rp = parse_rule_pack(
            INVOKED_DECLS + "#order strict\nhit :- invoked(T1, a, P, _, x, y, 0).\n"
        )
        assert not any(isinstance(i, Comparison) for i in rp.rules[0].body)

    def test_anonymous_timestamps_not_ordered(self):
        rp = parse_rule_pack(
            INVOKED_DECLS
            + "#order strict\n"
            + "hit :- invoked(_, a, P, _, x, y, 0), invoked(_, b, P, _, x, y, 0).\n"
        )
        assert not any(isinstance(i, Comparison) for i in rp.rules[0].body)

    def test_repeated_timestamp_variable_not_compared_to_itself(self):
        rp = parse_rule_pack(
            INVOKED_DECLS
            + "#order strict\n"
            + "hit :- invoked(T, a, P, _, x, y, 0), invoked(T, b, P, _, x, y, 0).\n"
        )
        assert not any(isinstance(i, Comparison) for i in rp.rules[0].body)


class TestBodyText:
    def test_parse_body_round_trip(self):
        body = parse_body("edge(X, Y), not edge(Y, X), X != Y")
        assert parse_body(render_body(body)) == body

    def test_injected_rules_render_reparseable(self):
        rp = parse_rule_pack(
            INVOKED_DECLS
            + "hit :- invoked(T1, a, P, _, x, y, 0), invoked(T2, b, P, _, x, y, 0).\n"
        )
        body = rp.rules[0].body
        assert parse_body(render_body(body)) == body


_var_names = st.sampled_from(["X", "Y", "Z", "W"])
_terms = st.one_of(
    _var_names.map(Var),
    st.sampled_from(["a", "b", "c"]),
    st.integers(min_value=0, max_value=9),
)


@given(st.lists(st.tuples(st.sampled_from(["e", "f"]), st.tuples(_terms, _terms)), min_size=1, max_size=4))
def test_rendered_positive_bodies_reparse(pairs):
    body = tuple(Literal(Atom(p, args)) for p, args in pairs)
    assert parse_body(render_body(body)) == body
