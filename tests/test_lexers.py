"""The one-scan lexers against the line-by-line ones they replaced
(tests/oracles/lexers.py): the same tokens or nodes at the same lines and
columns, and the same error at the same place, on random texts and on the
bundled domain and rule pack."""

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import lexers
from planhunt import defaults
from planhunt.errors import PositionedSyntaxError
from planhunt.inference import rules
from planhunt.planning_model import pddl

# Parens, symbols, rule operators, both comment starts, every kind of line
# break the two lexers treat differently, other whitespace, and characters
# neither lexer accepts in a rule.
PIECES = [
    "(", ")", "a", "Ab", "x-1", "?p", "-", "-12", "7", "_", "Var", ":-", "<=", ">=", "!=", "<",
    ">", ",", ".", ";", "; note", "%", "% note", " ", "  ", "\t", "\xa0", "\n", "\r\n", "\r",
    "\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\u2028", "@", "$", "#", "é",
]
texts = st.lists(st.sampled_from(PIECES), max_size=40).map("".join)


def outcome(lex, text, shape):
    try:
        return "ok", shape(lex(text))
    except PositionedSyntaxError as exc:
        return type(exc).__name__, exc.line, exc.col, exc.reason


def pddl_shape(forms):
    def node(form):
        if isinstance(form, (pddl._Node, lexers.Node)):
            return "node", form.line, form.col, tuple(map(node, form.items))
        return "sym", form.text, form.line, form.col

    return [node(form) for form in forms]


def token_shape(tokens):
    return [(t.kind, t.text, t.line, t.col) for t in tokens]


def assert_same_lexing(text):
    assert outcome(pddl._read, text, pddl_shape) == outcome(lexers.read, text, pddl_shape)
    assert outcome(rules._tokenize, text, token_shape) == outcome(
        lexers.tokenize, text, token_shape
    )


@settings(max_examples=400, deadline=None)
@given(texts)
def test_random_texts_lex_as_before(text):
    assert_same_lexing(text)


def test_bundled_assets_lex_as_before():
    assert_same_lexing(defaults.asset_text(defaults.DOMAIN_FILE))
    # The pack parser blanks directive lines before tokenizing.
    pack = defaults.asset_text(defaults.RULES_FILE).splitlines()
    assert_same_lexing("\n".join("" if line.startswith("#") else line for line in pack))
