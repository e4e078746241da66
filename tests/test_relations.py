"""Indexed joins in the engine against the naive reference evaluator.

Each pack puts an indexed lookup where a wrong index would change the
model: a relation that grows while rules read it through an index, a
repeated variable in an indexed atom, a constant away from the first
position, and a negation with wildcards after an indexed join. The bundled
threat pack runs over random invoked/7 traces, and ``match_body`` over one
shared store per base.
"""

import random

from planhunt import defaults
from planhunt.inference.engine import Relations, evaluate, match_body, stratify
from planhunt.inference.rules import (
    Literal,
    Rule,
    Var,
    parse_body,
    parse_rule_pack,
    render_body,
    rule_pack,
)
from planhunt.telemetry import Fact, FactBase

from oracles.naive_datalog import evaluate_naive
from test_engine import build_pack, random_base

PACK_RIGHT_RECURSION = (
    [
        "#pred edge/2 extensional",
        "#pred path/2 intensional",
        "#pred via_a/1 intensional",
    ],
    [
        # When via_a runs before the copy rule, its first lookup indexes
        # path while only this seed row is there: every other path row,
        # and every row via_a needs, reaches the index through later adds.
        "path(o, o).",
        "path(X, Y) :- edge(X, Y).",
        "path(X, Z) :- edge(X, Y), path(Y, Z).",
        "via_a(Z) :- path(a, Y), path(Y, Z).",
    ],
)

PACK_REPEATED_VARIABLE = (
    [
        "#pred edge/2 extensional",
        "#pred triple/3 extensional",
        "#pred loop/1 intensional",
        "#pred back/2 intensional",
        "#pred pinned/2 intensional",
    ],
    [
        "loop(X) :- edge(X, X).",
        "back(X, Y) :- edge(X, Y), edge(Y, X).",
        "pinned(X, Z) :- edge(X, Y), triple(Y, Z, Z).",
    ],
)

PACK_LATE_CONSTANT = (
    [
        "#pred edge/2 extensional",
        "#pred triple/3 extensional",
        "#pred into_b/1 intensional",
        "#pred to_c/2 intensional",
        "#pred via/2 intensional",
    ],
    [
        "into_b(X) :- edge(X, b).",
        "to_c(X, Y) :- edge(X, Y), edge(Y, c).",
        "via(X, Z) :- edge(X, Y), triple(Y, a, Z).",
    ],
)

# Heads and bodies of rules whose negations keep wildcard variables. The
# parser refuses such rules, so the engine gets them through ``rule_pack``
# and the oracle gets the same model through a projection per negation.
WILDCARD_RULES = [
    ("sink(X)", "edge(X, Y), edge(Y, Z), not edge(Z, _)"),
    ("fresh(X)", "node(X), edge(X, Y), not triple(_, Y, X)"),
    ("plain(X)", "edge(X, Y), node(Y), not triple(Y, W, W)"),
]
WILDCARD_ORACLE = (
    [
        "#pred edge/2 extensional",
        "#pred node/1 extensional",
        "#pred triple/3 extensional",
    ],
    [
        "sink(X) :- edge(X, Y), edge(Y, Z), not has_out(Z).",
        "has_out(Z) :- edge(Z, _).",
        "fresh(X) :- node(X), edge(X, Y), not hit(Y, X).",
        "hit(Y, X) :- triple(_, Y, X).",
        "plain(X) :- edge(X, Y), node(Y), not twin(Y).",
        "twin(Y) :- triple(Y, W, W).",
    ],
)

INDEXED_PACKS = [PACK_RIGHT_RECURSION, PACK_REPEATED_VARIABLE, PACK_LATE_CONSTANT]


def test_indexed_packs_match_the_oracle():
    rng = random.Random(20261018)
    for directives, rules in INDEXED_PACKS:
        order = list(range(len(rules)))
        for _ in range(60):
            rng.shuffle(order)
            pack = build_pack(directives, rules, order)
            base = random_base(pack, rng)
            assert evaluate(stratify(pack), base).facts == evaluate_naive(pack, base), (
                f"divergence on {sorted(str(f) for f in base)} with rules {order}"
            )


def test_wildcard_negation_after_an_indexed_join():
    rng = random.Random(11)
    pack = rule_pack(
        [Rule(parse_body(head)[0].atom, parse_body(body)) for head, body in WILDCARD_RULES]
    )
    oracle_pack = build_pack(*WILDCARD_ORACLE)
    program = stratify(pack)
    heads = {head.split("(")[0] for head, _ in WILDCARD_RULES}
    for _ in range(150):
        base = random_base(oracle_pack, rng)
        expected = FactBase(f for f in evaluate_naive(oracle_pack, base) if f.predicate in heads)
        assert evaluate(program, base).facts == expected, (
            f"divergence on {sorted(str(f) for f in base)}"
        )


# --- the bundled threat pack over random traces --------------------------------

SYSCALLS = (
    "finit_module", "mmap", "read", "write", "openat", "ioctl", "ptrace", "sendmsg", "recvmsg"
)
OBJECTS = ("module", "buffer", "file", "device", "socket")
MODES = ("read", "write", "exec", "read_or_write", "exec_or_read", "none")
PERMISSIONS = (
    "camera",
    "record_audio",
    "bind_notification_listener_service",
    "read_clipboard",
    "bind_accessibility_service",
    "system_alert_window",
    "internet",
)


def rule_event_patterns(pack):
    """(syscall, object, mode) of every invoked atom in the pack's bodies,
    with a variable left as None."""
    patterns = set()
    for rule in pack.rules:
        for item in rule.body:
            if isinstance(item, Literal) and item.atom.predicate == "invoked":
                args = item.atom.args
                patterns.add(
                    tuple(None if isinstance(args[i], Var) else args[i] for i in (1, 4, 5))
                )
    return sorted(patterns, key=str)


def random_trace(rng, patterns):
    """Up to 150 invoked/7 events on 8 pids, half of them shaped like a
    rule's body atom, plus a few manifest facts."""
    base = FactBase()
    for _ in range(rng.randrange(0, 151)):
        if rng.random() < 0.5:
            syscall, obj, mode = rng.choice(patterns)
        else:
            syscall, obj, mode = rng.choice(SYSCALLS), rng.choice(OBJECTS), None
        event = (
            rng.randrange(0, 200),
            syscall,
            f"p{rng.randrange(1, 9)}",
            rng.choice(("wildcard", "t1")),
            obj,
            mode or rng.choice(MODES),
            0 if rng.random() < 0.9 else 1,
        )
        base.add(Fact("invoked", event))
    for app in ("app", "other"):
        for permission in rng.sample(PERMISSIONS, rng.randrange(0, 4)):
            base.add(Fact("declared_permission", (app, permission)))
        if rng.random() < 0.3:
            base.add(Fact("declared_intent", (app, "clipboard_changed")))
    return base


def test_threat_pack_over_random_traces():
    rng = random.Random(5)
    pack = parse_rule_pack(defaults.asset_text(defaults.RULES_FILE))
    program = stratify(pack)
    patterns = rule_event_patterns(pack)
    derived = 0
    for _ in range(25):
        base = random_trace(rng, patterns)
        fast = evaluate(program, base).facts
        assert fast == evaluate_naive(pack, base), (
            f"divergence on {sorted(str(f) for f in base)}"
        )
        derived += len(fast)
    assert derived > 0


# --- match_body on one store per base --------------------------------------------

PACK_MATCH = (
    [
        "#pred edge/2 extensional",
        "#pred val/2 extensional",
        "#pred path/2 intensional",
    ],
    [
        "path(X, Y) :- edge(X, Y).",
        "path(X, Z) :- path(X, Y), edge(Y, Z).",
    ],
)
NAME_TERMS = ("X", "Y", "Z", "_", "a", "b", "c", "d")


def random_body(rng):
    """One to three positive atoms over edge, path and val, then up to two
    comparisons over variables they bind; names and numbers never meet in
    an order comparison."""
    atoms = []
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.3:
            pred, number = "val", rng.choice(("N", "M", "_", "1", "3"))
            atoms.append((pred, (rng.choice(NAME_TERMS), number)))
        else:
            pred = rng.choice(("edge", "path"))
            atoms.append((pred, (rng.choice(NAME_TERMS), rng.choice(NAME_TERMS))))
    used = {term for _pred, terms in atoms for term in terms}
    names = sorted(used & {"X", "Y", "Z"})
    numbers = sorted(used & {"N", "M"})
    items = [f"{pred}({', '.join(terms)})" for pred, terms in atoms]
    for _ in range(rng.randint(0, 2)):
        if len(numbers) == 2 and rng.random() < 0.6:
            items.append(f"N {rng.choice(('<', '<=', '>', '>=', '!='))} M")
        elif numbers and rng.random() < 0.5:
            items.append(f"{numbers[0]} {rng.choice(('<', '>='))} 2")
        elif len(names) >= 2:
            items.append("{} != {}".format(*rng.sample(names, 2)))
        elif names:
            items.append(f"{names[0]} != {rng.choice('abcd')}")
    return parse_body(", ".join(items))


def test_match_body_matches_the_oracle():
    rng = random.Random(99)
    directives, rules = PACK_MATCH
    pack = build_pack(directives, rules)
    program = stratify(pack)
    outcomes = {True: 0, False: 0}
    for _ in range(60):
        base = random_base(pack, rng)
        # One store serves every body of a base, as in identify_threats.
        store = Relations([*base, *evaluate(program, base).facts])
        for _ in range(8):
            body = random_body(rng)
            probe_pack = build_pack(directives, rules + [f"probe :- {render_body(body)}."])
            expected = Fact("probe") in evaluate_naive(probe_pack, base)
            assert match_body(body, store) == expected, (
                f"{render_body(body)} on {sorted(str(f) for f in base)}"
            )
            outcomes[expected] += 1
    assert min(outcomes.values()) > 50
