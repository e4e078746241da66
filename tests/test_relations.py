"""Indexed joins in the engine against the naive reference evaluator.

Each pack puts an indexed lookup where a wrong index would change the
model: a relation that grows while rules read it through an index, a
repeated variable in an indexed atom, a constant away from the first
position, and a negation over a projection after an indexed join. The
bundled threat pack runs over random invoked/7 traces, and random bodies
run as probe rules over one store per base, checked also with the
reference body matcher.

The lone-timestamp minimum is checked the same way, over traces with many
equal timestamps, under strict and loose event order, next to rules where
the planner must not apply it. A planner test pins which atoms of the
bundled pack it marks, and a complexity guard counts order comparisons on
traces where no event rule fires, so a join that grows with the square of
the trace fails a test.

Partitioned indexes file a first-position value on its first lookup. Rows
added once such an index exists, at values it has filed and at values it
has not, are checked against the oracle, and a second guard counts the
rows an evaluation of a long trace files into indexes.
"""

import random

import pytest

from benchmarks import gen
from planhunt import defaults
from planhunt.errors import ComparisonTypeError, UnsafeRule
from planhunt.inference import engine
from planhunt.inference.engine import Fact, Relations, evaluate, saturate, stratify
from planhunt.inference.rules import (
    Literal,
    Rule,
    Var,
    parse_rule_pack,
    render_body,
    rule_pack,
)
from planhunt.telemetry import events_to_facts, load_sample

from bodies import parse_body
from oracles.match_body import match_body
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
        "#pred looped/0 intensional",
        "#pred diagonal/1 intensional",
        "#pred bounced/1 intensional",
        "#pred reflexive/2 intensional",
    ],
    [
        "loop(X) :- edge(X, X).",
        "back(X, Y) :- edge(X, Y), edge(Y, X).",
        "pinned(X, Z) :- edge(X, Y), triple(Y, Z, Z).",
        # A repeat whose variable the rule reads nowhere else, one of three
        # occurrences, and one against a variable bound earlier.
        "looped :- edge(X, X).",
        "diagonal(X) :- triple(X, X, X).",
        "bounced(X) :- edge(X, Y), triple(Y, Z, Y).",
        # The delta atom of a recursive rule repeats a variable.
        "reflexive(X, Y) :- edge(X, Y).",
        "reflexive(Y, Y) :- reflexive(X, X), edge(X, Y).",
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

# The delta atom of a recursive rule holds a constant and a variable bound
# before it, or only bound positions; a scan of the delta rows checks them.
PACK_DELTA_FILTER = (
    [
        "#pred edge/2 extensional",
        "#pred triple/3 extensional",
        "#pred walk/3 intensional",
    ],
    [
        "walk(X, a, Y) :- triple(X, a, Y).",
        "walk(X, b, Y) :- edge(X, Y).",
        "walk(X, a, Z) :- edge(X, Y), walk(Y, a, Z).",
        "walk(X, c, X) :- walk(X, L, Y), walk(Y, L, X).",
    ],
)

# Heads and bodies of rules whose negations keep wildcard variables. Such
# rules are unsafe, so the engine refuses them; written with a projection
# per negation, as in WILDCARD_PROJECTED, they are safe.
WILDCARD_RULES = [
    ("sink(X)", "edge(X, Y), edge(Y, Z), not edge(Z, _)"),
    ("fresh(X)", "node(X), edge(X, Y), not triple(_, Y, X)"),
    ("plain(X)", "edge(X, Y), node(Y), not triple(Y, W, W)"),
    ("loopless(X)", "node(X), not edge(W, W)"),
]
WILDCARD_PROJECTED = (
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
        "loopless(X) :- node(X), not looped.",
        "looped :- edge(W, W).",
    ],
)

# Rows derived from a delta in one stratum feed a positive atom of the
# next, which reads negated only rows no delta reaches.
PACK_DELTA_ACROSS_STRATA = (
    [
        "#pred edge/2 extensional",
        "#pred node/1 extensional",
        "#pred mark/1 extensional",
    ],
    [
        "reach(X) :- node(X).",
        "reach(Y) :- reach(X), edge(X, Y).",
        "blocked(X) :- mark(X).",
        "open(X) :- reach(X), not blocked(X).",
        "exit(Y) :- open(X), edge(X, Y), not mark(Y).",
    ],
)

INDEXED_PACKS = [
    PACK_RIGHT_RECURSION,
    PACK_REPEATED_VARIABLE,
    PACK_LATE_CONSTANT,
    PACK_DELTA_FILTER,
]


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


def test_a_model_extended_from_a_delta_matches_the_oracle():
    # A store saturated over part of a base by the whole program, read
    # through an overlay that adds the rest as a delta: every stratum starts
    # from the delta alone, and the model is the whole base's. The world
    # keeps every row from which a negated literal is reachable, so the
    # delta retracts nothing. The saturated store is left as it was.
    rng = random.Random(20261019)
    for directives, rules in [*INDEXED_PACKS, WILDCARD_PROJECTED, PACK_DELTA_ACROSS_STRATA]:
        order = list(range(len(rules)))
        for _ in range(60):
            rng.shuffle(order)
            pack = build_pack(directives, rules, order)
            program = stratify(pack)
            kept = {
                item.atom.predicate
                for rule in pack.rules
                for item in rule.body
                if isinstance(item, Literal) and item.negated
            }
            while True:
                reach = kept | {
                    item.atom.predicate
                    for rule in pack.rules
                    if rule.head.predicate in kept
                    for item in rule.body
                    if isinstance(item, Literal)
                }
                if reach == kept:
                    break
                kept = reach
            base = random_base(pack, rng)
            world = Relations(fact for fact in base if fact.predicate in kept or rng.random() < 0.5)
            saturate(program, world)
            before = Relations(world)
            store = world.overlay()
            delta: dict[str, list[tuple]] = {}
            for fact in base:
                if store.add(fact.predicate, fact.args):
                    delta.setdefault(fact.predicate, []).append(fact.args)
            saturate(program, store, delta=delta)
            expected = Relations(base)
            for fact in evaluate_naive(pack, base):
                expected.add(fact.predicate, fact.args)
            assert store == expected, f"rules {order}"
            assert world == before


def test_wildcard_negation_after_an_indexed_join():
    for head, body in WILDCARD_RULES:
        with pytest.raises(UnsafeRule):
            stratify(rule_pack([Rule(parse_body(head)[0].atom, parse_body(body))]))
    rng = random.Random(11)
    directives, rules = WILDCARD_PROJECTED
    order = list(range(len(rules)))
    derived = 0
    for _ in range(150):
        rng.shuffle(order)
        pack = build_pack(directives, rules, order)
        base = random_base(pack, rng)
        fast = evaluate(stratify(pack), base).facts
        assert fast == evaluate_naive(pack, base), (
            f"divergence on {sorted(str(f) for f in base)} with rules {order}"
        )
        derived += sum(f.predicate in ("sink", "fresh", "plain", "loopless") for f in fast)
    assert derived > 100


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
    base = Relations()
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
        base.add("invoked", event)
    for app in ("app", "other"):
        for permission in rng.sample(PERMISSIONS, rng.randrange(0, 4)):
            base.add("declared_permission", (app, permission))
        if rng.random() < 0.3:
            base.add("declared_intent", (app, "clipboard_changed"))
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


# --- random bodies as probe rules on one store per base -----------------------

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
    an order comparison. Some bodies end with a number L in one val atom
    and below a constant or a number, which the planner minimises."""
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
            number, op = rng.choice(numbers), rng.choice(("<", "<=", ">", ">="))
            items.append(f"{number} {op} 2" if rng.random() < 0.5 else f"2 {op} {number}")
        elif len(names) >= 2:
            items.append("{} != {}".format(*rng.sample(names, 2)))
        elif names:
            items.append(f"{names[0]} != {rng.choice('abcd')}")
    if rng.random() < 0.3:
        bound = rng.choice((*numbers, "1", "3"))
        items.append(f"val({rng.choice(NAME_TERMS)}, L)")
        if rng.random() < 0.5:
            items.append(f"L {rng.choice(('<', '<='))} {bound}")
        else:
            items.append(f"{bound} {rng.choice(('>', '>='))} L")
    return parse_body(", ".join(items))


def test_match_body_matches_the_oracle():
    # Per base, eight random bodies run as the probe rules of one pack, so
    # they share one store and its indexes; the naive evaluator and the
    # reference body matcher must agree with each probe.
    rng = random.Random(99)
    directives, rules = PACK_MATCH
    outcomes = {True: 0, False: 0}
    minimised = 0
    for _ in range(60):
        bodies = [random_body(rng) for _ in range(8)]
        probes = [f"probe{i} :- {render_body(body)}." for i, body in enumerate(bodies)]
        pack = build_pack(directives, rules + probes)
        base = random_base(pack, rng)
        model = evaluate(stratify(pack), base)
        expected = evaluate_naive(pack, base)
        assert model.facts == expected, f"divergence on {sorted(str(f) for f in base)}"
        for i, body in enumerate(bodies):
            held = Fact(f"probe{i}") in expected
            assert match_body(body, model.relations) == held, (
                f"{render_body(body)} on {sorted(str(f) for f in base)}"
            )
            outcomes[held] += 1
        minimised += len(minima(pack))
    assert min(outcomes.values()) > 50
    assert minimised > 50


# --- the lone-timestamp minimum ---------------------------------------------------


def minima(pack):
    """{(rule text, body index): (group positions, timestamp position)} of
    the atoms the planner reads through a minimum index."""
    return {
        (str(planned.rule), body_index): least
        for stratum in stratify(pack).strata
        for planned in stratum
        for body_index, _positions, least in planned.plan
        if least is not None
    }


def minima_by_head(pack):
    """``minima`` keyed by head text in place of rule text."""
    return {(text.split(" :- ")[0], i): least for (text, i), least in minima(pack).items()}


LONE_DIRECTIVES = [
    "#pred invoked/7 extensional",
    "#pred after/1 intensional",
    "#pred cross/0 intensional",
    "#pred early/1 intensional",
    "#pred soon/1 intensional",
    "#pred before/2 intensional",
    "#pred paired/2 intensional",
]
# Rules whose first atom the planner minimises. Under strict order the
# parser adds T1 < T2 to each rule with two invoked timestamps; under loose
# order only the written comparisons remain. So after and cross are
# minimised only under strict order, and before only under loose order,
# since strict order puts its T1 in a second comparison.
LONE_RULES = [
    "after(P) :- invoked(T1, open, P, _, file, read, 0),"
    " invoked(T2, read, P, _, buffer, read, 0).",
    "cross :- invoked(T1, open, P1, _, file, _, 0),"
    " invoked(T2, read, P2, _, _, read, 0), P1 != P2.",
    # A comparison with a constant, written in both forms.
    "early(P) :- invoked(T, close, P, _, _, _, 0), T <= 2.",
    "soon(P) :- invoked(T, read, P, _, file, _, 0), 1 > T.",
    # The lesser side on the right of >; grouped by P and by the object O.
    "before(P, O) :- invoked(T1, open, P, _, O, _, 0), invoked(T2, close, Q, _, O, _, 0),"
    " T2 > T1, P != Q.",
    # The return value R is compared too, so it stays a group.
    "paired(P, S) :- invoked(T, S, P, _, _, _, R), T < 3, 0 < R.",
]
# Rules the planner must not minimise: the timestamp is in the head, in a
# second atom, in a negation or in a second comparison, or only on the
# greater side, or the atom repeats a variable.
KEPT_DIRECTIVES = [
    "#pred invoked/7 extensional",
    "#pred stamp/2 intensional",
    "#pred again/1 intensional",
    "#pred lonely/1 intensional",
    "#pred window/1 intensional",
    "#pred late/1 intensional",
    "#pred selfish/1 intensional",
]
KEPT_RULES = [
    "stamp(P, T1) :- invoked(T1, open, P, _, file, read, 0),"
    " invoked(T2, read, P, _, buffer, read, 0), T1 < T2.",
    "again(P) :- invoked(T1, open, P, _, file, _, 0),"
    " invoked(T1, close, P, _, file, _, 0), T1 < 4.",
    "lonely(P) :- invoked(T1, open, P, _, _, _, 0), T1 < 3,"
    " not invoked(T1, close, P, wildcard, file, read, 0).",
    "window(P) :- invoked(T1, open, P, _, _, _, 0), T1 < 4, T1 >= 1.",
    "late(P) :- invoked(T, open, P, _, _, _, 0), T > 3.",
    "selfish(P) :- invoked(T1, open, P, P, _, _, 0), T1 < 3.",
]


def lone_pack(directives, rules, order):
    return parse_rule_pack("\n".join([f"#order {order}", *directives, *rules]) + "\n")


def tied_trace(rng):
    """Up to 60 invoked/7 events on 3 pids with timestamps 0..5, so most
    timestamps are shared; a thread id sometimes equals a pid."""
    pids = ("p1", "p2", "p3")
    base = Relations()
    for _ in range(rng.randrange(0, 61)):
        event = (
            rng.randrange(0, 6),
            rng.choice(("open", "read", "close")),
            rng.choice(pids),
            rng.choice(("wildcard", *pids)),
            rng.choice(("file", "buffer")),
            rng.choice(("read", "write")),
            0 if rng.random() < 0.7 else rng.choice((1, 2)),
        )
        base.add("invoked", event)
    return base


@pytest.mark.parametrize("order", ["strict", "loose"])
def test_lone_timestamps_match_the_oracle(order):
    rng = random.Random(f"lone:{order}")
    packs = [
        lone_pack(LONE_DIRECTIVES, LONE_RULES, order),
        lone_pack(KEPT_DIRECTIVES, KEPT_RULES, order),
    ]
    programs = [stratify(pack) for pack in packs]
    derived = 0
    for _ in range(100):
        base = tied_trace(rng)
        for pack, program in zip(packs, programs):
            fast = evaluate(program, base).facts
            assert fast == evaluate_naive(pack, base), (
                f"divergence on {sorted(str(f) for f in base)}"
            )
            derived += len(fast)
    assert derived > 500


# Time-respecting paths: reach is read through a minimum index while the
# rules derive it, and semi-naive rounds scan its delta rows instead. The
# negation puts onward in a higher stratum, which reads the finished reach
# through a minimum index alone.
PACK_TEMPORAL_REACH = (
    [
        "#pred start/2 extensional",
        "#pred edge/3 extensional",
        "#pred reach/2 intensional",
        "#pred hit/1 intensional",
        "#pred onward/1 intensional",
    ],
    [
        "reach(X, T) :- start(X, T).",
        "reach(Y, T2) :- reach(X, T1), edge(X, Y, T2), T1 < T2.",
        "hit(Y) :- edge(X, Y, T2), reach(X, T1), T1 <= T2.",
        "onward(Y) :- reach(X, T1), edge(X, Y, T2), T1 < T2, not start(Y, 0).",
    ],
)


def test_recursive_minimum_matches_the_oracle():
    rng = random.Random(23)
    nodes = ("a", "b", "c", "d", "e")
    pack = build_pack(*PACK_TEMPORAL_REACH)
    assert minima_by_head(pack) == {
        ("reach(Y, T2)", 0): ((0,), 1),
        ("hit(Y)", 1): ((), 1),
        ("onward(Y)", 0): ((0,), 1),
    }
    program = stratify(pack)
    multi_hop = 0
    for _ in range(150):
        base = Relations()
        for _ in range(rng.randrange(0, 3)):
            base.add("start", (rng.choice(nodes), rng.randrange(0, 4)))
        for _ in range(rng.randrange(0, 12)):
            base.add("edge", (rng.choice(nodes), rng.choice(nodes), rng.randrange(0, 6)))
        fast = evaluate(program, base).facts
        assert fast == evaluate_naive(pack, base), (
            f"divergence on {sorted(str(f) for f in base)}"
        )
        reached = sum(1 for fact in fast if fact.predicate == "reach")
        multi_hop += reached > len([f for f in base if f.predicate == "start"]) + 1
    assert multi_hop > 20


@pytest.mark.parametrize("order", ["strict", "loose"])
def test_planner_marks_only_lone_timestamps(order):
    lone = minima_by_head(lone_pack(LONE_DIRECTIVES, LONE_RULES, order))
    expected = {
        ("early(P)", 0): ((2,), 0),
        ("soon(P)", 0): ((2,), 0),
        ("paired(P, S)", 0): ((1, 2, 6), 0),
    }
    if order == "strict":
        expected |= {("after(P)", 0): ((2,), 0), ("cross", 0): ((2,), 0)}
    else:
        expected[("before(P, O)", 0)] = ((2, 4), 0)
    assert lone == expected
    assert minima(lone_pack(KEPT_DIRECTIVES, KEPT_RULES, order)) == {}


def test_non_integer_timestamp_still_raises():
    # The oracle raises on the text timestamp alone (it cannot sort a
    # column that mixes texts and integers). Evaluation must raise also
    # where an integer row is the least of the same group, whichever row a
    # minimum index files first: both at its first lookup, or either one
    # added to an index built on the other.
    # Each rule reads the close rows through a minimum index only.
    pack = lone_pack(
        ["#pred invoked/7 extensional", "#pred early/1 intensional", "#pred reopened/1 intensional"],
        [
            "early(P) :- invoked(T, close, P, _, _, _, 0), T <= 2.",
            "reopened(P) :- invoked(T1, close, P, _, file, _, 0),"
            " invoked(T2, open, P, _, file, _, 0).",
        ],
        "strict",
    )
    assert set(minima_by_head(pack)) == {("early(P)", 0), ("reopened(P)", 0)}
    program = stratify(pack)
    text_row = ("noon", "close", "p1", "wildcard", "file", "read", 0)
    int_row = (1, *text_row[1:])
    paired = (5, "open", "p1", "wildcard", "file", "read", 0)
    with pytest.raises(ComparisonTypeError):
        evaluate_naive(pack, Relations([Fact("invoked", text_row)]))
    for rows in ([text_row], [int_row, text_row], [text_row, int_row]):
        with pytest.raises(ComparisonTypeError):
            evaluate(program, Relations([Fact("invoked", row) for row in (*rows, paired)]))
    for first, later in ((int_row, text_row), (text_row, int_row)):
        store = Relations([Fact("invoked", first), Fact("invoked", paired)])
        for planned in (rule for stratum in program.strata for rule in stratum):
            for body_index, positions, least in planned.plan:
                if least is not None:
                    atom = planned.rule.body[body_index].atom
                    store.lookup("invoked", positions, tuple(atom.args[i] for i in positions), least)
        store.add("invoked", later)
        with pytest.raises(ComparisonTypeError):
            saturate(program, store)


def test_bundled_pack_marks_the_first_atom_of_each_event_rule():
    pack = parse_rule_pack(defaults.asset_text(defaults.RULES_FILE))
    event_rules = [
        str(rule)
        for rule in pack.rules
        if any(
            isinstance(item, Literal) and item.atom.predicate == "invoked" for item in rule.body
        )
    ]
    # Five evidence rules and cross-sandbox-reads.
    assert len(event_rules) == 6
    assert set(minima(pack)) == {(text, 0) for text in event_rules}


def test_bundled_pack_over_tied_traces_in_both_orders():
    text = defaults.asset_text(defaults.RULES_FILE)
    patterns = rule_event_patterns(parse_rule_pack(text))
    rng = random.Random(17)
    for order in ("strict", "loose"):
        pack = parse_rule_pack(text.replace("#order strict", f"#order {order}"))
        program = stratify(pack)
        derived = 0
        for _ in range(10):
            # Squeeze the timestamps so that most events share one.
            base = Relations(
                Fact(f.predicate, (f.args[0] % 6, *f.args[1:])) if f.predicate == "invoked" else f
                for f in random_trace(rng, patterns)
            )
            fast = evaluate(program, base).facts
            assert fast == evaluate_naive(pack, base), (
                f"divergence on {sorted(str(f) for f in base)}"
            )
            derived += len(fast)
        assert derived > 0


# --- complexity guard ----------------------------------------------------------------

# (syscall, object, mode) of the bundled event rules' second atoms, then of
# their first atoms. cross-sandbox-reads reads "read buffer read" second
# and "openat file read" first.
SECOND_ATOMS = (
    ("mmap", "buffer", "read_or_write"),
    ("mmap", "buffer", "exec_or_read"),
    ("ioctl", "device", "read_or_write"),
    ("write", "device", "write"),
    ("recvmsg", "socket", "read"),
)
FIRST_ATOMS = (
    ("finit_module", "module", "none"),
    ("read", "buffer", "read"),
    ("openat", "file", "read_or_write"),
    ("mmap", "device", "read_or_write"),
    ("sendmsg", "socket", "write"),
)


def phased_trace(events):
    """``events`` invoked/7 facts on 8 pids on which no event rule of the
    bundled pack fires, although each has rows for both of its atoms on
    every pid: each rule's second-atom events come before its first-atom
    events. A quarter of the events are second atoms, a quarter first atoms,
    and the last half ``openat file read``, after every ``read buffer
    read``."""
    quarter = events // 4
    shapes = (
        [SECOND_ATOMS[i % 5] for i in range(quarter)]
        + [FIRST_ATOMS[i % 5] for i in range(quarter)]
        + [("openat", "file", "read")] * (events - 2 * quarter)
    )
    return Relations(
        Fact("invoked", (ts, syscall, f"p{ts % 8}", "t0", obj, mode, 0))
        for ts, (syscall, obj, mode) in enumerate(shapes)
    )


def test_order_comparisons_grow_linearly_with_the_trace(monkeypatch):
    program = stratify(parse_rule_pack(defaults.asset_text(defaults.RULES_FILE)))
    compare = engine._compare
    calls = 0

    def counted(item, binding):
        nonlocal calls
        calls += 1
        return compare(item, binding)

    monkeypatch.setattr(engine, "_compare", counted)
    counts = []
    for events in (1000, 4000):
        calls = 0
        assert len(evaluate(program, phased_trace(events)).facts) == 0
        counts.append(calls)
    # Four times the events give about four times the comparisons; a join
    # over pairs of events gives sixteen.
    assert 0 < counts[1] <= 4.5 * counts[0], counts


# --- partitioned filing -----------------------------------------------------------

# Every index on ev and mark but the plain ones on the kind alone is
# partitioned on the kind: a minimum index for the a rows, plain (kind, pid)
# indexes read once gate or door holds a pid, and mark, which grows while a
# rule reads it through (kind, pid).
PACK_PARTITIONED = (
    [
        "#pred ev/3 extensional",
        "#pred gate/1 extensional",
        "#pred door/1 extensional",
        "#pred mark/3 intensional",
        "#pred first/1 intensional",
        "#pred gated/1 intensional",
        "#pred doored/2 intensional",
        "#pred chain/1 intensional",
    ],
    [
        "first(P) :- ev(T1, a, P), ev(T2, b, P), T1 < T2.",
        "gated(P) :- gate(P), ev(T, c, P).",
        "doored(P, T) :- door(P), ev(T, d, P).",
        "mark(K, P, T) :- ev(T, K, P).",
        "mark(e, P, T) :- mark(a, P, T), gate(P).",
        "chain(P) :- door(P), mark(e, P, T).",
    ],
)


def partitioned_rows(rng, kinds, gates, doors):
    rows = [("ev", (rng.randrange(0, 5), rng.choice(kinds), rng.choice(("p1", "p2", "p3"))))
            for _ in range(rng.randrange(0, 12))]
    rows += [("gate", (pid,)) for pid in ("p1", "p2", "p3") if rng.random() < gates]
    rows += [("door", (pid,)) for pid in ("p1", "p2", "p3") if rng.random() < doors]
    return rows


def filed_kinds(store):
    """Per partitioned ev index, the kinds it has filed."""
    indexes = store._indexes.get("ev", {}).values()
    return [set(index.filed) for index in indexes if index.filed is not None]


@pytest.mark.parametrize("through", ["add", "delta"])
def test_rows_added_after_partitioned_filing_match_the_oracle(through):
    # Before the late rows, door is empty, so no lookup has filed kind d;
    # the late rows add ev rows of every kind, and doors.
    directives, rules = PACK_PARTITIONED
    rng = random.Random(20261021)
    order = list(range(len(rules)))
    exercised = 0
    for _ in range(80):
        rng.shuffle(order)
        pack = build_pack(directives, rules, order)
        program = stratify(pack)
        store = Relations()
        for pred, row in partitioned_rows(rng, ("a", "b", "c"), 0.7, 0.0):
            store.add(pred, row)
        late = partitioned_rows(rng, ("a", "b", "c", "d"), 0.3, 0.7)
        if through == "add":
            # evaluate reads the store's indexes through an overlay, so the
            # rows added to the store reach indexes filed by the first call.
            evaluate(program, store)
            kinds = filed_kinds(store)
            for pred, row in late:
                store.add(pred, row)
            assert evaluate(program, store).facts == evaluate_naive(pack, store), f"rules {order}"
        else:
            saturate(program, store)
            kinds = filed_kinds(store)
            delta: dict[str, list[tuple]] = {}
            for pred, row in late:
                if store.add(pred, row):
                    delta.setdefault(pred, []).append(row)
            saturate(program, store, delta=delta)
            base = Relations(f for f in store if f.predicate not in pack.intensional())
            derived = Relations(f for f in store if f.predicate in pack.intensional())
            assert derived == evaluate_naive(pack, base), f"rules {order}"
        exercised += any("a" in k and "d" not in k for k in kinds) and any(
            pred == "ev" and row[1] in ("a", "d") for pred, row in late
        )
    assert exercised > 40


def test_partitioned_indexes_file_a_long_trace_about_twice(monkeypatch, tmp_path):
    program = stratify(parse_rule_pack(defaults.asset_text(defaults.RULES_FILE)))
    base = events_to_facts(load_sample(gen.long_trace(3, 0, tmp_path, events=300).path))
    file = engine._Index.file
    filed = 0

    def counted(index, rows):
        nonlocal filed
        rows = list(rows)
        filed += len(rows)
        file(index, rows)

    monkeypatch.setattr(engine._Index, "file", counted)
    assert len(evaluate(program, base).facts) > 0
    # Every row goes once into the plain index on the syscall, which the
    # four invoked indexes of the event rules share as their partition;
    # each of those files only the syscalls the rules read. Filing every
    # row into each of the four gives 4x.
    assert len(base) == 300 and filed < 2.5 * 300, filed
