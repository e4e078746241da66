"""Stratified evaluation against the naive reference evaluator."""

import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

import planhunt
from planhunt.errors import (
    ArityConflict,
    ComparisonTypeError,
    DeclarationConflict,
    NegationCycle,
    ResourceLimit,
)
from planhunt.inference.engine import Fact, Relations, evaluate, saturate, stratify
from planhunt.inference.rules import parse_rule_pack

from bodies import parse_body
from oracles.match_body import match_body
from oracles.naive_datalog import evaluate_naive, naive_strata

# Fixed rule packs exercised over randomized fact bases. Each is a list of
# directive lines plus rule lines so rule order can be permuted.
PACK_TRANSITIVE = (
    [
        "#pred edge/2 extensional",
        "#pred path/2 intensional",
    ],
    [
        "path(X, Y) :- edge(X, Y).",
        "path(X, Z) :- path(X, Y), edge(Y, Z).",
    ],
)

PACK_NEGATION = (
    [
        "#pred edge/2 extensional",
        "#pred node/1 extensional",
        "#pred link/2 intensional",
        "#pred connected/1 intensional",
        "#pred isolated/1 intensional",
    ],
    [
        "link(X, Y) :- edge(X, Y).",
        "link(X, Y) :- edge(Y, X).",
        "connected(X) :- link(X, _).",
        "isolated(X) :- node(X), not connected(X).",
    ],
)

PACK_COMPARISONS = (
    [
        "#pred val/2 extensional",
        "#pred beaten/1 intensional",
        "#pred best/1 intensional",
        "#pred gap/2 intensional",
    ],
    [
        "beaten(X) :- val(X, N), val(_, M), M > N.",
        "best(X) :- val(X, _), not beaten(X).",
        "gap(X, Y) :- val(X, N), val(Y, M), N < M, X != Y.",
    ],
)

PACK_EVENTS = (
    [
        "#order strict",
        "#pred invoked/7 extensional",
        "#pred staged/1 intensional",
        "#pred chained/0 intensional",
    ],
    [
        "staged(P) :- invoked(T1, open, P, _, file, read, 0),"
        " invoked(T2, read, P, _, buffer, read, 0).",
        "chained :- staged(P1), staged(P2), P1 != P2.",
    ],
)

PACKS = [PACK_TRANSITIVE, PACK_NEGATION, PACK_COMPARISONS, PACK_EVENTS]


def build_pack(directives, rules, order=None):
    lines = list(directives)
    ordered = [rules[i] for i in order] if order is not None else list(rules)
    return parse_rule_pack("\n".join(lines + ordered) + "\n")


def random_base(pack, rng):
    """A random extensional base respecting the pack's declared arities."""
    base = Relations()
    names = ["a", "b", "c", "d"]
    for predicate in sorted(set(pack.declared) - pack.intensional()):
        arity = pack.arity_of(predicate)
        for _ in range(rng.randrange(0, 7)):
            if predicate == "invoked":
                args = (
                    rng.randrange(0, 6),
                    rng.choice(["open", "read", "close"]),
                    rng.choice(["p1", "p2", "p3"]),
                    "wildcard",
                    rng.choice(["file", "buffer"]),
                    "read",
                    0,
                )
            elif predicate == "val":
                args = (rng.choice(names), rng.randrange(0, 5))
            else:
                args = tuple(rng.choice(names) for _ in range(arity))
            base.add(predicate, args)
    return base


class TestEquivalenceWithNaiveOracle:
    def test_random_bases(self):
        rng = random.Random(20240817)
        runs = 0
        for directives, rules in PACKS:
            pack = build_pack(directives, rules)
            program = stratify(pack)
            for _ in range(50):
                base = random_base(pack, rng)
                fast = evaluate(program, base).facts
                slow = evaluate_naive(pack, base)
                assert fast == slow, (
                    f"divergence on {sorted(str(f) for f in base)}"
                )
                runs += 1
        assert runs == 200

    def test_rule_order_is_irrelevant(self):
        rng = random.Random(7)
        for directives, rules in PACKS:
            reference = None
            base = random_base(build_pack(directives, rules), rng)
            order = list(range(len(rules)))
            for _ in range(4):
                rng.shuffle(order)
                pack = build_pack(directives, rules, order)
                result = evaluate(stratify(pack), base).facts
                if reference is None:
                    reference = result
                assert result == reference


class TestStratification:
    def test_negation_free_pack_is_single_stratum(self):
        pack = build_pack(*PACK_TRANSITIVE)
        program = stratify(pack)
        assert len(program.strata) == 1

    def test_negation_adds_a_stratum(self):
        pack = parse_rule_pack(
            "#pred a/0 extensional\n#pred b/0 intensional\n#pred c/0 intensional\n"
            "b :- a.\nc :- not b.\n"
        )
        program = stratify(pack)
        level = {r.rule.head.predicate: i for i, group in enumerate(program.strata) for r in group}
        assert level["c"] > level["b"]

    def test_recursion_through_negation_rejected(self):
        text = (
            "#pred p/0 intensional\n#pred q/0 intensional\n"
            "p :- not q.\nq :- not p.\n"
        )
        with pytest.raises(NegationCycle) as err:
            stratify(parse_rule_pack(text))
        assert err.value.predicates == ("p", "q")

    def test_naive_strata_rejects_the_same_program(self):
        text = (
            "#pred p/0 intensional\n#pred q/0 intensional\n"
            "p :- not q.\nq :- not p.\n"
        )
        with pytest.raises(NegationCycle):
            naive_strata(parse_rule_pack(text))

    def test_negative_recursion_inside_positive_cycle_rejected(self):
        text = (
            "#pred e/1 extensional\n#pred p/1 intensional\n#pred q/1 intensional\n"
            "p(X) :- q(X).\nq(X) :- e(X), not p(X).\n"
        )
        with pytest.raises(NegationCycle):
            stratify(parse_rule_pack(text))


class TestEvaluationContract:
    def test_base_with_intensional_predicate_rejected(self):
        pack = build_pack(*PACK_TRANSITIVE)
        program = stratify(pack)
        base = Relations([Fact("path", ("a", "b"))])
        with pytest.raises(DeclarationConflict):
            evaluate(program, base)

    def test_saturate_takes_intensional_rows_as_facts(self):
        # Rows of path given to saturate act as bodiless rules: they feed
        # path's recursion and the negation in the stratum above it.
        directives = [*PACK_TRANSITIVE[0], "#pred node/1 extensional", "#pred cut/1 intensional"]
        rules = [*PACK_TRANSITIVE[1], "cut(X) :- node(X), not path(a, X)."]
        pack = build_pack(directives, rules)
        program = stratify(pack)
        rng = random.Random(17)
        for _ in range(40):
            base = random_base(pack, rng)
            seeded = sorted({(rng.choice("abcd"), rng.choice("abcd")) for _ in range(rng.randrange(4))})
            store = Relations(base)
            for row in seeded:
                store.add("path", row)
            saturate(program, store)
            stated = build_pack(directives, [*rules, *(f"path({x}, {y})." for x, y in seeded)])
            expected = evaluate_naive(stated, base)
            assert Relations(f for f in store if f.predicate in pack.intensional()) == expected

    def test_base_arity_mismatch_rejected(self):
        pack = build_pack(*PACK_TRANSITIVE)
        program = stratify(pack)
        base = Relations([Fact("edge", ("a", "b", "c"))])
        with pytest.raises(ArityConflict):
            evaluate(program, base)

    def test_derived_fact_budget(self, monkeypatch):
        pack = build_pack(*PACK_TRANSITIVE)
        program = stratify(pack)
        base = Relations(
            [Fact("edge", (f"n{i}", f"n{i+1}")) for i in range(30)]
        )
        monkeypatch.setattr("planhunt.inference.engine.FACT_LIMIT", 10)
        with pytest.raises(ResourceLimit):
            evaluate(program, base)

    def test_comparison_type_error_surfaces(self):
        pack = parse_rule_pack(
            "#pred v/1 extensional\n#pred big/1 intensional\n"
            "big(X) :- v(X), X > 3.\n"
        )
        program = stratify(pack)
        with pytest.raises(ComparisonTypeError):
            evaluate(program, Relations([Fact("v", ("topaz",))]))

    def test_store_rejects_a_second_arity(self):
        store = Relations([Fact("edge", ("a", "b"))])
        with pytest.raises(ArityConflict):
            store.add("edge", ("a", "b", "c"))
        assert set(store.rows("edge")) == {("a", "b")}

    @pytest.mark.parametrize(
        "rows",
        [[], [("a", "b"), ("a", "b"), ("b", "c")], [("a", "b"), ("a",)], [("a",), ("a", "b")]],
    )
    @pytest.mark.parametrize("held", [(), (("edge", ("c", "d")),)], ids=["fresh", "held"])
    def test_update_stores_what_adds_would(self, rows, held):
        def outcome(fill):
            store = Relations(Fact(*fact) for fact in held)
            try:
                fill(store)
            except ArityConflict as exc:
                return str(exc)
            return store

        def adds(store):
            for row in rows:
                store.add("edge", row)

        assert outcome(lambda store: store.update("edge", rows)) == outcome(adds)

    def test_bodyless_rules_fire(self):
        pack = parse_rule_pack("#pred marked/1 intensional\nmarked(origin).\n")
        derived = evaluate(stratify(pack), Relations()).facts
        assert Fact("marked", ("origin",)) in derived

    def test_result_contains_only_intensional_facts(self):
        pack = build_pack(*PACK_TRANSITIVE)
        base = Relations([Fact("edge", ("a", "b"))])
        derived = evaluate(stratify(pack), base).facts
        assert [f for f in derived if f.predicate == "edge"] == []
        assert Fact("path", ("a", "b")) in derived


class TestStore:
    def test_evaluate_leaves_its_base_unchanged(self):
        pack = build_pack(*PACK_TRANSITIVE)
        base = Relations([Fact("edge", ("a", "b")), Fact("edge", ("b", "c"))])
        before = base.sorted()
        model = evaluate(stratify(pack), base)
        assert len(base) == 2
        assert base.sorted() == before
        assert Fact("path", ("a", "c")) not in base
        assert Fact("path", ("a", "c")) in model.relations
        assert len(model.relations) == 5

    def test_store_is_a_set_of_facts(self):
        facts = [Fact("edge", ("b", "c")), Fact("edge", ("a", "b")), Fact("mark", ())]
        store = Relations(facts)
        store.add("edge", ("a", "b"))
        assert len(store) == 3
        assert set(store) == set(facts)
        assert store.sorted() == sorted(facts, key=lambda f: (f.predicate, f.args))
        assert store == Relations(reversed(facts))
        assert store != Relations(facts[:2])

    def test_overlay_reads_through_until_it_adds(self):
        store = Relations([Fact("edge", ("a", "b")), Fact("mark", ())])
        assert len(store.lookup("edge", (0,), ("a",))) == 1
        overlay = store.overlay()
        assert overlay == store
        # A lookup reads the store's index; an index the overlay builds on
        # rows it has not changed serves the store too.
        assert overlay.lookup("edge", (0,), ("a",)) is store.lookup("edge", (0,), ("a",))
        overlay.lookup("edge", (1,), ("b",))
        assert ((1,), None) in store._indexes["edge"]
        assert not overlay.add("edge", ("a", "b"))
        assert overlay.add("edge", ("a", "c"))
        assert overlay.add("node", ("a",))
        assert len(overlay.lookup("edge", (0,), ("a",))) == 2
        assert store == Relations([Fact("edge", ("a", "b")), Fact("mark", ())])
        assert len(store.lookup("edge", (0,), ("a",))) == 1
        assert overlay.rows("mark") is store.rows("mark")
        with pytest.raises(ArityConflict):
            overlay.add("mark", ("x",))

    def test_pickles_leave_the_indexes_out(self):
        store = Relations([Fact("edge", ("a", "b"))])
        store.lookup("edge", (0,), ("a",))
        copy = pickle.loads(pickle.dumps(store))
        assert copy == store
        assert copy._indexes == {"edge": {}}
        assert copy.lookup("edge", (0,), ("a",)) == [("a", "b")]
        # An overlay pickles as a plain store of its rows, which takes adds.
        overlay = store.overlay()
        overlay.add("node", ("a",))
        copy = pickle.loads(pickle.dumps(overlay))
        assert type(copy) is Relations
        assert copy == overlay
        assert copy._indexes == {"edge": {}, "node": {}}
        assert copy.add("edge", ("a", "c"))
        assert sorted(copy.lookup("edge", (0,), ("a",))) == [("a", "b"), ("a", "c")]
        assert store == Relations([Fact("edge", ("a", "b"))])


class TestHolds:
    STORE = Relations(
        [
            Fact("perm-granted", ("app", "camera")),
            Fact("perm-granted", ("other", "microphone")),
            Fact("exploited", ("cve_1",)),
            Fact("ready", ()),
        ]
    )

    def test_wildcard_matches_any_value(self):
        assert self.STORE.holds("perm-granted", (None, "camera"))
        assert self.STORE.holds("perm-granted", (None, None))
        assert not self.STORE.holds("perm-granted", (None, "clipboard"))
        assert not self.STORE.holds("perm-granted", ("app", "microphone"))

    def test_fully_bound_pattern_is_a_membership_test(self):
        assert self.STORE.holds("exploited", ("cve_1",))
        assert not self.STORE.holds("exploited", ("cve_2",))
        assert self.STORE.holds("ready", ())

    def test_pattern_of_another_arity_matches_no_row(self):
        assert not self.STORE.holds("exploited", ("cve_1", None))
        assert not self.STORE.holds("perm-granted", (None,))
        assert not self.STORE.holds("ready", (None,))

    def test_missing_predicate_matches_no_row(self):
        assert not self.STORE.holds("unseen", ())
        assert not self.STORE.holds("unseen", (None, "camera"))

    def test_repeated_probes_share_one_index(self):
        # A row added after the index was built reaches it.
        store = Relations(self.STORE)
        assert not store.holds("perm-granted", (None, "clipboard"))
        assert list(store._indexes["perm-granted"]) == [((1,), None)]
        store.add("perm-granted", ("app", "clipboard"))
        assert store.holds("perm-granted", (None, "clipboard"))
        assert list(store._indexes["perm-granted"]) == [((1,), None)]


class TestMatchBody:
    """Cases of the reference body matcher ``tests/oracles/match_body.py``,
    the oracle of confirmation's probes, and the engine's handling of the
    same unbound filters as rules under ``python -O``."""

    BASE = Relations(
        [
            Fact("invoked", (1, "open", "p1", "wildcard", "file", "read", 0)),
            Fact("invoked", (4, "read", "p1", "wildcard", "buffer", "read", 0)),
        ]
    )

    def test_pattern_matches(self):
        body = parse_body(
            "invoked(T1, open, P, _, file, read, 0),"
            " invoked(T2, read, P, _, buffer, read, 0), T1 < T2"
        )
        assert match_body(body, self.BASE)

    def test_order_constraint_fails(self):
        body = parse_body(
            "invoked(T1, read, P, _, buffer, read, 0),"
            " invoked(T2, open, P, _, file, read, 0), T1 < T2"
        )
        assert not match_body(body, self.BASE)

    def test_negation_is_closed_world(self):
        assert match_body(parse_body("not invoked(9, close, p1, _, file, read, 0)"), self.BASE)

    def test_negation_wildcard_blocks_on_any_match(self):
        # The anonymous slot matches the stored "wildcard" value, so the
        # negated pattern finds a fact and the body fails.
        assert not match_body(parse_body("not invoked(1, open, p1, _, file, read, 0)"), self.BASE)

    def test_atom_of_another_arity_matches_no_row(self):
        assert not match_body(parse_body("invoked(T, open, P)"), self.BASE)
        body = parse_body("invoked(T, open, P, _, file, read, 0), not invoked(T)")
        assert match_body(body, self.BASE)

    def test_unbindable_comparison_cannot_match(self):
        assert not match_body(parse_body("T1 < T2"), self.BASE)
        opened = "invoked(T, open, P, _, file, read, 0)"
        assert not match_body(parse_body(opened + ", X != P"), self.BASE)

    def test_repeated_negation_wildcard_needs_equal_values(self):
        opened = "invoked(T, open, P, _, file, read, 0)"
        assert match_body(parse_body(opened + ", not invoked(_, open, Q, Q, _, _, _)"), self.BASE)
        rows = [*self.BASE, Fact("invoked", (2, "read", "p2", "p2", "buffer", "read", 0))]
        body = parse_body(opened + ", not invoked(_, _, Q, Q, _, _, _)")
        assert not match_body(body, Relations(rows))

    def test_order_comparison_on_a_name_raises(self):
        with pytest.raises(ComparisonTypeError):
            match_body(parse_body("invoked(T, S, P, _, _, _, 0), S < 2"), self.BASE)

    def test_unbound_filter_cannot_match_under_optimize(self):
        # ``python -O`` strips assert statements; a rule whose filter
        # variable never binds must still be refused there, a negation must
        # still hold only without a matching row, and an order comparison
        # on a name must still raise.
        src = str(Path(planhunt.__file__).resolve().parents[1])
        script = (
            "from planhunt.errors import ComparisonTypeError, UnsafeRule\n"
            "from planhunt.inference.engine import Fact, Relations, evaluate, saturate, stratify\n"
            "from planhunt.inference.rules import Atom, Rule, rule_pack\n"
            "from bodies import parse_body\n"
            "rows = [(1, 'open', 'p1', 'wildcard', 'file', 'read', 0),\n"
            "        (2, 'read', 'p2', 'p2', 'buffer', 'read', 0)]\n"
            "store = Relations([Fact('invoked', row) for row in rows])\n"
            "def probe(body):\n"
            "    pack = rule_pack([Rule(Atom('probe'), parse_body(body))])\n"
            "    try:\n"
            "        program = stratify(pack)\n"
            "    except UnsafeRule:\n"
            "        return 'unsafe'\n"
            "    return Fact('probe') in evaluate(program, store).facts\n"
            "opened = 'invoked(T, open, P, _, file, read, 0)'\n"
            "for body in ('T1 < T2', opened + ', X != P',\n"
            "             opened + ', not invoked(_, _, Q, Q, _, _, _)',\n"
            "             opened + ', not invoked(T, open, P, wildcard, file, read, 1)',\n"
            "             opened + ', not invoked(T, open, P, wildcard, file, read, 0)'):\n"
            "    print(probe(body))\n"
            "try:\n"
            "    probe('invoked(T, S, P, _, _, _, 0), S < 2')\n"
            "except ComparisonTypeError:\n"
            "    print('raised')\n"
        )
        result = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join((src, str(Path(__file__).parent)))},
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "unsafe\nunsafe\nunsafe\nTrue\nFalse\nraised\n"
