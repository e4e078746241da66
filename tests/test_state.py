"""Capability/mapping tables, per-sample problem assembly and the goals hypotheses pose."""

from dataclasses import replace

import pytest

from planhunt import defaults
from planhunt.errors import InputError, MalformedRecord, UnmappedPredicate
from planhunt.inference.rules import Atom, Rule, Var, parse_rule_pack
from planhunt.planning_model.model import ThreatHypothesis
from planhunt.planning_model.state import (
    StaticWorld,
    build_problem,
    load_capability_table,
    load_mapping_table,
    mapped_atoms,
    pose,
)
from planhunt.hunt import HuntAssets
from planhunt.inference.engine import Relations
from planhunt.telemetry import Fact, SampleRecord

CAPS_TEXT = """
# cve           capability                      argument  source
cve_1  enables-privilege-escalation  -       core
cve_2  enables-sensor                camera  extended
cve_3  pivot-exploit-from-to         cve_9   core
"""

MAP_TEXT = """
exploited/1             (exploited $1)
perm-granted/2          (perm-granted $1 $2)
swapped/2               (pair $2 $1)
ignore bookkeeping/0
"""


@pytest.fixture(scope="module")
def assets():
    return HuntAssets.load()


def sample(sample_id="s1"):
    return SampleRecord(sample_id=sample_id, events=(), permissions=(), intents=())


class TestCapabilityTable:
    def test_rows_and_atoms(self):
        table = load_capability_table(CAPS_TEXT)
        assert table.atoms() == [
            ("enables-privilege-escalation", ("cve_1",)),
            ("enables-sensor", ("cve_2", "camera")),
            ("pivot-exploit-from-to", ("cve_3", "cve_9")),
        ]

    def test_cves_include_pivot_targets(self):
        table = load_capability_table(CAPS_TEXT)
        assert table.cves() == ["cve_1", "cve_2", "cve_3", "cve_9"]

    @pytest.mark.parametrize(
        "line,fragment",
        [
            ("cve_1 enables-sensor camera", "expected 4 columns"),
            ("cve_1 grants-root - core", "unknown capability"),
            ("cve_1 enables-privilege-escalation camera core", "takes no argument"),
            ("cve_1 enables-sensor - core", "needs an argument"),
            ("cve_1 enables-sensor camera vendor", "unknown source"),
        ],
    )
    def test_malformed_rows(self, line, fragment):
        with pytest.raises(MalformedRecord) as err:
            load_capability_table(line + "\n")
        assert fragment in str(err.value)
        assert err.value.line == 1


def mapped(table, *facts):
    return mapped_atoms(Relations(facts), table)


class TestMappingTable:
    def test_same_name_template(self):
        table = load_mapping_table(MAP_TEXT)
        assert mapped(table, Fact("exploited", ("cve_1",))) == {("exploited", ("cve_1",))}

    def test_slot_reordering(self):
        table = load_mapping_table(MAP_TEXT)
        assert mapped(table, Fact("swapped", ("a", "b"))) == {("pair", ("b", "a"))}

    def test_ignored_predicate(self):
        table = load_mapping_table(MAP_TEXT)
        assert mapped(table, Fact("bookkeeping", ())) == frozenset()

    def test_unmapped_predicate(self, tmp_path):
        # A map that lacks a derived predicate fails at load, naming the
        # map, though no sample has yet derived it; an ignore line loads.
        partial = tmp_path / "state-mapping"
        text = defaults.asset_text(defaults.STATE_MAP_FILE)
        line = "clipboard-readable/1 (clipboard-readable $1)\n"
        assert line in text
        partial.write_text(text.replace(line, ""), encoding="utf-8")
        with pytest.raises(UnmappedPredicate) as err:
            HuntAssets.load(overrides={defaults.STATE_MAP_FILE: partial})
        assert str(err.value) == (
            f"{partial}: derived predicate 'clipboard-readable' has no initial-state mapping"
        )
        partial.write_text(text.replace(line, "ignore clipboard-readable/1\n"), encoding="utf-8")
        HuntAssets.load(overrides={defaults.STATE_MAP_FILE: partial})

    def test_arity_is_part_of_the_key(self, assets):
        table = load_mapping_table("exploited/1 (exploited $1)\nignore exploited/2\n")
        assert mapped(table, Fact("exploited", ("a", "b"))) == frozenset()
        pack = parse_rule_pack("#pred seen/2 extensional\nexploited(X, Y) :- seen(X, Y).\n")
        with pytest.raises(UnmappedPredicate):
            load_mapping_table("exploited/1 (exploited $1)\n").check(assets.world, pack)
        table.check(assets.world, pack)

    @pytest.mark.parametrize(
        "line",
        [
            "exploited/1 exploited $1",
            "exploited/1 (Exploited $1)",
            "exploited/1 (exploited $2)",
            "exploited (exploited $1)",
            # A second line for one predicate/arity would silently win.
            "exploited/1 (exploited $1)\nexploited/1 (pwned $1)",
            "exploited/1 (exploited $1)\nignore exploited/1",
            "ignore exploited/1\nexploited/1 (exploited $1)",
        ],
    )
    def test_malformed_lines(self, line):
        with pytest.raises(MalformedRecord) as err:
            load_mapping_table(line + "\n")
        assert err.value.line == line.count("\n") + 1

    def test_integer_arguments_become_strings(self):
        table = load_mapping_table("hits/2 (hits $1 $2)\n")
        assert mapped(table, Fact("hits", ("app", 3))) == {("hits", ("app", "3"))}

    @pytest.mark.parametrize(
        "text,message",
        [
            (
                "ignore e/0\nexploited/1 (exploited $1)\nexploited/2 (exploted $1)\n",
                "exploited/2 maps to (exploted $1): undeclared predicate 'exploted'",
            ),
            (
                "perm-granted/2 (perm-granted $2)\nhaunted/1 (haunted $1)\n",
                "perm-granted/2 maps to (perm-granted $2): predicate takes 2, template has 1",
            ),
            ("swapped/2 (perm-granted $2 $2 $1)\n", "predicate takes 2, template has 3"),
        ],
    )
    def test_check_against_the_domain_names_the_first_bad_entry(self, assets, text, message):
        with pytest.raises(InputError) as err:
            load_mapping_table(text).check(assets.world, assets.program.pack)
        assert message in str(err.value)

    def test_bundled_map_checks_against_the_bundled_domain(self, assets):
        assets.mapping.check(assets.world, assets.program.pack)
        assert assets.mapping.entries  # which the check read

    @pytest.mark.parametrize(
        "head,message",
        [
            (Atom("exploited", ("camera",)), "object 'camera' used as vuln but declared as sensor"),
            (Atom("exploited", ("surveillance",)), "object 'surveillance' used as vuln but declared as threat"),
            (Atom("exploited", ("cve_1999_0001",)), None),  # typed by the sample
            (Atom("exploited", (Var("V"),)), None),
        ],
    )
    def test_check_sends_head_constants_through_their_template(self, assets, head, message):
        pack = replace(assets.program.pack, rules=(*assets.program.pack.rules, Rule(head)))
        if message is None:
            assets.mapping.check(assets.world, pack)
            return
        with pytest.raises(InputError) as err:
            assets.mapping.check(assets.world, pack)
        assert str(err.value) == f"exploited/1 maps to (exploited $1): {message}, in rule head {head}"

    def test_a_swapped_template_fails_at_load_naming_the_map(self, tmp_path):
        swapped = tmp_path / "swapped-map"
        text = defaults.asset_text(defaults.STATE_MAP_FILE)
        swapped.write_text(text.replace("(perm-granted $1 $2)", "(perm-granted $2 $1)"), encoding="utf-8")
        with pytest.raises(InputError) as err:
            HuntAssets.load(overrides={defaults.STATE_MAP_FILE: swapped})
        assert str(err.value) == (
            f"{swapped}: perm-granted/2 maps to (perm-granted $2 $1): object 'camera' used as app"
            " but declared as sensor, in rule head perm-granted(A, camera)"
        )


class TestInitialState:
    def test_union_of_mapped_and_capability_atoms(self, assets):
        capabilities = load_capability_table(CAPS_TEXT)
        mapping = load_mapping_table(MAP_TEXT)
        derived = Relations(
            [Fact("exploited", ("cve_1",)), Fact("bookkeeping", ())]
        )
        assert mapped_atoms(derived, mapping) == {("exploited", ("cve_1",))}
        world = StaticWorld.build(assets.domain, capabilities)
        problem = build_problem(derived, sample(), world, mapping)
        assert problem.init == frozenset(
            {
                ("exploited", ("cve_1",)),
                ("enables-privilege-escalation", ("cve_1",)),
                ("enables-sensor", ("cve_2", "camera")),
                ("pivot-exploit-from-to", ("cve_3", "cve_9")),
            }
        )

    def test_unmapped_derived_predicate_raises(self, assets):
        # The check names the first unmapped predicate the pack declares,
        # in declaration order, whether or not a rule head defines it.
        pack = parse_rule_pack(
            "#pred seen/1 extensional\n#pred zeta/1 intensional\n#pred alpha/1 intensional\n"
            "exploited(X) :- seen(X).\nalpha(X) :- seen(X).\n"
        )
        mapping = load_mapping_table("exploited/1 (exploited $1)\nignore alpha/1\n")
        with pytest.raises(UnmappedPredicate) as err:
            mapping.check(assets.world, pack)
        assert err.value.predicate == "zeta"
        del pack.declared["zeta"]
        mapping.check(assets.world, pack)


class TestGoalAndProblem:
    def test_goal_atom(self, assets):
        problem = build_problem(Relations(), sample(), assets.world, assets.mapping)
        assert problem.goal == frozenset()
        goal = pose(problem, ThreatHypothesis("surveillance", "exploit")).goal
        assert goal == {("threat-possible", ("surveillance", "exploit", "app"))}

    def test_posed_problems_share_the_sample_problem(self, assets):
        derived = Relations([Fact("exploited", ("cve_9999_0001",))])
        problem = build_problem(derived, sample(), assets.world, assets.mapping)
        posed = [pose(problem, hypothesis) for hypothesis in assets.catalog]
        for hypothesis, each in zip(assets.catalog, posed):
            assert each.init is problem.init
            assert each.objects is problem.objects
            assert each.world is problem.world is assets.world
            assert each.domain_name == problem.domain_name
            assert each.name == f"hunt-s1-{hypothesis.threat}-{hypothesis.mechanism}"
            assert each.goal == {
                ("threat-possible", (hypothesis.threat, hypothesis.mechanism, "app"))}

    def test_build_problem_objects(self, assets):
        domain, capabilities, mapping = assets.domain, assets.capabilities, assets.mapping
        derived = Relations([Fact("exploited", ("cve_2016_5195",))])
        problem = pose(
            build_problem(derived, sample(), StaticWorld.build(domain, capabilities), mapping),
            ThreatHypothesis("surveillance", "permission"),
        )
        assert problem.objects["app"] == "app"
        assert problem.objects["camera"] == "sensor"
        assert problem.objects["cve_2016_5195"] == "vuln"
        assert problem.objects["acct"] == "account"
        assert problem.objects["sms_otp"] == "factor"
        assert problem.name == "hunt-s1-surveillance-permission"
        assert ("exploited", ("cve_2016_5195",)) in problem.init
        assert problem.goal == {("threat-possible", ("surveillance", "permission", "app"))}

    def test_build_problem_types_unknown_objects_from_schema(self, assets):
        domain, capabilities, mapping = assets.domain, assets.capabilities, assets.mapping
        derived = Relations([Fact("exploited", ("cve_9999_0001",))])
        problem = build_problem(derived, sample(), StaticWorld.build(domain, capabilities), mapping)
        # Not in the capability table, so the object is typed from the
        # exploited predicate's parameter type.
        assert problem.objects["cve_9999_0001"] == "vuln"

    def test_build_problem_rejects_undeclared_predicates(self, assets):
        domain = assets.domain
        mapping = load_mapping_table("haunted/1 (haunted $1)\n")
        capabilities = load_capability_table("")
        derived = Relations([Fact("haunted", ("app",))])
        with pytest.raises(InputError) as err:
            build_problem(derived, sample(), StaticWorld.build(domain, capabilities), mapping)
        assert "undeclared predicate" in str(err.value)

    def test_build_problem_rejects_arity_mismatch(self, assets):
        domain = assets.domain
        mapping = load_mapping_table("exploited/2 (exploited $1 $2)\n")
        capabilities = load_capability_table("")
        derived = Relations([Fact("exploited", ("cve_1", "extra"))])
        with pytest.raises(InputError) as err:
            build_problem(derived, sample(), StaticWorld.build(domain, capabilities), mapping)
        assert "arity" in str(err.value)

    def test_build_problem_rejects_type_clash(self, assets):
        domain = assets.domain
        # camera is a sensor in the problem template, but perm-granted's
        # first slot wants an app.
        mapping = load_mapping_table("perm-granted/2 (perm-granted $2 $1)\n")
        capabilities = assets.capabilities
        derived = Relations([Fact("perm-granted", ("camera", "camera"))])
        with pytest.raises(InputError) as err:
            build_problem(derived, sample(), StaticWorld.build(domain, capabilities), mapping)
        assert "declared as" in str(err.value)
