"""Capability/mapping tables and per-hypothesis problem assembly."""

import pytest

from planhunt.errors import InputError, MalformedRecord, UnmappedPredicate
from planhunt.planning_model import (
    FAtom,
    ThreatHypothesis,
    build_problem,
    construct_goal,
    construct_initial_state,
    load_capability_table,
    load_mapping_table,
)
from planhunt.hunt import HuntAssets
from planhunt.telemetry import Fact, FactBase, SampleRecord

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


class TestMappingTable:
    def test_same_name_template(self):
        table = load_mapping_table(MAP_TEXT)
        assert table.map_fact("exploited", ("cve_1",)) == ("exploited", ("cve_1",))

    def test_slot_reordering(self):
        table = load_mapping_table(MAP_TEXT)
        assert table.map_fact("swapped", ("a", "b")) == ("pair", ("b", "a"))

    def test_ignored_predicate(self):
        table = load_mapping_table(MAP_TEXT)
        assert table.map_fact("bookkeeping", ()) is None

    def test_unmapped_predicate(self):
        table = load_mapping_table(MAP_TEXT)
        with pytest.raises(UnmappedPredicate):
            table.map_fact("mystery", ("x",))

    def test_arity_is_part_of_the_key(self):
        table = load_mapping_table(MAP_TEXT)
        with pytest.raises(UnmappedPredicate):
            table.map_fact("exploited", ("a", "b"))

    @pytest.mark.parametrize(
        "line",
        [
            "exploited/1 exploited $1",
            "exploited/1 (Exploited $1)",
            "exploited/1 (exploited $2)",
            "exploited (exploited $1)",
        ],
    )
    def test_malformed_lines(self, line):
        with pytest.raises(MalformedRecord):
            load_mapping_table(line + "\n")

    def test_integer_arguments_become_strings(self):
        table = load_mapping_table("hits/2 (hits $1 $2)\n")
        assert table.map_fact("hits", ("app", 3)) == ("hits", ("app", "3"))


class TestInitialState:
    def test_union_of_mapped_and_capability_atoms(self):
        capabilities = load_capability_table(CAPS_TEXT)
        mapping = load_mapping_table(MAP_TEXT)
        derived = FactBase(
            [Fact("exploited", ("cve_1",)), Fact("bookkeeping", ())]
        )
        init = construct_initial_state(derived, capabilities, mapping)
        assert init == frozenset(
            {
                ("exploited", ("cve_1",)),
                ("enables-privilege-escalation", ("cve_1",)),
                ("enables-sensor", ("cve_2", "camera")),
                ("pivot-exploit-from-to", ("cve_3", "cve_9")),
            }
        )

    def test_unmapped_derived_predicate_raises(self):
        capabilities = load_capability_table(CAPS_TEXT)
        mapping = load_mapping_table(MAP_TEXT)
        derived = FactBase([Fact("mystery", ("x",))])
        with pytest.raises(UnmappedPredicate):
            construct_initial_state(derived, capabilities, mapping)


class TestGoalAndProblem:
    def test_goal_atom(self):
        goal = construct_goal(ThreatHypothesis("surveillance", "exploit"))
        assert goal == FAtom(
            "threat-possible", ("surveillance", "exploit", "app")
        )

    def test_hypothesis_validation(self):
        with pytest.raises(ValueError):
            ThreatHypothesis("espionage", "exploit")
        with pytest.raises(ValueError):
            ThreatHypothesis("surveillance", "magic")

    def test_build_problem_objects(self, assets):
        domain, capabilities, mapping = assets.domain, assets.capabilities, assets.mapping
        derived = FactBase([Fact("exploited", ("cve_2016_5195",))])
        problem = build_problem(
            derived, sample(), domain, capabilities, mapping,
            ThreatHypothesis("surveillance", "permission"),
        )
        assert problem.objects["app"] == "app"
        assert problem.objects["camera"] == "sensor"
        assert problem.objects["cve_2016_5195"] == "vuln"
        assert problem.objects["acct"] == "account"
        assert problem.objects["sms_otp"] == "factor"
        assert problem.name == "hunt-s1-surveillance-permission"
        assert ("exploited", ("cve_2016_5195",)) in problem.init

    def test_build_problem_types_unknown_objects_from_schema(self, assets):
        domain, capabilities, mapping = assets.domain, assets.capabilities, assets.mapping
        derived = FactBase([Fact("exploited", ("cve_9999_0001",))])
        problem = build_problem(
            derived, sample(), domain, capabilities, mapping,
            ThreatHypothesis("surveillance", "exploit"),
        )
        # Not in the capability table, so the object is typed from the
        # exploited predicate's parameter type.
        assert problem.objects["cve_9999_0001"] == "vuln"

    def test_build_problem_rejects_undeclared_predicates(self, assets):
        domain = assets.domain
        mapping = load_mapping_table("haunted/1 (haunted $1)\n")
        capabilities = load_capability_table("")
        derived = FactBase([Fact("haunted", ("app",))])
        with pytest.raises(InputError) as err:
            build_problem(
                derived, sample(), domain, capabilities, mapping,
                ThreatHypothesis("surveillance", "exploit"),
            )
        assert "undeclared predicate" in str(err.value)

    def test_build_problem_rejects_arity_mismatch(self, assets):
        domain = assets.domain
        mapping = load_mapping_table("exploited/2 (exploited $1 $2)\n")
        capabilities = load_capability_table("")
        derived = FactBase([Fact("exploited", ("cve_1", "extra"))])
        with pytest.raises(InputError) as err:
            build_problem(
                derived, sample(), domain, capabilities, mapping,
                ThreatHypothesis("surveillance", "exploit"),
            )
        assert "arity" in str(err.value)

    def test_build_problem_rejects_type_clash(self, assets):
        domain = assets.domain
        # camera is a sensor in the problem template, but perm-granted's
        # first slot wants an app.
        mapping = load_mapping_table("perm-granted/2 (perm-granted $2 $1)\n")
        capabilities = assets.capabilities
        derived = FactBase([Fact("perm-granted", ("camera", "camera"))])
        with pytest.raises(InputError) as err:
            build_problem(
                derived, sample(), domain, capabilities, mapping,
                ThreatHypothesis("surveillance", "permission"),
            )
        assert "declared as" in str(err.value)
