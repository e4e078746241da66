"""Grounding as a rule program: differential test against the Cartesian
reference grounder it replaced (tests/oracles/cartesian_ground.py), through
``ground_task`` and through the hunt's own ``hypothesis_task``, and catalogs
too sparse for the reference to ground.

The reference keeps static atoms; its task is compared projected onto the
fluent atoms, after a check that every static atom the projection drops
holds in the problem's init. Problems on a static world are grounded from
the world's pre-saturated model, from an empty store and by the reference,
including a CVE missing from the table, whose new vuln object needs a guard
row, and a negated static precondition over a mapped predicate, whose
stratum must be rebuilt.
"""

import itertools
import random
from collections import ChainMap
from dataclasses import replace
from pathlib import Path

import pytest

from oracles.cartesian_ground import ground_task as cartesian_ground_task
from planhunt import defaults
from planhunt.hunt import (
    HuntAssets,
    hypothesis_task,
    identify_threats,
    infer_facts,
    sample_problem,
)
from planhunt.inference.engine import Relations
from planhunt.planning_model import ground
from planhunt.planning_model.ground import GroundedTask, ground_task
from planhunt.planning_model.model import WorldAtoms, hypothesis_catalog
from planhunt.planning_model.pddl import parse_domain
from planhunt.planning_model.state import (
    StaticWorld,
    build_problem,
    load_capability_table,
    load_mapping_table,
    pose,
)
from planhunt.telemetry import Fact, SampleRecord, load_sample
from test_ground import random_instance

CORPUS_DIR = Path("src/planhunt/assets/corpus")
CORPUS = sorted(path for path in CORPUS_DIR.iterdir() if path.suffix in (".jsonl", ".csv"))


def unreachable_pivots(out_dir: Path, extra: int, seed: int = 0) -> tuple[Path, list[str]]:
    """Write the bundled capability table plus ``extra`` CVEs that pivot
    only among themselves, so no rule or plan can reach one; return the
    table's path and the added CVEs."""
    rng = random.Random(seed)
    cves = [f"cve_2031_{n}" for n in rng.sample(range(10000, 100000), extra)]
    rows = [
        f"{cve} pivot-exploit-from-to {cves[(i + 1 + rng.randrange(extra - 1)) % extra]} extended"
        for i, cve in enumerate(cves)
    ]
    rows += [f"{cve} enables-sensor screen extended" for cve in cves[::20]]
    text = defaults.asset_text(defaults.CAPABILITIES_FILE).rstrip("\n")
    path = out_dir / "cve-capabilities"
    path.write_text(text + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return path, cves


def fluent_projection(domain, problem, reference):
    """A task with static atoms (the Cartesian grounder's) restricted to its
    fluent atoms, as the hunt's grounder builds it: after checking that every
    static atom it drops holds in the problem's init, each action's static
    preconditions and the goal's static atoms, so the projection loses
    nothing a state could change."""
    fluent = {a.predicate for schema in domain.actions for a in (*schema.add, *schema.delete)}

    def atoms_of(mask):
        return [atom for i, atom in enumerate(reference.atoms) if mask >> i & 1]

    def kept(mask, holds):
        atoms = atoms_of(mask)
        assert all(holds(atom) for atom in atoms if atom[0] not in fluent)
        return [atom for atom in atoms if atom[0] in fluent]

    def present(atom):
        return atom in problem.init

    def absent(atom):
        return atom not in problem.init

    specs = [
        (a.name, a.schema, a.args, a.disjunct, kept(a.pre_pos, present), kept(a.pre_neg, absent),
         atoms_of(a.add), atoms_of(a.delete), a.cost)
        for a in reference.actions
    ]
    goal = None if reference.goal is None else kept(reference.goal, present)
    return GroundedTask.assemble(
        [atom for atom in reference.atoms if atom[0] in fluent],
        specs,
        [atom for atom in atoms_of(reference.init) if atom[0] in fluent],
        goal,
    )


def cartesian_task(domain, problem):
    """The Cartesian grounder's task, projected onto fluent atoms."""
    return fluent_projection(domain, problem, cartesian_ground_task(domain, problem))


def assert_same_task(task, reference):
    assert task.atoms == reference.atoms
    assert task.init == reference.init
    assert task.goal == reference.goal
    assert [
        (a.name, a.args, a.disjunct, a.cost, a.pre_pos, a.pre_neg, a.add, a.delete)
        for a in task.actions
    ] == [
        (a.name, a.args, a.disjunct, a.cost, a.pre_pos, a.pre_neg, a.add, a.delete)
        for a in reference.actions
    ]


@pytest.mark.parametrize("setup", ["bundled", "strict_domain", "wide_catalog"])
def test_corpus_tasks_match_the_cartesian_grounder(setup, tmp_path):
    if setup == "wide_catalog":
        path, _ = unreachable_pivots(tmp_path, 40)
        assets = HuntAssets.load(overrides={defaults.CAPABILITIES_FILE: path})
    else:
        assets = HuntAssets.load(strict_domain=setup == "strict_domain")
    for sample_path in CORPUS:
        sample = sample_problem(infer_facts(load_sample(sample_path), assets), assets)
        for hypothesis in assets.catalog:
            problem = pose(sample, hypothesis)
            reference = cartesian_task(assets.domain, problem)
            assert_same_task(ground_task(assets.domain, problem), reference)
            assert_same_task(hypothesis_task(sample, assets, hypothesis), reference)


def test_wide_catalog_tasks_match_fresh_grounding(tmp_path):
    # The Cartesian grounder explodes at this size, so the hunt's tasks,
    # grounded from the bundle's seed, are compared with the same problems
    # grounded from an empty store.
    path, _ = unreachable_pivots(tmp_path, 1600)
    assets = HuntAssets.load(overrides={defaults.CAPABILITIES_FILE: path})
    for sample_path in CORPUS:
        sample = sample_problem(infer_facts(load_sample(sample_path), assets), assets)
        for hypothesis in assets.catalog:
            problem = pose(sample, hypothesis)
            assert problem.world is assets.world
            assert_same_task(
                hypothesis_task(sample, assets, hypothesis),
                ground_task(assets.domain, replace(problem, world=None)),
            )


def test_replaced_copies_with_plain_init_or_objects_ground_from_scratch():
    # dataclasses.replace keeps ``world``: a copy whose init is a frozenset,
    # or whose objects are a dict, has no world view to read, and must
    # ground to the posed problem's task.
    assets = HuntAssets.load()
    for sample_path in CORPUS:
        sample = sample_problem(infer_facts(load_sample(sample_path), assets), assets)
        for hypothesis in assets.catalog:
            problem = pose(sample, hypothesis)
            task = ground_task(assets.domain, problem)
            for copy in (
                replace(problem, init=frozenset(problem.init)),
                replace(problem, objects=dict(problem.objects)),
            ):
                assert copy.world is assets.world
                assert_same_task(ground_task(assets.domain, copy), task)


def test_random_tasks_match_the_cartesian_grounder():
    for seed in range(600):
        domain, problem = random_instance(random.Random(seed))
        assert_same_task(ground_task(domain, problem), cartesian_task(domain, problem))


def test_sparse_catalog_grounds_without_explosion(tmp_path):
    # 1,200 extra CVEs make 1.44M typed pivot bindings, past the default
    # limit of 10**6 ground actions; only reachable pivots may ground.
    path, added = unreachable_pivots(tmp_path, 1200)
    assets = HuntAssets.load(overrides={defaults.CAPABILITIES_FILE: path})
    facts = infer_facts(load_sample(CORPUS_DIR / "pivot_demo.jsonl"), assets)
    hypothesis = next(h for h in assets.catalog if h.label == "surveillance/exploit")
    task = ground_task(assets.domain, pose(sample_problem(facts, assets), hypothesis))
    assert task.find_action("pivot-exploit", ("cve_2019_2194", "cve_2019_2103")) is not None
    assert not any(set(added) & set(action.args) for action in task.actions)


def test_exploration_program_compiles_once_per_domain(monkeypatch):
    calls = []
    compile_domain = ground.explore_domain

    def counting(domain):
        calls.append(domain)
        return compile_domain(domain)

    monkeypatch.setattr(ground, "explore_domain", counting)
    assets = HuntAssets.load()
    assert calls == []
    for name in ("pivot_demo.jsonl", "big_mix_demo.jsonl"):
        identify_threats(load_sample(CORPUS_DIR / name), assets)
    assert calls == [assets.domain]


# --- grounding from a world's pre-saturated model -----------------------------------


def on_world(world, problem):
    """The problem as ``build_problem`` builds one on ``world``, whose atoms
    and objects it holds: read-through views over the world's."""
    own = {obj: t for obj, t in problem.objects.items() if obj not in world.objects}
    return replace(
        problem,
        objects=ChainMap(own, world.objects),
        init=WorldAtoms(world.atoms, frozenset(problem.init - world.atoms)),
        world=world,
    )


def assert_three_ways(domain, problem):
    """Grounded from the world's model, from an empty store, and by the
    Cartesian grounder, a problem gives one task."""
    task = ground_task(domain, problem)
    assert_same_task(task, ground_task(domain, replace(problem, world=None)))
    assert_same_task(task, cartesian_task(domain, problem))


def test_random_problems_on_a_shared_world_ground_three_ways():
    # Several problems extend one world's model in turn: each must ground
    # as if alone, whether its rows reach a stratum that reads them negated
    # (which rebuilds that stratum) or not.
    for seed in range(300):
        rng = random.Random(seed)
        domain, first = random_instance(rng)
        objects = {obj: t for obj, t in first.objects.items() if rng.random() < 0.6}
        world = StaticWorld(
            domain,
            frozenset(a for a in first.init if set(a[1]) <= objects.keys() and rng.random() < 0.7),
            objects,
        )
        universe = [
            (name, args)
            for name, schema in sorted(domain.predicates.items())
            for args in itertools.product(sorted(first.objects), repeat=len(schema.param_types))
        ]
        for _ in range(3):
            problem = replace(
                first,
                init=world.atoms | {atom for atom in universe if rng.random() < 0.3},
                goal=frozenset(rng.sample(universe, rng.randint(1, 2))),
            )
            assert_three_ways(domain, on_world(world, problem))


SAMPLE = SampleRecord(sample_id="s1", events=(), permissions=(), intents=())


def world_problems(world, mapping, facts):
    """Per hypothesis, the problem it poses on the one ``build_problem``
    builds on ``world`` for derived ``facts`` through the mapping table text."""
    derived = Relations([Fact(pred, args) for pred, args in facts])
    problem = build_problem(derived, SAMPLE, world, load_mapping_table(mapping))
    return [pose(problem, h) for h in hypothesis_catalog(world.domain)]


def bundled_world(domain):
    table = load_capability_table(defaults.asset_text(defaults.CAPABILITIES_FILE))
    return StaticWorld.build(domain, table)


def test_a_cve_missing_from_the_table_gets_its_own_guard_row():
    # pivot/2 maps onto the static pivot-exploit-from-to. A pivot from the
    # new CVE to itself needs it exploited and not exploited, which the
    # relaxation drops; only the guard row of the new vuln object, derived
    # from its type row, keeps that binding out.
    domain = HuntAssets.load().domain
    mapping = defaults.asset_text(defaults.STATE_MAP_FILE) + "pivot/2 (pivot-exploit-from-to $1 $2)\n"
    facts = [
        ("exploited", ("cve_9999_0001",)),
        ("pivot", ("cve_9999_0001", "cve_9999_0001")),
        ("pivot", ("cve_9999_0001", "cve_2019_2103")),
    ]
    for problem in world_problems(bundled_world(domain), mapping, facts):
        assert problem.objects["cve_9999_0001"] == "vuln"
        assert_three_ways(domain, problem)
        task = ground_task(domain, problem)
        assert task.find_action("pivot-exploit", ("cve_9999_0001", "cve_2019_2103")) is not None
        assert task.find_action("pivot-exploit", ("cve_9999_0001", "cve_9999_0001")) is None


# The bundled domain plus a static-only action, which the world's model
# fires for every escalating CVE unless a sample quarantines it.
QUARANTINE_DOMAIN = defaults.asset_text(defaults.DOMAIN_FILE).replace(
    "(otp-captured ?a - app ?f - factor))",
    "(otp-captured ?a - app ?f - factor)\n    (quarantined ?v - vuln))",
).rstrip().removesuffix(")") + """
  (:action leak-escalation
    :parameters (?v - vuln)
    :precondition (and (enables-privilege-escalation ?v) (not (quarantined ?v)))
    :effect (exploited ?v))
)
"""


def test_a_mapped_atom_under_a_negated_static_precondition_rebuilds_its_stratum():
    domain = parse_domain(QUARANTINE_DOMAIN)
    mapping = defaults.asset_text(defaults.STATE_MAP_FILE) + "quarantined/1 (quarantined $1)\n"
    world = bundled_world(domain)  # shared: each problem extends its model alone
    leak = ("leak-escalation", ("cve_2016_5195",))
    for facts, leaks in (
        ([], True),
        ([("quarantined", ("cve_2016_5195",))], False),
        ([("quarantined", ("cve_2016_5195",)), ("exploited", ("cve_2019_2194",))], False),
        ([("quarantined", ("cve_9999_0001",))], True),
    ):
        for problem in world_problems(world, mapping, facts):
            assert_three_ways(domain, problem)
            assert (ground_task(domain, problem).find_action(*leak) is not None) is leaks
