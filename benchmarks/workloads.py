"""The benchmark workloads: their inputs, one pass over them, and the checks
that every report is correct.

A pass hunts the workload's fixed sample set once, one sample at a time
(a closed loop with one client). A sample's latency covers
``load_sample``, ``identify_threats`` with confirmation and the default k,
and ``report_to_json`` without wall time, which is what ``planhunt hunt``
does. Every planhunt function is looked up in ``planhunt.hunt`` at call
time so that a tracer can wrap it.
"""

import csv
import json
import logging
import random
import time
from dataclasses import dataclass
from pathlib import Path

from planhunt import defaults, hunt
from planhunt.inference.engine import evaluate
from planhunt.planning_model.model import default_catalog
from planhunt.telemetry import events_to_facts

from . import gen

logger = logging.getLogger("benchmarks")

CONFIG = hunt.HuntConfig(confirm=True)
CATALOG = tuple(f"{h.threat}/{h.mechanism}" for h in default_catalog())
EXPECTED_SUMMARY = Path("tests") / "data" / "expected_summary.csv"

# Seven traces per planted pattern: 21 samples put ten beyond the median.
LONG_TRACE_SAMPLES = 21
LONG_TRACE_EVENTS = 300
WIDE_CATALOG_EXTRA = 40


@dataclass(frozen=True)
class Outcome:
    """One sample of one pass. ``latency_s`` is None when the hunt raised."""

    sample: str
    latency_s: float | None
    ok: bool


def hunt_sample(path: Path, assets: hunt.HuntAssets) -> tuple[float, str]:
    """Hunt one sample the way ``planhunt hunt --confirm`` does; return the
    latency in seconds and the report text."""
    start = time.perf_counter()
    sample = hunt.load_sample(path)
    report = hunt.identify_threats(sample, assets, CONFIG)
    text = hunt.report_to_json(report, include_wall_time=False)
    return time.perf_counter() - start, text


# --- report checks ----------------------------------------------------------------


def parse_report(text: str) -> dict | None:
    """The report as data, or None if it is malformed or inconsistent: every
    catalog hypothesis in order, ``possible_threats`` equal to the findings
    with status threat_possible, one indicator list per plan."""
    try:
        doc = json.loads(text)
        findings = doc["findings"]
        labels = [f"{f['threat']}/{f['mechanism']}" for f in findings]
        possible = [
            label for label, f in zip(labels, findings) if f["status"] == "threat_possible"
        ]
        consistent = (
            labels == list(CATALOG)
            and doc["possible_threats"] == possible
            and all(len(f["indicators"]) == len(f["plans"]) for f in findings)
        )
    except (ValueError, KeyError, TypeError):
        return None
    return doc if consistent else None


def summary_rows(docs: list[dict]) -> list[list[str]]:
    """The batch summary computed from parsed reports, as CSV rows."""
    rows = [["threat", "mechanism", "sample_count", "plan_count"]]
    for i, label in enumerate(CATALOG):
        threat, mechanism = label.split("/")
        findings = [doc["findings"][i] for doc in docs]
        samples = sum(1 for f in findings if f["status"] == "threat_possible")
        plans = sum(len(f["plans"]) for f in findings)
        rows.append([threat, mechanism, str(samples), str(plans)])
    return rows


def read_csv_rows(path: Path) -> list[list[str]]:
    with path.open(encoding="utf-8", newline="") as handle:
        return [row for row in csv.reader(handle) if row]


def syscall_pattern_cves(doc: dict) -> set[str]:
    return {
        record["detail"]["cve"]
        for finding in doc["findings"]
        for records in finding["indicators"]
        for record in records
        if record["kind"] == "syscall-pattern"
    }


# --- workloads ----------------------------------------------------------------------


class Workload:
    """A fixed sample set made from the seed, hunted by one client one sample
    at a time, and how to check its reports."""

    name = ""

    def __init__(self, root: Path, seed: int, work: Path) -> None:
        self.root = root
        self.seed = seed
        self.work = work
        self.paths: list[Path] = []

    def prepare(self) -> None:
        """Write the inputs and compute any reference (untimed)."""

    def load_assets(self) -> hunt.HuntAssets:
        return hunt.HuntAssets.load()

    def _order(self, paths: list[Path]) -> list[Path]:
        """The seeded order in which every pass hunts the samples."""
        order = list(paths)
        random.Random(f"{self.name}:{self.seed}").shuffle(order)
        return order

    def check_sample(self, path: Path, doc: dict) -> bool:
        return True

    def check_pass(self, docs: list[dict]) -> bool:
        """Checks on the pass as a whole; ``docs`` holds the well-formed reports."""
        return True

    def run_pass(self, assets: hunt.HuntAssets) -> tuple[list[Outcome], float]:
        """Hunt every sample once; return the outcomes and the seconds spent
        hunting, which leaves out the checks."""
        outcomes: list[Outcome] = []
        docs: list[dict] = []
        for path in self.paths:
            try:
                latency, text = hunt_sample(path, assets)
            except Exception:
                logger.exception("%s: hunt raised on %s", self.name, path.name)
                outcomes.append(Outcome(path.stem, None, False))
                continue
            doc = parse_report(text)
            ok = doc is not None and self.check_sample(path, doc)
            if doc is not None:
                docs.append(doc)
            if not ok:
                logger.error("%s: report check failed for %s", self.name, path.name)
            outcomes.append(Outcome(path.stem, latency, ok))
        if not self.check_pass(docs):
            logger.error("%s: pass check failed; every sample of the pass fails", self.name)
            outcomes = [Outcome(o.sample, o.latency_s, False) for o in outcomes]
        return outcomes, sum(o.latency_s for o in outcomes if o.latency_s is not None)


class Corpus(Workload):
    """The 20 bundled demo samples; the summary must equal the oracle's."""

    name = "corpus"

    def prepare(self) -> None:
        self.paths = self._order(defaults.corpus_paths())
        self.expected = read_csv_rows(self.root / EXPECTED_SUMMARY)

    def check_pass(self, docs: list[dict]) -> bool:
        return len(docs) == len(self.paths) and summary_rows(docs) == self.expected


class LongTrace(Workload):
    """Seeded long traces with one planted exploit pattern each."""

    name = "long_trace"

    def prepare(self) -> None:
        self.truths = {}
        for index in range(LONG_TRACE_SAMPLES):
            truth = gen.long_trace(self.seed, index, self.work, events=LONG_TRACE_EVENTS)
            self.truths[truth.path] = truth
        # The exploited/1 set is not in the report, so it is checked once
        # per trace here, through the same public functions.
        assets = self.load_assets()
        self.exploited_ok = {}
        for path, truth in self.truths.items():
            try:
                sample = hunt.load_sample(path)
                derived = evaluate(assets.program, events_to_facts(sample)).facts
            except Exception:
                logger.exception("long_trace: inference raised on %s", path.name)
                derived = ()
            exploited = tuple(sorted(f.args[0] for f in derived if f.predicate == "exploited"))
            self.exploited_ok[path] = exploited == truth.exploited
            if exploited != truth.exploited:
                logger.error("long_trace: %s derives exploited %s", path.name, exploited)
        self.paths = self._order(list(self.truths))

    def check_sample(self, path: Path, doc: dict) -> bool:
        truth = self.truths[path]
        confirmations = tuple(
            (f"{f['threat']}/{f['mechanism']}", f["confirmation"])
            for f in doc["findings"]
            if f["status"] == "threat_possible"
        )
        return (
            self.exploited_ok[path]
            and doc["sample_id"] == truth.sample_id
            and tuple(doc["possible_threats"]) == truth.possible_threats
            and syscall_pattern_cves(doc) == set(truth.exploited)
            and confirmations == truth.confirmations
        )


class WideCatalog(Workload):
    """The demo corpus against a capability table with unreachable extra CVEs."""

    name = "wide_catalog"

    def prepare(self) -> None:
        self.catalog = gen.wide_catalog(self.seed, self.work, extra=WIDE_CATALOG_EXTRA)
        self.paths = self._order(defaults.corpus_paths())
        self.expected = read_csv_rows(self.root / EXPECTED_SUMMARY)
        # Unreachable CVEs cannot add plans: the bundled table's results are
        # the reference for every sample.
        bundled = hunt.HuntAssets.load()
        self.reference = {}
        for path in self.paths:
            try:
                doc = parse_report(hunt_sample(path, bundled)[1])
            except Exception:
                logger.exception("wide_catalog: reference hunt raised on %s", path.name)
                doc = None
            self.reference[path] = doc["possible_threats"] if doc else None

    def load_assets(self) -> hunt.HuntAssets:
        return hunt.HuntAssets.load(overrides={defaults.CAPABILITIES_FILE: self.catalog.path})

    def check_sample(self, path: Path, doc: dict) -> bool:
        return doc["possible_threats"] == self.reference[path]

    def check_pass(self, docs: list[dict]) -> bool:
        return len(docs) == len(self.paths) and summary_rows(docs) == self.expected


WORKLOADS = {w.name: w for w in (Corpus, LongTrace, WideCatalog)}
