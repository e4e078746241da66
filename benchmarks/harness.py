"""Measurement inside one fresh process: a part of a benchmark run.

A run splits its time over several parts, each in a new interpreter, so
that one run spans as many hash seeds: set iteration order in the engine
depends on the seed, and users run with hash randomisation on.
"""

import logging
import math
import resource
import statistics
import time
from dataclasses import dataclass, field

from . import tracing
from .workloads import hunt_sample

LOG_FORMAT = "%(levelname)s %(name)s: %(message)s"  # the planhunt CLI's
# Whole passes each untraced part makes at least, so that every sample is
# hunted several times in every part.
MIN_PASSES = 3
SETUP_LOADS = 5


@dataclass
class PartResult:
    outcomes: list
    busy_s: float
    passes: int
    maxrss_kb: int
    setup_s: list[float] = field(default_factory=list)
    # Traced parts only: per-layer metrics as (value, unit), and run facts.
    metrics: dict = field(default_factory=dict)
    info: dict = field(default_factory=dict)


def measure(run_pass, seconds: float, min_passes: int = 1):
    """Run whole passes until ``seconds`` have passed and at least
    ``min_passes`` were made. Returns the outcomes, busy seconds and pass
    count."""
    outcomes, busy, passes = [], 0.0, 0
    start = time.perf_counter()
    while passes < min_passes or time.perf_counter() - start < seconds:
        pass_outcomes, pass_busy = run_pass()
        outcomes += pass_outcomes
        busy += pass_busy
        passes += 1
    return outcomes, busy, passes


def run_part(workload, seconds: float, trace: bool) -> PartResult:
    """Load the assets, hunt one sample untimed so that lazy set-up is done,
    then measure until ``seconds`` after the start of the part.

    The asset load is timed at the start and again after every pass, so
    that setup_s sees the same swings in machine speed as the hunts. Each
    time counts the fastest of ``SETUP_LOADS`` loads back to back: single
    loads of a few milliseconds flip between two speeds about 2x apart
    from one load to the next.
    """
    start = time.perf_counter()
    logging.basicConfig(level=logging.WARNING, format=LOG_FORMAT)
    setup: list[float] = []

    def load():
        times = []
        for _ in range(SETUP_LOADS):
            begin = time.perf_counter()
            assets = workload.load_assets()
            times.append(time.perf_counter() - begin)
        setup.append(min(times))
        return assets

    assets = load()
    try:
        hunt_sample(workload.paths[0], assets)
    except Exception:
        pass  # the same failure is counted in the timed passes
    remaining = seconds - (time.perf_counter() - start)
    if trace:
        return traced_part(workload, assets, remaining)

    def timed_pass():
        result = workload.run_pass(assets)
        load()
        return result

    outcomes, busy, passes = measure(timed_pass, remaining, MIN_PASSES)
    return PartResult(outcomes, busy, passes, peak_rss_kb(), setup_s=setup)


def traced_part(workload, assets, seconds: float) -> PartResult:
    """Untraced and traced passes in turn until ``seconds`` have passed.

    Taking turns exposes both to the same swings in machine speed, so their
    rates give the tracing overhead.
    """
    tracer = tracing.Tracer()
    untraced, traced = [], []
    untraced_s = traced_s = 0.0
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        outcomes, busy = workload.run_pass(assets)
        untraced += outcomes
        untraced_s += busy
        tracer.pass_index += 1
        with tracer.installed():
            outcomes, busy = workload.run_pass(assets)
        traced += outcomes
        traced_s += busy

    samples, passes = len(traced), tracer.pass_index
    metrics = tracing.sample_metrics(tracer.spans, samples, passes)
    untraced_sps = len(untraced) / untraced_s
    traced_sps = samples / traced_s
    metrics["trace.overhead_share"] = (1 - traced_sps / untraced_sps, "ratio")
    layer_ms = tracing.layer_self_ms(tracer.spans, samples)
    info = {
        "traced_passes": passes,
        "traced_samples": samples,
        "untraced_samples_per_s": untraced_sps,
        "traced_samples_per_s": traced_sps,
        "layer_self_ms": dict(sorted(layer_ms.items(), key=lambda kv: -kv[1])),
        "largest_layer": max(layer_ms, key=layer_ms.get),
        "counts_repeat_every_pass": tracing.counts_repeat(tracer.spans),
    }
    return PartResult(
        untraced + traced,
        untraced_s + traced_s,
        passes,
        peak_rss_kb(),
        metrics=metrics,
        info=info,
    )


def peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def fastest_latencies(outcomes: list) -> dict[str, float]:
    """Each sample's fastest hunt of the run in seconds; infinite for a
    sample that failed on any hunt, which misses every latency figure.

    The fastest hunt is timeit's rule: on a shared host other tenants slow
    many hunts, in bursts of seconds (on a 2-vCPU VM, the median run of a
    fixed loop sat up to 60% above the fastest of the same few seconds), so
    slower hunts measure the neighbours more than planhunt. Over 34-second
    windows of one process there, the median and throughput of per-sample
    fastest hunts spread 5-12% (IQR over median) where those of all hunts
    pooled spread 14-23%. Across separate runs the host's slower drifts
    over minutes remain, and spread them 3-33%.
    """
    fastest: dict[str, float] = {}
    failed = set()
    for o in outcomes:
        if o.ok:
            fastest[o.sample] = min(o.latency_s, fastest.get(o.sample, math.inf))
        else:
            failed.add(o.sample)
    for sample in failed:
        fastest[sample] = math.inf
    return fastest


def end_to_end_metrics(parts: list[PartResult]) -> tuple[dict, dict]:
    """Pool the parts of an untraced run into the end-to-end metrics.

    Latency figures are over the run's samples, each at its fastest hunt.
    With 20 or 21 samples the median (the lower one of an even count) is
    the highest percentile with ten samples beyond it.
    """
    outcomes = [o for part in parts for o in part.outcomes]
    ok = sum(1 for o in outcomes if o.ok)
    latencies = list(fastest_latencies(outcomes).values())
    finite = [v for v in latencies if math.isfinite(v)]
    metrics = {
        "samples_per_s": (len(finite) / sum(finite) if finite else 0.0, "samples/s"),
        "sample_latency_p50_ms": (statistics.median_low(latencies) * 1e3, "ms"),
        "peak_rss_mb": (max(part.maxrss_kb for part in parts) / 1024, "MB"),
        "setup_s": (statistics.median(s for part in parts for s in part.setup_s), "s"),
    }
    info = {
        "parts": len(parts),
        "passes": [part.passes for part in parts],
        "samples": len(latencies),
        "hunts": len(outcomes),
        "failed_ratio": (len(outcomes) - ok) / len(outcomes),
        # Every hunt pooled, slow ones included: context, not a metric.
        "pooled_samples_per_s": ok / sum(part.busy_s for part in parts),
    }
    return metrics, info
