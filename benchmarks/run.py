"""planhunt benchmark: hunt a workload for a fixed time and report metrics.

Run from anywhere inside a checkout:

    python3 benchmarks/run.py --workload corpus --seed 1 --seconds 34 --trace 0

``--trace 0`` prints the end-to-end metrics, measured without tracing, in
several fresh processes that share the time; latency figures take each
sample at its fastest hunt of the run. ``--trace 1`` prints the
per-layer metrics of a traced run in one fresh process, plus the tracing
overhead against an untraced stretch of the same process. Either way every
report is checked; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``, and the exit
code is 1 when any check failed. Workloads, metrics and bounds are defined
in BENCHMARK.json at the checkout's root.
"""

import argparse
import json
import logging
import math
import os
import pickle
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Fresh processes per untraced run. A long trace's hunt time depends on
# where set iteration meets the planted pattern, so on the hash seed (one
# trace took 59-111 ms over four seeds); four seeds per run leave each
# part time for several whole passes.
PARTS = 4
# A part that has not ended this long after the run's deadline is killed.
PART_GRACE_S = 60


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def conditions(args: argparse.Namespace, workload, log_format: str) -> dict:
    root_logger = logging.getLogger()
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED", "unset (randomised)"),
        "seed": args.seed,
        "workload": args.workload,
        "samples_per_pass": len(workload.paths),
        "logging": {
            "level": logging.getLevelName(root_logger.level),
            "handlers": [type(h).__name__ for h in root_logger.handlers],
            "format": log_format,
        },
    }


def run(args: argparse.Namespace, work: Path) -> int:
    from benchmarks import harness
    from benchmarks.workloads import WORKLOADS

    logging.basicConfig(level=logging.WARNING, format=harness.LOG_FORMAT)
    if args.workload not in WORKLOADS:
        choices = ", ".join(WORKLOADS)
        print(f"unknown workload {args.workload!r}; choose from {choices}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](ROOT, args.seed, work)
    workload.prepare()

    parts = 1 if args.trace else PARTS
    results = []
    deadline = time.perf_counter() + args.seconds
    # One fresh interpreter per part, one at a time, so parts never overlap.
    # Each part gets an equal share of the time left, so a part that ran
    # over (passes are whole) shortens the ones after it.
    for index in range(parts):
        task = (workload, (deadline - time.perf_counter()) / (parts - index), bool(args.trace))
        results.append(run_part(task, work / f"part{index}", deadline))

    if args.trace:
        metrics, info = results[0].metrics, results[0].info
    else:
        metrics, info = harness.end_to_end_metrics(results)

    outcomes = [o for part in results for o in part.outcomes]
    failed = sum(1 for o in outcomes if not o.ok)
    run_conditions = conditions(args, workload, harness.LOG_FORMAT)
    print("conditions: " + json.dumps(run_conditions, sort_keys=True))
    print("run: " + json.dumps(info, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {
            name: {"value": value if math.isfinite(value) else None, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result, sort_keys=True))
    return 0 if failed == 0 else 1


def run_part(task: tuple, work: Path, deadline: float):
    """Run ``part.py`` on ``task`` in a child interpreter and return its
    PartResult. ``subprocess.run`` waits for the child on every path out,
    and kills it first on a timeout or an interrupt."""
    work.mkdir()
    task_file, result_file = work / "task.pickle", work / "result.pickle"
    with open(task_file, "wb") as f:
        pickle.dump(task, f)
    subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "part.py"), str(task_file), str(result_file)],
        stdout=sys.stderr,  # standard output carries only the report
        check=True,
        timeout=max(0.0, deadline - time.perf_counter()) + PART_GRACE_S,
    )
    with open(result_file, "rb") as f:
        return pickle.load(f)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "planhunt" / "__init__.py").is_file():
        print(f"no planhunt sources under {ROOT / 'src'}; run inside a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=work_root) as work:
            return run(args, Path(work))
    finally:
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
