"""One part of a benchmark run, in a fresh interpreter.

    python3 benchmarks/part.py TASK RESULT

reads the pickled ``(workload, seconds, trace)`` from TASK,
runs ``harness.run_part`` on it and pickles the ``PartResult`` to RESULT.
``run.py`` starts one of these per part and waits for it to end.
"""

import pickle
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(task: str, result: str) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from benchmarks import harness

    with open(task, "rb") as f:
        workload, seconds, trace = pickle.load(f)
    part = harness.run_part(workload, seconds, trace)
    with open(result, "wb") as f:
        pickle.dump(part, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
