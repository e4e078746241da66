"""Seeded input generators for the benchmark workloads.

Each generator writes its files into a directory the caller owns and
returns the ground truth it planted. The same seed gives byte-identical
files: randomness comes from ``random.Random`` seeded with a string, which
does not depend on ``PYTHONHASHSEED``.
"""

import json
import random
from dataclasses import dataclass
from pathlib import Path

from planhunt import defaults
from planhunt.vocab import SENSORS

PIDS = tuple(f"p{i}" for i in range(1, 9))

# Planted exploit patterns: (cve, variant, first event, second event), each
# event as (syscall, object, mode). Both CVEs enable privilege escalation
# in the bundled capability table, so every plan goes through
# grant-permission-to-sensor.
PLANTS = (
    ("cve_2016_5195", "module_mmap",
     ("finit_module", "module", "none"), ("mmap", "buffer", "read_or_write")),
    ("cve_2016_5195", "read_remap",
     ("read", "buffer", "read"), ("mmap", "buffer", "exec_or_read")),
    ("cve_2024_43093", "openat_ioctl",
     ("openat", "file", "read_or_write"), ("ioctl", "device", "read_or_write")),
)

# Background events that match a rule's first body atom, so every such rule
# scans the whole trace once per match. Phase A precedes phase B entirely:
# an ``openat file read`` (first atom of the cross-sandbox rule) never comes
# before a ``read buffer read`` (its second atom), so that rule never fires.
PHASE_A_MATCHING = (("read", "buffer", "read"), ("openat", "file", "read_or_write"))
PHASE_B_MATCHING = (("openat", "file", "read"),)
# Known-vocabulary events that match no body atom of the bundled rule pack.
FILLER = (
    ("write", "file", "write"),
    ("read", "file", "read"),
    ("ioctl", "socket", "none"),
    ("mmap", "buffer", "read"),
    ("openat", "device", "read"),
    ("recvmsg", "socket", "write"),
)


@dataclass(frozen=True)
class TraceTruth:
    """What a generated long trace must yield."""

    sample_id: str
    path: Path
    exploited: tuple[str, ...]
    possible_threats: tuple[str, ...]
    # (threat/mechanism label, confirmation) for each possible threat.
    confirmations: tuple[tuple[str, str], ...]


def long_trace(
    seed: int,
    index: int,
    out_dir: Path,
    events: int,
    planted: bool = True,
) -> TraceTruth:
    """Write one JSONL trace of ``events`` events on eight pids.

    The event mix is fixed (half the events match a rule's first body atom,
    split evenly between the two phases); the seed chooses the pids, the
    interleaving and where the planted pattern sits. ``index`` picks the
    planted pattern, so a pass over consecutive indices covers every
    pattern equally. With ``planted=False`` the trace is background only.
    """
    rng = random.Random(f"long_trace:{seed}:{index}")
    cve, variant, first, second = PLANTS[index % len(PLANTS)]
    background = events - 2 if planted else events
    matching = background // 2
    fillers = background - matching
    phase_a = [PHASE_A_MATCHING[i % 2] for i in range(matching // 2)]
    phase_a += [rng.choice(FILLER) for _ in range(fillers // 2)]
    phase_b = [PHASE_B_MATCHING[0] for _ in range(matching - matching // 2)]
    phase_b += [rng.choice(FILLER) for _ in range(fillers - fillers // 2)]
    rng.shuffle(phase_a)
    rng.shuffle(phase_b)
    if planted:
        # Both planted events sit in phase A, first before second, on one pid.
        at = sorted(rng.sample(range(len(phase_a) + 1), 2))
        phase_a.insert(at[1], ("plant", 2))
        phase_a.insert(at[0], ("plant", 1))
    plant_pid = rng.choice(PIDS)

    sample_id = f"long_trace_s{seed}_{index:02d}_{variant}"
    lines = [json.dumps({"type": "meta", "sample_id": sample_id}, sort_keys=True)]
    for ts, item in enumerate(phase_a + phase_b, start=1):
        if item[0] == "plant":
            (syscall, obj, mode), pid = (first if item[1] == 1 else second), plant_pid
        else:
            (syscall, obj, mode), pid = item, rng.choice(PIDS)
        record = {
            "type": "event",
            "ts": ts,
            "syscall": syscall,
            "pid": pid,
            "tid": f"t{rng.randrange(4)}",
            "object": obj,
            "mode": mode,
            "ret": 0,
        }
        lines.append(json.dumps(record, sort_keys=True))
    path = Path(out_dir) / f"{sample_id}.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    possible = ("surveillance/permission",) if planted else ()
    return TraceTruth(
        sample_id=sample_id,
        path=path,
        exploited=(cve,) if planted else (),
        possible_threats=possible,
        # No permission is declared, so the permission-audit indicator of
        # every plan fails and confirmation stays unconfirmed.
        confirmations=tuple((label, "unconfirmed") for label in possible),
    )


@dataclass(frozen=True)
class CatalogTruth:
    """What a generated capability table adds to the bundled one."""

    path: Path
    extra_cves: tuple[str, ...]
    rows_added: int


def wide_catalog(seed: int, out_dir: Path, extra: int) -> CatalogTruth:
    """Write the bundled capability table plus ``extra`` seeded CVEs.

    Every extra CVE gets one pivot edge to another extra CVE and every
    twentieth also enables a sensor. No bundled CVE pivots into an extra
    one and no rule derives ``exploited`` for one, so none is reachable and
    the hunt's plans cannot change.
    """
    rng = random.Random(f"wide_catalog:{seed}")
    numbers = rng.sample(range(10000, 100000), extra)
    cves = [f"cve_2031_{n}" for n in numbers]
    rows = []
    for i, cve in enumerate(cves):
        target = cves[(i + 1 + rng.randrange(extra - 1)) % extra]
        rows.append(f"{cve} pivot-exploit-from-to {target} extended")
        if i % 20 == 0:
            rows.append(f"{cve} enables-sensor {rng.choice(SENSORS)} extended")
    text = defaults.asset_text(defaults.CAPABILITIES_FILE)
    if not text.endswith("\n"):
        text += "\n"
    path = Path(out_dir) / "cve-capabilities"
    path.write_text(text + "\n".join(rows) + "\n", encoding="utf-8")
    return CatalogTruth(path=path, extra_cves=tuple(cves), rows_added=len(rows))
