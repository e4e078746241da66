"""Bundled asset resolution.

The package ships a default threat domain, rule pack, capability table,
state mapping, indicator map, and a small demo corpus under
``planhunt/assets/``. The PLANHUNT_ASSETS environment variable (or an
explicit ``--assets`` directory) points at a directory with the same file
names to replace the whole bundle; individual files can be overridden
separately at the CLI.
"""

import os
from importlib import resources
from pathlib import Path

from .errors import InputError
from .vocab import ASSET_ROOT_ENV

__all__ = [
    "DOMAIN_FILE",
    "RULES_FILE",
    "CAPABILITIES_FILE",
    "STATE_MAP_FILE",
    "INDICATOR_MAP_FILE",
    "CORPUS_DIR",
    "EXTENDED_ACTIONS",
    "asset_text",
    "corpus_paths",
]

DOMAIN_FILE = "threat-domain.pddl"
RULES_FILE = "threat.rules"
CAPABILITIES_FILE = "cve-capabilities"
STATE_MAP_FILE = "state-mapping"
INDICATOR_MAP_FILE = "indicator-map"
CORPUS_DIR = "corpus"

# Producer actions beyond the core catalog; removed under --strict-domain.
EXTENDED_ACTIONS = ("harvest-credentials", "capture-otp")


def _root() -> Path | None:
    """Asset directory override, if configured."""
    override = os.environ.get(ASSET_ROOT_ENV)
    if override:
        root = Path(override)
        if not root.is_dir():
            raise InputError(f"{ASSET_ROOT_ENV} points at {override}, not a directory")
        return root
    return None


def asset_text(name: str, root: Path | None = None) -> str:
    """Read a bundled asset, honoring directory overrides."""
    base = root or _root()
    if base is not None:
        path = base / name
        if not path.is_file():
            raise InputError(f"asset {name} not found under {base}")
        return path.read_text(encoding="utf-8")
    ref = resources.files("planhunt").joinpath("assets", name)
    if not ref.is_file():
        raise InputError(f"bundled asset {name} is missing")
    return ref.read_text(encoding="utf-8")


def corpus_paths(root: Path | None = None) -> list[Path]:
    """Paths of the bundled demo corpus samples, sorted by file name."""
    base = root or _root()
    if base is not None:
        corpus = base / CORPUS_DIR
    else:
        corpus = Path(str(resources.files("planhunt").joinpath("assets", CORPUS_DIR)))
    if not corpus.is_dir():
        raise InputError(f"corpus directory {corpus} is missing")
    return sorted(p for p in corpus.iterdir() if p.suffix in (".jsonl", ".csv"))

