"""Bundled assets and the one reader of input files.

The package ships a default threat domain, rule pack, capability table,
state mapping, indicator map, and a small demo corpus under
``planhunt/assets/``. ``HuntAssets.load`` decides which copy of each asset
loads: a per-file override, else the file of that name in an ``--assets``
directory, else the bundled one. No environment variable changes that.
Every input file, sample or asset, is decoded by ``read_input``, and an
error in one names it through ``naming``.
"""

import io
from contextlib import contextmanager
from pathlib import Path

from .errors import InputError, MalformedRecord

__all__ = [
    "DOMAIN_FILE",
    "RULES_FILE",
    "CAPABILITIES_FILE",
    "STATE_MAP_FILE",
    "INDICATOR_MAP_FILE",
    "CORPUS_DIR",
    "BUNDLE",
    "EXTENDED_ACTIONS",
    "read_input",
    "naming",
    "table_lines",
    "asset_text",
    "sample_files",
    "corpus_paths",
]

DOMAIN_FILE = "threat-domain.pddl"
RULES_FILE = "threat.rules"
CAPABILITIES_FILE = "cve-capabilities"
STATE_MAP_FILE = "state-mapping"
INDICATOR_MAP_FILE = "indicator-map"
CORPUS_DIR = "corpus"

BUNDLE = Path(__file__).with_name("assets")

# Producer actions beyond the core catalog; removed under --strict-domain.
EXTENDED_ACTIONS = ("harvest-credentials", "capture-otp")


def read_input(path: Path, newline: str | None = None) -> io.TextIOWrapper:
    """The file's text as a stream of lines (universal newlines unless
    ``newline`` says otherwise), decoded from its bytes as it is read. A
    byte that is not UTF-8 rejects the whole file, as a MalformedRecord on
    that byte's line."""
    data = path.read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[: exc.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise MalformedRecord(line, "not valid UTF-8") from None
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=newline)


@contextmanager
def naming(path: Path | str):
    """A block that reads one file: an InputError raised in it gets the
    file's path in front of its message, and keeps its type and attributes."""
    try:
        yield
    except InputError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def table_lines(text: str):
    """(line number, line) for each line of an asset table that holds more
    than a ``#`` comment, with the comment and surrounding blanks cut."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def asset_text(name: str) -> str:
    """The text of the bundled asset ``name``."""
    return read_input(BUNDLE / name).read()


def sample_files(directory: Path) -> list[Path]:
    """The samples in ``directory``: its .jsonl and .csv files, whatever the
    suffix's case, sorted by name."""
    return sorted(p for p in directory.iterdir() if p.suffix.lower() in (".jsonl", ".csv"))


def corpus_paths(root: Path | None = None) -> list[Path]:
    """The demo corpus samples under ``root`` (default: the bundle)."""
    corpus = (root or BUNDLE) / CORPUS_DIR
    if not corpus.is_dir():
        raise InputError(f"corpus directory {corpus} is missing")
    return sample_files(corpus)
