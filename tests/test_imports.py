"""Each package module imports cleanly when it is the first one loaded.

``telemetry`` takes its fact store from ``inference.engine``, and the
planning layer imports both, so an import cycle would show only for some
first import. Each module gets a fresh interpreter.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import planhunt


@pytest.mark.parametrize(
    "module",
    [
        "planhunt.telemetry",
        "planhunt.inference.engine",
        "planhunt.planning_model.state",
        "planhunt.hunt",
    ],
)
def test_module_imports_first(module):
    src = str(Path(planhunt.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
