"""Start-up cost: importing the package or the CLI entry point loads none of the
heavy standard modules it has no use for."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# dataclasses drags in inspect (and with it ast, dis and tokenize) and costs
# most of a cold import; decimal is loaded only by the first huge product, and
# the CLI's json and csv writers only for their --format (io is loaded by the
# interpreter itself at start-up, so it cannot be seen to stay out)
HEAVY = ("dataclasses", "inspect", "decimal", "json", "csv")


@pytest.mark.parametrize("statement", ["import pdocong", "from pdocong.cli import main"])
def test_cold_import_loads_no_heavy_module(statement):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = f"{statement}\nimport sys\nprint(' '.join(m for m in {HEAVY!r} if m in sys.modules))"
    # -S: site may import some of these for its own reasons on a given host
    result = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.split() == []
