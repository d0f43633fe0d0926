"""`import lqcoord`, every run without a designed policy and the fully
actuated power design need numpy alone.

scipy is loaded only on first use, by the under-actuated power design
(L-BFGS-B). Each case runs in a fresh interpreter, since this test session
has scipy loaded already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lqcoord import presets

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import json, sys
import lqcoord, lqcoord.cli
loaded = {{"import": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}}
for argv in {commands!r}:
    assert lqcoord.cli.main(argv) == 0, argv
    loaded[argv[0]] = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps(loaded))
"""


def scipy_modules_after(commands: list[list[str]], cwd: Path) -> dict:
    """scipy modules loaded after the import and after each CLI command."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", PROBE.format(commands=commands)],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=300, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_runs_without_a_designed_policy_never_load_scipy(tmp_path):
    out = str(tmp_path / "out")
    loaded = scipy_modules_after([
        ["compare", "--preset", presets.FULLY_ACTUATED, "--runs", "20",
         "--policy", "ex-comm", "--policy", "leader-only",
         "--policy", "im-comm-heu", "--out", out],
        ["simulate", "--preset", presets.UNDER_ACTUATED, "--runs", "20",
         "--policy", "no-comm", "--out", out],
        ["gains", "--preset", presets.FULLY_ACTUATED, "--out", out],
    ], tmp_path)
    assert loaded == {"import": [], "compare": [], "simulate": [], "gains": []}


def test_fully_actuated_power_design_needs_numpy_alone(tmp_path):
    out = str(tmp_path / "out")
    loaded = scipy_modules_after([
        ["optimize-power", "--preset", presets.FULLY_ACTUATED, "--out", out],
        ["compare", "--preset", presets.FULLY_ACTUATED, "--runs", "20",
         "--policy", "im-comm-opt", "--out", out],
    ], tmp_path)
    assert loaded == {"import": [], "optimize-power": [], "compare": []}


def test_under_actuated_power_design_loads_scipy_on_first_use(tmp_path):
    loaded = scipy_modules_after([
        ["optimize-power", "--preset", presets.UNDER_ACTUATED, "--budget", "20",
         "--out", str(tmp_path / "out")],
    ], tmp_path)
    assert loaded["import"] == []
    assert "scipy.optimize" in loaded["optimize-power"]
