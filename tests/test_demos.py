"""The scripts in demos/ run to completion against the installed package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import monopoly_control

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", sorted(p.stem for p in DEMOS.glob("*.py")))
def test_demo_runs(name):
    src = str(Path(monopoly_control.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, str(DEMOS / f"{name}.py")],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    if name == "oracle_crosscheck":
        assert "certified fixed-point gap" in proc.stdout
