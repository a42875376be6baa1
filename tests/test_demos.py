"""The scripts in demos/ and the README's library snippet run against the
installed package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import monopoly_control

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"


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


def test_readme_library_snippet(capsys):
    # the code block under "Library use" runs as printed, and the values its
    # comments state hold
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Library use", 1)[1].split("```python\n", 1)[1]
    ns = {}
    exec(compile(block.split("```", 1)[0], "README.md", "exec"), ns)
    assert ns["model"].zeta == pytest.approx(0.25, rel=1e-12)
    assert ns["vf"].value_at(0.0) == pytest.approx(0.28125, rel=1e-12)
    assert ns["rel"].nu == pytest.approx(0.75, rel=1e-12)
    assert 0.0 < float(capsys.readouterr().out) < 2e-3
