"""The scripts in demos/ and the README's library snippet run against the
installed package, and the package namespace holds what they import."""

import ast
import importlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import monopoly_control

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"

# the package namespace: the solve -> value -> strategy -> simulate ->
# oracle workflow, its errors and the types it returns
PUBLIC = [
    "AssumptionViolation", "CoercivityUndetectable", "ControlSet", "Curve",
    "CyclicPlan", "DPResult", "DecompositionMismatch", "DegenerateGrid",
    "DrawdownPlan", "HamiltonianModel", "HorizonTooShort", "InvalidParameter",
    "MonopolyControlError", "NotConverged", "OutOfDomain", "ProblemSpec",
    "RelaxedStatic", "StateViolation", "StaticPlan", "StaticReport",
    "Trajectory", "TruncationFailed", "ValidatedProblem", "ValueFunction",
    "ZetaZeroWarning", "build_hamiltonian", "build_value",
    "builtin_arvan_moses", "builtin_linear_cost", "convexified_static",
    "cyclic_strategy", "cyclic_value", "dp_value", "drawdown_plan", "h_at",
    "load_problem", "profit_gap", "relaxed_static", "simulate",
    "static_optimality_test", "stationary_plan", "validate_problem",
    "write_dp_csv", "write_trajectory_csv", "write_value_csv",
]
# names read only inside the package, its tests and perfbench's tracer,
# by the module that keeps them
MODULE_ONLY = {
    "envelope": ["ConjugateValue", "Envelope", "concave_hull",
                 "contact_argmax_intervals", "convex_hull", "fenchel_cost",
                 "fenchel_cost_grid", "fenchel_revenue",
                 "fenchel_revenue_grid", "hull_decompose"],
    "hamiltonian": ["controls_at", "subgradient"],
    "strategy": ["_static_candidate"],
    "oracle": ["_production_cap"],
}


def _readme_snippet() -> str:
    """The code block under the README's "Library use"."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Library use", 1)[1].split("```python\n", 1)[1]
    return block.split("```", 1)[0]


def _package_imports(source: str, filename: str) -> set:
    """Names a source imports from the package itself."""
    return {alias.name for node in ast.walk(ast.parse(source, filename))
            if isinstance(node, ast.ImportFrom)
            and node.module == "monopoly_control" for alias in node.names}


def test_readme_bullets_name_package_modules():
    # each backticked module at the head of a "What you get" bullet, before
    # its dash, is a module of the package
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## What you get", 1)[1].split("\n## ", 1)[0]
    heads = [line[2:].split(" — ", 1)[0] for line in section.splitlines()
             if line.startswith("- ")]
    names = re.findall(r"`([^`]+)`", " ".join(heads))
    assert "hamiltonian" in names and "config" in names
    missing = [n for n in names
               if importlib.util.find_spec(f"monopoly_control.{n}") is None]
    assert not missing, missing


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
    ns = {}
    exec(compile(_readme_snippet(), "README.md", "exec"), ns)
    assert ns["model"].zeta == pytest.approx(0.25, rel=1e-12)
    assert ns["vf"].value_at(0.0) == pytest.approx(0.28125, rel=1e-12)
    assert ns["rel"].nu == pytest.approx(0.75, rel=1e-12)
    assert 0.0 < float(capsys.readouterr().out) < 2e-3


def test_package_namespace_is_the_workflow():
    assert sorted(monopoly_control.__all__) == PUBLIC
    scripts = sorted(DEMOS.glob("*.py")) + sorted((ROOT / "perfbench").glob(
        "*.py"))
    used = set().union(_package_imports(_readme_snippet(), "README.md"), *(
        _package_imports(p.read_text(encoding="utf-8"), str(p))
        for p in scripts))
    names = {n for n in used
             if importlib.util.find_spec(f"monopoly_control.{n}") is None}
    assert "build_hamiltonian" in names and "cli" in used - names
    assert names <= set(PUBLIC), sorted(names - set(PUBLIC))
    for module, moved in MODULE_ONLY.items():
        mod = importlib.import_module(f"monopoly_control.{module}")
        for name in moved:
            assert hasattr(mod, name), (module, name)
            assert not hasattr(monopoly_control, name.lstrip("_")), name
