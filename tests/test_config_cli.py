"""Config parsing and the command-line workflows."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import monopoly_control
from monopoly_control import InvalidParameter, load_problem, validate_problem
from monopoly_control.cli import main

GOOD = """\
[problem]
beta = 0.5

[revenue]
family = linear_demand
A = 1.0
B = 1.0

[cost]
family = affine
c = 0.2

[sets]
q = interval 0 1
a = interval 0 0.3
"""


@pytest.fixture()
def cfg(tmp_path):
    p = tmp_path / "prob.cfg"
    p.write_text(GOOD)
    return p


def test_load_problem_roundtrip(cfg):
    spec = load_problem(cfg)
    assert spec.beta == 0.5
    assert spec.cost(1.0) == pytest.approx(0.2)
    assert spec.demand_set.hi == 1.0
    validate_problem(spec)


def test_load_all_shipped_configs(configs_dir):
    for path in sorted(configs_dir.glob("*.cfg")):
        validate_problem(load_problem(path))


def test_overrides_apply(cfg):
    spec = load_problem(cfg, ["problem.beta=1.0", "revenue.A=2.0"])
    assert spec.beta == 1.0
    assert spec.revenue(0.5) == pytest.approx((2.0 - 0.5) * 0.5)


def test_unknown_key_rejected(cfg, tmp_path):
    with pytest.raises(InvalidParameter, match="unknown key"):
        load_problem(cfg, ["revenue.Z=1"])
    bad = tmp_path / "bad.cfg"
    bad.write_text(GOOD + "\n[extra]\nfoo = 1\n")
    with pytest.raises(InvalidParameter, match="unknown section"):
        load_problem(bad)


def test_missing_section_rejected(tmp_path):
    p = tmp_path / "short.cfg"
    p.write_text("[problem]\nbeta = 0.5\n")
    with pytest.raises(InvalidParameter, match="missing section"):
        load_problem(p)


def test_table_points_parse(tmp_path):
    p = tmp_path / "tab.cfg"
    p.write_text("""\
[problem]
beta = 1.0

[revenue]
family = table
points = 0:0, 0.5:0.4, 1:0.5

[cost]
family = table
points = 0:0, 1:0.3

[sets]
q = interval 0 1
a = interval 0 1
""")
    spec = load_problem(p)
    assert spec.revenue(0.25) == pytest.approx(0.2)
    with pytest.raises(InvalidParameter, match="x:y"):
        load_problem(p, ["cost.points=0;0, 1;1"])
    with pytest.raises(InvalidParameter, match="'x:1' is not a pair of numbers"):
        load_problem(p, ["revenue.points=0:0, x:1"])


def test_demand_ray_rejected(cfg):
    with pytest.raises(InvalidParameter, match="ray"):
        load_problem(cfg, ["sets.q=right_ray 0"])


def test_cli_solve_writes_artifacts(cfg, tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    rc = main(["solve", str(cfg), "--out", str(out)])
    assert rc == 0
    summary = dict(
        line.split(" = ", 1)
        for line in (out / "summary.txt").read_text().splitlines())
    assert float(summary["zeta"]) == pytest.approx(0.4, abs=1e-9)
    assert float(summary["v0"]) == pytest.approx(0.3, abs=1e-10)
    assert summary["static_optimal"] == "True"
    assert float(summary["u_static"]) == pytest.approx(0.3, abs=1e-9)
    assert (out / "value.csv").exists()


def test_cli_solve_regime_flag(configs_dir, tmp_path):
    rc = main(["solve", str(configs_dir / "arvan_moses_mid.cfg"),
               "--out", str(tmp_path)])
    assert rc == 0
    text = (tmp_path / "summary.txt").read_text()
    assert "regime = ii" in text
    assert "static_optimal = False" in text


def test_cli_deterministic_outputs(cfg, tmp_path):
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    out1.mkdir()
    out2.mkdir()
    assert main(["solve", str(cfg), "--out", str(out1)]) == 0
    assert main(["solve", str(cfg), "--out", str(out2)]) == 0
    assert (out1 / "value.csv").read_bytes() == (out2 / "value.csv").read_bytes()
    assert (out1 / "summary.txt").read_bytes() == (out2 / "summary.txt").read_bytes()


def test_cli_strategy_with_drawdown(configs_dir, tmp_path):
    rc = main(["strategy", str(configs_dir / "arvan_moses_mid.cfg"),
               "--out", str(tmp_path), "--x0", "0.3", "--eps", "0.125"])
    assert rc == 0
    text = (tmp_path / "strategy.txt").read_text()
    assert "relaxed" in text and "cyclic" in text and "drawdown" in text
    dd = np.genfromtxt(tmp_path / "drawdown.csv", delimiter=",", names=True)
    assert dd["stock"][0] == pytest.approx(0.3)
    assert dd["stock"][-1] == pytest.approx(0.0, abs=1e-12)


def test_cli_simulate(cfg, tmp_path):
    rc = main(["simulate", str(cfg), "--out", str(tmp_path),
               "--x0", "0.2", "--horizon", "40"])
    assert rc == 0
    summary = dict(
        line.split(" = ", 1)
        for line in (tmp_path / "simulate_summary.txt").read_text().splitlines())
    assert float(summary["profit_gap"]) < 1e-4
    assert (tmp_path / "trajectory.csv").exists()


def test_cli_oracle_and_compare(cfg, tmp_path):
    rc = main(["oracle", str(cfg), "--out", str(tmp_path),
               "--x0", "0.25", "--dt", "0.01"])
    assert rc == 0
    assert (tmp_path / "dp.csv").exists()
    rc = main(["compare", str(cfg), "--out", str(tmp_path),
               "--x0", "0.25", "--dt", "0.01"])
    assert rc == 0
    report = dict(
        line.split(" = ", 1)
        for line in (tmp_path / "compare.txt").read_text().splitlines())
    assert float(report["max_value_gap"]) < 5e-2
    assert float(report["profit_gap_drawdown"]) < 1e-3
    assert "profit_gap_static" in report


def test_cli_exit_code_on_missing_config(tmp_path):
    assert main(["solve", str(tmp_path / "nope.cfg")]) == 2


def test_cli_exit_code_on_missing_out_dir(cfg, tmp_path, capsys):
    missing = tmp_path / "no_such_dir"
    assert main(["solve", str(cfg), "--out", str(missing)]) == 2
    assert str(missing) in capsys.readouterr().err
    assert not missing.exists()


@pytest.mark.parametrize("name", ["arvan_moses_high", "arvan_moses_low",
                                  "arvan_moses_mid", "linear_cost",
                                  "table_curves"])
def test_cli_simulate_drawdown_on_shipped_configs(configs_dir, tmp_path, name):
    rc = main(["simulate", str(configs_dir / f"{name}.cfg"),
               "--out", str(tmp_path), "--x0", "0.2"])
    assert rc == 0
    summary = dict(
        line.split(" = ", 1)
        for line in (tmp_path / "simulate_summary.txt").read_text().splitlines())
    # criterion-6 bounds on the realized profit gap
    assert -1e-6 <= float(summary["profit_gap"]) <= 2e-3


def test_cli_solve_runs_without_scipy(configs_dir, tmp_path):
    # numpy is the only runtime dependency: solve with scipy unimportable
    src = str(Path(monopoly_control.__file__).parents[1])
    code = ("import sys\n"
            "sys.modules['scipy'] = None\n"
            "import monopoly_control\n"
            "from monopoly_control import cli\n"
            f"sys.exit(cli.main(['solve', {str(configs_dir / 'arvan_moses_mid.cfg')!r}, "
            f"'--out', {str(tmp_path)!r}]))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "summary.txt").exists()


def test_cli_exit_code_on_assumption_violation(cfg, tmp_path):
    rc = main(["solve", str(cfg), "--out", str(tmp_path),
               "--set", "sets.q=interval 0.5 1"])
    assert rc == 2


def test_cli_grid_n_shorthand(cfg, tmp_path):
    rc = main(["solve", str(cfg), "--out", str(tmp_path),
               "--grid-n", "1025"])
    assert rc == 0
    summary = (tmp_path / "summary.txt").read_text()
    assert "zeta = 0.4" in summary


@pytest.mark.parametrize("argv", [
    ["oracle", "--x0", "nan"],
    ["oracle", "--dt", "nan"],
    ["oracle", "--x0", "inf"],
    ["simulate", "--x0", "nan"],
    ["simulate", "--horizon", "nan"],
    ["simulate", "--horizon", "inf"],
    ["simulate", "--eps", "nan"],
    ["strategy", "--x0", "inf"],
])
def test_cli_rejects_non_finite_flags(cfg, tmp_path, capsys, argv):
    command, flag, text = argv
    with pytest.raises(SystemExit) as exc:
        main([command, str(cfg), "--out", str(tmp_path), flag, text])
    assert exc.value.code == 2
    assert f"argument {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["strategy", "--x0", "-0.5"], "initial stock must be non-negative"),
    (["simulate", "--x0", "-0.1"], "initial stock must be non-negative"),
    (["solve", "--set", "revenue.points=0:0, x:1"], "table point 'x:1'"),
    (["solve", "--set", "sets.a=finite 0 inf"], "finite rates, got (0.0, inf)"),
    (["solve", "--set", "sets.a=right_ray nan"], "ray origin must be finite, got nan"),
    (["solve", "--set", "sets.q=finite nan 1"], "finite rates, got (nan, 1.0)"),
    (["oracle", "--dt", "1e-17"], "discount exp(-beta dt) rounds to 1"),
    (["compare", "--dt", "1e-17"], "discount exp(-beta dt) rounds to 1"),
    (["simulate", "--x0", "0.1", "--eps", "1e-9"], "cycle period 1e-09"),
], ids=["strategy_x0", "simulate_x0", "table_point", "finite_inf", "ray_nan",
        "finite_nan", "oracle_dt", "compare_dt", "simulate_eps"])
def test_cli_rejected_input_exits_2(configs_dir, tmp_path, capsys, argv,
                                    message):
    command, *flags = argv
    rc = main([command, str(configs_dir / "table_curves.cfg"),
               "--out", str(tmp_path), *flags])
    assert rc == 2
    assert message in capsys.readouterr().err
