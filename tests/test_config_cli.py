"""Config parsing and the command-line workflows."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import monopoly_control
from monopoly_control import (
    InvalidParameter,
    StaticPlan,
    ZetaZeroWarning,
    build_hamiltonian,
    build_value,
    drawdown_plan,
    load_problem,
    relaxed_static,
    simulate,
    stationary_plan,
    validate_problem,
)
from monopoly_control import hamiltonian
from monopoly_control.cli import main
from monopoly_control.envelope import fenchel_cost

TABLE_CURVES = str(Path(__file__).resolve().parents[1] / "configs"
                   / "table_curves.cfg")

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


# table_curves.cfg's curves at about 1e-21 of their money scale: zeta = 3e-21
TINY_MONEY = [
    "--set", "revenue.points=0:0, 0.25:2e-21, 0.5:3e-21, 0.75:3.3e-21, 1:3.4e-21",
    "--set", "cost.points=0:0, 0.5:2.8e-21, 1:3e-21, 1.5:4.5e-21, 2:9e-21",
]

# table_curves.cfg with no section header, no [sets] a, no beta
_TABLE_TEXT = Path(TABLE_CURVES).read_text()
BROKEN_FILES = {
    "no_header.cfg": "beta = 0.5\n",
    "no_a.cfg": _TABLE_TEXT.replace("a = interval 0 2\n", ""),
    "no_beta.cfg": _TABLE_TEXT.replace("beta = 0.5\n", ""),
    "grid_n.cfg": _TABLE_TEXT.replace("beta = 0.5\n",
                                      "beta = 0.5\ngrid_n = 1025\n"),
    # arvan_moses_mid.cfg headed by a comment written as Latin-1, not UTF-8
    "latin1.cfg": "# caf\xe9\n" + (Path(TABLE_CURVES).parent
                                   / "arvan_moses_mid.cfg").read_text(),
}


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


# a finite production set whose members 0 and 1 both sit on the tied hull
# edge of slope 0.5, where R - C = 0 = min H
FINITE_TIE = """\
[problem]
beta = 0.5

[revenue]
family = table
points = 0:0, 1:0.5

[cost]
family = table
points = 0:0, 1:0.5

[sets]
q = interval 0 1
a = finite 0 1
"""

# linear demand against a cost table: R' - C' = 0.6 - 2u on the table's
# first cell vanishes at u = 0.4, where R - C = 0.16 = min H
MIXED = """\
[problem]
beta = 0.5

[revenue]
family = linear_demand
A = 1
B = 1

[cost]
family = table
points = 0:0, 0.5:0.1, 1:0.3, 2:1

[sets]
q = interval 0 1
a = interval 0 2
"""


@pytest.mark.parametrize("text, beta, u_static", [
    (FINITE_TIE, 0.5, "0"), (MIXED, 0.05, "0.40000000000000002"),
    (MIXED, 5.0, "0.40000000000000002")],
    ids=["finite_tie", "mixed_grid9", "mixed_grid4097"])
def test_cli_static_verdict_is_exact(tmp_path, text, beta, u_static):
    # the best constant rate does not depend on the discount rate
    cfg = tmp_path / "prob.cfg"
    cfg.write_text(text)
    assert main(["solve", str(cfg), "--out", str(tmp_path),
                 "--set", f"problem.beta={beta}"]) == 0
    summary = dict(line.split(" = ", 1) for line in
                   (tmp_path / "summary.txt").read_text().splitlines())
    assert summary["static_optimal"] == "True"
    assert summary["u_static"] == u_static
    assert summary["static_gap"] == "0"


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


def test_cli_oracle_and_compare(cfg, tmp_path, capsys):
    rc = main(["oracle", str(cfg), "--out", str(tmp_path),
               "--x0", "0.25", "--dt", "0.01"])
    assert rc == 0
    assert (tmp_path / "dp.csv").exists()
    # each round is a sweep and a solve, and one last sweep certifies
    counts = re.search(r"(\d+) Bellman sweeps, (\d+) policy solves",
                       capsys.readouterr().out)
    sweeps, solves = map(int, counts.groups())
    assert sweeps == solves + 1 > 1
    rc = main(["compare", str(cfg), "--out", str(tmp_path),
               "--x0", "0.25", "--dt", "0.01"])
    assert rc == 0
    report = dict(
        line.split(" = ", 1)
        for line in (tmp_path / "compare.txt").read_text().splitlines())
    assert float(report["max_value_gap"]) < 5e-2
    assert float(report["profit_gap_drawdown"]) < 1e-3
    assert "profit_gap_static" in report


def test_cli_oracle_repeated_policy_exits_3(configs_dir, tmp_path, capsys):
    # no table certifies at this step; the oracle says so after a few
    # rounds instead of running out its budget
    rc = main(["oracle", str(configs_dir / "arvan_moses_high.cfg"),
               "--out", str(tmp_path), "--dt", "1e-9"])
    assert rc == 3
    assert "greedy policy repeats" in capsys.readouterr().err


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


def test_cli_simulate_horizon_below_stop_tolerance(configs_dir, tmp_path):
    # a positive horizon under the 1e-15 stop tolerance runs one step and
    # is too short to score, instead of ending in a traceback
    rc = main(["simulate", str(configs_dir / "arvan_moses_mid.cfg"),
               "--out", str(tmp_path), "--horizon", "1e-16"])
    assert rc == 0
    summary = dict(
        line.split(" = ", 1)
        for line in (tmp_path / "simulate_summary.txt").read_text().splitlines())
    assert summary["horizon_too_short"] == "True"
    traj = np.genfromtxt(tmp_path / "trajectory.csv", delimiter=",", names=True)
    assert traj["t"].tolist() == [0.0, 1e-16]


@pytest.mark.parametrize("name", ["arvan_moses_high", "arvan_moses_low",
                                  "arvan_moses_mid", "linear_cost",
                                  "table_curves"])
def test_cli_compare_horizon_too_short_to_score(configs_dir, tmp_path, name):
    # compare scores its plans as simulate does: a horizon too short for
    # either profit gap is flagged once in the report, not an exit 3
    rc = main(["compare", str(configs_dir / f"{name}.cfg"),
               "--out", str(tmp_path), "--x0", "0.01", "--horizon", "1e-3"])
    assert rc == 0
    lines = (tmp_path / "compare.txt").read_text().splitlines()
    report = dict(line.split(" = ", 1) for line in lines)
    assert report["horizon_too_short"] == "True"
    assert len(report) == len(lines)
    # arvan_moses_low's static rate earns nothing and v(0) = 0, so its
    # static run leaves nothing to charge past the horizon and is scored
    scored = {k: v for k, v in report.items() if k.startswith("profit_gap")}
    assert scored == ({"profit_gap_static": "0"}
                      if name == "arvan_moses_low" else {}), scored


def test_cli_simulate_scores_a_run_that_leaves_nothing(configs_dir,
                                                       tmp_path):
    # at beta 1e-6 the default horizon 16/beta leaves e^-16 of the value of
    # unlimited stock, which is more than 1e-3 of v(0.2); but the run ends
    # at stock 0 with a tail earning 0, and v(0) = 0, so it leaves nothing
    rc = main(["simulate", str(configs_dir / "arvan_moses_low.cfg"),
               "--out", str(tmp_path), "--x0", "0.2",
               "--set", "problem.beta=1e-6"])
    assert rc == 0
    summary = _summary(tmp_path / "simulate_summary.txt")
    assert "horizon_too_short" not in summary
    assert -1e-6 <= float(summary["profit_gap"]) <= 2e-3


# revenue (1 - q) q on Q = [0, 1] against a zero-cost table on A = [0, 1]:
# H(z) is smallest at z = 0, so stock has no marginal value
ZETA_ZERO = GOOD.replace("family = affine\nc = 0.2",
                         "family = table\npoints = 0:0, 1:0").replace(
    "a = interval 0 0.3", "a = interval 0 1")


def _summary(path):
    return dict(line.split(" = ", 1) for line in path.read_text().splitlines())


def test_cli_zeta_zero_plays_the_stationary_tail(tmp_path):
    # with zeta = 0 the optimal plan from any stock is the stationary one,
    # the static rate 0.5 earning v0 = 0.5, not the rate 0 earning nothing
    cfg = tmp_path / "zero.cfg"
    cfg.write_text(ZETA_ZERO)
    assert main(["solve", str(cfg), "--out", str(tmp_path)]) == 0
    solved = _summary(tmp_path / "summary.txt")
    assert (solved["zeta"], solved["v0"]) == ("0", "0.5")
    for command in ("simulate", "strategy"):
        with pytest.warns(ZetaZeroWarning):
            assert main([command, str(cfg), "--out", str(tmp_path),
                         "--x0", "0.2"]) == 0
    summary = _summary(tmp_path / "simulate_summary.txt")
    assert summary["plan"] == "static u=0.5"
    assert abs(float(summary["profit_gap"])) <= 1e-12
    lines = (tmp_path / "strategy.txt").read_text().splitlines()
    assert "drawdown: static u=0.5" in lines
    assert not (tmp_path / "drawdown.csv").exists()


STATIC_OPTIMAL_TABLES = """\
[problem]
beta = 0.5
[revenue]
family = table
points = 0:0, 1:1, 2:1.2, 3:2
[cost]
family = table
points = 0:0, 2:0.2, 4:1.2, 5:3
[sets]
q = interval 0 3
a = interval 0 5
"""


def test_cli_strategy_and_simulate_name_the_same_tail(tmp_path):
    # a constant rate is optimal here, but --eps asks for the cycle: both
    # commands must follow the drawdown with that cycle, not the static rate
    cfg = tmp_path / "static.cfg"
    cfg.write_text(STATIC_OPTIMAL_TABLES)
    args = [str(cfg), "--out", str(tmp_path), "--x0", "0.2", "--eps", "0.05"]
    assert main(["strategy", *args]) == 0
    assert main(["simulate", *args]) == 0
    lines = (tmp_path / "strategy.txt").read_text().splitlines()
    assert "optimal=True" in lines[0]
    plan = _summary(tmp_path / "simulate_summary.txt")["plan"]
    assert plan.endswith("then cyclic eps=0.05 kappa=0.5 peak=0.025")
    assert f"drawdown: {plan}" in lines


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


def test_cli_never_imports_numpy_ma(configs_dir, tmp_path):
    # numpy 2.x imports numpy.ma on the first unique, union1d or sorting
    # isin; the solver's set operations use none of them.  One fresh
    # interpreter, since pytest's own may hold numpy.ma already.  The last
    # table has 53 kinks of H below zeta, past isin's sorting threshold
    q, a = np.linspace(0.0, 1.0, 80).tolist(), np.linspace(0.0, 2.0, 80).tolist()
    table = tmp_path / "kinks53.cfg"
    table.write_text(
        "[problem]\nbeta = 0.5\n[revenue]\nfamily = table\npoints = "
        + ", ".join(f"{x!r}:{math.sqrt(x)!r}" for x in q)
        + "\n[cost]\nfamily = table\npoints = "
        + ", ".join(f"{x!r}:{x * x / 2.0!r}" for x in a)
        + "\n[sets]\nq = interval 0 1\na = interval 0 2\n")
    cfgs = [str(p) for p in sorted(configs_dir.glob("*.cfg"))] + [str(table)]
    src = str(Path(monopoly_control.__file__).parents[1])
    code = ("import sys\n"
            "from monopoly_control.cli import main\n"
            f"for cfg in {cfgs!r}:\n"
            "    for cmd in (['solve'], ['strategy', '--x0', '0.2', '--eps', "
            "'0.05'], ['simulate', '--x0', '0.2'], ['oracle'], "
            "['compare', '--x0', '0.25']):\n"
            f"        rc = main([cmd[0], cfg, '--out', {str(tmp_path)!r}, "
            "*cmd[1:]])\n"
            "        assert rc == 0, (cfg, cmd, rc)\n"
            "sys.exit('numpy.ma imported' if 'numpy.ma' in sys.modules "
            "else 0)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_cli_exit_code_on_assumption_violation(cfg, tmp_path):
    rc = main(["solve", str(cfg), "--out", str(tmp_path),
               "--set", "sets.q=interval 0.5 1"])
    assert rc == 2


@pytest.mark.parametrize("argv", [
    ["oracle", "--x0", "nan"],
    ["oracle", "--dt", "nan"],
    ["oracle", "--x0", "inf"],
    ["simulate", "--x0", "nan"],
    ["simulate", "--horizon", "nan"],
    ["simulate", "--horizon", "inf"],
    ["simulate", "--eps", "nan"],
    ["strategy", "--x0", "inf"],
    ["strategy", "--x0", "abc"],
])
def test_cli_rejects_non_finite_flags(cfg, tmp_path, capsys, argv):
    command, flag, text = argv
    with pytest.raises(SystemExit) as exc:
        main([command, str(cfg), "--out", str(tmp_path), flag, text])
    assert exc.value.code == 2
    assert (f"argument {flag}: expected a finite number, got {text!r}"
            in capsys.readouterr().err)


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
    (["simulate", "--eps", "0"], "cycle period must be positive"),
    (["solve", "--set", "problem.grid_n=4097"],
     "unknown key 'grid_n' in [problem]"),
    (["strategy", "--x0", "1e6"], "marginal value of stock underflows"),
    (["simulate", "--x0", "1e6"], "marginal value of stock underflows"),
    (["compare", "--x0", "1e9"], "marginal value of stock underflows"),
    # past about 1e154 the Newton start's square overflows to inf
    (["simulate", "--x0", "1e300"], "marginal value of stock underflows"),
    # at zeta = 3e-21, zeta times the smallest normal double rounds to 0,
    # so only v'(x0) <= 0 itself can refuse an x0 whose slope underflows
    *((cmd + TINY_MONEY,
       "marginal value of stock underflows: v'(x0) / zeta = 0")
      for cmd in (["strategy", "--x0", "3000"], ["simulate", "--x0", "3000"],
                  ["compare", "--x0", "6000"])),
    (["solve", "--grid-n", "513"], "unrecognized arguments: --grid-n 513"),
    (["solve", "--config", TABLE_CURVES], "unrecognized arguments: --config"),
    (["solve", "--set", "problem.beta=abc"], "beta = 'abc' is not a number"),
    (["solve", "--set", "revenue.points=0:0"], "at least two x:y points"),
    (["solve", "arvan_moses_mid.cfg", "--set", "revenue.family=table"],
     "family table needs a points key"),
    (["solve", "--set", "revenue.family=cubic"],
     "family = 'cubic' not recognized for this section"),
    (["solve", "--set", "sets.a="], "[sets] a is empty"),
    (["solve", "--set", "sets.a=interval 0 x"],
     "non-numeric bound in 'interval 0 x'"),
    (["solve", "--set", "sets.a=interval 0"],
     "a = 'interval 0' not recognized"),
    (["solve", "--set", "problem.beta"], "override 'problem.beta' lacks '='"),
    (["solve", "--set", "beta=1"], "key 'beta' must be section.key"),
    (["solve", "--set", "foo.bar=1"], "unknown section [foo]"),
    (["solve", "grid_n.cfg"], "unknown key 'grid_n' in [problem]"),
    (["solve", "--set", "sets.a=finite -1 0 1"], "rates must be non-negative"),
    (["solve", "--set", "revenue.points=0.5:0, 1:0.3"],
     "revenue curve is undefined below 0.5"),
    (["solve", "--set", "revenue.points=0:0, 0.5:0.3"],
     "revenue table does not cover the control set"),
    (["solve", "linear_cost.cfg", "--set", "sets.a=right_ray 0"],
     "production cost is not coercive"),
    (["solve", "linear_cost.cfg", "--set", "sets.a=right_ray 0",
      "--set", "cost.c=2e6", "--set", "revenue.A=3e6",
      "--set", "sets.q=interval 0 1.5e6"],
     "production cost is not coercive"),
    (["solve", "--set", "sets.a=interval 0.5 1"],
     "0 must belong to the production set"),
    (["solve", "--set", "revenue.points=0:0.1, 1:0.2"],
     "revenue must vanish at zero demand"),
    (["solve", "--set", "revenue.points=0:0, 0.5:-0.1, 1:0.2"],
     "revenue must be non-negative on the demand set"),
    (["solve", "linear_cost.cfg", "--set", "sets.q=interval 0 1.5"],
     "revenue must be non-negative on the demand set"),
    (["solve", "--set", "cost.points=0:0, 1:0.5, 2:0.2"],
     "production cost must be non-decreasing"),
    (["solve", "no_header.cfg"], "File contains no section headers"),
    (["solve", "no_a.cfg"], "[sets] needs both q and a"),
    (["solve", "no_beta.cfg"], "[problem] is missing required key 'beta'"),
    (["solve", "latin1.cfg"], "latin1.cfg is not UTF-8"),
    *((cmd + ["--set", "cost.points=0:0, 1:1e-320, 2:1"],
       "floor zeta * 1e-06 rounds to 0, so zeta must exceed 2.5e-318")
      for cmd in (["solve"], ["strategy", "--x0", "0.2"],
                  ["simulate", "--x0", "0.2"], ["compare"])),
    # v = H/beta and the stock Psi overflow at the smallest positive beta
    *(([cmd, "linear_cost.cfg", "--set", "problem.beta=5e-324", *x0],
       "v = H/beta and its stock overflow, so beta must exceed 3.6e-308")
      for cmd, x0 in (("solve", []), ("strategy", ["--x0", "0.2"]),
                      ("simulate", ["--x0", "0.2"]), ("compare", []))),
    (["solve", "linear_cost.cfg", "--set", "revenue.A=5e307"],
     "z_max overflowed before H(z_max) rose past H(0)"),
], ids=["strategy_x0", "simulate_x0", "table_point", "finite_inf", "ray_nan",
        "finite_nan", "oracle_dt", "compare_dt", "simulate_eps",
        "simulate_eps_zero", "grid_n_cap",
        "strategy_past_x_resolved", "simulate_past_x_resolved",
        "compare_past_x_resolved", "simulate_x0_overflow",
        "strategy_slope_rounds_to_0",
        "simulate_slope_rounds_to_0", "compare_slope_rounds_to_0",
        "grid_n_flag", "config_flag",
        "beta_text", "one_point", "table_no_points", "revenue_family",
        "set_empty", "set_bound_text", "set_arity", "override_no_eq",
        "override_no_dot", "unknown_section", "grid_n_text", "finite_negative",
        "revenue_below_domain", "revenue_short_table", "affine_on_ray",
        "steep_affine_on_ray",
        "production_without_0", "revenue_at_0", "revenue_negative",
        "demand_past_zero_price", "cost_decreasing", "no_header", "no_a", "no_beta",
        "not_utf8", "zeta_floor_solve", "zeta_floor_strategy",
        "zeta_floor_simulate", "zeta_floor_compare", "beta_overflow_solve",
        "beta_overflow_strategy", "beta_overflow_simulate",
        "beta_overflow_compare", "z_max_overflow"])
def test_cli_rejected_input_exits_2(configs_dir, tmp_path, capsys, argv,
                                    message):
    # table_curves.cfg, unless the first flag names a shipped config or
    # one of the broken files
    command, *flags = argv
    cfg = configs_dir / "table_curves.cfg"
    if flags[0].endswith(".cfg"):
        cfg = configs_dir / flags.pop(0)
        if cfg.name in BROKEN_FILES:
            cfg = tmp_path / cfg.name
            # the same bytes as UTF-8 but for latin1.cfg's e-acute
            cfg.write_text(BROKEN_FILES[cfg.name], encoding="latin-1")
    try:
        rc = main([command, str(cfg), "--out", str(tmp_path), *flags])
    except SystemExit as exc:       # argparse refuses unknown flags
        rc = exc.code
    assert rc == 2
    assert message in capsys.readouterr().err


def test_compare_rejects_x0_before_the_oracle(configs_dir, tmp_path, capsys,
                                              monkeypatch):
    # an x0 / 2 whose marginal value underflows ends in exit 2 without
    # solving the oracle on a grid of that width
    def no_oracle(*args, **kwargs):
        raise AssertionError("dp_value ran before the drawdown's checks")

    monkeypatch.setattr(monopoly_control.cli, "dp_value", no_oracle)
    rc = main(["compare", str(configs_dir / "table_curves.cfg"),
               "--out", str(tmp_path), "--x0", "1e9"])
    assert rc == 2
    assert "marginal value of stock underflows" in capsys.readouterr().err


def _tree_bytes(root: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


def test_cli_parser_reuse_matches_fresh_processes(configs_dir, tmp_path):
    # main builds its parser once per process; calls in a row with
    # different flags write what separate processes write
    cfg = str(configs_dir / "linear_cost.cfg")
    runs = [
        ["simulate", cfg, "--set", "problem.beta=0.7", "--x0", "0.1"],
        ["simulate", cfg, "--x0", "0.2"],
        ["solve", cfg, "--set", "problem.beta=0.9",
         "--set", "cost.c=0.25"],
        ["solve", cfg, "--set", "cost.c=0.15"],
        ["solve", cfg],
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(monopoly_control.__file__)
                                          .parents[1]))
    for k, argv in enumerate(runs):
        inproc, fresh = tmp_path / f"in{k}", tmp_path / f"fresh{k}"
        inproc.mkdir()
        fresh.mkdir()
        assert main(argv + ["--out", str(inproc)]) == 0
        subprocess.run([sys.executable, "-m", "monopoly_control.cli", *argv,
                        "--out", str(fresh)], check=True, env=env,
                       capture_output=True)
        assert _tree_bytes(inproc) == _tree_bytes(fresh)
    parser = monopoly_control.cli._parser()
    assert parser is monopoly_control.cli._parser()
    assert parser.parse_args(["solve", cfg]).set == []


@pytest.mark.parametrize("a_coef", ["1e3", "1e5", "1e6", "3e6", "1e7", "1e9",
                                    "1e12"])
def test_solve_keeps_the_cost_bridge_at_any_demand_scale(configs_dir,
                                                         tmp_path, a_coef):
    # arvan_moses_mid with its demand intercept A raised: the ray's
    # truncation, and with it the sample spacing and the cost's range,
    # grow with A, but the cost bridge [0, 1.5] of slope 1/4 stays.  The
    # mixture on it earns A - 5/4 and the best constant rate 1 earns
    # A - 4/3, so the static gap is 1/12 and no constant rate is optimal
    cfg = configs_dir / "arvan_moses_mid.cfg"
    override = f"revenue.A={a_coef}"
    assert main(["solve", str(cfg), "--out", str(tmp_path),
                 "--set", override]) == 0
    summary = _summary(tmp_path / "summary.txt")
    problem = validate_problem(load_problem(cfg, [override]))
    model = build_hamiltonian(problem)
    span = fenchel_cost(model.cost_env, model.zeta)
    assert abs(model.zeta - 0.25) <= 4 * np.spacing(0.25), model.zeta
    assert float(summary["zeta"]) == model.zeta
    assert span.argmax_lo == 0.0, span
    assert abs(span.argmax_hi - 1.5) <= 8 * np.spacing(1.5), span
    h_min = float(summary["h_min"])
    tol = 1e-14 * max(1.0, abs(h_min))
    assert abs(h_min - (float(a_coef) - 1.25)) <= tol, h_min
    assert summary["static_optimal"] == "False"
    assert abs(float(summary["relaxed_payoff"]) - h_min) <= tol, summary
    assert abs(float(summary["static_gap"]) - 1.0 / 12.0) <= tol, summary
    # the mean rate 1 mixes the bridge's ends, 0 a third of the time
    mix = relaxed_static(problem, model)
    assert (mix.a1, mix.a2) == (0.0, span.argmax_hi), mix
    assert abs(mix.nu - 1.0 / 3.0) <= 1e-14, mix


def test_cli_ray_with_a_far_cost_bridge_solves(configs_dir, tmp_path, capsys):
    # at K = 3e6 the cost's bridge from 0 has slope K^2/4 = 2.25e12, so
    # z_max doubles about 40 times before H(z_max) rises past H(0); the
    # hull's end at 2 (K + sqrt z_max) covers every round
    cfg = str(configs_dir / "arvan_moses_mid.cfg")
    over = ["--set", "cost.K=3e6", "--set", "revenue.A=1e-8",
            "--set", "revenue.B=1e-8", "--out", str(tmp_path)]
    assert main(["solve", cfg, *over]) == 0
    assert capsys.readouterr().out.startswith("zeta = 1e-08,")
    assert main(["strategy", cfg, "--x0", "0.2", *over]) == 0
    assert main(["simulate", cfg, "--x0", "0.2", *over]) == 0


@pytest.mark.parametrize("x0", ["0.2", "1", "5"])
def test_cli_simulate_with_a_kink_at_the_demand_top(configs_dir, tmp_path,
                                                    x0):
    # sales at the kink read 0.35 - 1 ulp from below: the last kink cell
    # holds no arc, so Psi and the drawdown's stock close there
    cfg = str(configs_dir / "arvan_moses_mid.cfg")
    assert main(["simulate", cfg, "--x0", x0, "--out", str(tmp_path),
                 "--set", "revenue.A=0.5", "--set", "revenue.B=0.4",
                 "--set", "sets.q=interval 0 0.35"]) == 0


@pytest.mark.parametrize("beta", ["1e-6", "1e-7", "1e-8", "1e-9", "1e-12"])
def test_drawdown_at_a_tiny_discount_closes_or_names_its_limit(
        configs_dir, tmp_path, capsys, beta):
    # Psi' = -H'/(beta xi) grows as 1/beta, so the last bit of v'(x0)
    # moves stock by |H'| ulp(xi0) / (beta xi0).  A drawdown meets the
    # arc's gates (the total against v(x0), the stock closing at tau); at
    # beta 1e-6 every config plays from 0.2, and below it a drawdown may
    # instead be refused, exit 2, naming that stock resolution
    limit = "the stock resolution at v'(x0)"
    played = 0
    for cfg in sorted(configs_dir.glob("*.cfg")):
        override = f"problem.beta={beta}"
        problem = validate_problem(load_problem(cfg, [override]))
        model = build_hamiltonian(problem)
        vf = build_value(model)
        tail = stationary_plan(problem, model)
        for x0 in (0.2, 0.5 * vf.x_resolved):
            try:
                plan = drawdown_plan(vf, x0, tail)
            except InvalidParameter as exc:
                assert beta != "1e-6" and limit in str(exc), (cfg.stem, x0, exc)
                continue
            played += 1
            horizon = plan.tau + 60.0
            traj = simulate(problem, plan, horizon=horizon)
            total = traj.total + (math.exp(-problem.beta * horizon)
                                  * traj.tail_rate / problem.beta)
            v0 = vf.value_at(x0)
            tol = 1e-9 * max(1.0, abs(v0))
            if isinstance(plan.tail, StaticPlan):
                assert abs(total - v0) <= tol, (cfg.stem, x0, total - v0)
            else:
                assert total <= v0 + tol, (cfg.stem, x0, total - v0)
            end = traj.stock[len(plan.t_knots) - 1]
            assert abs(end) <= 1e-10 * max(1.0, x0), (cfg.stem, x0, end)
        rc = main(["simulate", str(cfg), "--out", str(tmp_path),
                   "--x0", "0.2", "--set", override])
        err = capsys.readouterr().err
        assert rc == 0 or (beta != "1e-6" and rc == 2 and limit in err), \
            (cfg.stem, rc, err)
        summary = _summary(tmp_path / "simulate_summary.txt") if rc == 0 else {}
        if "profit_gap" in summary:
            # a cycle of the default period 1/(64 beta) falls short of the
            # relaxed tail by up to 3.9e-3 of v(0.2) (arvan_moses_mid)
            gap = float(summary["profit_gap"])
            assert -1e-6 <= gap <= 4e-3, (cfg.stem, gap)
    # every config plays its drawdown from half the last knot's stock, and
    # at beta 1e-6 from 0.2 too
    assert played >= (10 if beta == "1e-6" else 5)


def _band_edge_draws(seed: int, n: int):
    """n cubic-on-a-ray problems near the cubic's mixing band (t1, t2),
    t1 = K^2/4 and t2 = 3BK + K^2/4: B and K at 10^U(-3, 3), A = t1 + (t2
    - t1) w with w ~ U(0, 1) in even draws and 1 - 10^U(-9, -1) in odd
    ones, Q = [0, A/B], beta at 10^U(-2, 1.5) and x0 at 10^U(-4, 1).
    Yields (x0, beta, --set overrides for arvan_moses_mid.cfg)."""
    rng = np.random.default_rng(seed)
    for k in range(n):
        b, k_cost = (10.0 ** rng.uniform(-3.0, 3.0, 2)).tolist()
        w = rng.uniform() if k % 2 == 0 else 1.0 - 10.0 ** rng.uniform(-9, -1)
        t1 = k_cost * k_cost / 4.0
        t2 = 3.0 * b * k_cost + k_cost * k_cost / 4.0
        a = float(t1 + (t2 - t1) * w)
        beta = float(10.0 ** rng.uniform(-2.0, 1.5))
        x0 = float(10.0 ** rng.uniform(-4.0, 1.0))
        yield x0, beta, [f"revenue.A={a!r}", f"revenue.B={b!r}",
                         f"cost.K={k_cost!r}", f"problem.beta={beta!r}",
                         f"sets.q=interval 0 {a / b!r}"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_near_the_mixing_band_edges(configs_dir, tmp_path, capsys):
    # draws 0-71 of seed 1, 216 runs.  Near the band's top edge a mixture
    # weight is tiny, so a cycle's peak is tiny while its net per period
    # is the rounding of its large rate: draws 45, 49 and 65 exited 3,
    # "cycle fails to return stock to zero", in strategy and in simulate
    # with a forced cycle.  Each run exits 0, or exits 2 where x0 lies past
    # the stock at which v' underflows (draws 4, 12, 13, 22, 58), a limit
    # named in the message
    cfg = str(configs_dir / "arvan_moses_mid.cfg")
    limit = "the marginal value of stock underflows"
    played = 0
    for k, (x0, beta, sets) in enumerate(_band_edge_draws(1, 72)):
        over = ["--out", str(tmp_path)]
        over += [a for s in sets for a in ("--set", s)]
        for cmd in (["strategy"], ["simulate"],
                    ["simulate", "--eps", repr((1.0 / beta) / 64.0)]):
            rc = main([*cmd, cfg, "--x0", repr(x0), *over])
            err = capsys.readouterr().err
            assert rc == 0 or (rc == 2 and limit in err), (k, cmd, rc, err)
            played += rc == 0
            if rc == 0 and cmd == ["strategy"]:
                # every draw lies inside the band: no constant rate attains
                static = (tmp_path / "strategy.txt").read_text().split("\n")[0]
                assert " optimal=False " in static, (k, static)
    assert played == 216 - 15, played


def _mixed_scale_draws(seed: int, n: int):
    """n valid problems at mixed scales: linear demand (60 %) or a table
    revenue, and a cubic (40 %), affine (20 %) or table cost, every rate
    and money scale at 10^U(-6, 6).  Q is an interval (70 %) inside linear
    demand's non-negative range [0, A/B] or a finite set; A is a ray (a
    cubic's, 40 %), an interval or a finite set; 0 is in both.  beta is at
    10^U(-4, 2), x0 at 10^U(-6, 2) and the cycle period at 10^U(-2, 0) /
    beta.  Yields (config text, x0, eps)."""
    rng = np.random.default_rng(seed)

    def scale(lo=-6.0, hi=6.0):
        return float(10.0 ** rng.uniform(lo, hi))

    def knots(top):
        inner = rng.uniform(0.0, top, int(rng.integers(1, 5)))
        return np.unique(np.concatenate([[0.0, top], inner]))

    def finite(top):
        vals = top * rng.uniform(0.0, 1.0, int(rng.integers(1, 5)))
        return "finite " + " ".join(
            map(repr, np.unique(np.append(vals, 0.0)).tolist()))

    def table(xs, ys):
        return "family = table\npoints = " + ", ".join(
            f"{x!r}:{y!r}" for x, y in zip(xs.tolist(), ys.tolist()))

    for _ in range(n):
        if rng.uniform() < 0.6:
            a, b = scale(), scale()
            revenue = f"family = linear_demand\nA = {a!r}\nB = {b!r}"
            q_top = a / b
        else:
            xs = knots(scale())
            revenue = table(xs, scale() * np.concatenate(
                [[0.0], rng.uniform(0.0, 1.0, len(xs) - 1)]))
            q_top = float(xs[-1])
        kind = rng.choice(["cubic", "affine", "table"], p=[0.4, 0.2, 0.4])
        if kind == "table":
            xs = knots(scale())
            cost = table(xs, scale() * np.concatenate(
                [[0.0], np.cumsum(rng.uniform(0.0, 1.0, len(xs) - 1))]))
            a_top = float(xs[-1])
        else:
            key = "K" if kind == "cubic" else "c"
            cost, a_top = f"family = {kind}\n{key} = {scale()!r}", scale()
        q_set = (f"interval 0 {q_top * rng.uniform(0.05, 1.0)!r}"
                 if rng.uniform() < 0.7 else finite(q_top))
        u = rng.uniform()
        if kind == "cubic" and u < 0.4:
            a_set = "right_ray 0"
        elif u < 0.75:
            a_set = f"interval 0 {a_top * rng.uniform(0.05, 1.0)!r}"
        else:
            a_set = finite(a_top)
        beta = scale(-4.0, 2.0)
        x0, eps = scale(-6.0, 2.0), scale(-2.0, 0.0) / beta
        yield (f"[problem]\nbeta = {beta!r}\n\n[revenue]\n{revenue}\n\n"
               f"[cost]\n{cost}\n\n[sets]\nq = {q_set}\na = {a_set}\n",
               x0, eps)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_mixed_scale_battery(tmp_path, capsys):
    # 160 draws, 640 runs of solve, strategy --x0, simulate --x0 and
    # simulate --x0 --eps.  Valid input exits 0, or exits 2 naming a limit
    # of the drawdown from x0: the slope v'(x0) underflows, or its last
    # bit moves the arc's stock past the arc's closing tolerance
    cfg = tmp_path / "draw.cfg"
    limits = ("the marginal value of stock underflows",
              "exceeds the drawdown arc's closing tolerance")
    codes = {0: 0, 2: 0}
    for k, (text, x0, eps) in enumerate(_mixed_scale_draws(0, 160)):
        cfg.write_text(text)
        for cmd in (["solve"], ["strategy", "--x0", repr(x0)],
                    ["simulate", "--x0", repr(x0)],
                    ["simulate", "--x0", repr(x0), "--eps", repr(eps)]):
            rc = main([cmd[0], str(cfg), *cmd[1:], "--out", str(tmp_path)])
            err = capsys.readouterr().err
            assert rc == 0 or (rc == 2 and any(m in err for m in limits)), \
                (k, cmd, rc, err, text)
            codes[rc] += 1
    print(f"{codes[0]} runs exit 0, {codes[2]} exit 2 at a named limit")
    assert codes[2] < codes[0], codes


@pytest.mark.parametrize("draw", [3, 25])
def test_cli_static_verdict_agrees_with_a_zero_gap(tmp_path, draw):
    # zeta is known only to _ZETA_WIDTH of itself, and on these draws the
    # spans read at zeta alone miss u_hat while the window's ends reach it:
    # the verdict must agree with the gap of 0 printed beside it
    text, _, _ = list(_mixed_scale_draws(0, draw + 1))[draw]
    cfg = tmp_path / "draw.cfg"
    cfg.write_text(text)
    assert main(["solve", str(cfg), "--out", str(tmp_path)]) == 0
    summary = _summary(tmp_path / "summary.txt")
    assert (summary["static_optimal"], summary["static_gap"]) \
        == ("True", "0"), summary


@pytest.mark.parametrize("cmd", [["strategy", "--x0", "0.2"],
                                 ["simulate", "--x0", "0.2", "--eps", "0.03"],
                                 ["solve"]])
def test_cli_cycle_one_part_in_1e9_inside_the_band_edge(configs_dir, tmp_path,
                                                        cmd):
    # arvan_moses_high with Q = [0, 3], whose band's top edge t2 is 1.75,
    # at A = t2 (1 - 1e-9), inside the band: no constant rate attains, so
    # solve reads the paper's regime ii, and the relaxed optimum's
    # production mixture weighs 0 by 1.2e-9, so its cycle peaks at 5.5e-11
    # and nets the rounding of the rate 1.5 per period
    cfg = str(configs_dir / "arvan_moses_high.cfg")
    assert main([*cmd[:1], cfg, *cmd[1:], "--out", str(tmp_path),
                 "--set", "sets.q=interval 0 3",
                 "--set", "revenue.A=1.74999999825"]) == 0
    if cmd == ["solve"]:
        summary = _summary(tmp_path / "summary.txt")
        assert (summary["static_optimal"], summary["regime"]) \
            == ("False", "ii"), summary


def test_cli_simulate_past_a_kink_at_the_demand_top_battery(configs_dir,
                                                           tmp_path):
    # arvan_moses_mid (K = 1 on a ray, beta 0.5) at A in {0.5, 0.6, ...,
    # 3.0} and B in {0.3, 0.4, ..., 2.0}, demand topped at q_hi in {0.01,
    # 0.02, ...} below the revenue's peak A/(2B), so that H kinks at z = A
    # - 2B q_hi.  In a seeded order, the first 8 draws whose kink lies in
    # (0, zeta) and whose sales the kernel reads there an ulp off q_hi
    # (cells once taken for an arc, about 3 % of the family), and the
    # first 8 whose sales read q_hi exactly: each simulates from 4 Psi(kink),
    # past the kink, with exit 0
    cfg = configs_dir / "arvan_moses_mid.cfg"
    family = [(a / 10, b / 10, q / 100) for a in range(5, 31)
              for b in range(3, 21) for q in range(1, 1000)
              if q / 100 < (a / 10) / (2.0 * (b / 10))]
    picked = {True: [], False: []}
    order = np.random.default_rng(9).permutation(len(family))
    for tried, i in enumerate(order[:1500]):
        a, b, q = family[i]
        sets = [f"revenue.A={a!r}", f"revenue.B={b!r}",
                f"sets.q=interval 0 {q!r}"]
        model = build_hamiltonian(validate_problem(load_problem(cfg, sets)))
        kink = a - 2.0 * b * q
        if not 0.0 < kink < model.zeta:
            continue
        _, r = hamiltonian._in_domain(model, np.array([kink]))
        misread = bool(r.argmax_lo[0] != q or r.argmax_hi[0] != q)
        if len(picked[misread]) < 8:
            x0 = 4.0 * build_value(model).psi(kink)
            picked[misread].append((a, b, q))
            over = [t for s in sets for t in ("--set", s)]
            rc = main(["simulate", str(cfg), "--x0", repr(x0), "--out",
                       str(tmp_path), *over])
            assert rc == 0, (a, b, q, x0, misread)
        if len(picked[True]) == len(picked[False]) == 8:
            break
    assert len(picked[True]) == len(picked[False]) == 8, tried
