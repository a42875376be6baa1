"""Command-line front end.

Subcommands take a problem config (see the config module for the schema)
and write plain CSV / key=value artifacts into --out:

    solve      value.csv + summary.txt (zeta, v(0), static verdict, ...)
    strategy   strategy.txt; with --x0 also drawdown.csv
    simulate   trajectory.csv + simulate_summary.txt
    oracle     dp.csv from the discrete-time cross-check
    compare    compare.txt with max |dp - v| and realized profit gaps

Everything numeric is written with 17 significant digits, so identical
configs give byte-identical outputs.  Exit codes: 0 success, 2 rejected
input (config or assumption violations), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

import numpy as np

from .config import load_problem
from .errors import (
    AssumptionViolation,
    HorizonTooShort,
    InvalidParameter,
    MonopolyControlError,
)
from .hamiltonian import build_hamiltonian
from .oracle import dp_value, write_dp_csv
from .problem import validate_problem
from .simulate import profit_gap, simulate, write_trajectory_csv
from .strategy import (
    DrawdownPlan,
    StaticPlan,
    _tail,
    cyclic_strategy,
    drawdown_plan,
    relaxed_static,
    static_optimality_test,
    stationary_plan,
)
from .tableio import write_csv, write_keyvalues
from .value import build_value, write_value_csv


def _finite_float(text: str) -> float:
    """argparse type for numeric flags: NaN and infinities are rejected."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(
            f"expected a finite number, got {text!r}")
    return value


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args leaves it
    as it was, and the append action of --set copies its default list."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("config", help="problem config file")
    common.add_argument("--out", default=".", metavar="DIR",
                        help="output directory (default: current)")
    common.add_argument("--set", action="append", default=[],
                        metavar="SECTION.KEY=VALUE",
                        help="override a config entry; repeatable")

    p = argparse.ArgumentParser(
        prog="monopoly-control",
        description="production-pricing control solver")
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("solve", parents=[common],
                   help="value function, summary, static verdict")

    ps = sub.add_parser("strategy", parents=[common],
                        help="stationary plans; --x0 adds a drawdown path")
    ps.add_argument("--x0", type=_finite_float, default=None,
                    help="initial stock for the drawdown plan")
    ps.add_argument("--eps", type=_finite_float, default=None,
                    help="cycle period for the cyclic plan, which is then "
                    "also the drawdown's tail")

    pm = sub.add_parser("simulate", parents=[common],
                        help="integrate the optimal plan from --x0")
    pm.add_argument("--x0", type=_finite_float, default=0.0)
    pm.add_argument("--eps", type=_finite_float, default=None,
                    help="force a cyclic tail with this period")
    pm.add_argument("--horizon", type=_finite_float, default=None,
                    help="simulation length (default 16/beta)")

    po = sub.add_parser("oracle", parents=[common],
                        help="discrete-time dynamic-programming table")
    po.add_argument("--x0", type=_finite_float, default=0.5, metavar="X_MAX",
                    help="top of the stock grid (default 0.5)")
    po.add_argument("--dt", type=_finite_float, default=0.002)

    pc = sub.add_parser("compare", parents=[common],
                        help="cross-check solver against the oracle")
    pc.add_argument("--x0", type=_finite_float, default=0.5, metavar="X_MAX",
                    help="top of the oracle stock grid (default 0.5)")
    pc.add_argument("--dt", type=_finite_float, default=0.002)
    pc.add_argument("--horizon", type=_finite_float, default=None)
    pc.add_argument("--eps", type=_finite_float, default=None)
    return p


def _load(args):
    if not Path(args.out).is_dir():
        raise InvalidParameter(f"output directory {args.out} does not exist")
    return validate_problem(load_problem(args.config, args.set))


def _regime(problem, report) -> str | None:
    """Classify cubic-cost / linear-demand instances by solver verdicts:
    shutdown is u_hat = 0 exactly, the lower end of Q intersect A."""
    if (problem.cost.family != "cubic"
            or problem.revenue.family != "linear_demand"):
        return None
    if not report.optimal:
        return "ii"
    return "i" if report.u_hat == 0.0 else "iii"


def _cmd_solve(args) -> int:
    problem = _load(args)
    out = Path(args.out)
    model = build_hamiltonian(problem)
    vf = build_value(model)
    write_value_csv(vf, out / "value.csv")
    report = static_optimality_test(problem, model)
    items = [
        ("zeta", model.zeta),
        ("v0", vf.value_at(0.0)),
        ("v_flat", vf.v_flat),
        ("h_min", model.h_min),
        ("m_lo", model.zeta),
        ("m_hi", model.m_hi),
        ("z_max", model.z_max),
        ("static_optimal", report.optimal),
        ("u_static", report.u_hat),
        ("static_payoff", report.payoff),
        ("static_gap", report.gap),
        ("u_tilde", report.u_tilde),
        ("relaxed_payoff", report.relaxed_payoff),
    ]
    if model.trunc_bound is not None:
        items.append(("production_ceiling", model.trunc_bound))
    regime = _regime(problem, report)
    if regime is not None:
        items.append(("regime", regime))
    write_keyvalues(out / "summary.txt", items)
    print(f"zeta = {model.zeta:.10g}, v(0) = {vf.value_at(0.0):.10g}, "
          f"static_optimal = {report.optimal}")
    return 0


def _cmd_strategy(args) -> int:
    problem = _load(args)
    out = Path(args.out)
    model = build_hamiltonian(problem)
    report = static_optimality_test(problem, model)
    lines = [
        f"static: {StaticPlan(report.u_hat).describe()} "
        f"payoff={report.payoff:.10g} optimal={report.optimal} "
        f"gap={report.gap:.10g}",
    ]
    relaxed = relaxed_static(problem, model, report.u_tilde)
    lines.append(f"relaxed: {relaxed.describe()} payoff={relaxed.payoff:.10g}")
    cyc = cyclic_strategy(problem, relaxed, args.eps)
    lines.append(f"cyclic: {cyc.describe()}")
    if args.x0 is not None:
        # _tail's rule, on the cycle printed above
        static = args.eps is None and report.optimal
        tail = StaticPlan(report.witness) if static else cyc
        plan = drawdown_plan(build_value(model), args.x0, tail)
        lines.append(f"drawdown: {plan.describe()}")
        if isinstance(plan, DrawdownPlan):
            write_csv(out / "drawdown.csv",
                      ["t", "stock", "produce", "sell"],
                      [plan.t_knots, plan.x_knots,
                       plan.a_knots, plan.q_knots])
    (out / "strategy.txt").write_text("\n".join(lines) + "\n",
                                      encoding="ascii")
    print("\n".join(lines))
    return 0


def _append_gap(items: list, key: str, traj, vf) -> None:
    """Append (key, profit gap), or the horizon_too_short flag once where
    the horizon is too short to score the trajectory."""
    try:
        items.append((key, profit_gap(traj, vf)))
    except HorizonTooShort:
        if ("horizon_too_short", True) not in items:
            items.append(("horizon_too_short", True))


def _cmd_simulate(args) -> int:
    problem = _load(args)
    out = Path(args.out)
    model = build_hamiltonian(problem)
    vf = build_value(model)
    plan = drawdown_plan(vf, args.x0, stationary_plan(problem, model, args.eps))
    horizon = args.horizon if args.horizon is not None else 16.0 / problem.beta
    traj = simulate(problem, plan, horizon=horizon, x0=args.x0)
    write_trajectory_csv(traj, out / "trajectory.csv")
    items = [
        ("x0", float(args.x0)),
        ("horizon", float(horizon)),
        ("plan", plan.describe()),
        ("discounted_total", traj.total),
        ("tail_rate", traj.tail_rate),
        ("value_x0", vf.value_at(args.x0)),
    ]
    _append_gap(items, "profit_gap", traj, vf)
    write_keyvalues(out / "simulate_summary.txt", items)
    print(f"trajectory.csv written, discounted total = {traj.total:.10g}")
    return 0


def _cmd_oracle(args) -> int:
    problem = _load(args)
    res = dp_value(problem, x_max=args.x0, dt=args.dt)
    write_dp_csv(res, Path(args.out) / "dp.csv")
    print(f"dp.csv written, {res.iterations - res.solves} Bellman sweeps, "
          f"{res.solves} policy solves, v_hat(0) = {res.value_at(0.0):.10g}")
    return 0


def _cmd_compare(args) -> int:
    problem = _load(args)
    out = Path(args.out)
    model = build_hamiltonian(problem)
    vf = build_value(model)
    # the plan refuses an x_mid it cannot play before the oracle runs
    x_mid = 0.5 * args.x0
    report = static_optimality_test(problem, model)
    plan = drawdown_plan(vf, x_mid, _tail(problem, model, report, args.eps))
    res = dp_value(problem, x_max=args.x0, dt=args.dt)
    lo_half = res.x_grid <= 0.5 * args.x0 + 1e-12
    xs = res.x_grid[lo_half]
    gap_grid = np.abs(res.v_hat[lo_half] - vf.value_at(xs))
    k = int(np.argmax(gap_grid))
    horizon = args.horizon if args.horizon is not None else 24.0 / problem.beta
    items = [
        ("max_value_gap", float(gap_grid.max())),
        ("argmax_x", float(xs[k])),
        ("dp_iterations", res.iterations),
        ("dp_fix_gap", res.fix_gap),
    ]
    traj = simulate(problem, plan, horizon=horizon, x0=x_mid)
    _append_gap(items, "profit_gap_drawdown", traj, vf)
    if report.optimal:
        tstat = simulate(problem, StaticPlan(report.witness), horizon=horizon)
        _append_gap(items, "profit_gap_static", tstat, vf)
    write_keyvalues(out / "compare.txt", items)
    print(f"max |v_hat - v| = {gap_grid.max():.3e} on [0, {xs[-1]:.3g}]")
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "strategy": _cmd_strategy,
    "simulate": _cmd_simulate,
    "oracle": _cmd_oracle,
    "compare": _cmd_compare,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (AssumptionViolation, InvalidParameter) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MonopolyControlError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
