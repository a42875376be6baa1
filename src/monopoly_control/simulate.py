"""Trajectory simulation and discounted payoff accounting.

Simulation is the referee: every plan, however it was derived, is run
forward here under the stock dynamics X' = produce - sell, X >= 0, and
scored by its discounted profit.  A stationary plan hands over its
piecewise-constant periodic control through segments(problem) (see the
strategy module), and one exact path integrates it: the stock and the
discount weight of each phase in closed form, a single pass when the
period is infinite.  A DrawdownPlan is its drawdown arc, whose controls
vary continuously and which is scored by the trapezoid rule on its knots,
followed by its tail through that same path.  Any other object is
rejected.  An independent Euler referee that samples a plan's controls
over time lives with the tests, not here.

profit_gap compares a simulated run against the value function, charging
the horizon truncation at the plan's own stationary tail rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import HorizonTooShort, InvalidParameter, StateViolation
from .problem import ValidatedProblem, validate_problem
from .strategy import DrawdownPlan
from .tableio import write_csv
from .value import ValueFunction

_X_TOL = 1e-9
_MAX_PHASES = 10**6   # phases a periodic run may lay out up to its horizon
# share of the value the continuation past the horizon may still be worth
_TOL_TAIL = 1e-3


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled run of a plan: knot times, stock, controls, running payoff.

    Controls are the rates in force on [t_k, t_{k+1}); j_running[k] is the
    discounted profit accumulated up to t_k.  tail_rate is the stationary
    undiscounted profit rate the plan would earn past the horizon.
    """

    t: np.ndarray = field(repr=False)
    stock: np.ndarray = field(repr=False)
    produce: np.ndarray = field(repr=False)
    sell: np.ndarray = field(repr=False)
    j_running: np.ndarray = field(repr=False)
    tail_rate: float

    @property
    def total(self) -> float:
        return float(self.j_running[-1])

    @property
    def horizon(self) -> float:
        return float(self.t[-1])


def _check_stock(x: np.ndarray, t: np.ndarray, scale: float) -> None:
    bad = np.nonzero(x < -_X_TOL * max(1.0, scale))[0]
    if len(bad):
        k = int(bad[0])
        raise StateViolation(float(t[k]), float(x[k]))


def _segment_weights(beta: float, t: np.ndarray) -> np.ndarray:
    """Exact integral of the discount factor over each [t_k, t_{k+1})."""
    e = np.exp(-beta * t)
    return (e[:-1] - e[1:]) / beta


def _simulate_segments(problem: ValidatedProblem, period: float, phases,
                       mean_rate: float, horizon: float,
                       x0: float) -> Trajectory:
    """Exact run of a piecewise-constant control repeating with period."""
    if np.ceil(horizon / period) * len(phases) > _MAX_PHASES:
        raise InvalidParameter(
            f"cycle period {period:g} repeats too often over horizon "
            f"{horizon:g}: more than {_MAX_PHASES} phases to lay out")
    beta = problem.beta
    cuts = [0.0]
    controls = []
    t = 0.0
    base = 0.0
    while t < horizon - 1e-15 * max(1.0, horizon):
        for t0, t1, a, q, rate in phases:
            s0, s1 = base + t0, base + t1
            if s0 >= horizon:
                break
            end = min(s1, horizon)
            if end > cuts[-1]:
                cuts.append(end)
                controls.append((a, q, rate))
        base += period
        t = base
    tk = np.asarray(cuts)
    a_arr = np.array([c[0] for c in controls] + [controls[-1][0]])
    q_arr = np.array([c[1] for c in controls] + [controls[-1][1]])
    rates = np.array([c[2] for c in controls])
    drift = a_arr[:-1] - q_arr[:-1]
    stock = x0 + np.concatenate([[0.0], np.cumsum(drift * np.diff(tk))])
    scale = max(1.0, float(np.abs(stock).max()))
    stock = np.where(np.abs(stock - x0) < 1e-14 * scale, x0, stock)
    _check_stock(stock, tk, scale)
    j = np.concatenate([[0.0], np.cumsum(rates * _segment_weights(beta, tk))])
    return Trajectory(t=tk, stock=stock, produce=a_arr, sell=q_arr,
                      j_running=j, tail_rate=mean_rate)


def _simulate_drawdown(problem: ValidatedProblem, plan: DrawdownPlan,
                       horizon: float) -> Trajectory:
    beta = problem.beta
    if horizon <= plan.tau:
        keep = plan.t_knots <= horizon
        tk = np.concatenate([plan.t_knots[keep], [horizon]])
        xk = np.concatenate([plan.x_knots[keep],
                             [float(np.interp(horizon, plan.t_knots, plan.x_knots))]])
        ak = np.concatenate([plan.a_knots[keep], [plan.a_knots[keep][-1]]])
        qk = np.concatenate([plan.q_knots[keep], [plan.q_knots[keep][-1]]])
        tail_rate = 0.0
        tail_traj = None
    else:
        tk, xk = plan.t_knots, plan.x_knots
        ak, qk = plan.a_knots, plan.q_knots
        tail_traj = simulate(problem, plan.tail, horizon=horizon - plan.tau, x0=0.0)
        tail_rate = tail_traj.tail_rate
    _check_stock(xk, tk, max(1.0, plan.x0))

    rate = problem.revenue(qk) - problem.cost(ak)
    disc = np.exp(-beta * tk) * rate
    j = np.concatenate([[0.0],
                        np.cumsum(0.5 * (disc[:-1] + disc[1:]) * np.diff(tk))])

    if tail_traj is None:
        return Trajectory(t=tk, stock=xk, produce=ak, sell=qk, j_running=j,
                          tail_rate=tail_rate)
    shift = math.exp(-beta * plan.tau)
    t_all = np.concatenate([tk, plan.tau + tail_traj.t[1:]])
    x_all = np.concatenate([xk, tail_traj.stock[1:]])
    a_all = np.concatenate([ak[:-1], tail_traj.produce])
    q_all = np.concatenate([qk[:-1], tail_traj.sell])
    j_all = np.concatenate([j, j[-1] + shift * tail_traj.j_running[1:]])
    return Trajectory(t=t_all, stock=x_all, produce=a_all, sell=q_all,
                      j_running=j_all, tail_rate=tail_rate)


def simulate(problem, plan, *, horizon: float,
             x0: float | None = None) -> Trajectory:
    """Run a plan for the given horizon and account its discounted profit.

    x0 defaults to the plan's own initial stock (drawdown) or zero.  The
    stock path is checked against the non-negativity constraint and a
    StateViolation pinpoints the first breach.
    """
    problem = validate_problem(problem)
    if not (math.isfinite(horizon) and horizon > 0.0):
        raise InvalidParameter(f"horizon must be positive and finite, got {horizon}")
    if x0 is not None and not math.isfinite(x0):
        raise InvalidParameter(f"initial stock must be finite, got {x0}")

    if isinstance(plan, DrawdownPlan):
        if x0 is not None and abs(x0 - plan.x0) > 1e-12 * max(1.0, plan.x0):
            raise InvalidParameter(
                f"plan starts at {plan.x0}, simulation asked for {x0}")
        return _simulate_drawdown(problem, plan, horizon)

    x0 = 0.0 if x0 is None else float(x0)
    if x0 < 0.0:
        raise InvalidParameter(f"initial stock must be non-negative, got {x0}")
    try:
        segments = plan.segments
    except AttributeError:
        raise InvalidParameter(f"cannot simulate {type(plan).__name__}") from None
    return _simulate_segments(problem, *segments(problem), horizon, x0)


def profit_gap(traj: Trajectory, vf: ValueFunction) -> float:
    """Relative shortfall of a simulated run against the value function.

    The continuation past the horizon is charged at the plan's stationary
    tail rate; if discounting has not yet made the continuation smaller
    than _TOL_TAIL of the value, the horizon is declared too short instead
    of guessing.
    """
    beta = vf.beta
    horizon = traj.horizon
    x0 = float(traj.stock[0])
    v_opt = vf.value_at(x0)
    scale = max(1.0, abs(v_opt))
    leftover = math.exp(-beta * horizon) * max(abs(vf.v_flat), abs(traj.tail_rate) / beta)
    if leftover > _TOL_TAIL * scale:
        raise HorizonTooShort(
            f"discounted continuation {leftover:.3g} still exceeds "
            f"{_TOL_TAIL:.3g} at horizon {horizon}")
    realized = traj.total + math.exp(-beta * horizon) * traj.tail_rate / beta
    return (v_opt - realized) / scale


def write_trajectory_csv(traj: Trajectory, path) -> None:
    write_csv(path, ["t", "stock", "produce", "sell", "j_running"],
              [traj.t, traj.stock, traj.produce, traj.sell, traj.j_running])
