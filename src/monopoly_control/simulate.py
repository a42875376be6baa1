"""Trajectory simulation and discounted payoff accounting.

Simulation is the referee: every plan, however it was derived, is run
forward here under the stock dynamics X' = produce - sell, X >= 0, and
scored by its discounted profit.  A stationary plan hands over its
piecewise-constant periodic control through segments(problem) (see the
strategy module), and one exact path integrates it: the stock and the
discount weight of each phase in closed form, a single pass when the
period is infinite, each period's stock summed by strategy._stock_run,
which certifies a cycle: a net within the fastest flow's rounding is
zero.  A DrawdownPlan is its drawdown arc, whose stock and payoff are
integrated cell by cell in the slope in closed form from the rates of its
rows, and whose stock must reach zero at tau, followed by its tail through
that same path.  Any other object is rejected.  An independent Euler referee
that samples a plan's controls over time lives with the tests, not here.

profit_gap compares a simulated run against the value function, charging
the horizon truncation at the plan's own stationary tail rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import HorizonTooShort, InvalidParameter, StateViolation
from .problem import ValidatedProblem, validate_problem
from .strategy import _ARC_X_TOL, DrawdownPlan, _stock_run
from .tableio import write_csv
from .value import ValueFunction, _arcs, _h_rise, _psi_rise

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
    """StateViolation at the first stock below -_X_TOL of scale, the
    stock the run holds."""
    bad = np.flatnonzero(x < -_X_TOL * scale)
    if len(bad):
        raise StateViolation(float(t[bad[0]]), float(x[bad[0]]))


def _segment_weights(beta: float, t: np.ndarray) -> np.ndarray:
    """Exact integral of the discount factor over each [t_k, t_{k+1})."""
    e = np.exp(-beta * t)
    return (e[:-1] - e[1:]) / beta


def _simulate_segments(problem: ValidatedProblem, period: float, phases,
                       mean_rate: float, horizon: float,
                       x0: float) -> Trajectory:
    """Exact run of a piecewise-constant control repeating with period,
    each period's stock summed from zero by _stock_run."""
    if np.ceil(horizon / period) * len(phases) > _MAX_PHASES:
        raise InvalidParameter(
            f"cycle period {period:g} repeats too often over horizon "
            f"{horizon:g}: more than {_MAX_PHASES} phases to lay out")
    beta = problem.beta
    ph = np.array(phases, dtype=float)
    # period starts summed one period at a time, as a running clock; the
    # first is always laid out, the others while 1e-15 short of the horizon
    starts = np.cumsum(np.full(int(np.ceil(horizon / period)) + 1, period))
    k = int(np.argmax(starts >= horizon - 1e-15 * max(1.0, horizon)))
    base = np.concatenate([[0.0], starts[:k]])[:, None]
    live = (base + ph[:, 0]).ravel() < horizon
    end = np.minimum((base + ph[:, 1]).ravel()[live], horizon)
    # a phase is kept where it ends past every phase before it
    keep = end > np.maximum.accumulate(np.concatenate([[0.0], end[:-1]]))
    tk = np.concatenate([[0.0], end[keep]])
    controls = np.tile(ph[:, 2:], (k + 1, 1))[live][keep]
    a_arr, q_arr = (np.append(controls[:, j], controls[-1, j]) for j in (0, 1))
    rates = controls[:, 2]
    dur = np.minimum(ph[:, 1], horizon - base) - ph[:, 0]
    run = _stock_run(ph, np.where(live.reshape(dur.shape), dur, 0.0),
                     period if math.isfinite(period) else horizon)
    start = x0 + np.concatenate([[0.0], np.cumsum(run[:-1, -1])])
    stock = np.concatenate([[x0], (start[:, None] + run).ravel()[live][keep]])
    _check_stock(stock, tk, float(np.abs(stock).max()))
    j = np.concatenate([[0.0], np.cumsum(rates * _segment_weights(beta, tk))])
    return Trajectory(t=tk, stock=stock, produce=a_arr, sell=q_arr,
                      j_running=j, tail_rate=mean_rate)


def _simulate_drawdown(problem: ValidatedProblem, plan: DrawdownPlan,
                       horizon: float) -> Trajectory:
    """The arc cell by cell in the slope z, dt = dz/(beta z) and e^(-beta
    t) = xi0/z.  A cell runs from one row's rates, above its slope, to the
    next row's, below its slope, and its stock falls by Psi's closed form
    on it (see the value module).  With P = R(q) - C(a) - z (q - a), the H
    the rates attain, P' = a - q along the arc, so the payoff up to slope z
    is (P(xi0) - xi0 P(z) / z) / beta.  A horizon inside a cell reads both
    at the slope it reaches, the last controls held."""
    beta, z, a, q = problem.beta, plan.xi_knots, plan.a_knots, plan.q_knots
    n = len(z)
    top = z[1:]
    cells = (top, np.maximum(q[1:] - a[1:], 0.0),
             *_arcs(problem, a[:-1], q[:-1], a[1:], q[1:]))
    drop = _psi_rise(beta, *cells, np.log1p((top - z[:-1]) / z[:-1]))
    xk = plan.x0 - np.concatenate([[0.0], np.cumsum(drop)])
    p = problem.revenue(q) - problem.cost(a) - z * (q - a)
    j = (p[0] - z[0] / z * p) / beta
    if horizon <= plan.tau:
        # rows up to m - 1 are reached; the cell from row m - 1 to row m
        # ends at the horizon, at slope zh
        m = min(int(np.searchsorted(plan.t_knots, horizon, "right")), n - 1)
        zh = min(z[0] * math.exp(beta * horizon), z[m])
        cell = tuple(c[m - 1] for c in cells)
        up = math.log1p((z[m] - zh) / zh)
        xk = np.append(xk[:m], xk[m] + _psi_rise(beta, *cell, up))
        ph = p[m] + _h_rise(*cell, up)
        tk = np.append(plan.t_knots[:m], horizon)
        _check_stock(xk, tk, plan.x0)
        return Trajectory(t=tk, stock=xk, produce=np.append(a[:m], a[m - 1]),
                          sell=np.append(q[:m], q[m - 1]),
                          j_running=np.append(j[:m], (p[0] - z[0] / zh * ph)
                                              / beta),
                          tail_rate=0.0)
    # cells drop stock, never raise it, so its end bounds it from below
    if abs(xk[-1]) > _ARC_X_TOL * max(1.0, plan.x0):
        raise StateViolation(plan.tau, float(xk[-1]))
    xk[-1] = 0.0        # closed: zero, not the rounding of the drops
    tail = simulate(problem, plan.tail, horizon=horizon - plan.tau, x0=0.0)
    shift = math.exp(-beta * plan.tau)
    return Trajectory(
        t=np.concatenate([plan.t_knots, plan.tau + tail.t[1:]]),
        stock=np.concatenate([xk, tail.stock[1:]]),
        produce=np.concatenate([a[:-1], tail.produce]),
        sell=np.concatenate([q[:-1], tail.sell]),
        j_running=np.concatenate([j, j[-1] + shift * tail.j_running[1:]]),
        tail_rate=tail.tail_rate)


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
        # a drawdown's x0 is positive: drawdown_plan returns the tail at 0
        if x0 is not None and abs(x0 - plan.x0) > 1e-12 * plan.x0:
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
    tail rate.  What the run leaves is worth at most the larger of v at its
    last stock and that rate's perpetuity; if discounting has not yet made
    it smaller than _TOL_TAIL of the value, the horizon is declared too
    short instead of guessing.
    """
    beta = vf.beta
    horizon = traj.horizon
    x0 = float(traj.stock[0])
    v_opt = vf.value_at(x0)
    x_end = max(float(traj.stock[-1]), 0.0)
    # v(0) = min H / beta, no solve needed
    v_end = vf.value_at(x_end) if x_end > 0.0 else vf.model.h_min / beta
    leftover = math.exp(-beta * horizon) * max(v_end, abs(traj.tail_rate) / beta)
    if leftover > _TOL_TAIL * abs(v_opt):
        raise HorizonTooShort(
            f"discounted continuation {leftover:.3g} still exceeds "
            f"{_TOL_TAIL:.3g} at horizon {horizon}")
    realized = traj.total + math.exp(-beta * horizon) * traj.tail_rate / beta
    return (v_opt - realized) / max(1.0, abs(v_opt))


def write_trajectory_csv(traj: Trajectory, path) -> None:
    write_csv(path, ["t", "stock", "produce", "sell", "j_running"],
              [traj.t, traj.stock, traj.produce, traj.sell, traj.j_running])
