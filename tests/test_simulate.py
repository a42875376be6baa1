"""Trajectory integration, profit accounting, admissibility checks."""

import dataclasses
import math

import numpy as np
import pytest

from monopoly_control import (
    HorizonTooShort,
    CyclicPlan,
    InvalidParameter,
    StateViolation,
    StaticPlan,
    build_hamiltonian,
    build_value,
    convexified_static,
    cyclic_strategy,
    cyclic_value,
    drawdown_plan,
    h_at,
    load_problem,
    profit_gap,
    relaxed_static,
    simulate,
    stationary_plan,
    validate_problem,
    write_trajectory_csv,
)
from monopoly_control.cli import main
from monopoly_control.simulate import _segment_weights, _simulate_segments


@pytest.fixture(scope="module")
def am_cyclic(am_mid_problem, am_mid_model):
    u, _ = convexified_static(am_mid_problem, am_mid_model)
    rel = relaxed_static(am_mid_problem, am_mid_model, u)
    return rel, cyclic_strategy(am_mid_problem, rel, 0.25)


def test_static_plan_closed_form(linear_cost_problem, linear_cost_value):
    traj = simulate(linear_cost_problem, StaticPlan(0.3), horizon=40.0)
    expect = 0.15 * (1.0 - math.exp(-0.5 * 40.0)) / 0.5
    assert traj.total == pytest.approx(expect, abs=1e-14)
    assert traj.tail_rate == pytest.approx(0.15, abs=1e-14)
    assert np.all(traj.stock == 0.0)
    # with the tail folded in, the static plan attains v(0)
    assert profit_gap(traj, linear_cost_value) == pytest.approx(0.0, abs=1e-10)
    # production matches sales, so stock held at the start stays put
    held = simulate(linear_cost_problem, StaticPlan(0.3), horizon=40.0, x0=0.5)
    assert np.all(held.stock == 0.5)
    assert held.total == traj.total


def test_static_plan_must_stay_in_sets(linear_cost_problem):
    with pytest.raises(InvalidParameter):
        simulate(linear_cost_problem, StaticPlan(0.35), horizon=1.0)


def test_horizon_below_stop_tolerance_takes_one_step(am_mid_problem, am_cyclic):
    # a positive horizon at or under the 1e-15 stop tolerance still lays out
    # the first period: the run is the two points [0, horizon]
    _, cyc = am_cyclic
    for plan in (StaticPlan(0.375), cyc):
        for horizon in (1e-16, 1e-300):
            traj = simulate(am_mid_problem, plan, horizon=horizon)
            assert traj.t.tolist() == [0.0, horizon], (plan, horizon)
            assert traj.stock.tolist() == [0.0, 0.0]


def test_short_cycles_reach_a_horizon_below_1(am_mid_problem, am_cyclic):
    # the stop tolerance is relative: periods of 3e-16 are laid out up to
    # a horizon of a few of them, not stopped 1e-15 short of it
    rel, _ = am_cyclic
    plan = cyclic_strategy(am_mid_problem, rel, 3e-16)
    for horizon in (1e-15, 1e-14, 2.5e-15):
        traj = simulate(am_mid_problem, plan, horizon=horizon)
        assert traj.horizon == horizon


def test_relaxed_mean_rates(am_mid_problem, am_mid_model, am_cyclic):
    rel, _ = am_cyclic
    traj = simulate(am_mid_problem, rel, horizon=30.0)
    expect = rel.payoff * (1.0 - math.exp(-15.0)) / 0.5
    assert traj.total == pytest.approx(expect, abs=1e-14)
    assert np.all(traj.stock == traj.stock[0])


def test_cyclic_simulation_exact(am_mid_problem, am_cyclic):
    _, plan = am_cyclic
    traj = simulate(am_mid_problem, plan, horizon=30.0)
    cv = cyclic_value(plan, 0.5)
    # piecewise-constant rates integrate in closed form, so the simulated
    # discounted profit matches the infinite-horizon value scaled by the
    # finite-horizon discount mass
    expect = cv * (1.0 - math.exp(-0.5 * 30.0))
    assert traj.total == pytest.approx(expect, abs=1e-12)
    assert traj.stock.max() == pytest.approx(plan.peak_stock, abs=1e-12)
    ends = np.isclose(np.mod(traj.t, plan.eps), 0.0, atol=1e-9) \
        | np.isclose(np.mod(traj.t, plan.eps), plan.eps, atol=1e-9)
    assert np.abs(traj.stock[ends]).max() < 1e-12
    assert traj.stock.min() >= 0.0


def test_drawdown_profit_gap_small(linear_cost_problem, linear_cost_model, linear_cost_value):
    plan = drawdown_plan(linear_cost_value, 0.2,
                         stationary_plan(linear_cost_problem, linear_cost_model))
    traj = simulate(linear_cost_problem, plan, horizon=40.0)
    assert traj.stock[0] == pytest.approx(0.2)
    assert traj.stock[-1] == pytest.approx(0.0, abs=1e-12)
    assert traj.stock.min() >= -1e-12
    gap = profit_gap(traj, linear_cost_value)
    # the tabulated value interpolates below the true (concave) v between
    # knots, so an accurate run may land a hair above it
    assert -1e-6 <= gap < 1e-4


def test_drawdown_with_cyclic_tail(am_mid_problem, am_mid_model,
                                   am_mid_value):
    plan = drawdown_plan(am_mid_value, 0.3,
                         stationary_plan(am_mid_problem, am_mid_model, 0.02))
    traj = simulate(am_mid_problem, plan, horizon=40.0)
    gap = profit_gap(traj, am_mid_value)
    # gap is the cyclic tail's O(eps) loss plus knot discretization
    assert 0.0 <= gap < 2e-3
    assert traj.stock.min() >= -1e-12


@pytest.fixture(scope="module")
def shipped_arcs(configs_dir):
    """(label, problem, model, value function, plan) for every shipped
    config at stocks 0.1, 0.5, 0.9 and 0.99 of x_resolved, each with the
    stationary plan's tail."""
    arcs = []
    for cfg in sorted(configs_dir.glob("*.cfg")):
        problem = validate_problem(load_problem(cfg))
        model = build_hamiltonian(problem)
        vf = build_value(model)
        tail = stationary_plan(problem, model)
        for share in (0.1, 0.5, 0.9, 0.99):
            plan = drawdown_plan(vf, share * vf.x_resolved, tail)
            arcs.append((f"{cfg.stem}@{share}", problem, model, vf, plan))
    return arcs


def test_drawdown_total_meets_value_and_stock_closes(shipped_arcs):
    # along the arc R - C = H(z) - z H'(z) and e^(-beta t) = xi0/z, so the
    # arc earns H(xi0)/beta - (xi0/zeta) H(zeta)/beta and a static tail
    # makes the total exactly v(x0); a cycle can only fall short.  The
    # stock the arc's controls move reaches 0 at tau
    statics = 0
    for label, problem, _, vf, plan in shipped_arcs:
        beta, x0 = problem.beta, plan.x0
        horizon = plan.tau + 60.0
        traj = simulate(problem, plan, horizon=horizon)
        total = traj.total + math.exp(-beta * horizon) * traj.tail_rate / beta
        v0 = vf.value_at(x0)
        tol = 1e-9 * max(1.0, abs(v0))
        if isinstance(plan.tail, StaticPlan):
            statics += 1
            assert abs(total - v0) <= tol, (label, total - v0)
        else:
            assert total <= v0 + tol, (label, total - v0)
        end = traj.stock[len(plan.t_knots) - 1]
        assert traj.t[len(plan.t_knots) - 1] == plan.t_knots[-1]
        assert abs(end) <= 1e-10 * max(1.0, x0), (label, end)
    assert statics == 12        # arvan_moses_high, _low and linear_cost


@pytest.mark.parametrize("beta", [0.5, 1.3])
def test_drawdown_arc_ends_at_zero_stock(configs_dir, beta):
    # once the arc passes its closure check, its stock at tau is zero, not
    # the rounding of its cells' drops, and no row of the arc is below it
    for cfg in sorted(configs_dir.glob("*.cfg")):
        problem = validate_problem(load_problem(cfg, [f"problem.beta={beta}"]))
        model = build_hamiltonian(problem)
        plan = drawdown_plan(build_value(model), 0.2,
                             stationary_plan(problem, model))
        traj = simulate(problem, plan, horizon=16.0 / beta)
        n = len(plan.t_knots)
        assert traj.t[n - 1] == plan.t_knots[-1]
        assert traj.stock[n - 1] == 0.0, cfg.stem
        assert traj.stock[:n].min() >= 0.0, cfg.stem


@pytest.mark.parametrize("beta", [0.5, 1.3])
@pytest.mark.parametrize("args", [["--x0", "0.2"],
                                  ["--x0", "0.1", "--eps", "0.05"]],
                         ids=["default_tail", "eps_tail"])
def test_cli_trajectory_stock_is_never_negative(configs_dir, tmp_path,
                                                beta, args):
    # a cyclic tail lays out each period from its phases' own durations,
    # so no period inherits the rounding of the ones before it
    for cfg in sorted(configs_dir.glob("*.cfg")):
        assert main(["simulate", str(cfg), *args, "--set",
                     f"problem.beta={beta}", "--out", str(tmp_path)]) == 0
        stock = np.loadtxt(tmp_path / "trajectory.csv", delimiter=",",
                           skiprows=1, usecols=1)
        assert stock.min() >= 0.0, cfg.stem


def test_drawdown_truncated_inside_a_cell(shipped_arcs):
    # a horizon inside the arc ends inside its cell, in closed form: the
    # stock there is Psi at the slope reached, and the payoff the
    # closed form H(xi0)/beta - (xi0/z) H(z)/beta
    for label, problem, model, vf, plan in shipped_arcs:
        beta, xi0 = problem.beta, plan.xi_knots[0]
        for share in (0.013, 0.5, 0.77):
            horizon = share * plan.tau
            traj = simulate(problem, plan, horizon=horizon)
            z = xi0 * math.exp(beta * horizon)
            scale = max(1.0, plan.x0)
            assert traj.t[-1] == horizon and traj.tail_rate == 0.0
            assert abs(traj.stock[-1] - vf.psi(z)) <= 1e-10 * scale, label
            pay = (float(h_at(model, xi0))
                   - xi0 / z * float(h_at(model, z))) / beta
            tol = 1e-9 * max(1.0, vf.value_at(plan.x0))
            assert abs(traj.total - pay) <= tol, (label, share)


def test_drawdown_stock_must_close_at_tau(linear_cost_problem,
                                          linear_cost_model,
                                          linear_cost_value):
    # an arc whose controls leave stock over at tau is refused
    plan = drawdown_plan(linear_cost_value, 0.2,
                         stationary_plan(linear_cost_problem,
                                         linear_cost_model))
    simulate(linear_cost_problem, plan, horizon=40.0)
    off = dataclasses.replace(plan, x0=plan.x0 + 1e-9)
    with pytest.raises(StateViolation) as err:
        simulate(linear_cost_problem, off, horizon=40.0)
    assert err.value.time == plan.tau
    assert err.value.inventory == pytest.approx(1e-9, rel=1e-3)


def test_drawdown_truncated_before_tau(linear_cost_problem, linear_cost_model, linear_cost_value):
    plan = drawdown_plan(linear_cost_value, 0.2,
                         stationary_plan(linear_cost_problem, linear_cost_model))
    traj = simulate(linear_cost_problem, plan, horizon=plan.tau / 2.0)
    assert traj.t[-1] == pytest.approx(plan.tau / 2.0)
    assert traj.stock[-1] > 0.0


def test_profit_gap_requires_long_horizon(linear_cost_problem, linear_cost_model,
                                          linear_cost_value):
    plan = drawdown_plan(linear_cost_value, 0.2,
                         stationary_plan(linear_cost_problem, linear_cost_model))
    traj = simulate(linear_cost_problem, plan, horizon=1.0)
    with pytest.raises(HorizonTooShort):
        profit_gap(traj, linear_cost_value)
    # a horizon that is not a positive finite number is rejected up front
    for bad in (math.nan, math.inf):
        for p in (plan, StaticPlan(0.3)):
            with pytest.raises(InvalidParameter, match="horizon"):
                simulate(linear_cost_problem, p, horizon=bad)


def test_drawdown_x0_mismatch_rejected(linear_cost_problem, linear_cost_model, linear_cost_value):
    plan = drawdown_plan(linear_cost_value, 0.2,
                         stationary_plan(linear_cost_problem, linear_cost_model))
    with pytest.raises(InvalidParameter):
        simulate(linear_cost_problem, plan, horizon=5.0, x0=0.3)
    with pytest.raises(InvalidParameter):
        simulate(linear_cost_problem, plan, horizon=5.0, x0=math.nan)


def test_drawdown_x0_match_is_relative_to_a_tiny_stock(am_mid_problem,
                                                       am_mid_model,
                                                       am_mid_value):
    # a plan from 1e-15 refuses a run from 500 times its stock, and still
    # takes one a part in 1e13 off it
    plan = drawdown_plan(am_mid_value, 1e-15,
                         stationary_plan(am_mid_problem, am_mid_model))
    with pytest.raises(InvalidParameter, match="plan starts at"):
        simulate(am_mid_problem, plan, horizon=5.0, x0=5e-13)
    traj = simulate(am_mid_problem, plan, horizon=5.0,
                    x0=plan.x0 * (1.0 + 1e-13))
    assert traj.stock[0] == plan.x0


def test_generic_plan_state_violation(am_mid_problem, referee):
    sell_always = CyclicPlan(eps=1.0,
                             phases=((0.0, 1.0, 0.0, 0.5, 0.25),), kappa=0.0,
                             peak_stock=0.0, mean_payoff=0.25)
    with pytest.raises(StateViolation) as err:
        referee(am_mid_problem, sell_always, horizon=2.0, x0=0.0)
    assert err.value.inventory < 0.0


def test_cyclic_sell_first_violates_at_first_breach(am_mid_problem, am_cyclic):
    # the exact path checks stock at every phase end: selling down from
    # zero before producing breaches at the end of the sell phase
    _, plan = am_cyclic
    (_, _, *prod), (s0, s1, *sell) = plan.phases
    swapped = dataclasses.replace(plan, phases=(
        (0.0, s1 - s0, *sell), (s1 - s0, plan.eps, *prod)))
    with pytest.raises(StateViolation) as err:
        simulate(am_mid_problem, swapped, horizon=5.0)
    assert err.value.time == pytest.approx(0.1875, abs=1e-12)
    assert err.value.inventory == pytest.approx(-0.0703125, abs=1e-12)


def test_only_segment_plans_simulate(am_mid_problem):
    class SellAlways:
        def controls_at(self, t):
            return (0.0, 0.5)

    with pytest.raises(InvalidParameter, match="cannot simulate SellAlways"):
        simulate(am_mid_problem, SellAlways(), horizon=2.0)


def test_tiny_cycle_period_rejected(am_mid_problem, am_cyclic):
    # a period of 1e-9 would lay out 6e10 phases before the horizon;
    # the run is refused up front, naming the period and the horizon
    rel, _ = am_cyclic
    plan = cyclic_strategy(am_mid_problem, rel, 1e-9)
    with pytest.raises(InvalidParameter, match="period 1e-09 .* horizon 30"):
        simulate(am_mid_problem, plan, horizon=30.0)


def test_generic_plan_euler_close_to_exact(am_mid_problem, am_high_problem,
                                          am_high_model, am_cyclic, referee):
    # the Euler referee samples each kind of stationary plan over time and
    # must agree with its exact accounting through segments; the am_mid
    # relaxed plan mixes its production support
    rel, cyc = am_cyclic
    for problem, plan in ((am_mid_problem, StaticPlan(0.375)),
                          (am_high_problem, relaxed_static(am_high_problem,
                                                           am_high_model)),
                          (am_mid_problem, rel), (am_mid_problem, cyc)):
        exact = simulate(problem, plan, horizon=5.0)
        assert referee(problem, plan, horizon=5.0) == \
            pytest.approx(exact.total, abs=5e-3), plan
    assert rel.production_mixed
    assert simulate(am_mid_problem, rel, horizon=5.0).total == \
        pytest.approx(0.25816, abs=1e-5)


def test_referee_close_to_exact_drawdown(am_mid_problem, am_mid_model,
                                         am_mid_value, referee):
    # the referee reads the arc's controls from the feedback rule, not from
    # the plan's knots, then runs the relaxed or cyclic tail
    rel = relaxed_static(am_mid_problem, am_mid_model)
    for tail in (rel, cyclic_strategy(am_mid_problem, rel)):
        plan = drawdown_plan(am_mid_value, 0.2, tail)
        exact = simulate(am_mid_problem, plan, horizon=5.0)
        got = referee(am_mid_problem, plan, horizon=5.0, x0=0.2,
                      model=am_mid_model)
        assert got == pytest.approx(exact.total, abs=5e-3), tail.describe()


def test_negative_initial_stock_rejected(linear_cost_problem, linear_cost_model,
                                         linear_cost_value):
    with pytest.raises(InvalidParameter, match="initial stock"):
        drawdown_plan(linear_cost_value, -0.5, StaticPlan(0.3))
    for bad in (-0.1, math.nan, math.inf):
        with pytest.raises(InvalidParameter, match="initial stock"):
            simulate(linear_cost_problem, StaticPlan(0.3), horizon=1.0, x0=bad)


def test_trajectory_csv(tmp_path, linear_cost_problem, linear_cost_model, linear_cost_value):
    plan = drawdown_plan(linear_cost_value, 0.1,
                         stationary_plan(linear_cost_problem, linear_cost_model))
    traj = simulate(linear_cost_problem, plan, horizon=10.0)
    p1 = tmp_path / "t1.csv"
    p2 = tmp_path / "t2.csv"
    write_trajectory_csv(traj, p1)
    write_trajectory_csv(traj, p2)
    assert p1.read_bytes() == p2.read_bytes()
    head = p1.read_text().splitlines()[0]
    assert head == "t,stock,produce,sell,j_running"


def test_segments_match_running_clock_reference(drawdown_cases,
                                                reference_segments):
    # cumsum and tile lay out the phases of the running-clock loop, bit
    # for bit, over full horizons, the tails of drawdowns and one step
    for label, problem, model, vf, stocks in drawdown_cases:
        for eps in (None, 0.05):
            tail = stationary_plan(problem, model, eps)
            period, phases, rate = tail.segments(problem)
            full = 16.0 / problem.beta
            horizons = [full, 1e-16] + [
                full - drawdown_plan(vf, x0, tail).tau for x0 in stocks]
            for horizon in horizons:
                traj = _simulate_segments(problem, period, phases, rate,
                                          horizon, 0.0)
                cuts, rows = reference_segments(period, phases, horizon)
                rows = np.array(rows)
                assert traj.t.tobytes() == np.array(cuts).tobytes(), \
                    (label, eps, horizon)
                assert traj.produce[:-1].tobytes() == rows[:, 0].tobytes()
                assert traj.sell[:-1].tobytes() == rows[:, 1].tobytes()
                j = np.cumsum(rows[:, 2] * _segment_weights(problem.beta,
                                                            traj.t))
                assert traj.j_running[1:].tobytes() == j.tobytes()
