"""Static tests, relaxed mixtures, cyclic realizations, drawdown plans."""

import hashlib
import math
from dataclasses import dataclass, replace

import numpy as np
import pytest

from monopoly_control import (
    CyclicPlan,
    DecompositionMismatch,
    DrawdownPlan,
    InvalidParameter,
    RelaxedStatic,
    StaticPlan,
    ZetaZeroWarning,
    build_hamiltonian,
    build_value,
    builtin_arvan_moses,
    convexified_static,
    cyclic_strategy,
    cyclic_value,
    drawdown_plan,
    relaxed_static,
    simulate,
    static_optimality_test,
    stationary_plan,
    validate_problem,
)
from monopoly_control.config import load_problem
from monopoly_control.problem import ControlSet, Curve, ProblemSpec
from monopoly_control.strategy import _hull_payoff, _static_candidate


# ---------------------------------------------------------------------------
# closed-form references for the built-in families; the solver never reads
# them, they exist to be disagreed with


@dataclass(frozen=True)
class AMReference:
    """Closed-form answers for the cubic-cost family."""
    regime: str                 # "i", "ii", or "iii"
    t1: float
    t2: float
    zeta: float
    u_static: float
    static_optimal: bool
    u_tilde: float
    nu: float
    support: tuple


def arvan_moses_reference(a_coef: float, b_coef: float, k: float) -> AMReference:
    """Reference values for demand a - b q and cost a^3/3 - k a^2 + k^2 a.

    Static plans fail exactly for t1 < a < t2 with t1 = k^2/4 and
    t2 = 3 b k + k^2/4; in between the relaxed optimum mixes production
    over {0, 3k/2}.
    """
    A, B, K = float(a_coef), float(b_coef), float(k)
    t1 = K * K / 4.0
    t2 = 3.0 * B * K + K * K / 4.0
    if A <= t1:
        return AMReference(regime="i", t1=t1, t2=t2, zeta=A, u_static=0.0,
                           static_optimal=True, u_tilde=0.0, nu=1.0,
                           support=(0.0, 0.0))
    if A >= t2:
        root = math.sqrt(B * B - 2.0 * B * K + A)
        zeta = (-B + root) ** 2
        u = -B + K + root
        return AMReference(regime="iii", t1=t1, t2=t2, zeta=zeta, u_static=u,
                           static_optimal=True, u_tilde=u, nu=1.0,
                           support=(u, u))
    zeta = t1
    u_tilde = (A - t1) / (2.0 * B)
    nu = 1.0 - 2.0 * u_tilde / (3.0 * K)
    return AMReference(regime="ii", t1=t1, t2=t2, zeta=zeta, u_static=u_tilde,
                       static_optimal=False, u_tilde=u_tilde, nu=nu,
                       support=(0.0, 1.5 * K))


@dataclass(frozen=True)
class LinearCostReference:
    """Closed-form answers for the affine-cost family."""
    zeta: float
    u_static: float
    x_hat: float


def linear_cost_reference(c: float, alpha_bar: float, q_bar: float,
                          a_coef: float, b_coef: float, beta: float) -> LinearCostReference:
    """Reference values for demand a - b q on [0, q_bar], cost c per unit
    on [0, alpha_bar], assuming q_bar does not bind at the optimum.

    zeta = min(a, max(c, a - 2 b alpha_bar)); production stops once stock
    exceeds x_hat, the stock level at which the marginal value drops to c.
    """
    A, B = float(a_coef), float(b_coef)
    c, alpha_bar, beta = float(c), float(alpha_bar), float(beta)
    zeta = min(A, max(c, A - 2.0 * B * alpha_bar))
    u_static = min((A - zeta) / (2.0 * B), q_bar)
    if zeta <= c:
        x_hat = 0.0
    else:
        x_hat = -(1.0 / beta) * ((alpha_bar - A / (2.0 * B)) * math.log(zeta / c)
                                 + (zeta - c) / (2.0 * B))
    return LinearCostReference(zeta=zeta, u_static=u_static, x_hat=x_hat)


# ---------------------------------------------------------------------------


def test_linear_cost_static_is_optimal(linear_cost_problem, linear_cost_model):
    rep = static_optimality_test(linear_cost_problem, linear_cost_model)
    assert rep.optimal
    assert rep.u_hat == pytest.approx(0.3, abs=1e-10)
    assert rep.payoff == pytest.approx(0.15, abs=1e-12)
    assert rep.gap == pytest.approx(0.0, abs=1e-10)
    assert rep.witness == pytest.approx(0.3, abs=1e-6)


def test_linear_cost_convexified_matches_static(linear_cost_problem, linear_cost_model):
    u, payoff = convexified_static(linear_cost_problem, linear_cost_model)
    assert u == pytest.approx(0.3, abs=1e-10)
    assert payoff == pytest.approx(0.15, abs=1e-12)


def test_am_mid_static_fails(am_mid_problem, am_mid_model):
    rep = static_optimality_test(am_mid_problem, am_mid_model)
    assert not rep.optimal
    # running profit R(u) - C(u) = -u^3/3 peaks at zero production
    assert rep.u_hat == pytest.approx(0.0, abs=1e-10)
    assert rep.payoff == pytest.approx(0.0, abs=1e-12)
    assert rep.gap == pytest.approx(0.140625, abs=1e-9)


def test_finite_production_verdict_agrees_with_gap():
    # the only static rate in Q n A = {0, 0.7} earns nothing while min H is
    # 0.140625, so no constant rate is optimal and the verdict must say so
    spec = builtin_arvan_moses(1.0, 1.0, 1.0, 0.5)
    spec = ProblemSpec(beta=spec.beta, demand_set=spec.demand_set,
                       production_set=ControlSet.finite((0.0, 0.7, 1.5)),
                       revenue=spec.revenue, cost=spec.cost)
    problem = validate_problem(spec)
    rep = static_optimality_test(problem, build_hamiltonian(problem))
    assert rep.gap == pytest.approx(0.140625, abs=1e-9)
    assert not rep.optimal
    assert rep.witness is None


@pytest.mark.parametrize("overrides", [
    ["revenue.A=252999.8", "revenue.B=1", "cost.K=1000",
     "sets.q=interval 0 252999.8"],
    # the same problem with stock 1000 and money 1e9 times smaller
    ["revenue.A=0.2529998", "revenue.B=0.001", "cost.K=1",
     "sets.q=interval 0 252.9998"]])
def test_static_verdict_holds_at_large_scale(configs_dir, overrides):
    # the best constant rate misses the tangency at 1.5 K by 2e-7 K, so its
    # gap is 4.4e-9 of min H, far above rounding: static play is not
    # optimal in either unit
    problem = validate_problem(load_problem(
        configs_dir / "arvan_moses_mid.cfg", overrides))
    model = build_hamiltonian(problem)
    rep = static_optimality_test(problem, model)
    assert rep.gap > 4e-9 * model.h_min
    assert not rep.optimal
    assert rep.witness is None


def test_am_mid_relaxed_mixture(am_mid_problem, am_mid_model):
    u, payoff = convexified_static(am_mid_problem, am_mid_model)
    assert u == pytest.approx(0.375, abs=1e-9)
    assert payoff == pytest.approx(0.140625, abs=1e-10)
    rel = relaxed_static(am_mid_problem, am_mid_model, u)
    assert not rel.sales_mixed
    assert rel.production_mixed
    assert rel.a1 == pytest.approx(0.0, abs=1e-9)
    assert rel.a2 == pytest.approx(1.5, abs=1e-8)
    assert rel.nu == pytest.approx(0.75, abs=1e-8)
    assert rel.q1 == rel.q2 == pytest.approx(0.375, abs=1e-9)
    # mixture means agree with each other and the argmax
    a_mean = rel.nu * rel.a1 + (1.0 - rel.nu) * rel.a2
    q_mean = rel.gamma * rel.q1 + (1.0 - rel.gamma) * rel.q2
    assert a_mean == pytest.approx(rel.u_tilde, abs=1e-9)
    assert q_mean == pytest.approx(rel.u_tilde, abs=1e-9)
    assert rel.payoff == pytest.approx(0.140625, abs=1e-10)


def test_am_high_relaxed_collapses_to_point(am_high_problem, am_high_model):
    u, _ = convexified_static(am_high_problem, am_high_model)
    u_star = -0.5 + 1.0 + math.sqrt(0.25 - 1.0 + 4.0)
    assert u == pytest.approx(u_star, rel=1e-9)
    assert abs(u - u_star) <= math.ulp(u_star)
    rel = relaxed_static(am_high_problem, am_high_model, u)
    assert not rel.production_mixed and not rel.sales_mixed


def test_static_candidate_prefers_smallest_tie(am_mid_problem):
    u, payoff = _static_candidate(am_mid_problem)
    assert u == 0.0
    assert payoff == 0.0


def test_static_candidate_finds_interior_root():
    # regime iii: the static rate is the root -b + k + sqrt(b^2 - 2bk + a)
    # of the profit slope, not a grid point or a derivative-free estimate
    # on the flat top of the profit
    rng = np.random.default_rng(3)
    triples = [(4.723, 1.201, 0.312), (1.855, 0.318, 0.596)]
    while len(triples) < 40:
        a, b, k = rng.uniform((0.1, 0.3, 0.2), (6.0, 2.0, 2.0))
        if a >= 3.0 * b * k + k * k / 4.0:
            triples.append((float(a), float(b), float(k)))
    for a, b, k in triples:
        u, _ = _static_candidate(validate_problem(
            builtin_arvan_moses(a, b, k, beta=0.5)))
        u_cf = -b + k + math.sqrt(b * b - 2.0 * b * k + a)
        assert u == pytest.approx(u_cf, rel=1e-12), (a, b, k)


def test_static_candidate_is_exact_at_any_grid_n():
    # linear demand A = B = 1 on [0, 1] against a cost table on [0, 2]:
    # R' - C' = 0.6 - 2u on the table's first cell, so the best rate is
    # 0.4, read from the root with no sample grid at all
    problem = validate_problem(ProblemSpec(
        beta=0.5, demand_set=ControlSet.interval(0.0, 1.0),
        production_set=ControlSet.interval(0.0, 2.0),
        revenue=Curve.linear_demand_revenue(1.0, 1.0),
        cost=Curve.table([(0.0, 0.0), (0.5, 0.1), (1.0, 0.3), (2.0, 1.0)])))
    rep = static_optimality_test(problem, build_hamiltonian(problem))
    assert rep.optimal and rep.witness == rep.u_hat == 0.4
    assert rep.gap == 0.0


def _random_table(rng, hi: float, revenue: bool) -> Curve:
    """A table on [0, hi] from 0: any non-negative values for a revenue,
    non-decreasing ones for a cost."""
    n = int(rng.integers(3, 9))
    xs = np.unique(np.concatenate([[0.0], rng.uniform(0.0, hi, n - 2), [hi]]))
    ys = (rng.uniform(0.0, 1.2, len(xs) - 1) if revenue
          else np.cumsum(rng.uniform(0.0, 0.6, len(xs) - 1)))
    return Curve.table(zip(xs, np.concatenate([[0.0], ys])))


def _mixed_instances():
    """Seeded problems that pair a smooth curve with a table, or a table
    revenue with an affine cost: 30 of each."""
    rng = np.random.default_rng(29)
    out = []
    for _ in range(30):
        a, b = rng.uniform(0.5, 3.0), rng.uniform(0.3, 2.0)
        q_hi, a_hi = rng.uniform(0.3, 1.0) * a / b, rng.uniform(0.5, 3.0)
        out.append(ProblemSpec(
            beta=0.5, demand_set=ControlSet.interval(0.0, q_hi),
            production_set=ControlSet.interval(0.0, a_hi),
            revenue=Curve.linear_demand_revenue(a, b),
            cost=_random_table(rng, a_hi, False)))
    for _ in range(30):
        q_hi = rng.uniform(0.5, 3.0)
        out.append(ProblemSpec(
            beta=0.5, demand_set=ControlSet.interval(0.0, q_hi),
            production_set=ControlSet.right_ray(0.0),
            revenue=_random_table(rng, q_hi, True),
            cost=Curve.cubic_cost(rng.uniform(0.2, 2.0))))
    for _ in range(30):
        q_hi, a_hi = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.5)
        out.append(ProblemSpec(
            beta=0.5, demand_set=ControlSet.interval(0.0, q_hi),
            production_set=ControlSet.interval(0.0, a_hi),
            revenue=_random_table(rng, q_hi, True),
            cost=Curve.affine_cost(rng.uniform(0.1, 1.5))))
    return out


def test_static_answer_on_mixed_curves():
    # the best rate is never beaten by 2^16 samples of Q n A beyond
    # rounding, and the verdict agrees with the gap printed next to it
    verdicts = []
    for i, spec in enumerate(_mixed_instances()):
        problem = validate_problem(spec)
        model = build_hamiltonian(problem)
        rep = static_optimality_test(problem, model)
        q, a = problem.demand_set, problem.production_set
        us = np.linspace(0.0, min(q.hi, a.hi), 2**16)
        r, c = problem.revenue(us), problem.cost(us)
        best = float((r - c).max())
        assert rep.payoff >= best - 1e-12 * float((r + c).max()), i
        assert q.contains(rep.u_hat) and a.contains(rep.u_hat), i
        if rep.optimal:
            terms = (problem.revenue(rep.u_hat) + problem.cost(rep.u_hat)
                     + 2.0 * model.zeta * rep.u_hat)
            assert abs(rep.gap) <= 2e-12 * terms, i
        else:
            assert rep.gap > 0.0, i
        verdicts.append(rep.optimal)
    assert 0 < sum(verdicts) < len(verdicts)


def test_cyclic_plan_frozen_shape(am_mid_problem, am_mid_model):
    u, _ = convexified_static(am_mid_problem, am_mid_model)
    rel = relaxed_static(am_mid_problem, am_mid_model, u)
    plan = cyclic_strategy(am_mid_problem, rel, 0.25)
    assert isinstance(plan, CyclicPlan)
    assert plan.kappa == pytest.approx(0.25, abs=1e-9)
    assert plan.peak_stock == pytest.approx(0.0703125, abs=1e-10)
    assert plan.mean_payoff == pytest.approx(0.140625, abs=1e-10)
    # two phases: produce hard first, then sell down
    assert len(plan.phases) == 2
    t0, t1, a, q, rate = plan.phases[0]
    assert (t0, t1) == pytest.approx((0.0, 0.0625), abs=1e-10)
    assert a == pytest.approx(1.5, abs=1e-8)
    assert q == pytest.approx(0.375, abs=1e-9)
    assert rate == pytest.approx(-0.140625, abs=1e-8)
    # net stock change over a full period is zero
    net = sum((a - q) * (t1 - t0) for t0, t1, a, q, _ in plan.phases)
    assert net == pytest.approx(0.0, abs=1e-12)


def test_cyclic_value_closed_form(am_mid_problem, am_mid_model):
    u, _ = convexified_static(am_mid_problem, am_mid_model)
    rel = relaxed_static(am_mid_problem, am_mid_model, u)
    plan = cyclic_strategy(am_mid_problem, rel, 0.25)
    assert cyclic_value(plan, 0.5) == pytest.approx(0.2723715670029071,
                                                    abs=1e-12)
    with pytest.raises(InvalidParameter, match="discount rate must be positive"):
        cyclic_value(plan, 0.0)


def test_cyclic_gap_shrinks_linearly(am_mid_problem, am_mid_model,
                                     am_mid_value):
    u, _ = convexified_static(am_mid_problem, am_mid_model)
    rel = relaxed_static(am_mid_problem, am_mid_model, u)
    v0 = am_mid_value.value_at(0.0)
    gaps = []
    for eps in (0.2, 0.1, 0.05):
        plan = cyclic_strategy(am_mid_problem, rel, eps)
        gaps.append(v0 - cyclic_value(plan, 0.5))
    assert all(g > 0 for g in gaps)
    assert gaps[0] > gaps[1] > gaps[2]
    # halving eps should nearly halve the gap
    assert gaps[0] / gaps[1] == pytest.approx(2.0, rel=0.1)


@pytest.mark.parametrize("lam", [1.0, 1e-6, 1e-9, 1e-12])
def test_cycle_check_scales_with_goods(am_mid_problem, am_mid_model, lam):
    # the relaxed optimum with every rate scaled by lam is the same cycle in
    # smaller units of goods: it simulates with stock never below zero, and
    # with production 5 % short of sales it never returns stock to zero
    rel = relaxed_static(am_mid_problem, am_mid_model)
    scaled = replace(rel, u_tilde=lam * rel.u_tilde, q1=lam * rel.q1,
                     q2=lam * rel.q2, a1=lam * rel.a1, a2=lam * rel.a2)
    plan = cyclic_strategy(am_mid_problem, scaled)
    traj = simulate(am_mid_problem, plan, horizon=30.0)
    assert traj.stock.min() == 0.0
    assert traj.stock.max() == pytest.approx(plan.peak_stock, rel=1e-12)
    short = replace(scaled, a1=0.95 * scaled.a1, a2=0.95 * scaled.a2)
    with pytest.raises(DecompositionMismatch, match="return stock to zero"):
        cyclic_strategy(am_mid_problem, short)


# arvan_moses_high with Q = [0, 3] 1e-9 inside the mixing band's top edge
# t2 = 1.75: the production mixture weighs 0 by 1.2e-9, so the cycle's peak
# is 5.5e-11 while its net over a period is the rounding of the rate 1.5
BAND_EDGE = ("sets.q=interval 0 3", "revenue.A=1.74999999825")


def test_cycle_fields_match_the_phase_loop(configs_dir, make_random_instance,
                                           reference_cycle):
    # phases, kappa, peak_stock and mean_payoff keep the bits of the loop
    # that summed a cycle phase by phase, on every shipped config at five
    # discount rates, a cycle 1e-9 inside the band edge that the loop's own
    # closing rule refused, and 150 seeded tables from each of two seeds
    problems = [validate_problem(load_problem(cfg, [f"problem.beta={beta}"]))
                for cfg in sorted(configs_dir.glob("*.cfg"))
                for beta in (0.3, 0.5, 0.7, 1.3, 1.5)]
    problems.append(validate_problem(load_problem(
        configs_dir / "arvan_moses_high.cfg", BAND_EDGE)))
    for seed in (88, 11):
        rng = np.random.default_rng(seed)
        problems += [make_random_instance(rng) for _ in range(150)]
    cycles = 0
    for k, problem in enumerate(problems):
        model = build_hamiltonian(problem)
        rel = relaxed_static(problem, model)
        # hull_decompose's checks on both mixtures bound the mixed payoff
        # against the convexified one by the readings the weights mix
        r1, r2 = (float(problem.revenue(q)) for q in (rel.q1, rel.q2))
        c1, c2 = (float(problem.cost(a)) for a in (rel.a1, rel.a2))
        assert abs(rel.payoff - _hull_payoff(model, rel.u_tilde)) <= 1e-6 * (
            abs(r1) + abs(r2) + abs(c1) + abs(c2)), k
        for eps in (None, 0.05):
            plan = cyclic_strategy(problem, rel, eps)
            if isinstance(plan, StaticPlan):
                assert not (rel.sales_mixed or rel.production_mixed), k
                continue
            cycles += 1
            assert (plan.phases, plan.kappa, plan.peak_stock,
                    plan.mean_payoff) == reference_cycle(problem, rel,
                                                         plan.eps), (k, eps)
    assert cycles >= 400, cycles


def test_cyclic_degenerate_mixture_returns_static(linear_cost_problem, linear_cost_model):
    u, _ = convexified_static(linear_cost_problem, linear_cost_model)
    rel = relaxed_static(linear_cost_problem, linear_cost_model, u)
    plan = cyclic_strategy(linear_cost_problem, rel, 0.1)
    assert isinstance(plan, StaticPlan)
    assert plan.u == pytest.approx(0.3, abs=1e-10)


def test_stationary_plan_static_or_cycle(linear_cost_problem, linear_cost_model,
                                        am_mid_problem, am_mid_model):
    # a static-optimal problem runs its witness; otherwise the relaxed
    # optimum cycles at the default period (1/beta)/64, or at eps if given
    plan = stationary_plan(linear_cost_problem, linear_cost_model)
    rep = static_optimality_test(linear_cost_problem, linear_cost_model)
    assert plan == StaticPlan(rep.witness)
    rel = relaxed_static(am_mid_problem, am_mid_model)
    plan = stationary_plan(am_mid_problem, am_mid_model)
    assert isinstance(plan, CyclicPlan)
    assert plan.eps == (1.0 / am_mid_problem.beta) / 64.0
    assert plan.phases == cyclic_strategy(am_mid_problem, rel).phases
    plan = stationary_plan(am_mid_problem, am_mid_model, 0.05)
    assert plan.phases == cyclic_strategy(am_mid_problem, rel, 0.05).phases
    # with eps the cycle is built even where the static plan is optimal;
    # linear_cost's mixtures are degenerate, so it collapses to u_tilde
    plan = stationary_plan(linear_cost_problem, linear_cost_model, 0.05)
    assert plan == StaticPlan(relaxed_static(linear_cost_problem,
                                             linear_cost_model).u_tilde)


def test_drawdown_linear_cost(linear_cost_problem, linear_cost_model, linear_cost_value):
    plan = drawdown_plan(linear_cost_value, 0.2,
                         stationary_plan(linear_cost_problem, linear_cost_model))
    assert isinstance(plan, DrawdownPlan)
    xi0 = linear_cost_value.v_prime(0.2)
    assert plan.tau == pytest.approx(math.log(0.4 / xi0) / 0.5, abs=1e-12)
    a0, q0 = plan.a_knots[0], plan.q_knots[0]
    # above the threshold stock, production is off and sales follow
    # the marginal-revenue inverse
    assert a0 == 0.0
    assert q0 == pytest.approx((1.0 - xi0) / 2.0, abs=1e-8)
    assert plan.x_knots[0] == 0.2
    assert plan.x_knots[-1] == 0.0
    assert np.all(np.diff(plan.x_knots) < 1e-12)
    # tail hands over to the optimal static rate
    assert isinstance(plan.tail, StaticPlan)
    assert plan.tail.u == pytest.approx(0.3, abs=1e-10)
    _, ((_, _, a_tail, q_tail, _),), _ = plan.tail.segments(linear_cost_problem)
    assert a_tail == q_tail == pytest.approx(0.3, abs=1e-10)


def test_drawdown_production_resumes_below_threshold(linear_cost_problem,
                                                     linear_cost_model, linear_cost_value):
    plan = drawdown_plan(linear_cost_value, 0.2,
                         stationary_plan(linear_cost_problem, linear_cost_model))
    x_hat = linear_cost_value.psi(0.2)
    inside = plan.a_knots[plan.x_knots < x_hat * 0.9]
    a = inside[len(inside) // 2]
    assert a == pytest.approx(0.3, abs=1e-10)


def test_drawdown_from_zero_returns_tail(am_mid_problem, am_mid_model,
                                         am_mid_value):
    tail = stationary_plan(am_mid_problem, am_mid_model, 0.125)
    plan = drawdown_plan(am_mid_value, 0.0, tail)
    assert plan is tail
    assert isinstance(plan, CyclicPlan)
    assert plan.eps == 0.125


def test_drawdown_zeta_zero_warns():
    spec = ProblemSpec(
        beta=0.5,
        demand_set=ControlSet.interval(0.0, 1.0),
        production_set=ControlSet.interval(0.0, 1.0),
        revenue=Curve.table([(0.0, 0.0), (1.0, 0.0)]),
        cost=Curve.affine_cost(0.3),
    )
    problem = validate_problem(spec)
    model = build_hamiltonian(problem)
    vf = build_value(model)
    with pytest.warns(ZetaZeroWarning):
        plan = drawdown_plan(vf, 0.7, stationary_plan(problem, model))
    assert isinstance(plan, StaticPlan)
    assert plan.u == 0.0


def test_drawdown_first_row_reads_the_rate_at_v_prime():
    # a mixed-scale draw whose v'(x0) lies a relative 5.5e-11 below a kink
    # of H: the first row sells what the demand's arc attains at v'(x0)
    # itself, not the rate at the kink
    a_coef, b_coef = 225323.97462098196, 216.06600625225946
    problem = validate_problem(ProblemSpec(
        beta=0.002514475524967138,
        demand_set=ControlSet.interval(0.0, 536.5495102547998),
        production_set=ControlSet.interval(0.0, 19779.847924836307),
        revenue=Curve.linear_demand_revenue(a_coef, b_coef),
        cost=Curve.table([(0.0, 0.0),
                          (13420.862348717654, 52437.47215193458),
                          (167800.32542854553, 76427.69802233209)])))
    model = build_hamiltonian(problem)
    plan = drawdown_plan(build_value(model), 1.1313238889911894e-05,
                         stationary_plan(problem, model))
    xi0 = plan.xi_knots[0]
    assert plan.q_knots[0] == (a_coef - xi0) / (2.0 * b_coef)


def test_drawdown_refuses_stock_whose_slope_underflows(linear_cost_problem,
                                                       linear_cost_model,
                                                       linear_cost_value):
    # stock past the last knot of the table is played: the arc's first
    # cell reaches down to v'(x0) and its stock closes at tau; only stock
    # whose v' underflows is refused
    vf, problem = linear_cost_value, linear_cost_problem
    tail = stationary_plan(problem, linear_cost_model)
    for x0 in (vf.x_resolved, vf.x_resolved * (1.0 + 1e-9), 100.0):
        plan = drawdown_plan(vf, x0, tail)
        assert plan.x0 == x0 and plan.xi_knots[0] == vf.v_prime(x0)
        traj = simulate(problem, plan, horizon=plan.tau + 60.0)
        assert traj.stock[len(plan.t_knots) - 1] == 0.0
        total = traj.total + (math.exp(-problem.beta * traj.horizon)
                              * traj.tail_rate / problem.beta)
        assert total == pytest.approx(vf.value_at(x0), rel=1e-12)
    with pytest.raises(InvalidParameter, match="underflows"):
        drawdown_plan(vf, 1e6, tail)


def test_drawdown_first_row_beside_a_kink(configs_dir):
    # the first row holds the controls of the cell the arc starts in,
    # read at v'(x0) itself: below zeta nothing is produced at a tiny
    # discount rate
    problem = validate_problem(load_problem(
        configs_dir / "arvan_moses_mid.cfg", ["problem.beta=1e-6"]))
    model = build_hamiltonian(problem)
    vf = build_value(model)
    tail = stationary_plan(problem, model)
    for x0 in (1e-4, 1e-3):
        plan = drawdown_plan(vf, x0, tail)
        assert plan.xi_knots[0] < model.zeta and plan.a_knots[0] == 0.0, x0
    # either side of each kink of H on tables: below a kink the controls
    # below it, above a kink those above it
    problem = validate_problem(load_problem(configs_dir / "table_curves.cfg"))
    model = build_hamiltonian(problem)
    vf = build_value(model)
    tail = stationary_plan(problem, model)
    kinks = np.flatnonzero(np.any(vf._sides[:2] != vf._sides[2:], axis=0))
    assert kinks[0] == 0 and len(kinks) == 3        # zeta, then two below
    for k in kinks[1:]:
        for share in (1.0 + 1e-12, 1.0 - 1e-12):
            plan = drawdown_plan(vf, vf.psi_knots[k] * share, tail)
            xi0 = plan.xi_knots[0]
            assert 0.0 < abs(xi0 / vf.xi_knots[k] - 1.0) < 1e-9
            want = vf._sides[:2, k] if xi0 < vf.xi_knots[k] else vf._sides[2:, k]
            assert (plan.a_knots[0], plan.q_knots[0]) == tuple(want), (k, share)


def test_drawdown_ends_on_its_last_knot_time(configs_dir):
    # tau and the last knot time are one number: ln(zeta / xi0) / beta
    # read once.  Here math.log and np.log once differed by an ulp
    problem = validate_problem(load_problem(
        configs_dir / "table_curves.cfg", ["problem.beta=0.37"]))
    model = build_hamiltonian(problem)
    plan = drawdown_plan(build_value(model), 0.01,
                         stationary_plan(problem, model))
    assert plan.tau == plan.t_knots[-1] == 0.019999999999999893


def test_am_reference_regimes():
    # the solver against the closed forms, one triple per regime
    for abk, regime in (((1.0, 1.0, 1.0), "ii"), ((0.2, 1.0, 1.0), "i"),
                        ((4.0, 0.5, 1.0), "iii")):
        ref = arvan_moses_reference(*abk)
        assert ref.regime == regime
        problem = validate_problem(builtin_arvan_moses(*abk, beta=0.5))
        model = build_hamiltonian(problem)
        assert model.zeta == pytest.approx(ref.zeta, rel=1e-9), abk
        rep = static_optimality_test(problem, model)
        assert rep.optimal == ref.static_optimal, abk
        if ref.static_optimal:
            assert rep.u_hat == pytest.approx(ref.u_static, abs=1e-9), abk
        rel = relaxed_static(problem, model)
        assert rel.u_tilde == pytest.approx(ref.u_tilde, abs=1e-9), abk
        assert rel.nu == pytest.approx(ref.nu, abs=1e-8), abk
        assert (rel.a1, rel.a2) == pytest.approx(ref.support, abs=1e-8), abk


def test_linear_cost_reference_matches_solver(linear_cost_model, linear_cost_value):
    ref = linear_cost_reference(0.2, 0.3, 1.0, 1.0, 1.0, 0.5)
    assert ref.zeta == pytest.approx(linear_cost_model.zeta, abs=1e-9)
    assert ref.u_static == pytest.approx(0.3, abs=1e-12)
    assert ref.x_hat == pytest.approx(linear_cost_value.psi(0.2), abs=1e-9)


def test_drawdown_relaxed_tail_runs_mean_rates(am_mid_problem, am_mid_model,
                                               am_mid_value):
    plan = drawdown_plan(am_mid_value, 0.2,
                         relaxed_static(am_mid_problem, am_mid_model))
    rel = plan.tail
    assert isinstance(rel, RelaxedStatic)
    mean_a = rel.nu * rel.a1 + (1.0 - rel.nu) * rel.a2
    mean_q = rel.gamma * rel.q1 + (1.0 - rel.gamma) * rel.q2
    period, ((t0, t1, a, q, rate),), mean_rate = rel.segments(am_mid_problem)
    assert (period, t0, t1) == (math.inf, 0.0, math.inf)
    assert (a, q) == (mean_a, mean_q)
    assert rate == mean_rate == rel.payoff
    assert mean_a == pytest.approx(0.375, abs=1e-9)
    assert mean_q == pytest.approx(0.375, abs=1e-9)


def test_drawdown_matches_per_knot_reference(drawdown_cases,
                                             reference_drawdown, configs_dir):
    # the array layout and the one batch of readings give the plan of the
    # per-knot loop, bit for bit, with and without a forced cycle period.
    # On arvan_moses_mid at beta 1e-6, xi0 at x0 = 1e-4 falls in the tie
    # band below the kink at zeta, 1e-3 outside it
    p = validate_problem(load_problem(configs_dir / "arvan_moses_mid.cfg",
                                      ["problem.beta=1e-6"]))
    m = build_hamiltonian(p)
    tie = ("arvan_moses_mid@1e-6", p, m, build_value(m), (1e-4, 1e-3))
    crossed = 0
    for label, problem, model, vf, stocks in [*drawdown_cases, tie]:
        for eps in (None, 0.05):
            tail = stationary_plan(problem, model, eps)
            for x0 in stocks:
                got = drawdown_plan(vf, x0, tail)
                want = reference_drawdown(vf, x0, tail)
                assert (got.x0, got.tau, got.tail) == (want.x0, want.tau, tail)
                for f in ("t_knots", "x_knots", "a_knots", "q_knots",
                          "xi_knots"):
                    assert getattr(got, f).tobytes() == \
                        getattr(want, f).tobytes(), (label, eps, x0, f)
                crossed += bool(np.any(np.diff(got.t_knots) == 0.0))
    assert crossed >= 20        # plans that cross kinks of H are in


# sha256 of the static verdicts (numpy bool bytes, 44 of them optimal) on
# the seeded_table_models; merging tied hull edges changed none of them
TABLE_VERDICTS = \
    "23cb3622ab76e33733a28b3e8ad091ca6f9deae9bfbbc8a3be0dfc5a29eaa56c"


def test_table_static_verdicts_pinned(seeded_table_models):
    optimal = []
    for k, (problem, model) in enumerate(seeded_table_models):
        report = static_optimality_test(problem, model)
        # the verdict agrees with the gap it prints next to it
        tol = 1e-6 * max(1.0, abs(model.h_min))
        assert report.optimal == (report.gap <= tol), k
        optimal.append(report.optimal)
    digest = hashlib.sha256(np.array(optimal).tobytes()).hexdigest()
    assert digest == TABLE_VERDICTS
