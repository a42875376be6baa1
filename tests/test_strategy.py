"""Static tests, relaxed mixtures, cyclic realizations, drawdown plans."""

import math
from dataclasses import dataclass

import numpy as np
import pytest

from monopoly_control import (
    CyclicPlan,
    DrawdownPlan,
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
    static_candidate,
    static_optimality_test,
    validate_problem,
)
from monopoly_control.problem import ControlSet, Curve, ProblemSpec


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
    u, payoff = static_candidate(am_mid_problem)
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
        u, _ = static_candidate(validate_problem(
            builtin_arvan_moses(a, b, k, beta=0.5)))
        u_cf = -b + k + math.sqrt(b * b - 2.0 * b * k + a)
        assert u == pytest.approx(u_cf, rel=1e-12), (a, b, k)


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


def test_cyclic_degenerate_mixture_returns_static(linear_cost_problem, linear_cost_model):
    u, _ = convexified_static(linear_cost_problem, linear_cost_model)
    rel = relaxed_static(linear_cost_problem, linear_cost_model, u)
    plan = cyclic_strategy(linear_cost_problem, rel, 0.1)
    assert isinstance(plan, StaticPlan)
    assert plan.u == pytest.approx(0.3, abs=1e-10)


def test_drawdown_linear_cost(linear_cost_problem, linear_cost_model, linear_cost_value):
    plan = drawdown_plan(linear_cost_problem, linear_cost_value, linear_cost_model, 0.2)
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
    plan = drawdown_plan(linear_cost_problem, linear_cost_value, linear_cost_model, 0.2)
    x_hat = linear_cost_value.psi(0.2)
    inside = plan.a_knots[plan.x_knots < x_hat * 0.9]
    a = inside[len(inside) // 2]
    assert a == pytest.approx(0.3, abs=1e-10)


def test_drawdown_from_zero_returns_tail(am_mid_problem, am_mid_model,
                                         am_mid_value):
    plan = drawdown_plan(am_mid_problem, am_mid_value, am_mid_model, 0.0,
                         tail="cyclic", eps=0.125)
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
        plan = drawdown_plan(problem, vf, model, 0.7)
    assert isinstance(plan, StaticPlan)
    assert plan.u == 0.0


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
    plan = drawdown_plan(am_mid_problem, am_mid_value, am_mid_model, 0.2,
                         tail="relaxed")
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
