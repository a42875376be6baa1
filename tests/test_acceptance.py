"""Acceptance gate: one test per shipped guarantee, at its stated tolerance.

Every expected value here is recomputed from closed forms derived inside
the test (or measured against the independent grid oracle); nothing is
read back from the solver being checked.  Each test prints the measured
quantities next to their bounds so a failing run names the offending
number directly.
"""

import math

import numpy as np
import pytest

from monopoly_control import (
    ControlSet,
    Curve,
    CyclicPlan,
    ProblemSpec,
    StaticPlan,
    build_hamiltonian,
    build_value,
    builtin_arvan_moses,
    convexified_static,
    cyclic_strategy,
    cyclic_value,
    dp_value,
    drawdown_plan,
    h_at,
    relaxed_static,
    simulate,
    static_optimality_test,
    stationary_plan,
    validate_problem,
)
from monopoly_control import value
from monopoly_control.envelope import fenchel_cost, fenchel_revenue


# ---------------------------------------------------------------------------
# 1. cubic-cost family: zeta and the best mean rate against closed forms

# three triples per regime: static shutdown, mixing band, interior static
_TRIPLES = (
    (0.2, 1.0, 1.0), (0.1, 0.5, 1.2), (0.5, 2.0, 1.6),
    (1.0, 1.0, 1.0), (0.6, 0.5, 0.8), (2.0, 1.5, 0.9),
    (4.0, 0.5, 1.0), (6.0, 1.0, 1.2), (3.0, 0.4, 0.7),
    # interior static rate whose sampled argmax sits cells from the root
    (4.434, 0.582, 1.009),
)


def _cubic_closed_forms(a: float, b: float, k: float) -> tuple:
    """(zeta, u_tilde) for linear demand (a - b q) q against the cubic cost.

    The cost hull is linear with slope k^2/4 up to 3k/2; below that slope
    production shuts down, above it alpha = k + sqrt(z).  Matching the
    demand-side margin a - 2bu yields three parameter regimes split at
    k^2/4 and 3bk + k^2/4.
    """
    t1 = k * k / 4.0
    t2 = 3.0 * b * k + t1
    if a <= t1:
        return a, 0.0
    if a <= t2:
        return t1, (a - t1) / (2.0 * b)
    root = math.sqrt(b * b - 2.0 * b * k + a)
    return (-b + root) ** 2, -b + k + root


def test_criterion_1_cubic_family_closed_forms():
    worst = 0.0
    for a, b, k in _TRIPLES:
        problem = validate_problem(builtin_arvan_moses(a, b, k, beta=0.5))
        model = build_hamiltonian(problem)
        u_num, _ = convexified_static(problem, model)
        zeta_cf, u_cf = _cubic_closed_forms(a, b, k)
        for num, cf, label in ((model.zeta, zeta_cf, "zeta"),
                               (u_num, u_cf, "u_tilde")):
            err = abs(num - cf) / abs(cf) if cf != 0.0 else abs(num)
            worst = max(worst, err)
            assert err <= 1e-6, \
                f"{label} at (a={a}, b={b}, k={k}): {num!r} vs {cf!r}"
    print(f"{len(_TRIPLES)} triples, worst relative error {worst:.3g} "
          f"(bound 1e-6)")


# ---------------------------------------------------------------------------
# 2. static optimality fails exactly on the open mixing band


def test_criterion_2_static_optimality_boundary():
    margin = 1e-3
    checked = skipped = 0
    for a in np.linspace(0.05, 4.0, 20):
        for k in np.linspace(0.2, 2.0, 20):
            t1 = k * k / 4.0
            t2 = 3.0 * k + t1  # b = 1
            if abs(a - t1) < margin or abs(a - t2) < margin:
                skipped += 1
                continue
            problem = validate_problem(
                builtin_arvan_moses(float(a), 1.0, float(k), beta=0.5))
            report = static_optimality_test(problem, build_hamiltonian(problem))
            assert report.optimal == (not t1 < a < t2), \
                (float(a), float(k), report.optimal)
            checked += 1
    print(f"{checked} grid points classified correctly "
          f"({skipped} within {margin} of a band edge, excluded)")
    # and at the edges: 60 draws of (b, k) at a = t (1 +- d), t either
    # edge, where a rate error delta costs only about b delta^2 in value,
    # so only a verdict decided in rates sees it; the relaxed optimum mixes
    # iff the verdict is relaxed
    rng = np.random.default_rng(1)
    draws = zip(rng.uniform(0.4, 2.0, 60).tolist(),
                rng.uniform(0.2, 2.0, 60).tolist())
    edges = 0
    for b, k in draws:
        t1 = k * k / 4.0
        t2 = 3.0 * b * k + t1
        for a in [t * (1.0 + d) for t in (t1, t2)
                  for d in (-1e-6, 1e-6, -1e-9, 1e-9, -1e-12, 1e-12)]:
            problem = validate_problem(builtin_arvan_moses(a, b, k, beta=0.5))
            model = build_hamiltonian(problem)
            report = static_optimality_test(problem, model)
            assert (report.u_tilde, report.relaxed_payoff) \
                == convexified_static(problem, model), (a, b, k)
            rel = relaxed_static(problem, model)
            inside = t1 < a < t2
            assert (report.optimal, rel.sales_mixed or rel.production_mixed) \
                == (not inside, inside), (a, b, k)
            edges += 1
    print(f"{edges} draws within 1e-6 of a band edge classified correctly, "
          f"each beside a relaxed optimum that mixes iff it is relaxed")


# ---------------------------------------------------------------------------
# 3. relaxed mixtures: means and payoff reproduce the convexified optimum


def test_criterion_3_relaxed_mixture_identities(make_random_instance,
                                                am_mid_problem, am_mid_model):
    rng = np.random.default_rng(20260819)
    mixed = 0
    worst = 0.0
    for _ in range(40):
        problem = make_random_instance(rng)
        model = build_hamiltonian(problem)
        rel = relaxed_static(problem, model)
        if rel.sales_mixed or rel.production_mixed:
            mixed += 1
        scale = max(1.0, abs(rel.payoff))
        mean_q = rel.gamma * rel.q1 + (1.0 - rel.gamma) * rel.q2
        mean_a = rel.nu * rel.a1 + (1.0 - rel.nu) * rel.a2
        mixed_payoff = (
            rel.gamma * float(problem.revenue(rel.q1))
            + (1.0 - rel.gamma) * float(problem.revenue(rel.q2))
            - rel.nu * float(problem.cost(rel.a1))
            - (1.0 - rel.nu) * float(problem.cost(rel.a2)))
        for err in (abs(mean_q - rel.u_tilde), abs(mean_a - rel.u_tilde),
                    abs(mixed_payoff - rel.payoff)):
            worst = max(worst, err / scale)
            assert err <= 1e-9 * scale
        for u, cset in ((rel.q1, problem.demand_set),
                        (rel.q2, problem.demand_set),
                        (rel.a1, problem.production_set),
                        (rel.a2, problem.production_set)):
            assert cset.contains(u), f"support point {u} is not admissible"
    assert mixed >= 10, "generator produced too few genuinely mixed instances"

    rel = relaxed_static(am_mid_problem, am_mid_model)
    assert abs(rel.nu - 0.75) <= 1e-6
    assert abs(rel.a1 - 0.0) <= 1e-6
    assert abs(rel.a2 - 1.5) <= 1e-6
    print(f"{mixed}/40 instances mixed, worst identity error {worst:.3g} "
          f"(bound 1e-9); unit instance nu={rel.nu}, "
          f"support=({rel.a1}, {rel.a2})")


# ---------------------------------------------------------------------------
# 4. worked linear-cost instance against its antiderivative


def _psi_closed(xi: float) -> float:
    """Stock map for c=0.2, alpha_bar=0.3, beta=0.5, R = q(1-q).

    On [c, zeta] production is interior, H'(z) = alpha_bar - (1-z)/2, and
    integrating H'(z)/(beta z) from xi to zeta=0.4 is elementary:
    Psi(xi) = -[(alpha_bar - 1/2) ln(zeta/xi) + (zeta - xi)/2] / beta.
    """
    zeta, alpha_bar, beta = 0.4, 0.3, 0.5
    return -((alpha_bar - 0.5) * math.log(zeta / xi)
             + (zeta - xi) / 2.0) / beta


def test_criterion_4_linear_cost_closed_forms(linear_cost_problem,
                                              linear_cost_model,
                                              linear_cost_value):
    vf = linear_cost_value

    psi_03 = _psi_closed(0.3)
    x_hat = _psi_closed(0.2)           # production starts where v'(x) = c
    tau = math.log(0.4 / 0.3) / 0.5    # slope 0.3 rides e^(beta t) to zeta

    # pin the in-test oracle to its frozen decimals before using it
    assert abs(psi_03 - 0.0150728) <= 1e-6
    assert abs(x_hat - 0.0772589) <= 1e-6
    assert abs(tau - 0.5753641) <= 1e-6

    errs = {
        "psi(0.3)": abs(vf.psi(0.3) - psi_03),
        "x_hat": abs(vf.psi(0.2) - x_hat),
        "v(0)": abs(vf.value_at(0.0) - 0.3),
    }
    plan = drawdown_plan(vf, psi_03,
                         stationary_plan(linear_cost_problem, linear_cost_model))
    errs["tau"] = abs(plan.tau - tau)
    for label, err in errs.items():
        assert err <= 1e-6, f"{label} off by {err:.3g}"
    print("  ".join(f"{k}: {v:.3g}" for k, v in errs.items())
          + "  (bound 1e-6 absolute)")


# ---------------------------------------------------------------------------
# 5. grid oracle agrees and tightens under refinement


def _oracle_error(problem, vf, **kw) -> float:
    dp = dp_value(problem, x_max=0.5, **kw)
    xs = dp.x_grid[dp.x_grid <= 0.25 + 1e-12]
    return float(np.max(np.abs(dp.value_at(xs) - vf.value_at(xs))))


@pytest.mark.parametrize("instance", ["linear_cost", "cubic_unit"])
def test_criterion_5_oracle_equivalence(instance, request):
    problem = request.getfixturevalue(
        "linear_cost_problem" if instance == "linear_cost"
        else "am_mid_problem")
    vf = request.getfixturevalue(
        "linear_cost_value" if instance == "linear_cost"
        else "am_mid_value")
    coarse = _oracle_error(problem, vf, nx=512, dt=0.002)
    fine = _oracle_error(problem, vf, nx=1024, dt=0.001, na=129, nq=129)
    assert coarse <= 1e-2, f"coarse oracle error {coarse:.3g}"
    assert coarse / fine >= 1.5, \
        f"refinement ratio {coarse / fine:.3g} (coarse {coarse:.3g}, " \
        f"fine {fine:.3g})"
    print(f"{instance}: coarse {coarse:.3e}, fine {fine:.3e}, "
          f"ratio {coarse / fine:.2f} (bounds: 1e-2, 1.5x)")


# ---------------------------------------------------------------------------
# 6. simulated drawdowns chase the value function; nothing beats it


_INVENTORIES = (0.02, 0.05, 0.1, 0.2, 0.4)
# and these shares of x_resolved, the stock of the value table's last knot
_RESOLVED_SHARES = (0.5, 0.9, 0.99)


def _realized(traj, beta: float, horizon: float) -> float:
    return traj.total + math.exp(-beta * horizon) * traj.tail_rate / beta


def test_criterion_6_simulated_drawdown_optimality(
        linear_cost_problem, linear_cost_model, linear_cost_value,
        am_mid_problem, am_mid_model, am_mid_value):
    horizon = 60.0
    cases = (
        (linear_cost_problem, linear_cost_model, linear_cost_value, None),
        (am_mid_problem, am_mid_model, am_mid_value, 0.005),
    )
    worst_rel, runs = 0.0, 0
    for problem, model, vf, eps in cases:
        beta = problem.beta
        report = static_optimality_test(problem, model)
        for x0 in _INVENTORIES + tuple(share * vf.x_resolved
                                       for share in _RESOLVED_SHARES):
            runs += 1
            v0 = vf.value_at(x0)
            plan = drawdown_plan(vf, x0, stationary_plan(problem, model, eps))
            traj = simulate(problem, plan, horizon=horizon)
            realized = _realized(traj, beta, horizon)
            assert realized <= v0 + 1e-6
            gap = v0 - realized
            worst_rel = max(worst_rel, gap / v0)
            assert gap <= 2e-3 * v0, \
                f"gap {gap:.3g} vs budget {2e-3 * v0:.3g} at x0={x0}"
            # nothing we can actually play may beat the value function
            for u in (report.u_hat, 0.5 * report.u_hat):
                if not (problem.demand_set.contains(u)
                        and problem.production_set.contains(u)):
                    continue
                flat = simulate(problem, StaticPlan(u), horizon=horizon,
                                x0=x0)
                assert _realized(flat, beta, horizon) <= v0 + 1e-6
    print(f"{runs} drawdowns within budget, worst relative gap {worst_rel:.3g} "
          f"(bound 2e-3); no tested plan beat the value function")


# ---------------------------------------------------------------------------
# 7. cyclic realization converges at first order with pinned peak stock


def test_criterion_7_cyclic_first_order(am_mid_problem, am_mid_model,
                                        am_mid_value, referee):
    rel = relaxed_static(am_mid_problem, am_mid_model)
    v0 = am_mid_value.value_at(0.0)
    beta = am_mid_problem.beta
    # the Euler referee scores the relaxed plan under its measure; a step
    # of 0.025/32 puts every phase switch of each cycle on its grid
    run = dict(horizon=5.0, steps=6400)
    j_relaxed = referee(am_mid_problem, rel, **run)
    gaps, ref_gaps = [], []
    for eps in (0.1, 0.05, 0.025):
        plan = cyclic_strategy(am_mid_problem, rel, eps)
        gaps.append(abs(cyclic_value(plan, beta) - v0))
        ref_gaps.append(j_relaxed - referee(am_mid_problem, plan, **run))
        peak_bound = plan.kappa * (rel.a2 - rel.q1) * eps + 1e-9
        assert plan.peak_stock <= peak_bound, \
            f"peak {plan.peak_stock:.3g} above {peak_bound:.3g} at eps={eps}"
    assert gaps[0] > gaps[1] > gaps[2], f"gaps not decreasing: {gaps}"
    orders = [math.log2(gaps[i] / gaps[i + 1]) for i in range(2)]
    assert min(orders) >= 0.9, f"orders {orders}"
    ref_orders = [math.log2(ref_gaps[i] / ref_gaps[i + 1]) for i in range(2)]
    assert min(ref_gaps) > 0.0 and min(ref_orders) >= 0.9, \
        f"referee gaps {ref_gaps}, orders {ref_orders}"
    print(f"gaps {[f'{g:.3e}' for g in gaps]}, "
          f"orders {[f'{o:.3f}' for o in orders]}, referee orders "
          f"{[f'{o:.3f}' for o in ref_orders]} (bound 0.9); "
          f"peak stock within kappa*(a2-q1)*eps")


# ---------------------------------------------------------------------------
# 8. invariant battery on randomized table instances


def _random_ray_instance(rng: np.random.Generator):
    """Tabulated revenue against a cubic cost on an unbounded ray."""
    beta = float(rng.uniform(0.3, 1.5))
    q_hi = float(rng.uniform(0.5, 2.0))
    k = float(rng.uniform(0.3, 1.8))
    n_r = int(rng.integers(4, 10))
    r_xs = np.unique(np.concatenate(
        [[0.0], np.sort(rng.uniform(0.0, q_hi, n_r - 2)), [q_hi]]))
    r_ys = np.concatenate([[0.0], rng.uniform(0.0, 1.2, len(r_xs) - 1)])
    return validate_problem(ProblemSpec(
        beta=beta,
        demand_set=ControlSet.interval(0.0, q_hi),
        production_set=ControlSet.right_ray(0.0),
        revenue=Curve.table(list(zip(r_xs, r_ys))),
        cost=Curve.cubic_cost(k),
    ))


def test_criterion_8_invariant_battery(make_random_instance,
                                       brute_conjugate,
                                       build_hamiltonian_from, monkeypatch):
    rng = np.random.default_rng(88)
    monkeypatch.setattr(value, "_N_XI", 300)
    cycles = 0
    for seed in range(100):
        problem = make_random_instance(rng)
        model = build_hamiltonian(problem)
        vf = build_value(model)
        beta = problem.beta
        scale = max(1.0, abs(model.h_min))

        # running profit function is convex with a non-negative least
        # minimizer
        z_grid = np.linspace(0.0, model.z_max, 257)
        slopes = np.diff(h_at(model, z_grid)) / np.diff(z_grid)
        assert np.all(np.diff(slopes) >= -1e-7 * scale), seed
        assert model.zeta >= 0.0

        # marginal value starts at zeta and strictly decreases
        if not vf.constant:
            assert vf.v_prime(0.0) == vf.zeta
            assert np.all(np.diff(vf.xi_knots) < 0.0), seed

        # the flat ceiling dominates, and the boundary subsolution
        # inequality holds past zeta
        cap = float(h_at(model, 0.0)) / beta
        xs = np.linspace(0.0, 1.25 * vf.x_resolved + 0.1, 40)
        vals = vf.value_at(xs)
        assert np.all(vals <= cap + 1e-9 * max(1.0, abs(cap))), seed
        v0 = vf.value_at(0.0)
        tail = z_grid[z_grid >= model.zeta]
        assert np.all(np.asarray(h_at(model, tail))
                      >= beta * v0 - 1e-7 * scale), seed

        # conjugating the raw samples or their envelope is the same thing
        for env, fen in ((model.rev_env, fenchel_revenue),
                         (model.cost_env, fenchel_cost)):
            kind = "revenue" if env.kind == "concave" else "cost"
            for z in rng.uniform(0.0, model.z_max, 3):
                direct, _ = brute_conjugate(env.xs, env.f, float(z), kind)
                refined = fen(env, float(z)).value
                assert abs(refined - direct) <= 1e-9 * scale, (seed, z)

        # the static verdict agrees with its gap, and an optimal one names
        # an admissible witness
        report = static_optimality_test(problem, model)
        if report.optimal:
            assert report.gap <= 1e-6 * scale, (seed, report)
            assert problem.demand_set.contains(report.witness) \
                and problem.production_set.contains(report.witness), \
                (seed, report)
        else:
            assert report.gap > 0.0, (seed, report)

        # the automatic drawdown plan is playable
        tail = stationary_plan(problem, model)
        if not vf.constant:
            x0 = min(0.1, 0.5 * vf.x_resolved)
            plan = drawdown_plan(vf, x0, tail)
            simulate(problem, plan, horizon=4.0 / beta)

        # a cycle's certificate and simulate sum each period's stock alike:
        # from stock 0 over 16/beta, 1024 default periods, the stock never
        # dips below zero and each period ends at exactly zero (the last
        # may be cut at the horizon inside a phase)
        if isinstance(tail, CyclicPlan):
            cycles += 1
            traj = simulate(problem, tail, horizon=16.0 / beta)
            n = len(tail.phases)
            ends = traj.stock[n::n][:(len(traj.t) - 1) // n]
            assert len(ends) == 1024 and traj.stock.min() >= 0.0, seed
            assert not np.any(ends[:-1]), (seed, np.flatnonzero(ends[:-1]))

    assert cycles >= 70, cycles

    # truncating the production ray anywhere sensible must not move zeta
    worst_shift = 0.0
    for seed in range(100):
        problem = _random_ray_instance(rng)
        m1 = build_hamiltonian(problem)
        m2 = build_hamiltonian_from(problem, 4.0 * m1.trunc_bound)
        assert m2.trunc_bound >= 4.0 * m1.trunc_bound, seed
        shift = abs(m1.zeta - m2.zeta)
        worst_shift = max(worst_shift, shift)
        assert shift <= 1e-10 * max(1.0, m1.zeta), seed
    print(f"100 bounded + 100 ray instances pass all invariants; "
          f"worst zeta shift under retruncation {worst_shift:.3g}")


def test_criterion_8_whole_pipeline_battery(make_random_instance):
    # every stage from the curves to the simulated drawdown on 150 random
    # table instances and 60 tables against a cubic cost on a ray, each
    # model played from 0.1, 0.5, 0.9 and 0.99 of x_resolved for tau + 60:
    # a static tail's total is v(x0), a cycle cannot beat it, and the
    # arc's stock closes at tau
    rng = np.random.default_rng(2026)
    n_tables, n_rays = 150, 60
    worst = {"static": 0.0, "cyclic": 0.0, "stock": 0.0}
    arcs = statics = 0
    for k in range(n_tables + n_rays):
        problem = (make_random_instance(rng) if k < n_tables
                   else _random_ray_instance(rng))
        model = build_hamiltonian(problem)
        vf = build_value(model)
        if vf.constant:
            continue
        beta = problem.beta
        tail = stationary_plan(problem, model)
        for share in (0.1, 0.5, 0.9, 0.99):
            x0 = share * vf.x_resolved
            plan = drawdown_plan(vf, x0, tail)
            horizon = plan.tau + 60.0
            traj = simulate(problem, plan, horizon=horizon)
            total = traj.total + (math.exp(-beta * horizon)
                                  * traj.tail_rate / beta)
            v0 = vf.value_at(x0)
            scale = max(1.0, abs(v0))
            arcs += 1
            if isinstance(plan.tail, StaticPlan):
                statics += 1
                worst["static"] = max(worst["static"], abs(total - v0) / scale)
                assert abs(total - v0) <= 1e-10 * scale, (k, share, total - v0)
            else:
                worst["cyclic"] = max(worst["cyclic"], (total - v0) / scale)
                assert total - v0 <= 1e-10 * scale, (k, share, total - v0)
            end = traj.stock[len(plan.t_knots) - 1]
            worst["stock"] = max(worst["stock"], abs(end) / max(1.0, x0))
            assert abs(end) <= 1e-13 * max(1.0, x0), (k, share, end)
    assert arcs == 4 * (n_tables + n_rays) and statics >= 100
    print(f"{n_tables} table + {n_rays} ray draws, {arcs} arcs ({statics} "
          f"with a static tail); worst relative: " + ", ".join(
              f"{key} {val:.3g}" for key, val in worst.items()))
