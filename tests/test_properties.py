"""Randomized invariant checks across the full pipeline.

Each seed builds a random tabulated instance and pushes it through
envelope, Hamiltonian, value, and strategy construction, asserting the
structural facts that must hold for any admissible problem.
"""

import math

import numpy as np
import pytest

from monopoly_control import (
    build_hamiltonian,
    build_value,
    builtin_arvan_moses,
    convexified_static,
    cyclic_strategy,
    cyclic_value,
    h_at,
    relaxed_static,
    simulate,
    static_optimality_test,
    validate_problem,
)
from monopoly_control import value
from monopoly_control.envelope import fenchel_cost, fenchel_revenue
from monopoly_control.strategy import StaticPlan, _static_candidate
from test_envelope import _hull_at_knots

N_SEEDS = 30


@pytest.fixture(scope="module")
def solved_instances(make_random_instance):
    rng = np.random.default_rng(91171)
    out = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(value, "_N_XI", 400)
        for _ in range(N_SEEDS):
            problem = make_random_instance(rng)
            model = build_hamiltonian(problem)
            vf = build_value(model)
            out.append((problem, model, vf))
    return out


def _h_grid(model) -> tuple:
    """(z, H(z)) on 257 points spanning [0, z_max]."""
    zs = np.linspace(0.0, model.z_max, 257)
    return zs, h_at(model, zs)


def test_hamiltonian_convex_and_zeta_nonneg(solved_instances):
    for _, model, _ in solved_instances:
        z_grid, H = _h_grid(model)
        scale = max(1.0, float(np.abs(H).max()))
        slopes = np.diff(H) / np.diff(z_grid)
        assert np.all(np.diff(slopes) >= -1e-7 * scale)
        assert model.zeta >= 0.0
        assert model.zeta <= model.m_hi


def test_value_shape(solved_instances):
    for _, model, vf in solved_instances:
        assert vf.v_prime(0.0) == vf.zeta
        flat_bound = vf.v_flat + 1e-9 * max(1.0, abs(vf.v_flat))
        if vf.constant:
            assert vf.value_at(1.0) <= flat_bound
            continue
        assert np.all(np.diff(vf.xi_knots) < 0.0)
        assert np.all(np.diff(vf.psi_knots) > 0.0)
        xs = vf.psi_knots[:: max(1, len(vf.psi_knots) // 17)]
        vals = vf.value_at(xs)
        assert np.all(np.diff(vals) >= -1e-12)
        assert np.all(vals <= flat_bound)


def test_boundary_subsolution(solved_instances):
    # beta v(0) never exceeds H at or beyond the least minimizer
    for _, model, vf in solved_instances:
        beta = model.problem.beta
        z_grid, H = _h_grid(model)
        tail = z_grid >= model.zeta - 1e-12
        scale = max(1.0, abs(model.h_min))
        assert np.all(H[tail] >= beta * vf.value_at(0.0)
                      - 1e-7 * scale)


def test_psi_vprime_roundtrip(solved_instances):
    rng = np.random.default_rng(777)
    for _, _, vf in solved_instances:
        if vf.constant or vf.x_resolved <= 0.0:
            continue
        for x in rng.uniform(0.0, vf.x_resolved * 0.95, 3):
            xi = vf.v_prime(float(x))
            assert vf.psi(xi) == pytest.approx(float(x), abs=1e-7)


def test_conjugates_dominate_brute(solved_instances, brute_conjugate):
    rng = np.random.default_rng(333)
    for _, model, _ in solved_instances:
        for z in rng.uniform(0.0, model.z_max, 4):
            z = float(z)
            cv = fenchel_cost(model.cost_env, z)
            bv, _ = brute_conjugate(model.cost_env.xs, model.cost_env.f,
                                    z, "cost")
            assert cv.value >= bv - 1e-10
            rv = fenchel_revenue(model.rev_env, z)
            br, _ = brute_conjugate(model.rev_env.xs, model.rev_env.f,
                                    z, "revenue")
            assert rv.value >= br - 1e-10


def test_conjugate_hull_equivalence(solved_instances, brute_conjugate):
    # conjugating the raw samples or their hull gives the same function
    rng = np.random.default_rng(555)
    for _, model, _ in solved_instances:
        env = model.cost_env
        for z in rng.uniform(0.0, model.z_max, 3):
            raw, _ = brute_conjugate(env.xs, env.f, float(z), "cost")
            hull, _ = brute_conjugate(env.xs, _hull_at_knots(env), float(z),
                                      "cost")
            assert hull == pytest.approx(raw, abs=1e-9 * max(1.0, abs(raw)))
        renv = model.rev_env
        for z in rng.uniform(0.0, model.z_max, 3):
            raw, _ = brute_conjugate(renv.xs, renv.f, float(z), "revenue")
            hull, _ = brute_conjugate(renv.xs, _hull_at_knots(renv),
                                      float(z), "revenue")
            assert hull == pytest.approx(raw, abs=1e-9 * max(1.0, abs(raw)))


def test_static_below_relaxed_below_min_h(solved_instances):
    for problem, model, _ in solved_instances:
        _, static_payoff = _static_candidate(problem)
        u_tilde, relaxed_payoff = convexified_static(problem, model)
        # the verdict's batch reads the same relaxed optimum, bit for bit
        report = static_optimality_test(problem, model)
        assert (report.u_tilde, report.relaxed_payoff) \
            == (u_tilde, relaxed_payoff)
        scale = max(1.0, abs(model.h_min))
        assert static_payoff <= relaxed_payoff + 1e-8 * scale
        assert relaxed_payoff <= model.h_min + 1e-6 * scale
        # duality: the convexified optimum reaches min H
        assert abs(relaxed_payoff - model.h_min) <= 1e-12 * scale
        # grid referee: nothing on the common domain beats the reading at zeta
        rev, cost = model.rev_env, model.cost_env
        us = np.linspace(max(rev.domain[0], cost.domain[0]),
                         min(rev.domain[1], cost.domain[1]), 20001)
        best = float((rev.hull_exact(us) - cost.hull_exact(us)).max())
        assert best <= relaxed_payoff + 1e-12 * scale


def test_relaxed_mixture_identities(solved_instances):
    for problem, model, _ in solved_instances:
        u, payoff = convexified_static(problem, model)
        rel = relaxed_static(problem, model, u)
        a_mean = rel.nu * rel.a1 + (1.0 - rel.nu) * rel.a2
        q_mean = rel.gamma * rel.q1 + (1.0 - rel.gamma) * rel.q2
        scale = max(1.0, abs(u))
        assert a_mean == pytest.approx(u, abs=1e-8 * scale)
        assert q_mean == pytest.approx(u, abs=1e-8 * scale)
        assert rel.payoff == pytest.approx(payoff, abs=1e-7 * scale)


def test_cyclic_realization_consistency(solved_instances):
    for problem, model, _ in solved_instances[:12]:
        u, _ = convexified_static(problem, model)
        rel = relaxed_static(problem, model, u)
        eps = 0.25 / problem.beta / 8.0
        plan = cyclic_strategy(problem, rel, eps)
        if isinstance(plan, StaticPlan):
            continue
        assert plan.mean_payoff == pytest.approx(
            rel.payoff, abs=1e-9 * max(1.0, abs(rel.payoff)))
        traj = simulate(problem, plan, horizon=4.0 * eps)
        assert traj.stock.min() >= -1e-12
        cv = cyclic_value(plan, problem.beta)
        expect = cv * (1.0 - math.exp(-problem.beta * 4.0 * eps))
        assert traj.total == pytest.approx(
            expect, abs=1e-10 * max(1.0, abs(expect)))


def test_no_simulated_plan_beats_value(solved_instances):
    rng = np.random.default_rng(2468)
    for problem, model, vf in solved_instances[:12]:
        horizon = 20.0 / problem.beta
        lo = max(problem.demand_set.lo, problem.production_set.lo)
        hi = min(problem.demand_set.hi, problem.production_set.hi)
        for _ in range(2):
            u = float(rng.uniform(lo, hi))
            if problem.production_set.kind == "finite":
                u = min(problem.production_set.values,
                        key=lambda v: abs(v - u))
                if not problem.demand_set.contains(u):
                    continue
            traj = simulate(problem, StaticPlan(u), horizon=horizon)
            realized = traj.total + math.exp(-problem.beta * horizon) \
                * traj.tail_rate / problem.beta
            assert realized <= vf.value_at(0.0) + 1e-6


def test_zeta_invariant_under_truncation(build_hamiltonian_from):
    rng = np.random.default_rng(13579)
    for _ in range(10):
        a = float(rng.uniform(0.1, 5.0))
        b = float(rng.uniform(0.4, 1.5))
        k = float(rng.uniform(0.3, 1.8))
        problem = validate_problem(builtin_arvan_moses(a, b, k, beta=0.7))
        m1 = build_hamiltonian(problem)
        m2 = build_hamiltonian_from(problem, 4.0 * m1.trunc_bound)
        assert m2.trunc_bound >= 4.0 * m1.trunc_bound
        assert m2.zeta == pytest.approx(m1.zeta, abs=1e-10 * max(1.0, m1.zeta))
        assert m2.h_min == pytest.approx(m1.h_min, abs=1e-9)
