"""The same problem in other units of money gets the same answers.

Scaling every revenue and cost value by mu scales zeta, min H, the static
gap and the value function by mu, and leaves the verdict, the relaxed rate
u_tilde, the resolved stock and the drawdown from stock 0.2 (its end tau
and its simulated share of v(0.2)) alone.  A tolerance with an absolute floor
(``max(1, |x|)``) breaks this below unit scale, so each answer is checked
against the unscaled one to a relative 1e-9.
"""

import dataclasses

import pytest

from monopoly_control import (
    Curve,
    build_hamiltonian,
    build_value,
    convexified_static,
    drawdown_plan,
    load_problem,
    simulate,
    static_optimality_test,
    stationary_plan,
    validate_problem,
)


def _answers(spec) -> dict:
    problem = validate_problem(spec)
    model = build_hamiltonian(problem)
    report = static_optimality_test(problem, model)
    vf = build_value(model)
    plan = drawdown_plan(vf, 0.2, stationary_plan(problem, model))
    traj = simulate(problem, plan, horizon=16.0 / problem.beta)
    return {"zeta": model.zeta, "h_min": model.h_min, "gap": report.gap,
            "v(0.2)": float(vf.value_at(0.2)),
            "optimal": report.optimal,
            "u_tilde": convexified_static(problem, model)[0],
            "x_resolved": vf.x_resolved, "tau": plan.tau,
            "total/v(0.2)": traj.total / float(vf.value_at(0.2))}


def _scaled(curve: Curve, mu: float) -> Curve:
    return Curve.table([(x, mu * y) for x, y in zip(curve.xs, curve.ys)])


@pytest.mark.parametrize("mu", [1e-12, 1e-9, 1e-8, 1e-7, 1e-6, 1e6, 1e9,
                                1e12])
def test_table_answers_scale_with_money(configs_dir, mu):
    spec = load_problem(configs_dir / "table_curves.cfg")
    base = _answers(spec)
    got = _answers(dataclasses.replace(spec, revenue=_scaled(spec.revenue, mu),
                                       cost=_scaled(spec.cost, mu)))
    assert got["optimal"] == base["optimal"]
    for key, power in (("zeta", 1), ("h_min", 1), ("gap", 1), ("v(0.2)", 1),
                       ("u_tilde", 0), ("x_resolved", 0), ("tau", 0),
                       ("total/v(0.2)", 0)):
        want = mu ** power * base[key]
        assert got[key] == pytest.approx(want, rel=1e-9, abs=0.0), \
            (key, got[key], want)
