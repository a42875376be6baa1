"""The same problem in other units of money gets the same answers.

Scaling every revenue and cost value by mu scales zeta, min H, the static
gap and the value function by mu, and leaves the verdict, the relaxed rate
u_tilde, the resolved stock and the drawdown from stock 0.2 (its end tau
and its simulated share of v(0.2)) alone.  A tolerance with an absolute floor
(``max(1, |x|)``) breaks this below unit scale, so each answer is checked
against the unscaled one to a relative 1e-9.  This holds on table_curves
and on a random table whose zeta is the slope of a revenue hull chord from
0, where the revenue conjugate at zeta is only the rounding of its terms.
The cubic configs also take other units of stock, through `solve`.
"""

import dataclasses

import numpy as np
import pytest

from monopoly_control import (
    Curve,
    ProblemSpec,
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
from monopoly_control.cli import main


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


def _check_scaled(spec, mu) -> None:
    base = _answers(spec)
    got = _answers(dataclasses.replace(spec, revenue=_scaled(spec.revenue, mu),
                                       cost=_scaled(spec.cost, mu)))
    assert got["optimal"] == base["optimal"]
    for key, power in (("zeta", 1), ("h_min", 1), ("gap", 1), ("v(0.2)", 1),
                       ("u_tilde", 0), ("x_resolved", 0), ("tau", 0),
                       ("total/v(0.2)", 0)):
        # an answer that is 0 exactly may read the rounding of its terms,
        # which are of unit size before scaling
        want = mu ** power * base[key]
        assert got[key] == pytest.approx(want, rel=1e-9,
                                         abs=1e-15 * mu ** power), \
            (key, got[key], want)


MUS = [1e-12, 1e-9, 1e-8, 1e-7, 1e-6, 1e6, 1e9, 1e12]


@pytest.mark.parametrize("mu", MUS)
def test_table_answers_scale_with_money(configs_dir, mu):
    _check_scaled(load_problem(configs_dir / "table_curves.cfg"), mu)


@pytest.mark.parametrize("mu", MUS)
def test_chord_at_zeta_verdict_scales_with_money(make_random_instance, mu):
    # draw 9 (from 0) of default_rng(7): u_hat = 0 and the exact gap is 0,
    # but R*(zeta) = R(w) - zeta w reads 1.06e-22 at mu = 1e-6, the
    # rounding of terms of 5.5e-7, which a bound on |R(u_hat)| + |zeta
    # u_hat| = 0 alone would call a slack
    rng = np.random.default_rng(7)
    for _ in range(9):
        make_random_instance(rng)
    p = make_random_instance(rng)
    spec = ProblemSpec(p.beta, p.demand_set, p.production_set, p.revenue,
                       p.cost)
    assert _answers(spec)["optimal"]
    _check_scaled(spec, mu)


def _solve_summary(cfg, out, sets=()) -> dict:
    args = ["solve", str(cfg), "--out", str(out)]
    for s in sets:
        args += ["--set", s]
    assert main(args) == 0
    return dict(line.split(" = ", 1)
                for line in (out / "summary.txt").read_text().splitlines())


@pytest.mark.parametrize("lam", [1e-12, 1e-9, 1e-6, 1e-3, 1e3, 1e6])
@pytest.mark.parametrize("name", ["arvan_moses_high", "arvan_moses_low",
                                  "arvan_moses_mid"])
def test_cubic_answers_scale_with_stock(configs_dir, tmp_path, name, lam):
    # stock in units lam and money in lam^3 (K -> lam K, A -> lam^2 A,
    # B -> lam B, q_hi -> lam q_hi) scale R and C by lam^3: zeta, a price
    # of stock, by lam^2, min H and v(0) by lam^3, the rates by lam.  The
    # search for zeta stops at a width relative to it, and shutdown is
    # the rate 0 itself, so the verdict and the regime hold at any lam
    cfg = configs_dir / f"{name}.cfg"
    spec = load_problem(cfg)
    (a, b), (k,), q_hi = (spec.revenue.params, spec.cost.params,
                          spec.demand_set.hi)
    (tmp_path / "base").mkdir()
    (tmp_path / "scaled").mkdir()
    base = _solve_summary(cfg, tmp_path / "base")
    got = _solve_summary(cfg, tmp_path / "scaled", [
        f"revenue.A={lam * lam * a!r}", f"revenue.B={lam * b!r}",
        f"cost.K={lam * k!r}", f"sets.q=interval 0 {lam * q_hi!r}"])
    for key in ("static_optimal", "regime"):
        assert got[key] == base[key], key
    for key, power in (("zeta", 2), ("h_min", 3), ("v0", 3),
                       ("u_static", 1), ("u_tilde", 1)):
        want = lam ** power * float(base[key])
        assert float(got[key]) == pytest.approx(want, rel=1e-9), \
            (key, got[key], want)


# linear demand against an affine cost on two finite sets that share only
# the rate 0, whose members lie closer together than 1e-12 in rates of 1e-9
FINITE_RATES = """\
[problem]
beta = 0.5

[revenue]
family = linear_demand
A = {A!r}
B = {B!r}

[cost]
family = affine
c = {c!r}

[sets]
q = finite 0 {q1!r} {q2!r}
a = finite 0 {a1!r}
"""


@pytest.mark.parametrize("lam", [1.0, 1e-9])
def test_finite_membership_scales_with_rates(tmp_path, lam):
    # rates in units lam (A -> A / lam, B -> B / lam^2, c -> c / lam) keep
    # every payoff; 0 stays the only rate both sets hold, so the best
    # constant rate is 0 and its gap is unchanged
    cfg = tmp_path / "prob.cfg"
    cfg.write_text(FINITE_RATES.format(A=0.004 / lam, B=1.0 / lam ** 2,
                                       c=1e-4 / lam, q1=0.001 * lam,
                                       q2=0.003 * lam, a1=0.002 * lam))
    got = _solve_summary(cfg, tmp_path)
    assert got["u_static"] == "0"
    assert float(got["static_gap"]) == pytest.approx(2.9e-6, rel=1e-9)


@pytest.mark.parametrize("lam", [1.0, 1e-13])
def test_table_cover_scales_with_rates(configs_dir, tmp_path, capsys, lam):
    # table_curves with revenue knots to lam under Q = [0, 1.5 lam]: the
    # table falls short of the set at every scale, not only where the gap
    # exceeds an absolute 1e-12 (below it np.interp held R flat past its
    # last knot and solve printed zeta = 3e12)
    sets = {"revenue.points": f"0:0, {0.5 * lam!r}:0.4, {lam!r}:0.5",
            "cost.points": f"0:0, {lam!r}:0.3, {2.0 * lam!r}:1.0",
            "sets.q": f"interval 0 {1.5 * lam!r}",
            "sets.a": f"interval 0 {2.0 * lam!r}"}
    args = ["solve", str(configs_dir / "table_curves.cfg"),
            "--out", str(tmp_path)]
    for key, value in sets.items():
        args += ["--set", f"{key}={value}"]
    assert main(args) == 2
    assert "revenue table does not cover the control set" \
        in capsys.readouterr().err
