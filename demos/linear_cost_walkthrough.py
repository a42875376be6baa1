#!/usr/bin/env python3
"""Walk through the solver on the linear-cost worked example.

Bounded production at constant marginal cost c = 0.2, capacity 0.3,
quadratic revenue q(1-q) on [0, 1], discount 0.5.  Everything here has a
closed form, so each printed number can be checked by hand.
"""

import math

from monopoly_control import (
    Curve,
    build_hamiltonian,
    build_value,
    builtin_linear_cost,
    drawdown_plan,
    h_at,
    profit_gap,
    simulate,
    static_optimality_test,
    stationary_plan,
)


def main() -> None:
    spec = builtin_linear_cost(
        c=0.2, alpha_bar=0.3, q_bar=1.0,
        revenue=Curve.linear_demand_revenue(1.0, 1.0), beta=0.5)
    model = build_hamiltonian(spec)

    print("running-profit function")
    print(f"  H(0)   = {float(h_at(model, 0.0)):.6f}   (best revenue alone, 0.25)")
    print(f"  zeta   = {model.zeta:.6f}   (marginal value of the first unit)")
    print(f"  min H  = {model.h_min:.6f}")

    # With c inside the revenue slope range the shadow price settles where
    # marginal revenue meets capacity: zeta = 1 - 2(c/2 + alpha_bar) = 0.4.
    assert abs(model.zeta - 0.4) < 1e-9

    report = static_optimality_test(spec, model)
    print("\nstationary play")
    print(f"  static optimal: {report.optimal}, u_hat = {report.u_hat:.6f}, "
          f"payoff = {report.payoff:.6f}")

    vf = build_value(model)
    print("\nvalue function")
    print(f"  v(0)       = {vf.value_at(0.0):.8f}   (= min H / beta)")
    print(f"  v'(0)      = {vf.v_prime(0.0):.8f}   (= zeta)")
    print(f"  ceiling    = {vf.v_flat:.8f}   (= H(0) / beta, never reached)")
    x_hat = vf.psi(0.2)
    print(f"  x_hat      = {x_hat:.8f}   (production resumes below this)")

    # drawdown from twice the threshold: sell-only at first, then sell and
    # produce, then hand over to the static rate
    x0 = 2.0 * x_hat
    plan = drawdown_plan(vf, x0, stationary_plan(spec, model))
    print("\ndrawdown from x0 =", f"{x0:.6f}")
    print(f"  tau = {plan.tau:.6f}  ({plan.describe()})")

    traj = simulate(spec, plan, horizon=40.0)
    gap = profit_gap(traj, vf)
    print(f"  simulated profit  = {traj.total:.8f} plus tail")
    print(f"  value at x0       = {vf.value_at(x0):.8f}")
    print(f"  relative shortfall = {gap:.3e}")
    print(f"  stock: starts {traj.stock[0]:.4f}, "
          f"ends {traj.stock[-1]:.2e}, never below {traj.stock.min():.2e}")

    # the same drawdown clock can be read off the slope path by hand:
    # tau = ln(zeta / v'(x0)) / beta
    tau_hand = math.log(model.zeta / vf.v_prime(x0)) / 0.5
    print(f"  tau by hand       = {tau_hand:.6f}")


if __name__ == "__main__":
    main()
