#!/usr/bin/env python3
"""Tour of the cubic-cost family: when does constant play stop working?

C(x) = x^3/3 - k x^2 + k^2 x is concave then convex, so its convex hull
has a linear stretch, and for a band of demand intercepts the stationary
optimum needs a two-point production mixture.  Sweep the intercept through
all three regimes and watch the verdicts change.
"""

import numpy as np

from monopoly_control import (
    build_hamiltonian,
    build_value,
    builtin_arvan_moses,
    cyclic_strategy,
    cyclic_value,
    relaxed_static,
    static_optimality_test,
)

B, K, BETA = 1.0, 1.0, 0.5
T1 = K * K / 4.0            # below: shut down
T2 = 3.0 * B * K + T1       # above: produce at an interior rate


def one(a: float) -> None:
    spec = builtin_arvan_moses(a, B, K, beta=BETA)
    model = build_hamiltonian(spec)
    report = static_optimality_test(spec, model)
    rel = relaxed_static(spec, model)
    band = "below" if a <= T1 else ("inside" if a < T2 else "above")
    print(f"A = {a:4}  ({band} the mixing band)")
    print(f"  zeta = {model.zeta:.6f}  static_optimal = {report.optimal}")
    if report.optimal:
        print(f"  constant rate {report.u_hat:.6f} earns {report.payoff:.6f}")
    else:
        print(f"  mixture: produce {rel.a1:g} w.p. {rel.nu:.4f}, "
              f"{rel.a2:g} w.p. {1 - rel.nu:.4f}; sell {rel.u_tilde:.4f}")
        print(f"  relaxed payoff {rel.payoff:.6f} vs best constant "
              f"{report.payoff:.6f}")


def main() -> None:
    print(f"band edges at A = {T1} and A = {T2}\n")
    for a in (0.2, 1.0, 4.0):
        one(a)
        print()

    # inside the band, how close does honest periodic switching come?
    spec = builtin_arvan_moses(1.0, B, K, beta=BETA)
    model = build_hamiltonian(spec)
    vf = build_value(model)
    rel = relaxed_static(spec, model)
    v0 = vf.value_at(0.0)
    print("cycling instead of mixing (A = 1):")
    for eps in (0.2, 0.1, 0.05, 0.025):
        plan = cyclic_strategy(spec, rel, eps)
        j = cyclic_value(plan, BETA)
        print(f"  eps = {eps:5}  J = {j:.8f}  "
              f"gap = {v0 - j:.2e}  peak stock = {plan.peak_stock:.5f}")
    print(f"  v(0) = {v0:.8f}; the gap falls off linearly in eps")

    # the verdict flips exactly at the band edges
    a_grid = np.linspace(0.05, 4.0, 12)
    verdicts = []
    for a in a_grid:
        s = builtin_arvan_moses(float(a), B, K, beta=BETA)
        verdicts.append(static_optimality_test(s, build_hamiltonian(s)).optimal)
    flips = [f"{a_grid[i]:.2f}->{a_grid[i+1]:.2f}"
             for i in range(len(verdicts) - 1) if verdicts[i] != verdicts[i+1]]
    print(f"\nverdict flips between A: {', '.join(flips)} "
          f"(edges {T1}, {T2})")


if __name__ == "__main__":
    main()
