#!/usr/bin/env python3
"""Cross-check the analytic value function against the grid oracle.

The oracle knows nothing about envelopes or slope paths: it discretizes
stock, time, and both controls, and drives the Bellman operator to its
fixed point.  If the two routes disagree, one of them is wrong.
"""

import argparse

import numpy as np

from monopoly_control import (
    Curve,
    build_hamiltonian,
    build_value,
    builtin_arvan_moses,
    builtin_linear_cost,
    dp_value,
)


def check(name: str, spec, nx: int, dt: float, na: int) -> None:
    model = build_hamiltonian(spec)
    vf = build_value(model)
    dp = dp_value(spec, x_max=0.5, nx=nx, dt=dt, na=na, nq=na)
    xs = dp.x_grid[dp.x_grid <= 0.25]
    err = np.abs(dp.value_at(xs) - vf.value_at(xs))
    k = int(np.argmax(err))
    print(f"{name}: nx={nx} dt={dt} controls={na}")
    print(f"  {dp.iterations - dp.solves} Bellman sweeps, {dp.solves} policy "
          f"solves, certified fixed-point gap {dp.fix_gap:.1e}")
    print(f"  max |dp - v| = {err.max():.3e} at x = {xs[k]:.4f}")
    print(f"  v(0): analytic {vf.value_at(0.0):.8f}, grid {dp.value_at(0.0):.8f}")


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--fine", action="store_true",
                   help="double every discretization axis")
    args = p.parse_args()

    nx, dt, na = (1024, 0.001, 129) if args.fine else (512, 0.002, 65)

    check("linear cost",
          builtin_linear_cost(0.2, 0.3, 1.0,
                              Curve.linear_demand_revenue(1.0, 1.0),
                              beta=0.5),
          nx, dt, na)
    print()
    # the mixing instance: the oracle chatters between the two production
    # rates on its own, with no mixture machinery anywhere in sight
    check("cubic cost", builtin_arvan_moses(1.0, 1.0, 1.0, beta=0.5),
          nx, dt, na)
    print("\nrun with --fine to watch both errors drop")


if __name__ == "__main__":
    main()
