"""Solving a problem file reads the conjugate kernel a bounded number of
times.

``solve`` then ``simulate --x0 0.2`` runs in process on every shipped
config while the calls to ``envelope._conjugate`` and the slopes they read
are counted.  The counts are deterministic, so this counts rather than
times.  The call budgets are the counts of the current solver and the
slope budgets add a small margin: a change that brings back a redundant
batch of readings (midpoints or a slope grid beside the knots, a slope
grid searched for zeta and m_hi where one batch at the kinks of H gives
them, a separate H at 0 or at zeta, a second reading of kept knots, a
separate controls batch, the drawdown reading more than its first slope)
fails here instead of only slowing the benchmark down.

Psi and H are in closed form on the kink cells of H, so a scalar v' or v
between the knots reads no conjugate at all.

The points handed to ``convex_hull`` and ``concave_hull`` are counted in
the same runs.  A smooth curve (linear demand, the cubic) is hulled from
its closed form and is handed only its set's ends, and a piecewise-linear
curve (an affine cost, a table) only its breakpoints, so sampling either
again fails here.

The static verdict reads the two conjugates' attaining spans at zeta and
the two slopes a stop width of its search beside it, one kernel call each,
and finds its best constant rate in closed form, so a return to a root
search or to a contact search with more readings fails here.

The oracle's LAPACK calls are counted the same way: each policy solve
eliminates its interiors in one batched call and its separators in one
more, so a return to one call per block fails here.

Validation reads each curve only at its points (a set's ends and a
table's knots) and at linear demand's peak, so a return to a sample grid
or a coercivity grid fails here, and so does one sized by grid_n.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from monopoly_control import envelope, hamiltonian
from monopoly_control.cli import main
from monopoly_control.config import load_problem
from monopoly_control.oracle import dp_value
from monopoly_control.problem import MAX_GRID_N, Curve, validate_problem
from monopoly_control.strategy import static_optimality_test
from monopoly_control.value import build_value

# (kernel calls, slopes read) allowed for solve + simulate --x0 0.2
BUDGET = {
    "arvan_moses_high": (56, 8150),
    "arvan_moses_low": (16, 8070),
    "arvan_moses_mid": (18, 8070),
    "linear_cost": (32, 8108),
    "table_curves": (18, 8090),
}

# points passed to the hull builders for solve + simulate --x0 0.2: two
# builds of the set's two ends per smooth curve, two points per affine
# cost, ends and knots per table
HULL_POINTS = {
    "arvan_moses_high": 8,
    "arvan_moses_low": 8,
    "arvan_moses_mid": 8,
    "linear_cost": 8,
    "table_curves": 20,
}


@pytest.mark.parametrize("name", sorted(BUDGET))
def test_conjugate_readings_within_budget(name, configs_dir, tmp_path,
                                          monkeypatch):
    counts = [0, 0]
    kernel = envelope._conjugate

    def counted(env, w):
        counts[0] += 1
        counts[1] += np.size(w)
        return kernel(env, w)

    monkeypatch.setattr(envelope, "_conjugate", counted)
    points = [0]
    for hull in ("convex_hull", "concave_hull"):
        def counted_hull(xs, fs, build=getattr(hamiltonian, hull), **kw):
            points[0] += len(xs)
            return build(xs, fs, **kw)
        monkeypatch.setattr(hamiltonian, hull, counted_hull)
    cfg = str(configs_dir / f"{name}.cfg")
    assert main(["solve", cfg, "--out", str(tmp_path)]) == 0
    assert main(["simulate", cfg, "--x0", "0.2", "--out", str(tmp_path)]) == 0
    calls, slopes = BUDGET[name]
    assert counts[0] <= calls and counts[1] <= slopes, (name, counts)
    assert points[0] <= HULL_POINTS[name], (name, points[0])


@pytest.mark.parametrize("name", sorted(BUDGET))
def test_validation_reads_the_curves_at_their_points(name, configs_dir,
                                                     monkeypatch):
    spec = load_problem(configs_dir / f"{name}.cfg")
    points = [0]
    call = Curve.__call__

    def counted(curve, x):
        points[0] += np.size(x)
        return call(curve, x)

    monkeypatch.setattr(Curve, "__call__", counted)
    validate_problem(spec)
    assert points[0] <= 12, (name, points[0])
    monkeypatch.undo()
    # the largest grid_n allocates no grid
    tracemalloc.start()
    try:
        validate_problem(dataclasses.replace(spec, grid_n=MAX_GRID_N))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64_000, (name, peak)


@pytest.mark.parametrize("name", sorted(BUDGET))
def test_scalar_query_reads_no_kernel(name, configs_dir, monkeypatch):
    vf = build_value(hamiltonian.build_hamiltonian(
        validate_problem(load_problem(configs_dir / f"{name}.cfg"))))
    calls = []
    kernel = envelope._conjugate
    monkeypatch.setattr(envelope, "_conjugate",
                        lambda env, w: calls.append(w) or kernel(env, w))
    knots = vf.psi_knots
    for x in (0.5 * (knots[1] + knots[2]), 0.2, 0.37 * vf.x_resolved,
              2.0 * vf.x_resolved):
        assert x not in knots
        vf.v_prime(x)
        vf.value_at(x * (1.0 + 1e-9))
    assert calls == [], name


@pytest.mark.parametrize("name", sorted(BUDGET))
def test_static_test_reads_the_kernel_twice(name, configs_dir, monkeypatch):
    problem = validate_problem(load_problem(configs_dir / f"{name}.cfg"))
    model = hamiltonian.build_hamiltonian(problem)
    calls = []
    kernel = envelope._conjugate

    def counted(env, w):
        calls.append("kernel")
        return kernel(env, w)

    monkeypatch.setattr(envelope, "_conjugate", counted)
    static_optimality_test(problem, model)
    assert calls == ["kernel", "kernel"], (name, calls)


@pytest.mark.parametrize("name", sorted(BUDGET))
def test_oracle_lapack_calls_within_budget(name, configs_dir, monkeypatch):
    calls = [0]
    solve = np.linalg.solve

    def counted(a, b):
        calls[0] += 1
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counted)
    dp = dp_value(load_problem(configs_dir / f"{name}.cfg"), x_max=0.5)
    assert dp.solves > 0
    assert calls[0] <= 2 * dp.solves, (name, calls[0], dp.solves)
