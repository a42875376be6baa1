"""Discrete-time DP oracle: convergence, policies, guards."""

import math

import numpy as np
import pytest

from monopoly_control import (
    InvalidParameter,
    NotConverged,
    brute_conjugate,
    dp_value,
    production_cap,
    write_dp_csv,
)


# deliberately coarse so the module tests stay fast; the acceptance
# suite runs the production resolution
LINEAR_COST_KW = dict(x_max=0.25, nx=128, dt=0.01, na=33, nq=33)
AM_MID_KW = dict(x_max=0.25, nx=96, dt=0.01, na=25, nq=25)

# (grid index, v_hat, produce, sell) of the plain value-iteration tables at
# the resolutions above, to 17 digits; both tables are certified within
# tol_fix = 1e-9 of the discretized fixed point
PINNED = {
    "linear_cost": [
        (0, 0.29517130297231392, 0.29999999999999999, 0.1875),
        (18, 0.30725704366825235, 0.29999999999999999, 0.375),
        (36, 0.31594320398637571, 0.29999999999999999, 0.40625),
        (54, 0.32316243781482967, 0.0, 0.40625),
        (73, 0.33032711618022081, 0.0, 0.40625),
        (91, 0.33681719275483135, 0.0, 0.40625),
        (109, 0.34303032530535965, 0.0, 0.40625),
        (127, 0.34897833463510564, 0.0, 0.40625),
    ],
    "am_mid": [
        (0, 0.2796656609067048, 1.4875000007083334, 0.375),
        (14, 0.28872533605437756, 0.0, 0.375),
        (27, 0.29675016009104604, 0.0, 0.375),
        (41, 0.30499269046529104, 0.0, 0.375),
        (54, 0.31229237688988498, 0.0, 0.375),
        (68, 0.31980778563880419, 0.0, 0.41666666666666663),
        (81, 0.32649514868604979, 0.0, 0.41666666666666663),
        (95, 0.33339650229708184, 0.0, 0.41666666666666663),
    ],
}


@pytest.fixture(scope="module")
def linear_cost_dp(linear_cost_problem):
    return dp_value(linear_cost_problem, **LINEAR_COST_KW)


def test_dp_converges_with_certificate(linear_cost_dp):
    assert linear_cost_dp.fix_gap < 1e-9
    assert linear_cost_dp.iterations > 10


def test_dp_close_to_analytic(linear_cost_dp, linear_cost_value):
    xs = np.linspace(0.0, 0.12, 50)
    err = np.abs(linear_cost_dp.value_at(xs) - linear_cost_value.value_at(xs))
    assert err.max() < 3e-2


@pytest.mark.parametrize("name", sorted(PINNED))
def test_dp_matches_pinned_table(name, request):
    # two certified tables of one discretized problem lie within 2 tol_fix
    # of each other however the sweeps reached them
    if name == "linear_cost":
        dp = request.getfixturevalue("linear_cost_dp")
    else:
        dp = dp_value(request.getfixturevalue("am_mid_problem"), **AM_MID_KW)
    for k, v_hat, produce, sell in PINNED[name]:
        assert abs(dp.v_hat[k] - v_hat) <= 2e-9, k
        assert dp.policy_produce[k] == produce, k
        assert dp.policy_sell[k] == sell, k


def test_dp_certificate_is_honest(linear_cost_problem, linear_cost_dp):
    # the default table is within 1e-9 of the fixed point and this one
    # within 1e-11, so they are within the sum of the two of each other
    tight = dp_value(linear_cost_problem, tol_fix=1e-11, **LINEAR_COST_KW)
    assert tight.fix_gap < 1e-11
    assert np.abs(tight.v_hat - linear_cost_dp.v_hat).max() <= 1e-9 + 1e-11


def test_dp_iterations_count_every_sweep(linear_cost_problem, linear_cost_dp):
    # max_iter bounds the same count that iterations reports: granting
    # exactly that many sweeps reproduces the table, one fewer does not
    n = linear_cost_dp.iterations
    again = dp_value(linear_cost_problem, max_iter=n, **LINEAR_COST_KW)
    assert np.array_equal(again.v_hat, linear_cost_dp.v_hat)
    with pytest.raises(NotConverged):
        dp_value(linear_cost_problem, max_iter=n - 1, **LINEAR_COST_KW)


def test_dp_value_monotone(linear_cost_dp):
    assert np.all(np.diff(linear_cost_dp.v_hat) > -1e-12)


def test_dp_policy_sensible_at_origin(linear_cost_dp):
    # with no stock: produce at the cap, throttle sales
    assert linear_cost_dp.policy_produce[0] == pytest.approx(0.3, abs=1e-9)
    assert linear_cost_dp.policy_sell[0] <= 0.3 + 1e-9


def test_dp_value_at_interpolates(linear_cost_dp):
    mid = 0.5 * (linear_cost_dp.x_grid[3] + linear_cost_dp.x_grid[4])
    lo = linear_cost_dp.v_hat[3]
    hi = linear_cost_dp.v_hat[4]
    assert linear_cost_dp.value_at(mid) == pytest.approx(0.5 * (lo + hi), abs=1e-14)


def test_production_cap_am(am_mid_problem):
    cap = production_cap(am_mid_problem)
    # best average revenue is 1 per unit at q -> 0; marginal cost hits 1
    # again at a = 2, so the cap sits a hair above 2
    assert cap == pytest.approx(2.1, rel=1e-3)
    assert cap > 1.5


def test_dp_guards(linear_cost_problem):
    with pytest.raises(InvalidParameter):
        dp_value(linear_cost_problem, x_max=-1.0)
    with pytest.raises(InvalidParameter):
        dp_value(linear_cost_problem, x_max=0.5, dt=0.0)
    with pytest.raises(InvalidParameter):
        # one step would cross the whole grid many times over
        dp_value(linear_cost_problem, x_max=0.01, nx=8, dt=50.0)
    with pytest.raises(InvalidParameter, match="rounds to 1"):
        # exp(-beta dt) rounds to 1: no discount per step
        dp_value(linear_cost_problem, x_max=0.5, dt=1e-17)


@pytest.mark.parametrize("kw", [
    dict(x_max=math.nan), dict(x_max=math.inf),
    dict(x_max=0.5, dt=math.nan), dict(x_max=0.5, dt=math.inf),
    dict(x_max=0.5, tol_fix=0.0), dict(x_max=0.5, tol_fix=-1e-9),
    dict(x_max=0.5, tol_fix=math.nan),
])
def test_dp_rejects_non_finite_grid_and_tolerance(linear_cost_problem, kw):
    with pytest.raises(InvalidParameter):
        dp_value(linear_cost_problem, **kw)


def test_brute_conjugate_kinds():
    xs = np.array([0.0, 1.0, 2.0])
    fs = np.array([0.0, 0.5, 2.0])
    val, arg = brute_conjugate(xs, fs, 1.0, "cost")
    assert (val, arg) == (0.5, 1.0)
    val, arg = brute_conjugate(xs, fs, 0.1, "revenue")
    assert (val, arg) == (1.8, 2.0)
    with pytest.raises(InvalidParameter):
        brute_conjugate(xs, fs, 1.0, "other")


def test_write_dp_csv(tmp_path, linear_cost_dp):
    path = tmp_path / "dp.csv"
    write_dp_csv(linear_cost_dp, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,v_hat,produce,sell"
    assert len(lines) == len(linear_cost_dp.x_grid) + 1


def test_dp_bounded_production_equals_ray_under_cap(am_mid_problem,
                                                    am_mid_value):
    # replacing the ray with a bounded interval above the cap must not
    # change the oracle value: the cap rule already covers every rate a
    # rational producer would use
    from monopoly_control.problem import ControlSet, ProblemSpec
    from monopoly_control import validate_problem

    spec = am_mid_problem.spec
    capped = ProblemSpec(
        beta=spec.beta,
        demand_set=spec.demand_set,
        production_set=ControlSet.interval(0.0, production_cap(am_mid_problem)),
        revenue=spec.revenue,
        cost=spec.cost,
        grid_n=spec.grid_n,
    )
    kw = dict(x_max=0.25, nx=96, dt=0.01, na=25, nq=25)
    ray = dp_value(am_mid_problem, **kw)
    box = dp_value(validate_problem(capped), **kw)
    assert np.allclose(ray.v_hat, box.v_hat, atol=1e-12)
