"""Discrete-time DP oracle: convergence, policies, guards."""

import hashlib
import math
import re
import time

import numpy as np
import pytest

from monopoly_control import (
    InvalidParameter,
    NotConverged,
    build_hamiltonian,
    build_value,
    dp_value,
    load_problem,
    validate_problem,
    write_dp_csv,
)
from monopoly_control import oracle
from monopoly_control.oracle import (_BIG_NEG, _bellman, _production_cap,
                                     _solve_policy)
from monopoly_control.problem import ControlSet, Curve, ProblemSpec


# deliberately coarse so the module tests stay fast; the acceptance
# suite runs the production resolution
LINEAR_COST_KW = dict(x_max=0.25, nx=128, dt=0.01, na=33, nq=33)
AM_MID_KW = dict(x_max=0.25, nx=96, dt=0.01, na=25, nq=25)

# (grid index, v_hat, produce, sell) of the plain value-iteration tables at
# the resolutions above, to 17 digits; both tables are certified within
# _TOL_FIX = 1e-9 of the discretized fixed point
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


def test_dp_counts_sweeps_and_solves(linear_cost_dp):
    # every round is a sweep and a solve; the last sweep certifies alone
    assert linear_cost_dp.iterations == 2 * linear_cost_dp.solves + 1


def test_dp_close_to_analytic(linear_cost_dp, linear_cost_value):
    xs = np.linspace(0.0, 0.12, 50)
    err = np.abs(linear_cost_dp.value_at(xs) - linear_cost_value.value_at(xs))
    assert err.max() < 3e-2


@pytest.mark.parametrize("name", sorted(PINNED))
def test_dp_matches_pinned_table(name, request):
    # two certified tables of one discretized problem lie within 2 _TOL_FIX
    # of each other however the sweeps reached them
    if name == "linear_cost":
        dp = request.getfixturevalue("linear_cost_dp")
    else:
        dp = dp_value(request.getfixturevalue("am_mid_problem"), **AM_MID_KW)
    for k, v_hat, produce, sell in PINNED[name]:
        assert abs(dp.v_hat[k] - v_hat) <= 2e-9, k
        assert dp.policy_produce[k] == produce, k
        assert dp.policy_sell[k] == sell, k


def test_dp_certificate_is_honest(linear_cost_problem, linear_cost_dp,
                                  monkeypatch):
    # the default table is within 1e-9 of the fixed point and this one
    # within 1e-11, so they are within the sum of the two of each other
    monkeypatch.setattr(oracle, "_TOL_FIX", 1e-11)
    tight = dp_value(linear_cost_problem, **LINEAR_COST_KW)
    assert tight.fix_gap < 1e-11
    assert np.abs(tight.v_hat - linear_cost_dp.v_hat).max() <= 1e-9 + 1e-11


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


def test_production_cap_am(am_mid_problem, configs_dir):
    cap = _production_cap(am_mid_problem)
    # best average revenue is 1 per unit at q -> 0; marginal cost hits 1
    # again at a = 2, so the cap sits a hair above 2
    assert cap == pytest.approx(2.1, rel=1e-3)
    assert cap > 1.5
    # the bits on each ray config: 1.05 max(a, q_hi) + 1e-9
    for name, bits in (("arvan_moses_high", 8.400000001),
                       ("arvan_moses_low", 0.21000000100000002),
                       ("arvan_moses_mid", 2.100000001)):
        problem = validate_problem(load_problem(configs_dir / f"{name}.cfg"))
        assert _production_cap(problem) == bits, name


def _cubic_ray_draws(rng, n):
    """(problem, s): a cubic cost on a ray against linear demand on an
    interval or a finite set, or a table on an interval, with s = sup
    R(q)/q over the positive demand rates."""
    for i in range(n):
        k = float(rng.uniform(0.05, 3.0))
        kind = i % 3
        if kind < 2:
            a, b = rng.uniform([0.1, 0.2], [8.0, 3.0])
            revenue = Curve.linear_demand_revenue(a, b)
            if kind == 0:
                demand, s = ControlSet.interval(0.0, a / b), a
            else:
                qs = np.unique(np.append(0.0, rng.uniform(0.0, a / b, 4)))
                demand = ControlSet.finite(qs)
                s = float(np.max(a - b * qs[1:]))
        else:
            q_hi = float(rng.uniform(0.2, 3.0))
            xs = np.unique(np.concatenate(
                [[0.0, q_hi], rng.uniform(0.0, q_hi, 5)]))
            ys = np.append(0.0, rng.uniform(0.0, 2.0, len(xs) - 1))
            revenue = Curve.table(list(zip(xs, ys)))
            demand = ControlSet.interval(0.0, q_hi)
            s = float(np.max(ys[1:] / xs[1:]))
        yield validate_problem(ProblemSpec(
            beta=1.0, demand_set=demand,
            production_set=ControlSet.right_ray(0.0), revenue=revenue,
            cost=Curve.cubic_cost(k))), s


def test_production_cap_meets_a_brute_force_argmax():
    # argmax_a {s a - C(a)} over a grid of 2^17 steps on [0, 2 (k + sqrt
    # s) + 1], past the peak; the cap is 1.05 max(argmax, q_hi) + 1e-9
    rng = np.random.default_rng(2024)
    for problem, s in _cubic_ray_draws(rng, 300):
        k = problem.cost.params[0]
        a = np.linspace(0.0, 2.0 * (k + math.sqrt(s)) + 1.0, 2**17 + 1)
        best = float(a[np.argmax(s * a - problem.cost(a))])
        q_hi = float(problem.q_grid[-1])
        want = max(best, q_hi) * 1.05 + 1e-9
        assert abs(_production_cap(problem) - want) <= 1.05 * a[1], \
            (problem, s)


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
    # one point drops an interval set to its lower end: a table of zeros
    # for nq, no production for na, both "certified"
    for name, n in (("na", 0), ("nq", 0), ("na", 1), ("nq", 1)):
        with pytest.raises(InvalidParameter, match=name):
            dp_value(linear_cost_problem, x_max=0.5, **{name: n})
    with pytest.raises(InvalidParameter, match="nx"):
        dp_value(linear_cost_problem, x_max=0.5, nx=64.5)


def test_dp_finite_sets_ignore_grid_counts(linear_cost_problem):
    from monopoly_control.problem import ControlSet, ProblemSpec
    from monopoly_control import validate_problem

    p = linear_cost_problem
    finite = validate_problem(ProblemSpec(
        beta=p.beta,
        demand_set=ControlSet.finite([0.0, 0.25, 0.5]),
        production_set=ControlSet.finite([0.0, 0.3]),
        revenue=p.revenue,
        cost=p.cost,
    ))
    kw = dict(x_max=0.25, nx=64, dt=0.01)
    ref = dp_value(finite, **kw)
    assert ref.fix_gap < 1e-9
    for n in (0, 1):
        again = dp_value(finite, na=n, nq=n, **kw)
        assert np.array_equal(again.v_hat, ref.v_hat)


def test_dp_repeated_policy_fails_fast(am_high_problem):
    # at dt = 1e-9 the discount rounds so close to 1 that no table can be
    # certified; once the greedy policy repeats, every later round would
    # repeat too, so the oracle gives up then instead of at its budget
    with pytest.raises(NotConverged, match="greedy policy repeats") as exc:
        dp_value(am_high_problem, x_max=0.5, dt=1e-9)
    count = int(re.search(r"after (\d+) sweeps and solves",
                          str(exc.value)).group(1))
    assert count < 100


# sha256 of the float64 bytes of policy_produce and policy_sell, and the
# iterations, of dp_value(problem, x_max=0.5) on each shipped config
SHIPPED_POLICIES = {
    "arvan_moses_high": (
        "038bb13f6d88056edb51e1939ca9c697c086a75a568c03a9552d07fef5b96106",
        "2ea66dfccaf8f0f890b60f580939cb34010de9645e9cc131c32fa80138616870",
        15),
    "arvan_moses_low": (
        "ad7facb2586fc6e966c004d7d1d16b024f5805ff7cb47c7a85dabd8b48892ca7",
        "a129bc3dd60850f1e0dea3c9881b6cdfb5a2f8f8ae6accccafe64c532972e81a",
        11),
    "arvan_moses_mid": (
        "e7d21ff4eff73f9d66e73c40a2756c475a66aba20e6f4738cd0fdc749fffb5e0",
        "8ed76270a5b54eaa501bae52a185b31737acbd50018257b8530f89f3aa25f040",
        13),
    "linear_cost": (
        "b94064355835040b9d4dd82ca327cf6eb1be5891e45bfee0d960559d1ccffde9",
        "f782f6ced71ceddfae2dc0991b4c9b891b0406a0aceb032e89cc48f374c23aec",
        15),
    "table_curves": (
        "a6bc95a2bed64c46f069eb3da54e0452c99ada34cc58c0c5723090615114c4f5",
        "fd0e29ac3500b548f5a03de32a3e16ae218c62bdc8d5fada312e4919c3c7229e",
        9),
}


def _sha256(a):
    return hashlib.sha256(np.asarray(a, dtype=np.float64).tobytes()).hexdigest()


@pytest.fixture(scope="module", params=sorted(SHIPPED_POLICIES))
def shipped_dp(request, configs_dir):
    problem = load_problem(configs_dir / f"{request.param}.cfg")
    return request.param, dp_value(problem, x_max=0.5)


def test_dp_policy_iteration_rounds(shipped_dp):
    # each round's exact solve leaves only a handful of rounds; evaluating
    # policies by sweeps took 781-4226 at these defaults
    _, dp = shipped_dp
    assert dp.fix_gap < 1e-9
    assert dp.iterations <= 40


def test_dp_shipped_policies_pinned(shipped_dp):
    # how the policy solve is partitioned moves v_hat by rounding only;
    # the greedy policies and the rounds taken to certify must not move
    name, dp = shipped_dp
    produce, sell, iterations = SHIPPED_POLICIES[name]
    assert _sha256(dp.policy_produce) == produce
    assert _sha256(dp.policy_sell) == sell
    assert dp.iterations == iterations


def _dense(idx, wts):
    n = idx.shape[1]
    a = np.eye(n)
    np.add.at(a, (np.broadcast_to(np.arange(n), idx.shape), idx), -wts)
    return a


# a period is an interior of max(16, 4 band) rows, then a separator of band
# rows: bands 0-4 keep the 16-row floor and 5 widens it to 20; bands 31-40
# leave one or a few wide periods; n = 96 fills whole periods at bands 0
# and 4 (n + band = 6 * 16 and 5 * 20), and n = 8 is a single period
@pytest.mark.parametrize("band", [0, 1, 2, 4, 5, 9, 31, 32, 33, 40])
@pytest.mark.parametrize("n", [8, 96, 100, 511, 512, 1024])
def test_policy_solve_matches_dense(band, n):
    rng = np.random.default_rng(n * 100 + band)
    x = np.arange(n)
    idx = np.clip(x + rng.integers(-band, band + 1, (4, n)), 0, n - 1)
    idx[0, n // 2] = np.clip(n // 2 + band, 0, n - 1)   # reach the full band
    wts = rng.uniform(0.0, 1.0, (4, n))
    wts *= 0.999 / wts.sum(axis=0)
    pay = rng.normal(size=n)
    v = _solve_policy(pay, idx, wts)
    a = _dense(idx, wts)
    assert np.linalg.norm(a @ v - pay) <= 1e-12 * np.linalg.norm(pay)
    ref = np.linalg.solve(a, pay)
    assert np.linalg.norm(v - ref) <= 1e-12 * np.linalg.norm(ref)


def _brute_sweep(v, a_grid, q_grid, a_pay, q_pay, gamma, dt, h, pad):
    """One Bellman sweep control by control and node by node: the
    production stage reads v at clip(y + a dt, 0, x_max) and floors a move
    below -1e-12, the sales stage reads u at x - q dt."""
    nx = v.size
    x_max = h * (nx - 1)
    x_grid = np.linspace(0.0, x_max, nx)
    y_grid = np.concatenate([x_grid[0] - h * np.arange(pad, 0, -1), x_grid])

    def read(t, p):
        lo = min(int(p), len(t) - 2)
        w = min(max(p - lo, 0.0), 1.0)
        return t[lo] * (1.0 - w) + t[lo + 1] * w

    u, ia = np.empty(len(y_grid)), np.empty(len(y_grid), dtype=int)
    for j, y in enumerate(y_grid):
        cand = [gamma * read(v, min(max(y + a * dt, 0.0), x_max) / h)
                + (pay if y + a * dt >= -1e-12 else _BIG_NEG)
                for a, pay in zip(a_grid, a_pay)]
        ia[j] = int(np.argmax(cand))
        u[j] = cand[ia[j]]
    tv, iq = np.empty(nx), np.empty(nx, dtype=int)
    for i, x in enumerate(x_grid):
        cand = [read(u, (x - q * dt - y_grid[0]) / h) + pay
                for q, pay in zip(q_grid, q_pay)]
        iq[i] = int(np.argmax(cand))
        tv[i] = cand[iq[i]]
    return tv, ia, iq


# h = 1/32 and dt = 1/64, so a rate r moves stock by r / 2 nodes exactly
SWEEP_H, SWEEP_DT = 1.0 / 32.0, 1.0 / 64.0
# a dt = 3 h - 4e-13: from y = -3 h the move ends in [-1e-12, 0)
_NEAR_ZERO = (3.0 * SWEEP_H - 4e-13) / SWEEP_DT
SWEEP_SETS = {
    "interval": (ControlSet.interval(0.0, 3.0), ControlSet.interval(0.0, 2.0)),
    "capped_ray": (ControlSet.right_ray(0.5), ControlSet.interval(0.25, 1.5)),
    # members up to 15 nodes apart, shifts of 2 and 15 whole nodes
    "finite_far": (ControlSet.finite([0.0, 4.0, _NEAR_ZERO, 13.3, 30.0]),
                   ControlSet.finite([0.0, 0.7, 3.3, 9.0, 20.0])),
    "finite_near": (ControlSet.finite([0.1, 0.2, 0.3, 0.9, 1.1]),
                    ControlSet.finite([0.0, 0.05, 0.45, 0.5, 1.0])),
}


@pytest.mark.parametrize("name", sorted(SWEEP_SETS))
def test_sweep_matches_per_node_formula(name):
    # the shifted-window products give the per-(control, node) sweep to
    # rounding and the same greedy indices, and the greedy stencil maps v
    # to the same Tv without a max
    a_set, q_set = SWEEP_SETS[name]
    nx, h, dt, gamma = 24, SWEEP_H, SWEEP_DT, 0.97
    a_grid = oracle._control_grid(a_set, "na", 5, 5.3)
    q_grid = oracle._control_grid(q_set, "nq", 5, None)
    pad = int(math.ceil(float(q_grid[-1]) * dt / h)) + 1
    # the sweep must see moves clamped at the top and floored at the bottom
    ends = (np.arange(-pad, nx)[:, None] * h + a_grid * dt).ravel()
    assert ends.max() > (nx - 1) * h and ends.min() < -1e-12
    if name == "finite_far":
        assert np.any((ends >= -1e-12) & (ends < 0.0))
    rng = np.random.default_rng(sorted(SWEEP_SETS).index(name))
    a_pay = -rng.uniform(0.0, 0.5, a_grid.size)
    q_pay = rng.uniform(0.0, 1.0, q_grid.size)
    sweep, stencil = _bellman(a_grid, q_grid, a_pay, q_pay, gamma, dt, h,
                              nx, pad)
    for _ in range(4):
        v = rng.uniform(1.0, 2.0, nx)
        tv, ia, iq = sweep(v)
        ref, ref_ia, ref_iq = _brute_sweep(v, a_grid, q_grid, a_pay, q_pay,
                                           gamma, dt, h, pad)
        np.testing.assert_allclose(tv, ref, rtol=1e-12, atol=0.0)
        assert np.array_equal(ia, ref_ia) and np.array_equal(iq, ref_iq)
        pay, idx, wts = stencil(ia, iq)
        np.testing.assert_allclose(pay + (wts * v[idx]).sum(axis=0), tv,
                                   rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("kw", [
    dict(x_max=math.nan), dict(x_max=math.inf),
    dict(x_max=0.5, dt=math.nan), dict(x_max=0.5, dt=math.inf),
])
def test_dp_rejects_non_finite_grid(linear_cost_problem, kw):
    with pytest.raises(InvalidParameter):
        dp_value(linear_cost_problem, **kw)


def test_brute_conjugate_kinds(brute_conjugate):
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

    p = am_mid_problem
    capped = ProblemSpec(
        beta=p.beta,
        demand_set=p.demand_set,
        production_set=ControlSet.interval(0.0, _production_cap(p)),
        revenue=p.revenue,
        cost=p.cost,
    )
    kw = dict(x_max=0.25, nx=96, dt=0.01, na=25, nq=25)
    ray = dp_value(am_mid_problem, **kw)
    box = dp_value(validate_problem(capped), **kw)
    assert np.allclose(ray.v_hat, box.v_hat, atol=1e-12)


def test_dp_default_budget_stops_a_table_that_never_settles(configs_dir,
                                                            monkeypatch):
    # a policy solve that never lands on a fixed point (seeded noise on
    # the exact solve) changes the greedy policy every round; the default
    # budget, 4 nx + 64 sweeps and solves, ends it in seconds
    problem = validate_problem(load_problem(configs_dir / "linear_cost.cfg"))
    rng = np.random.default_rng(7)

    def noisy(pay, idx, wts):
        return _solve_policy(pay, idx, wts) + rng.normal(0.0, 1e-3, pay.size)

    monkeypatch.setattr(oracle, "_solve_policy", noisy)
    t0 = time.perf_counter()
    with pytest.raises(NotConverged, match="after 2112 sweeps and solves"):
        dp_value(problem, x_max=0.5)
    assert time.perf_counter() - t0 < 20.0


def test_dp_floors_a_move_below_zero_stock_at_any_grid_step(configs_dir):
    # the floor's rounding slack is a fraction of a node, so it floors a
    # move below zero stock at any grid step; a slack of 1e-12 in stock
    # would span the whole pad at this step of 1.6e-15, and the oracle
    # would certify sales of stock it does not hold (v_hat(0) = 0.68
    # against v(0) = 0.3).  NotConverged is an honest answer here
    problem = validate_problem(load_problem(configs_dir / "table_curves.cfg"))
    v0 = build_value(build_hamiltonian(problem)).value_at(0.0)
    try:
        res = dp_value(problem, x_max=1e-13, dt=1e-15, nx=64)
    except NotConverged:
        return
    assert res.value_at(0.0) <= v0 + 1e-3
