"""Hamiltonian tabulation, least minimizer, subgradients, controls."""

import decimal
import hashlib
import math

import numpy as np
import pytest

from monopoly_control import (
    ControlSet,
    Curve,
    ProblemSpec,
    build_hamiltonian,
    build_value,
    builtin_arvan_moses,
    h_at,
    load_problem,
    validate_problem,
)
from monopoly_control import hamiltonian
from monopoly_control.errors import OutOfDomain
from monopoly_control.hamiltonian import controls_at, subgradient


def test_linear_cost_hamiltonian_closed_values(linear_cost_model):
    m = linear_cost_model
    # H(0) = sup R = 0.25 (production contributes nothing at z=0)
    assert h_at(m, 0.0) == pytest.approx(0.25, abs=1e-12)
    # for z in [c, zeta]: H(z) = (1-z)^2/4 + (z - 0.2) * 0.3
    assert h_at(m, 0.3) == pytest.approx(0.1525, abs=1e-10)
    assert m.zeta == pytest.approx(0.4, abs=1e-9)
    assert m.h_min == pytest.approx(0.15, abs=1e-10)


def test_linear_cost_subgradients(linear_cost_model):
    m = linear_cost_model
    # below the marginal cost production is off: H'(z) = -q(z) = -(1-z)/2
    lo, hi = subgradient(m, 0.1)
    assert lo == pytest.approx(-0.45, abs=1e-8)
    assert hi == pytest.approx(-0.45, abs=1e-8)
    # at z = c the production side jumps in
    lo, hi = subgradient(m, 0.2)
    assert lo == pytest.approx(-0.4, abs=1e-8)
    assert hi == pytest.approx(-0.1, abs=1e-8)
    # strictly between kinks the derivative exists
    lo, hi = subgradient(m, 0.3)
    assert lo == pytest.approx(-0.05, abs=1e-8)
    assert hi == pytest.approx(-0.05, abs=1e-8)


def test_linear_cost_kinks(linear_cost_model):
    ks = np.asarray(linear_cost_model.kink_zs)
    assert np.any(np.isclose(ks, 0.2, atol=1e-9))
    assert np.any(np.isclose(ks, 1.0, atol=1e-9))


def test_am_mid_zeta_snaps_to_bridge_slope(am_mid_model):
    m = am_mid_model
    assert m.zeta == 0.25
    assert m.h_min == pytest.approx(0.140625, abs=1e-10)
    # strict minimum: the flat band degenerates to the point zeta
    assert m.m_hi - m.zeta < 1e-9


def test_am_low_flat_band(am_low_model):
    m = am_low_model
    assert m.zeta == 0.2
    # H stays at its minimum from the demand intercept to the bridge slope
    assert m.m_hi > 0.24
    # the band ends where H'(z-) turns positive, at the bridge slope k^2/4
    assert m.m_hi == pytest.approx(0.25, abs=1e-12)


def test_am_high_interior_zeta(am_high_model):
    z = (-0.5 + math.sqrt(0.25 - 1.0 + 4.0)) ** 2
    assert am_high_model.zeta == pytest.approx(z, rel=1e-10)
    # strict minimum: the band is the point zeta, not a threshold haze on H
    assert am_high_model.m_hi - am_high_model.zeta < 1e-9


def test_am_mid_subgradient_at_zeta(am_mid_model):
    lo, hi = subgradient(am_mid_model, 0.25)
    assert lo == pytest.approx(-0.375, abs=1e-8)
    assert hi == pytest.approx(1.125, abs=1e-8)
    assert lo <= 0.0 <= hi


def test_controls_at_picks_smallest_pair(am_mid_model):
    a, q = controls_at(am_mid_model, 0.25)
    assert a == pytest.approx(0.0, abs=1e-9)
    assert q == pytest.approx(0.375, abs=1e-9)


def test_h_convex_on_grid(am_mid_model, linear_cost_model):
    for m in (am_mid_model, linear_cost_model):
        z_grid = np.linspace(0.0, m.z_max, 4097)
        slopes = np.diff(h_at(m, z_grid)) / np.diff(z_grid)
        assert np.all(np.diff(slopes) >= -1e-7)


def test_subgradient_order_everywhere(am_mid_model):
    zs = np.linspace(0.0, am_mid_model.z_max, 101)
    for z in zs:
        lo, hi = subgradient(am_mid_model, float(z))
        assert lo <= hi + 1e-12


def test_h_at_matches_grid_and_refines(linear_cost_model):
    m = linear_cost_model
    z_grid = np.linspace(0.0, m.z_max, 4097)
    H = h_at(m, z_grid)
    for z in z_grid[::97]:
        k = int(np.searchsorted(z_grid, z))
        assert h_at(m, float(z)) == pytest.approx(float(H[k]), abs=1e-9)


def test_h_at_out_of_domain(linear_cost_model):
    with pytest.raises(OutOfDomain):
        h_at(linear_cost_model, -0.1)
    with pytest.raises(OutOfDomain):
        h_at(linear_cost_model, linear_cost_model.z_max * 1.5)


def test_truncation_ceiling_recorded(am_mid_model, linear_cost_model):
    assert am_mid_model.trunc_bound is not None
    assert am_mid_model.trunc_bound > 1.5
    assert linear_cost_model.trunc_bound is None


def test_finite_control_sets_build():
    spec = ProblemSpec(
        beta=0.5,
        demand_set=ControlSet.finite([0.0, 0.3, 0.6]),
        production_set=ControlSet.finite([0.0, 0.5]),
        revenue=Curve.table([(0.0, 0.0), (0.3, 0.2), (0.6, 0.25)]),
        cost=Curve.table([(0.0, 0.0), (0.5, 0.2)]),
    )
    m = build_hamiltonian(validate_problem(spec))
    assert m.zeta >= 0.0
    lo, hi = subgradient(m, m.zeta)
    assert lo <= 0.0 <= hi + 1e-12


def test_zeta_zero_when_revenue_worthless():
    spec = ProblemSpec(
        beta=0.5,
        demand_set=ControlSet.interval(0.0, 1.0),
        production_set=ControlSet.interval(0.0, 1.0),
        revenue=Curve.table([(0.0, 0.0), (1.0, 0.0)]),
        cost=Curve.affine_cost(0.3),
    )
    m = build_hamiltonian(validate_problem(spec))
    assert m.zeta == 0.0


def test_zeta_closed_form_sweep():
    # nine cubic-cost instances against the piecewise closed form
    def zeta_closed(a, b, k):
        t1 = k * k / 4.0
        t2 = 3.0 * b * k + t1
        if a <= t1:
            return a
        if a >= t2:
            return (-b + math.sqrt(b * b - 2.0 * b * k + a)) ** 2
        return t1

    cases = [(0.2, 1.0, 1.0), (0.1, 1.0, 2.0), (0.3, 2.0, 1.2),
             (1.0, 1.0, 1.0), (2.0, 0.7, 1.5), (0.5, 1.0, 1.0),
             (4.0, 0.5, 1.0), (5.0, 1.0, 1.0), (6.0, 0.8, 1.2)]
    for a, b, k in cases:
        m = build_hamiltonian(validate_problem(
            builtin_arvan_moses(a, b, k, beta=0.5)))
        assert m.zeta == pytest.approx(zeta_closed(a, b, k), rel=1e-8), (a, b, k)


@pytest.mark.parametrize("name", ["arvan_moses_mid", "linear_cost",
                                  "table_curves"])
def test_batch_of_one_is_exact(configs_dir, name):
    # every query is one kernel: an array call must equal, bit for bit,
    # the same query made one scalar at a time
    m = build_hamiltonian(validate_problem(
        load_problem(configs_dir / f"{name}.cfg")))
    vf = build_value(m)
    zs = np.concatenate([np.linspace(0.0, m.z_max, 101), m.kink_zs, [m.zeta]])
    xis = np.concatenate([vf.xi_knots[::37],
                          np.geomspace(vf.zeta, vf.xi_knots[-1], 101)])

    def scalars(f, points):
        return np.array([f(float(p)) for p in points])

    assert np.array_equal(vf.psi(xis), scalars(vf.psi, xis))
    assert np.array_equal(h_at(m, zs), scalars(lambda z: h_at(m, z), zs))
    a, q = controls_at(m, zs)
    ctl = np.array([controls_at(m, float(z)) for z in zs])
    assert np.array_equal(a, ctl[:, 0]) and np.array_equal(q, ctl[:, 1])
    lo, hi = subgradient(m, zs)
    sub = np.array([subgradient(m, float(z)) for z in zs])
    assert np.array_equal(lo, sub[:, 0]) and np.array_equal(hi, sub[:, 1])
    xs = np.concatenate([
        np.random.default_rng(4).uniform(0.0, 3.0 * vf.x_resolved, 64),
        vf.psi_knots[::10]])
    assert np.array_equal(vf.v_prime(xs), scalars(vf.v_prime, xs))
    assert np.array_equal(vf.value_at(xs), scalars(vf.value_at, xs))
    for env, curve in ((m.rev_env, m.problem.revenue),
                       (m.cost_env, m.problem.cost)):
        lo, hi = env.domain
        ps = np.concatenate([np.random.default_rng(4).uniform(lo, hi, 4096),
                             env._vx, [lo, hi]])
        assert np.array_equal(env.hull_exact(ps), scalars(env.hull_exact, ps))
        with pytest.raises(OutOfDomain):
            env.hull_exact(np.array([lo, hi + 1.0]))
        if curve.has_derivative:
            assert np.array_equal(curve.derivative(ps),
                                  scalars(curve.derivative, ps))

    for bad in (-0.1, 1.5 * m.z_max):
        with pytest.raises(OutOfDomain):
            h_at(m, bad)
        with pytest.raises(OutOfDomain):
            h_at(m, np.array([0.0, bad]))
    for bad in (1.1 * vf.zeta, 0.0):
        with pytest.raises(OutOfDomain):
            vf.psi(bad)
        with pytest.raises(OutOfDomain):
            vf.psi(np.array([vf.zeta, bad]))
    for query in (vf.v_prime, vf.value_at):
        with pytest.raises(OutOfDomain):
            query(-0.1)
        with pytest.raises(OutOfDomain):
            query(np.array([0.0, -0.1]))


def _full_scan(model, z) -> list:
    """[i_zeta, i_mhi] from H' read at every slope of the grid z."""
    d_minus, d_plus = subgradient(model, z)
    up, down = np.flatnonzero(d_plus >= 0.0), np.flatnonzero(d_minus > 0.0)
    return [int(up[0]) if len(up) else len(z) - 1,
            int(down[0]) if len(down) else len(z)]


def test_kink_scan_edges_lie_in_full_scan_cells(configs_dir,
                                                make_random_instance):
    # zeta and m_hi read from the kinks of H lie in the cells a full scan
    # of the slope grid finds, on the shipped configs, a problem with
    # zeta = 0, seeded tables and seeded cubic instances; h_min is H at
    # zeta bit for bit
    rng = np.random.default_rng(64)
    problems = [validate_problem(load_problem(cfg))
                for cfg in sorted(configs_dir.glob("*.cfg"))]
    problems.append(validate_problem(ProblemSpec(
        beta=0.5, demand_set=ControlSet.interval(0.0, 1.0),
        production_set=ControlSet.interval(0.0, 1.0),
        revenue=Curve.linear_demand_revenue(1.0, 1.0),
        cost=Curve.table([(0.0, 0.0), (1.0, 0.0)]))))
    # (problem, slopes scanned): 257 for the seeded tables, else 4097
    problems = [(p, 4097) for p in problems]
    problems += [(make_random_instance(rng), 257) for _ in range(40)]
    problems += [(validate_problem(builtin_arvan_moses(
        rng.uniform(0.1, 6.0), rng.uniform(0.4, 2.0), rng.uniform(0.2, 2.0),
        beta=0.5)), 4097) for _ in range(40)]
    for k, (p, n) in enumerate(problems):
        m = build_hamiltonian(p)
        z = np.linspace(0.0, m.z_max, n)
        for edge, i in zip((m.zeta, m.m_hi), _full_scan(m, z)):
            assert z[max(i - 1, 0)] <= edge <= z[min(i, len(z) - 1)], k
        assert m.h_min == h_at(m, m.zeta), k


def test_tables_take_no_root_search(seeded_table_models, monkeypatch):
    # H' is constant between the kinks of a table or finite set, so zeta
    # and m_hi are kinks read off the one batch at the kinks: table_curves'
    # zeta is its kink at 0.3 exactly
    calls = [0]
    search = hamiltonian._root_end

    def counted(*args):
        calls[0] += 1
        return search(*args)

    monkeypatch.setattr(hamiltonian, "_root_end", counted)
    for p, _ in seeded_table_models:
        build_hamiltonian(p)
    assert calls[0] == 0
    assert seeded_table_models[0][1].zeta == 0.3


def test_table_kinks_read_neighbouring_edge_slopes(seeded_table_models):
    # a table or finite set has one hull edge per slope, so the
    # subgradient at each kink is the pair of slopes H takes on the cells
    # either side: read at the cell midpoints, and equal to H's secants
    for k, (_, m) in enumerate(seeded_table_models):
        ks = m.kink_zs[m.kink_zs < m.z_max]
        edges = np.concatenate([[0.0], ks, [m.z_max]])
        cell, same = subgradient(m, 0.5 * (edges[:-1] + edges[1:]))
        assert np.array_equal(cell, same), k
        secant = np.diff(h_at(m, edges)) / np.diff(edges)
        assert np.all(np.abs(cell - secant)
                      <= 1e-10 * np.maximum(1.0, np.abs(cell))), k
        below, above = subgradient(m, ks)
        assert np.array_equal(below, cell[:-1]), k
        assert np.array_equal(above, cell[1:]), k
    # table_curves: the kink at 0.12 joins the revenue edges of slopes
    # 0.12 and 0.04 in full
    m = seeded_table_models[0][1]
    at = m.kink_zs[np.argmin(np.abs(m.kink_zs - 0.12))]
    assert subgradient(m, at) == (-0.75, -0.5)


def _ends_at_the_change(f, x, toward):
    """x is in f's class f >= 0, and the point one stop width (1.5e-15 |x|)
    from it toward the other end of the bracket is not."""
    return f(x) >= 0.0 > f(x + toward * 1.5e-15 * abs(x))


def test_bracket_keeps_each_end_in_its_class():
    cases = [(lambda x, c=c: x ** 3 - c, 2.0, -1.0)
             for c in np.linspace(0.1, 3.0, 9).tolist()]
    # decreasing f: the end returned is the lower one
    cases.append((lambda x: 1.0 - x * x, 3.0, 1.0))
    for f, hi, toward in cases:
        assert _ends_at_the_change(f, hamiltonian._root_end(f, 0.0, hi), toward)


def test_jump_and_multiple_root_converge():
    # a step stands in for the jump of H' at a kink; (x - 0.7)^5 for a
    # root where interpolation steps crawl and bisection takes over
    for f, root in ((lambda x: 1.0 if x >= 0.3 else -1.0, 0.3),
                    (lambda x: (x - 0.7) ** 5, 0.7)):
        x = hamiltonian._root_end(f, 0.0, 1.0)
        assert x >= root and _ends_at_the_change(f, x, -1.0)


def _zeta_battery():
    """400 Arvan-Moses draws of default_rng(5), then from default_rng(9)
    200 table revenues against a cubic cost on a ray and 200 linear
    demands against a table cost on an interval."""
    def table(rng, hi, ys):
        n = int(rng.integers(4, 10))
        xs = np.unique(np.concatenate(
            [[0.0], np.sort(rng.uniform(0.0, hi, n - 2)), [hi]]))
        return Curve.table(list(zip(xs, ys(len(xs) - 1))))

    rng = np.random.default_rng(5)
    for _ in range(400):
        yield builtin_arvan_moses(rng.uniform(0.1, 6.0), rng.uniform(0.4, 2.0),
                                  rng.uniform(0.2, 2.0), rng.uniform(0.3, 1.5))
    rng = np.random.default_rng(9)
    for _ in range(200):
        q_hi = rng.uniform(0.5, 2.0)
        revenue = table(rng, q_hi, lambda n: np.concatenate(
            [[0.0], rng.uniform(0.0, 1.2, n)]))
        yield ProblemSpec(beta=rng.uniform(0.3, 1.5),
                          demand_set=ControlSet.interval(0.0, q_hi),
                          production_set=ControlSet.right_ray(0.0),
                          revenue=revenue,
                          cost=Curve.cubic_cost(rng.uniform(0.2, 2.0)))
    for _ in range(200):
        a, b, a_hi = (rng.uniform(0.1, 6.0), rng.uniform(0.4, 2.0),
                      rng.uniform(0.5, 2.5))
        cost = table(rng, a_hi, lambda n: np.concatenate(
            [[0.0], np.cumsum(rng.uniform(0.0, 0.6, n))]))
        yield ProblemSpec(beta=rng.uniform(0.3, 1.5),
                          demand_set=ControlSet.interval(0.0, a / b),
                          production_set=ControlSet.interval(0.0, a_hi),
                          revenue=Curve.linear_demand_revenue(a, b), cost=cost)


# sha256 of repr((zeta, m_hi, h_min, z_max)) over the battery, 210 of whose
# zetas are searched inside a kink cell; a ray's trunc_bound is 2 (k +
# sqrt z_max), so it adds nothing
ZETA_BATTERY = \
    "0705436f3c528074b9c8d59ae465e93abef5e01099863c9426332b798d9b6807"


@pytest.fixture(scope="module")
def battery_models():
    return [build_hamiltonian(spec) for spec in _zeta_battery()]


def _searched(m):
    return m.zeta not in m.kink_zs and 0.0 < m.zeta < m.z_max


def test_zeta_battery_pinned(battery_models):
    digest = hashlib.sha256()
    searched = 0
    for m in battery_models:
        searched += _searched(m)
        digest.update(repr((m.zeta, m.m_hi, m.h_min, m.z_max)).encode())
    assert searched == 210
    assert digest.hexdigest() == ZETA_BATTERY


def _exact_zeta(m):
    """The root of H' in zeta's cell, in the current decimal context.  In
    the cell production is K + sqrt(z) on the cubic and sales (A - z)/(2B)
    on linear demand, a table side holds one vertex, and zeta is where
    the two rates meet."""
    D = decimal.Decimal
    rev, cost = m.problem.revenue, m.problem.cost
    a, q = (D(float(u)) for u in controls_at(m, m.zeta))
    if rev.family == "table":
        return (q - D(cost.params[0])) ** 2
    A, B = (D(c) for c in rev.params)
    if cost.family == "table":
        return A - 2 * B * a
    K = D(cost.params[0])
    return ((B * B - 2 * B * K + A).sqrt() - B) ** 2


def test_searched_zeta_within_8_ulps_of_exact_root(battery_models):
    # the search stops at a width relative to zeta, so it is as exact at
    # any scale; an absolute part of the width cost up to 37.7 ulps here
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        for k, m in enumerate(battery_models):
            if _searched(m):
                root = _exact_zeta(m)
                err = abs(decimal.Decimal(m.zeta) - root)
                assert err <= 8 * decimal.Decimal(math.ulp(float(root))), k
