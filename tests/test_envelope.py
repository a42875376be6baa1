"""Hulls, conjugates, argmax sets, and mixture decomposition."""

import itertools
import math

import numpy as np
import pytest

from monopoly_control import (
    Curve,
    DecompositionMismatch,
    concave_hull,
    contact_argmax_intervals,
    convex_hull,
    fenchel_cost,
    fenchel_cost_grid,
    fenchel_revenue,
    fenchel_revenue_grid,
    hull_decompose,
)
from monopoly_control.envelope import cost_argmax_grid, revenue_argmax_grid
from monopoly_control.oracle import brute_conjugate

CUBIC = Curve.cubic_cost(1.0)
REV = Curve.linear_demand_revenue(1.0, 1.0)


def _cubic_env(n=2001, hi=3.0):
    xs = np.linspace(0.0, hi, n)
    return convex_hull(xs, CUBIC(xs), evaluator=CUBIC,
                       derivative=CUBIC.derivative,
                       derivative_inverse=CUBIC.derivative_inverse())


def _rev_env(n=2001):
    xs = np.linspace(0.0, 1.0, n)
    return concave_hull(xs, REV(xs), evaluator=REV,
                        derivative=REV.derivative,
                        derivative_inverse=REV.derivative_inverse())


def test_cubic_hull_bridges_the_dent():
    env = _cubic_env()
    # the concave arc is replaced by one chord through the origin
    assert env.hull_exact(0.75) == pytest.approx(0.1875, abs=1e-12)
    long = np.nonzero(np.diff(env._vx) > 0.5)[0]
    assert len(long) == 1
    e = long[0]
    assert env._sign * env._es[e] == pytest.approx(0.25, abs=1e-9)
    assert env._vx[e] == pytest.approx(0.0, abs=1e-9)
    assert env._vx[e + 1] == pytest.approx(1.5, abs=1e-9)
    assert env._bridge[e]


def test_convex_hull_stays_below_curve():
    env = _cubic_env()
    # at the knots the hull never exceeds the samples
    assert np.all(env.hull <= env.f + env.value_tol)
    # between knots hull_exact follows the curve or a bridge chord,
    # both of which stay below a convex curve
    xs = np.linspace(0.0, 3.0, 557)
    exact = np.array([env.hull_exact(x) for x in xs])
    assert np.all(exact <= CUBIC(xs) + env.value_tol)
    slopes = np.diff(env.hull) / np.diff(env.xs)
    assert np.all(np.diff(slopes) >= -1e-9)


def test_concave_hull_of_strictly_concave_curve_is_itself():
    env = _rev_env()
    xs = np.linspace(0.0, 1.0, 313)
    assert np.allclose(env.hull_exact(xs), REV(xs), atol=1e-7)
    assert all(env.contact)


def test_cubic_kink_slopes():
    env = _cubic_env()
    ks = env.kink_slopes()
    # bridge slope plus the endpoint derivatives C'(0)=1, C'(3)=4
    assert sorted(ks) == pytest.approx([0.25, 1.0, 4.0], abs=1e-9)


def test_fenchel_cost_at_bridge_slope_spans():
    env = _cubic_env()
    cv = fenchel_cost(env, 0.25)
    assert cv.value == pytest.approx(0.0, abs=1e-12)
    assert cv.argmax_lo == pytest.approx(0.0, abs=1e-9)
    assert cv.argmax_hi == pytest.approx(1.5, abs=1e-9)


def test_fenchel_cost_interior_point_is_exact():
    env = _cubic_env()
    z = 0.5
    a_star = 1.0 + math.sqrt(0.5)
    cv = fenchel_cost(env, z)
    assert cv.argmax_lo == pytest.approx(a_star, abs=1e-10)
    assert cv.argmax_hi == pytest.approx(a_star, abs=1e-10)
    assert cv.value == pytest.approx(z * a_star - CUBIC(a_star), abs=1e-12)


def test_fenchel_revenue_closed_form():
    env = _rev_env()
    rv = fenchel_revenue(env, 0.2)
    # sup_q (1-q)q - 0.2 q peaks at q = 0.4
    assert rv.value == pytest.approx(0.16, abs=1e-12)
    assert rv.argmax_lo == pytest.approx(0.4, abs=1e-10)
    assert rv.argmax_hi == pytest.approx(0.4, abs=1e-10)


def test_affine_cost_conjugate_spans_the_interval():
    c = Curve.affine_cost(0.2)
    xs = np.linspace(0.0, 0.3, 1001)
    env = convex_hull(xs, c(xs), evaluator=c, derivative=c.derivative)
    above = fenchel_cost(env, 0.5)
    assert (above.value, above.argmax_lo, above.argmax_hi) == \
        pytest.approx((0.09, 0.3, 0.3), abs=1e-12)
    at = fenchel_cost(env, 0.2)
    # at the marginal cost every rate ties; the whole interval attains
    assert at.value == pytest.approx(0.0, abs=1e-12)
    assert at.argmax_lo == pytest.approx(0.0, abs=1e-12)
    assert at.argmax_hi == pytest.approx(0.3, abs=1e-12)


def test_conjugate_grids_match_scalars():
    # grid kernels skip the tangency refinement, so they sit within one
    # sample-cell quadratic error of the refined scalar values
    env = _cubic_env()
    zs = np.linspace(0.0, 2.0, 41)
    grid = fenchel_cost_grid(env, zs)
    scalars = np.array([fenchel_cost(env, z).value for z in zs])
    assert np.allclose(grid, scalars, atol=5e-7)
    assert np.all(grid <= scalars + 1e-12)
    renv = _rev_env()
    zg = np.linspace(0.0, 1.2, 37)
    rg = fenchel_revenue_grid(renv, zg)
    rs = np.array([fenchel_revenue(renv, z).value for z in zg])
    assert np.allclose(rg, rs, atol=5e-7)
    assert np.all(rg <= rs + 1e-12)


def test_conjugate_dominates_brute_force():
    env = _cubic_env()
    xs = env.xs
    for z in (0.1, 0.25, 0.4, 0.9, 1.7):
        bv, _ = brute_conjugate(xs, CUBIC(xs), z, "cost")
        refined = fenchel_cost(env, z).value
        assert refined >= bv - 1e-12
        assert refined - bv < 1e-6


def test_argmax_grids_resolve_ties_by_side():
    env = _cubic_env()
    zs = np.array([0.25])
    lo = cost_argmax_grid(env, zs, side="left")
    hi = cost_argmax_grid(env, zs, side="right")
    assert lo[0] == pytest.approx(0.0, abs=1e-9)
    assert hi[0] == pytest.approx(1.5, abs=1e-9)
    renv = _rev_env()
    qs = revenue_argmax_grid(renv, np.array([0.2]))
    assert qs[0] == pytest.approx(0.4, abs=1e-9)


def test_contact_argmax_intervals_bridge():
    env = _cubic_env()
    spans = contact_argmax_intervals(env, 0.25)
    assert len(spans) == 2
    (l0, h0), (l1, h1) = spans
    assert (l0, h0) == pytest.approx((0.0, 0.0), abs=1e-6)
    assert (l1, h1) == pytest.approx((1.5, 1.5), abs=1e-6)


def test_hull_decompose_mixes_bridge_points():
    env = _cubic_env()
    x1, x2, w = hull_decompose(env, 0.375)
    assert (x1, x2) == pytest.approx((0.0, 1.5), abs=1e-9)
    assert w == pytest.approx(0.75, abs=1e-9)
    # convexity identity: the mixture reproduces the hull value
    mix = w * env.hull_exact(x1) + (1 - w) * env.hull_exact(x2)
    assert mix == pytest.approx(env.hull_exact(0.375), abs=1e-10)


def test_hull_decompose_contact_point_is_trivial():
    env = _cubic_env()
    x1, x2, w = hull_decompose(env, 2.5)
    assert x1 == x2 == pytest.approx(2.5)
    assert w == 1.0


def test_dented_table_hull_and_decompose():
    pts = [(0.0, 0.0), (0.5, 0.28), (1.0, 0.3)]
    c = Curve.table(pts)
    xs = np.array([p[0] for p in pts])
    env = convex_hull(xs, c(xs))
    assert env.hull_exact(0.5) == pytest.approx(0.15, abs=1e-12)
    x1, x2, w = hull_decompose(env, 0.5)
    assert (x1, x2, w) == pytest.approx((0.0, 1.0, 0.5), abs=1e-12)


def test_table_kink_slopes_are_edge_slopes():
    pts = [(0.0, 0.0), (0.5, 0.1), (1.0, 0.4)]
    c = Curve.table(pts)
    xs = np.array([p[0] for p in pts])
    env = convex_hull(xs, c(xs))
    assert sorted(env.kink_slopes()) == pytest.approx([0.2, 0.6], abs=1e-12)


def test_random_tables_hull_invariants():
    rng = np.random.default_rng(20240817)
    for _ in range(25):
        n = rng.integers(5, 60)
        xs = np.sort(rng.uniform(0.0, 2.0, n))
        xs[0] = 0.0
        xs = np.unique(xs)
        fs = rng.uniform(0.0, 1.0, len(xs))
        env = convex_hull(xs, fs)
        assert np.all(env.hull <= fs + env.value_tol)
        slopes = np.diff(env.hull) / np.diff(env.xs)
        assert np.all(np.diff(slopes) >= -1e-8)
        cenv = concave_hull(xs, fs)
        assert np.all(cenv.hull >= fs - cenv.value_tol)
        cslopes = np.diff(cenv.hull) / np.diff(cenv.xs)
        assert np.all(np.diff(cslopes) <= 1e-8)
        for z in rng.uniform(-1.0, 1.5, 4):
            bv, _ = brute_conjugate(xs, fs, z, "cost")
            assert fenchel_cost(env, z).value >= bv - 1e-10
            rv, _ = brute_conjugate(xs, fs, z, "revenue")
            assert fenchel_revenue(cenv, z).value >= rv - 1e-10
        # the edge arrays agree with their per-edge and per-knot loops
        for e in (env, cenv):
            assert e._bridge.tolist() == [
                not e.contact[i + 1:j].all() for i, j in zip(e._vidx, e._vidx[1:])]
            conj = fenchel_cost if e.kind == "convex" else fenchel_revenue
            for z in e._sign * e._es:
                cv = conj(e, z)
                ks = np.nonzero((e.xs >= cv.argmax_lo) & (e.xs <= cv.argmax_hi))[0]
                runs = [[e.xs[k] for k in grp] for c, grp
                        in itertools.groupby(ks, key=lambda k: e.contact[k]) if c]
                assert contact_argmax_intervals(e, z) == [(r[0], r[-1]) for r in runs]
