"""Hulls, conjugates, argmax sets, and mixture decomposition."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from monopoly_control import (
    Curve,
    build_hamiltonian,
    builtin_arvan_moses,
    load_problem,
    validate_problem,
    DecompositionMismatch,
    DegenerateGrid,
    InvalidParameter,
    OutOfDomain,
    convexified_static,
)
from monopoly_control import envelope
from monopoly_control.envelope import (
    concave_hull,
    contact_argmax_intervals,
    convex_hull,
    cost_argmax_grid,
    fenchel_cost,
    fenchel_cost_grid,
    fenchel_revenue,
    fenchel_revenue_grid,
    hull_decompose,
    revenue_argmax_grid,
)

CUBIC = Curve.cubic_cost(1.0)
REV = Curve.linear_demand_revenue(1.0, 1.0)


def _hull_at_knots(env):
    """The envelope's values at its knots xs, read from its vertices."""
    return env._sign * np.interp(env.xs, env._vx, env._vg)


def _slope(curve, x):
    """The curve's slope at x, from its piece's coefficients."""
    p0, p1, p2 = curve.slope_coefficients(x)
    return p0 + p1 * x + p2 * x * x


def _cubic_env(hi=3.0):
    xs = np.array([0.0, hi])
    return convex_hull(xs, CUBIC(xs), curve=CUBIC)


def _rev_env():
    xs = np.array([0.0, 1.0])
    return concave_hull(xs, REV(xs), curve=REV)


@pytest.mark.parametrize("hull", [convex_hull, concave_hull])
@pytest.mark.parametrize("curve", [None, CUBIC], ids=["no_curve", "cubic"])
@pytest.mark.parametrize("xs, fs, error, match", [
    (np.zeros((2, 2)), np.zeros((2, 2)), InvalidParameter, "1-d"),
    ([0.0, 1.0, 2.0], [0.0, 1.0], InvalidParameter, "equal length"),
    ([0.0], [0.0], DegenerateGrid, "two sample points"),
    ([0.0, 1.0, 1.0], [0.0, 1.0, 2.0], InvalidParameter, "strictly increasing"),
    ([0.0, 1.0, 2.0], [0.0, np.nan, 1.0], InvalidParameter, "finite"),
    ([0.0, 1.0, np.inf], [0.0, 1.0, 2.0], InvalidParameter, "finite"),
], ids=["not_1d", "lengths_differ", "one_point", "repeated_knot",
        "nan_value", "inf_knot"])
def test_hull_rejects_malformed_samples(hull, curve, xs, fs, error, match):
    with pytest.raises(error, match=match):
        hull(xs, fs, curve=curve)


def test_cubic_hull_bridges_the_dent():
    env = _cubic_env()
    # the concave arc is replaced by one chord through the origin, to the
    # tangency at 1.5, and the curve follows
    assert env.hull_exact(0.75) == pytest.approx(0.1875, abs=1e-12)
    assert env._vx.tolist() == [0.0, 1.5, 3.0]
    assert env._arc.tolist() == [False, True]
    assert env._bridge.tolist() == [True, False]
    assert env._sign * env._es[0] == 0.25
    # points between the ends are not read: the closed form is the hull
    xs = np.linspace(0.0, 3.0, 2001)
    sampled = convex_hull(xs, CUBIC(xs), curve=CUBIC)
    assert np.array_equal(sampled._vx, env._vx)
    assert np.array_equal(sampled._vg, env._vg)


def test_convex_hull_stays_below_curve():
    env = _cubic_env()
    xs = np.linspace(0.0, 3.0, 557)
    exact = np.array([env.hull_exact(x) for x in xs])
    tol = 1e-9 * np.ptp(CUBIC(xs))
    # at the knots the hull never exceeds the curve
    assert np.all(_hull_at_knots(env) <= env.f + tol)
    # between knots hull_exact follows the curve or a bridge chord, both
    # of which stay below the curve, and it is convex
    assert np.all(exact <= CUBIC(xs) + tol)
    slopes = np.diff(exact) / np.diff(xs)
    assert np.all(np.diff(slopes) >= -1e-9)


def test_concave_hull_of_strictly_concave_curve_is_itself():
    env = _rev_env()
    xs = np.linspace(0.0, 1.0, 313)
    assert np.array_equal(env.hull_exact(xs), REV(xs))
    assert all(env.contact)
    assert env._arc.tolist() == [True] and not env._bridge.any()


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


def test_a_slope_ties_a_chord_only_within_4_ulps():
    # a chord's slope read two ways is one float: within 4 ulps the whole
    # edge attains, and one part in 1e12 off it a vertex does.  The -inf
    # and +inf pads past the end edges never tie, so slopes below the first
    # edge slope and above the last read the end vertices
    xs = np.array([0.0, 1.0, 2.0, 3.0])
    env = convex_hull(xs, np.array([0.0, 0.1, 0.5, 1.5]))
    s = float(env._es[1])
    for w in (s, *np.nextafter(s, [np.inf, -np.inf]),
              s + 4.0 * np.spacing(s), s - 4.0 * np.spacing(s)):
        cv = fenchel_cost(env, w)
        assert (cv.argmax_lo, cv.argmax_hi) == (1.0, 2.0), w
    for w, x in ((s * (1.0 - 1e-12), 1.0), (s * (1.0 + 1e-12), 2.0),
                 (s + 5.0 * np.spacing(s), 2.0), (-1e300, 0.0), (0.0, 0.0),
                 (float(env._es[0]) * 0.5, 0.0), (2.0, 3.0), (1e300, 3.0)):
        cv = fenchel_cost(env, w)
        assert (cv.argmax_lo, cv.argmax_hi) == (x, x), w
    zs = np.array([-1e300, 0.0, 0.05, 2.0, 1e300])
    cv = fenchel_cost(env, zs)
    assert np.array_equal(cv.argmax_lo, cv.argmax_hi)
    assert cv.argmax_lo.tolist() == [0.0, 0.0, 0.0, 3.0, 3.0]
    rv = fenchel_revenue(concave_hull(xs, np.array([0.0, 1.5, 2.5, 2.9])),
                         np.array([-1.0, 0.0, 0.2, 3.0]))
    assert np.array_equal(rv.argmax_lo, rv.argmax_hi)
    assert rv.argmax_lo.tolist() == [3.0, 3.0, 3.0, 0.0]


def test_affine_cost_conjugate_spans_the_interval():
    c = Curve.affine_cost(0.2)
    xs = np.linspace(0.0, 0.3, 1001)
    env = convex_hull(xs, c(xs), curve=c)
    above = fenchel_cost(env, 0.5)
    assert (above.value, above.argmax_lo, above.argmax_hi) == \
        pytest.approx((0.09, 0.3, 0.3), abs=1e-12)
    at = fenchel_cost(env, 0.2)
    # at the marginal cost every rate ties; the whole interval attains
    assert at.value == pytest.approx(0.0, abs=1e-12)
    assert at.argmax_lo == pytest.approx(0.0, abs=1e-12)
    assert at.argmax_hi == pytest.approx(0.3, abs=1e-12)


def test_conjugate_grids_match_scalars():
    # a batch and its scalar queries run the same kernel
    env = _cubic_env()
    zs = np.linspace(0.0, 2.0, 41)
    grid = fenchel_cost_grid(env, zs)
    scalars = np.array([fenchel_cost(env, z).value for z in zs])
    assert np.array_equal(grid, scalars)
    renv = _rev_env()
    zg = np.linspace(0.0, 1.2, 37)
    rg = fenchel_revenue_grid(renv, zg)
    rs = np.array([fenchel_revenue(renv, z).value for z in zg])
    assert np.array_equal(rg, rs)


def test_conjugate_dominates_brute_force(brute_conjugate):
    env = _cubic_env()
    xs = np.linspace(0.0, 3.0, 2001)
    for z in (0.1, 0.25, 0.4, 0.9, 1.7):
        bv, _ = brute_conjugate(xs, CUBIC(xs), z, "cost")
        refined = fenchel_cost(env, z).value
        assert refined >= bv - 1e-12
        assert refined - bv < 1e-6


def test_argmax_grids_resolve_ties_by_side():
    env = _cubic_env()
    zs = np.array([0.25])
    # the grid keeps the smallest maximizer of the tied bridge
    lo = cost_argmax_grid(env, zs)
    hi = fenchel_cost(env, zs).argmax_hi
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


def test_contact_argmax_intervals_finite_members_are_points():
    # a finite set has nothing between its members, so members on one tied
    # hull edge are separate contact points, not the run between them
    xs = np.array([0.0, 1.0])
    for build in (convex_hull, concave_hull):
        env = build(xs, np.array([0.0, 0.5]), finite=True)
        assert contact_argmax_intervals(env, 0.5) == [(0.0, 0.0), (1.0, 1.0)]
    env = convex_hull(np.array([0.0, 0.5, 1.0]), np.array([0.0, 0.25, 0.5]),
                      finite=True)
    assert contact_argmax_intervals(env, 0.5) == [(0.0, 0.0), (0.5, 0.5),
                                                  (1.0, 1.0)]
    # a table on a continuum keeps its affine run whole
    env = convex_hull(xs, np.array([0.0, 0.5]))
    assert contact_argmax_intervals(env, 0.5) == [(0.0, 1.0)]


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


def test_envelope_queries_refuse_what_they_do_not_hold():
    env = _cubic_env()
    with pytest.raises(OutOfDomain, match=r"outside \[0.0, 3.0\]"):
        hull_decompose(env, 3.5)
    with pytest.raises(InvalidParameter, match="cost conjugate needs a convex"):
        fenchel_cost(_rev_env(), 0.5)
    with pytest.raises(InvalidParameter,
                       match="revenue conjugate needs a concave"):
        fenchel_revenue(env, 0.5)


@pytest.mark.parametrize("lam", [1.0, 1e-15])
def test_hull_queries_read_the_domain_at_its_scale(lam):
    # hull_exact and hull_decompose share one domain rule, 1e-12 of the
    # domain's scale: 500 domains past the top is out at any scale, and
    # a part in 1e13 past either end is the end
    env = concave_hull(lam * np.array([0.0, 0.5, 1.0]), [0.0, 0.8, 1.0])
    for query in (env.hull_exact, lambda x: hull_decompose(env, x)):
        for x in (500.0 * lam, -500.0 * lam):
            with pytest.raises(OutOfDomain):
                query(x)
    assert hull_decompose(env, lam * (1.0 + 1e-13)) == (lam, lam, 1.0)
    assert hull_decompose(env, -1e-13 * lam) == (0.0, 0.0, 1.0)
    assert env.hull_exact(lam * (1.0 + 1e-13)) == pytest.approx(1.0)


def test_dented_table_hull_and_decompose():
    pts = [(0.0, 0.0), (0.5, 0.28), (1.0, 0.3)]
    c = Curve.table(pts)
    xs = np.array([p[0] for p in pts])
    env = convex_hull(xs, c(xs))
    assert env.hull_exact(0.5) == pytest.approx(0.15, abs=1e-12)
    x1, x2, w = hull_decompose(env, 0.5)
    assert (x1, x2, w) == pytest.approx((0.0, 1.0, 0.5), abs=1e-12)


def test_hull_decompose_checks_the_mixture_at_any_scale(configs_dir):
    # arvan_moses_mid at A = 1e12 truncates the cost ray far out, so the
    # cost samples span about 1e18 while the mixture (0, 1.5; 1/3) reads
    # values of at most 0.375: a contact value off by 1e-3 must still fail
    # the reconstruction check
    problem = validate_problem(load_problem(
        configs_dir / "arvan_moses_mid.cfg", ["revenue.A=1e12"]))
    model = build_hamiltonian(problem)
    env = model.cost_env
    u_tilde, _ = convexified_static(problem, model)
    a1, a2, nu = hull_decompose(env, u_tilde)
    assert a1 == 0.0 and abs(a2 - 1.5) <= 8 * np.spacing(1.5), (a1, a2)
    assert abs(nu - 1.0 / 3.0) <= 1e-14, nu
    f = env.f.copy()
    f[np.searchsorted(env.xs, a2)] += 1e-3
    with pytest.raises(DecompositionMismatch):
        hull_decompose(dataclasses.replace(env, f=f), u_tilde)


def _closed_form_cases(rng):
    """(env, curve, kind) for seeded closed-form hulls: cubic costs with k
    in 10^-3..10^3 on [0, hi] with hi < k, k < hi < 1.5k and hi > 1.5k,
    and on a ray, hulled up to the solver's ceiling; linear demands on
    [0, q_hi] with q_hi <= a/b."""
    for _ in range(12):
        k = 10.0 ** rng.uniform(-3.0, 3.0)
        cubic = Curve.cubic_cost(k)
        for hi in (rng.uniform(0.1, 1.0) * k, rng.uniform(1.0, 1.5) * k,
                   rng.uniform(1.5, 6.0) * k):
            xs = np.array([0.0, hi])
            yield convex_hull(xs, cubic(xs), curve=cubic), cubic, "cost"
        a, b = 10.0 ** rng.uniform(-3.0, 3.0, 2)
        model = build_hamiltonian(builtin_arvan_moses(
            k * k * rng.uniform(0.1, 3.0), b, k, beta=0.5))
        yield model.cost_env, cubic, "cost"
        demand = Curve.linear_demand_revenue(a, b)
        xs = np.array([0.0, rng.uniform(0.05, 1.0) * a / b])
        yield concave_hull(xs, demand(xs), curve=demand), demand, "revenue"


def test_closed_form_hulls_meet_dense_samples(brute_conjugate):
    # never below the best of 2^16 samples by more than rounding, and
    # above it by less than the samples' own error: with a maximizer
    # inside (x z - f)' = 0, so a sample h/2 away loses at most
    # max|f''| h^2 / 8; the ends are samples
    rng = np.random.default_rng(2028)
    n = 2 ** 16
    count = 0
    for env, curve, kind in _closed_form_cases(rng):
        lo, hi = env.domain
        xs = np.linspace(lo, hi, n)
        fs = curve(xs)
        if kind == "revenue":
            bend = 2.0 * curve.params[1]
        else:
            k = curve.params[0]
            bend = 2.0 * max(abs(lo - k), abs(hi - k))
        err = bend * ((hi - lo) / (n - 1)) ** 2 / 8.0
        d = _slope(curve, np.array([lo, hi]))
        zs = np.concatenate([rng.uniform(min(d) - 1.0, max(d) + 1.0, 6),
                             env.kink_slopes()])
        conj = fenchel_cost if kind == "cost" else fenchel_revenue
        for z in zs:
            z = float(z)
            bv, x = brute_conjugate(xs, fs, z, kind)
            cv = conj(env, z)
            rounding = 1e-12 * (abs(x * z) + abs(float(curve(x)))
                                + abs(cv.argmax_lo * z))
            assert cv.value >= bv - rounding, (kind, lo, hi, z)
            assert cv.value - bv <= err + rounding, (kind, lo, hi, z)
            count += 1
    assert count > 300


def test_closed_form_bridge_ends():
    rng = np.random.default_rng(2029)
    for hi in (1.6, 3.0, 1e6):
        env = _cubic_env(hi)
        assert env._vx[1] == 1.5
        assert fenchel_cost(env, 0.25).argmax_hi == 1.5
    for _ in range(20):
        k = 10.0 ** rng.uniform(-3.0, 3.0)
        cubic = Curve.cubic_cost(k)
        xs = np.array([0.0, rng.uniform(0.1, 6.0) * k])
        env = convex_hull(xs, cubic(xs), curve=cubic)
        end = float(env._vx[1])
        slope = float(env._sign * env._es[0])
        if xs[1] <= 1.5 * k:
            assert end == xs[1]
        else:
            # the chord is tangent at its far end
            assert end == pytest.approx(1.5 * k, rel=1e-15)
            assert float(_slope(cubic, end)) == pytest.approx(slope,
                                                              rel=1e-12)
        x = rng.uniform(0.05, 0.95) * end
        x1, x2, delta = hull_decompose(env, x)
        assert (x1, x2) == (0.0, end)
        assert delta == pytest.approx((end - x) / end, rel=1e-12)
        assert contact_argmax_intervals(env, slope) == [(0.0, 0.0),
                                                        (end, end)]


def test_table_kink_slopes_are_edge_slopes():
    pts = [(0.0, 0.0), (0.5, 0.1), (1.0, 0.4)]
    c = Curve.table(pts)
    xs = np.array([p[0] for p in pts])
    env = convex_hull(xs, c(xs))
    assert sorted(env.kink_slopes()) == pytest.approx([0.2, 0.6], abs=1e-12)


def test_random_tables_hull_invariants(brute_conjugate):
    rng = np.random.default_rng(20240817)
    for _ in range(25):
        n = rng.integers(5, 60)
        xs = np.sort(rng.uniform(0.0, 2.0, n))
        xs[0] = 0.0
        xs = np.unique(xs)
        fs = rng.uniform(0.0, 1.0, len(xs))
        env = convex_hull(xs, fs)
        tol = 1e-9 * np.ptp(fs)
        hull = _hull_at_knots(env)
        assert np.all(hull <= fs + tol)
        slopes = np.diff(hull) / np.diff(env.xs)
        assert np.all(np.diff(slopes) >= -1e-8)
        cenv = concave_hull(xs, fs)
        chull = _hull_at_knots(cenv)
        assert np.all(chull >= fs - tol)
        cslopes = np.diff(chull) / np.diff(cenv.xs)
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


SHIPPED = ["arvan_moses_high", "arvan_moses_low", "arvan_moses_mid",
           "linear_cost", "table_curves"]


def test_chain_matches_loop_on_shipped_envelopes(configs_dir, monkeypatch,
                                                 reference_chain):
    # every chain a build runs, on a table's knots and an affine cost's
    # ends, is the plain loop's vertex list; a smooth curve is hulled in
    # closed form and runs no chain
    calls = []
    chain = envelope._chain_lower

    def record(xs, gs):
        out = chain(xs, gs)
        calls.append((xs.copy(), gs.copy(), out))
        return out

    monkeypatch.setattr(envelope, "_chain_lower", record)
    for name in SHIPPED:
        for beta in ([], ["problem.beta=0.3"], ["problem.beta=1.5"]):
            before = len(calls)
            model = build_hamiltonian(validate_problem(
                load_problem(configs_dir / f"{name}.cfg", beta)))
            smooth = [e.smooth for e in (model.rev_env, model.cost_env)]
            assert len(calls) - before == smooth.count(False), name
    # table_curves' revenue and cost, linear_cost's affine cost
    assert len(calls) == 3 * 3
    for xs, gs, out in calls:
        assert out.tolist() == reference_chain(xs, gs)


def _chain_inputs(rng, make_random_instance):
    """Seeded (xs, gs) samples covering every path of the chain: convex and
    concave stretches, dents, rounding noise on collinear samples, exactly
    collinear samples, finite sets, and the shortest inputs."""
    def knots(n, uniform):
        if uniform:
            return np.linspace(0.0, rng.uniform(0.5, 3.0), n)
        return np.unique(rng.uniform(0.0, 3.0, n))

    def sampled(curve, cset, n):
        # n samples of the set with the table's knots folded in
        if cset.kind == "finite":
            return np.asarray(cset.values)
        xs = np.linspace(cset.lo, cset.hi, n)
        ks = np.asarray(curve.xs)
        return np.union1d(xs, ks[(ks >= xs[0]) & (ks <= xs[-1])])

    for n in (1, 2, 3):
        for _ in range(30):
            xs = knots(n, rng.uniform() < 0.5)
            yield xs, rng.normal(size=len(xs))
    for _ in range(420):                        # random tables
        xs = knots(int(rng.integers(4, 120)), rng.uniform() < 0.5)
        yield xs, rng.uniform(0.0, 1.0, len(xs))
    for _ in range(150):                        # sampled random tables
        p = make_random_instance(rng)
        q_xs = sampled(p.revenue, p.demand_set, 257)
        a_xs = sampled(p.cost, p.production_set, 257)
        yield q_xs, -p.revenue(q_xs)
        yield a_xs, p.cost(a_xs)
    for _ in range(300):                        # affine, rounding noise
        xs = knots(int(rng.integers(20, 1500)), rng.uniform() < 0.7)
        yield xs, rng.normal() * xs + rng.normal()
    for _ in range(200):                        # exactly collinear
        n = int(rng.integers(3, 600))
        xs = np.arange(n) * 2.0 ** -int(rng.integers(0, 10))
        yield xs, float(rng.integers(-3, 4)) * xs + float(rng.integers(-5, 5))
    for _ in range(200):                        # finite sets
        xs = knots(int(rng.integers(2, 9)), False)
        yield xs, rng.uniform(0.0, 1.0, len(xs))
    for _ in range(300):                        # dents, both orientations
        xs = knots(int(rng.integers(50, 2500)), rng.uniform() < 0.8)
        mid = rng.uniform(0.2, 0.8) * xs[-1]
        gs = (xs - mid) ** 3 - rng.uniform(0.0, 2.0) * (xs - mid) ** 2 \
            + rng.uniform(0.5, 3.0) * xs
        yield xs, gs if rng.uniform() < 0.5 else -gs
    for _ in range(200):                        # smooth, rounded or wavy
        xs = knots(int(rng.integers(50, 2000)), rng.uniform() < 0.8)
        k = int(rng.integers(1, 6))
        if rng.uniform() < 0.5:
            yield xs, np.round(xs ** 2 - np.sin(k * xs), k)
        else:
            yield xs, np.sin(k * xs) + rng.uniform(-0.3, 0.3) * xs ** 2


def test_chain_matches_loop_on_seeded_inputs(reference_chain,
                                             make_random_instance):
    rng = np.random.default_rng(20260418)
    count = 0
    for xs, gs in _chain_inputs(rng, make_random_instance):
        xs = np.asarray(xs, dtype=float)
        gs = np.asarray(gs, dtype=float)
        assert envelope._chain_lower(xs, gs).tolist() == reference_chain(xs, gs), \
            (len(xs), count)
        count += 1
    assert count >= 2000
