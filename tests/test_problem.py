"""Problem validation: control sets, curve families, standing assumptions."""

import dataclasses
import math

import numpy as np
import pytest

from monopoly_control import (
    AssumptionViolation,
    CoercivityUndetectable,
    ControlSet,
    Curve,
    DegenerateGrid,
    InvalidParameter,
    ProblemSpec,
    builtin_arvan_moses,
    builtin_linear_cost,
    validate_problem,
)


def test_interval_contains_and_sampling():
    s = ControlSet.interval(0.0, 2.0)
    assert s.contains(0.0) and s.contains(2.0) and s.contains(1.3)
    assert not s.contains(-0.1) and not s.contains(2.0 + 1e-9)


def test_interval_rejects_bad_bounds():
    with pytest.raises(InvalidParameter):
        ControlSet.interval(1.0, 1.0)
    with pytest.raises(InvalidParameter):
        ControlSet.interval(-0.5, 1.0)
    with pytest.raises(InvalidParameter):
        ControlSet.interval(0.0, math.inf)


def test_finite_set_strictly_increasing():
    s = ControlSet.finite([0.0, 1.0, 2.0])
    assert s.values == (0.0, 1.0, 2.0)
    assert s.contains(1.0) and not s.contains(1.5)
    with pytest.raises(InvalidParameter):
        ControlSet.finite([0.0, 2.0, 1.0])
    with pytest.raises(InvalidParameter):
        ControlSet.finite([0.0, 0.0, 1.0])
    with pytest.raises(InvalidParameter):
        ControlSet.finite([0.5])


def test_right_ray_unbounded():
    s = ControlSet.right_ray(0.0)
    assert not s.is_bounded
    assert s.contains(1e9)
    with pytest.raises(InvalidParameter):
        ControlSet.right_ray(-1.0)


@pytest.mark.parametrize("make, shown", [
    (lambda: ControlSet.finite([0.0, math.inf]), "(0.0, inf)"),
    (lambda: ControlSet.finite([math.nan, 1.0]), "(nan, 1.0)"),
    (lambda: ControlSet.right_ray(math.nan), "nan"),
    (lambda: ControlSet.right_ray(math.inf), "inf"),
], ids=["finite_inf", "finite_nan", "ray_nan", "ray_inf"])
def test_control_sets_reject_non_finite_values(make, shown):
    with pytest.raises(InvalidParameter, match="finite") as err:
        make()
    assert str(err.value).endswith(f"got {shown}")


def test_curve_families_evaluate():
    r = Curve.linear_demand_revenue(1.0, 1.0)
    assert r(0.5) == 0.25
    assert np.allclose(r([0.0, 1.0]), [0.0, 0.0])
    c = Curve.cubic_cost(1.0)
    # stationary kink of the cubic family: C(K) = K^3/3
    assert math.isclose(c(1.0), 1.0 / 3.0, rel_tol=1e-15)
    a = Curve.affine_cost(0.2)
    assert a(3.0) == pytest.approx(0.6)


@pytest.mark.parametrize("make, name", [
    (lambda v: Curve.linear_demand_revenue(v, 1.0), "a"),
    (lambda v: Curve.linear_demand_revenue(1.0, v), "b"),
    (Curve.affine_cost, "c"),
    (Curve.cubic_cost, "k"),
])
@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
def test_curve_constructors_reject_non_finite_coefficients(make, name, bad):
    with pytest.raises(InvalidParameter, match=f"positive finite {name}\\b"):
        make(bad)


def test_table_rejects_non_finite_points():
    for pts in ([(0.0, 0.0), (1.0, math.nan)], [(0.0, 0.0), (math.inf, 1.0)]):
        with pytest.raises(InvalidParameter, match="finite"):
            Curve.table(pts)


def test_all_lists_every_public_name():
    import inspect
    import monopoly_control
    public = {name for name, obj in vars(monopoly_control).items()
              if not name.startswith("_") and not inspect.ismodule(obj)}
    assert sorted(monopoly_control.__all__) == sorted(public)


def test_table_curve_interpolates_linearly():
    t = Curve.table([(0.0, 0.0), (1.0, 1.0), (2.0, 1.5)])
    assert t(0.5) == pytest.approx(0.5)
    assert t(1.5) == pytest.approx(1.25)
    with pytest.raises(InvalidParameter):
        Curve.table([(0.0, 0.0), (0.0, 1.0)])
    with pytest.raises(DegenerateGrid, match="at least two knots"):
        Curve.table([(0.0, 0.0)])
    with pytest.raises(InvalidParameter, match="no derivative"):
        t.derivative(0.5)


def test_derivative_inverse_closed_forms():
    r = Curve.linear_demand_revenue(1.0, 2.0)
    inv = r.derivative_inverse()
    # R'(q) = 1 - 4q, so the marginal-revenue preimage of z is (1-z)/4
    assert inv(0.5) == pytest.approx(0.125)
    c = Curve.cubic_cost(2.0)
    cinv = c.derivative_inverse()
    # increasing branch of C'(a) = (a-2)^2: preimage of z is 2 + sqrt(z)
    assert cinv(0.25) == pytest.approx(2.5)
    assert Curve.affine_cost(1.0).derivative_inverse() is None


def test_validate_requires_zero_in_both_sets():
    spec = ProblemSpec(
        beta=0.5,
        demand_set=ControlSet.finite([1.0, 2.0]),
        production_set=ControlSet.interval(0.0, 1.0),
        revenue=Curve.linear_demand_revenue(4.0, 1.0),
        cost=Curve.affine_cost(0.1),
    )
    with pytest.raises(AssumptionViolation, match="demand"):
        validate_problem(spec)


@pytest.mark.parametrize("role, message", [
    ("demand_set", "the demand set must contain a positive rate"),
    ("production_set", "the production set must contain a positive rate")])
def test_validate_requires_a_positive_rate_in_both_sets(linear_cost_problem,
                                                        role, message):
    # the constructor refuses [0, 0]; one built directly holds only 0
    spec = dataclasses.replace(linear_cost_problem.spec,
                               **{role: ControlSet("interval", 0.0, 0.0)})
    with pytest.raises(AssumptionViolation, match=message):
        validate_problem(spec)


def test_validate_rejects_negative_or_decreasing_cost():
    spec = ProblemSpec(
        beta=0.5,
        demand_set=ControlSet.interval(0.0, 1.0),
        production_set=ControlSet.interval(0.0, 1.0),
        revenue=Curve.linear_demand_revenue(1.0, 1.0),
        cost=Curve.table([(0.0, 0.0), (1.0, -0.5)]),
    )
    with pytest.raises(AssumptionViolation):
        validate_problem(spec)


def test_validate_rejects_unbounded_demand():
    spec = ProblemSpec(
        beta=0.5,
        demand_set=ControlSet.right_ray(0.0),
        production_set=ControlSet.interval(0.0, 1.0),
        revenue=Curve.linear_demand_revenue(1.0, 1.0),
        cost=Curve.affine_cost(0.1),
    )
    with pytest.raises(AssumptionViolation):
        validate_problem(spec)


def test_validate_rejects_nonpositive_beta():
    spec = ProblemSpec(
        beta=0.0,
        demand_set=ControlSet.interval(0.0, 1.0),
        production_set=ControlSet.interval(0.0, 1.0),
        revenue=Curve.linear_demand_revenue(1.0, 1.0),
        cost=Curve.affine_cost(0.1),
    )
    with pytest.raises(InvalidParameter):
        validate_problem(spec)


def test_table_cost_on_ray_is_rejected():
    # a finite table cannot certify super-linear growth at infinity
    spec = ProblemSpec(
        beta=0.5,
        demand_set=ControlSet.interval(0.0, 1.0),
        production_set=ControlSet.right_ray(0.0),
        revenue=Curve.linear_demand_revenue(1.0, 1.0),
        cost=Curve.table([(0.0, 0.0), (1.0, 1.0)]),
    )
    with pytest.raises(CoercivityUndetectable):
        validate_problem(spec)


def test_validate_idempotent(linear_cost_problem):
    assert validate_problem(linear_cost_problem) is linear_cost_problem


def test_builtin_families_validate(linear_cost_problem, am_mid_problem):
    assert linear_cost_problem.beta == 0.5
    assert am_mid_problem.production_set.kind == "right_ray"
    # the demand interval tops out where price hits zero
    assert am_mid_problem.demand_set.hi == pytest.approx(1.0)


def test_builtin_guards():
    with pytest.raises(InvalidParameter):
        builtin_linear_cost(0.0, 0.3, 1.0,
                            Curve.linear_demand_revenue(1.0, 1.0), beta=0.5)
    with pytest.raises(InvalidParameter):
        builtin_arvan_moses(1.0, 1.0, -1.0, beta=0.5)
    convex_rev = Curve.table([(0.0, 0.0), (0.5, 0.1), (1.0, 1.0)])
    with pytest.raises(InvalidParameter):
        builtin_linear_cost(0.2, 0.3, 1.0, convex_rev, beta=0.5)


def test_grids_cover_sets(am_mid_problem):
    q = am_mid_problem.q_grid
    assert q[0] == 0.0 and q[-1] == pytest.approx(1.0)
    # a ray has no grid: its cost is hulled up to the solver's ceiling
    assert am_mid_problem.a_grid is None


def test_linear_demand_rounding_at_zero_price_validates():
    # Q = [0, A/B] ends where the price (A - B q) is 0, which A/B meets only
    # to rounding: R(A/B) is a few ulps either side of 0.  The slack scales
    # with R at its peak, so every draw validates
    rng = np.random.default_rng(32)
    below = 0
    for _ in range(2000):
        a, b, k = rng.uniform(0.1, 6.0), rng.uniform(0.4, 2.0), rng.uniform(0.2, 2.0)
        p = validate_problem(builtin_arvan_moses(a, b, k, beta=0.5))
        below += p.revenue(p.demand_set.hi) < 0.0
    assert below >= 40          # about 4 % of the draws


@pytest.mark.parametrize("revenue, cost", [
    (Curve.cubic_cost(1.0), Curve.affine_cost(0.1)),
    (Curve.linear_demand_revenue(1.0, 1.0), Curve.linear_demand_revenue(1.0, 1.0)),
], ids=["cubic_revenue", "linear_demand_cost"])
def test_validate_refuses_a_family_in_a_role_it_is_not_decided_for(revenue,
                                                                   cost):
    # the cubic's concave hull and linear demand's monotonicity are not
    # decided by a set's ends, which is all validation and the hulls read
    spec = ProblemSpec(beta=0.5, demand_set=ControlSet.interval(0.0, 1.0),
                       production_set=ControlSet.interval(0.0, 1.0),
                       revenue=revenue, cost=cost)
    with pytest.raises(InvalidParameter, match="revenue must be linear demand"):
        validate_problem(spec)
