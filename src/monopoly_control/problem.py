"""Problem data: control sets, revenue/cost curves, validation.

A problem instance is a discount rate beta together with a compact demand
set Q, a closed production set A (both containing 0 and something besides
0), a continuous revenue curve R on Q with R(0) = 0 and R >= 0, and a
continuous non-decreasing cost curve C >= 0 on A.  When A is unbounded the
average cost C(a)/a must grow without bound, otherwise arbitrarily cheap
mass production would make the control problem degenerate.

Everything downstream consumes a ValidatedProblem, which freezes the
points (_points) that validation, the envelopes and the oracle read: a
set's ends and a table's knots, never a sample grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AssumptionViolation,
    CoercivityUndetectable,
    DegenerateGrid,
    InvalidParameter,
)

# Relative slack used by the sign/monotonicity checks in validate_problem.
_VAL_TOL = 1e-12
# Slack of ControlSet membership, relative to the larger of the two rates.
_MEMBER_TOL = 1e-12


def _unique(x) -> np.ndarray:
    """The sorted distinct values of x, flattened, equal bit for bit to
    numpy's unique(x): the same default sort, then the first of each run of
    equal values.  The sort is not stable, so which of 0.0 and -0.0 is kept
    is numpy's choice, as it is in unique; a stable sort differs there.

    numpy's unique, union1d and isin are not used: in numpy 2.x the first
    call imports the whole numpy.ma package, which nothing else here needs,
    to ask whether x is masked.  Every input here is finite by validation,
    so NaN, which unique collapses to one, is out of scope.
    """
    s = np.sort(np.ravel(x))
    keep = np.ones(len(s), dtype=bool)
    keep[1:] = s[1:] != s[:-1]
    return s[keep]


# ---------------------------------------------------------------------------
# control sets


@dataclass(frozen=True)
class ControlSet:
    """A closed subset of the non-negative rates.

    One of three kinds:

    ``interval``
        [lo, hi] with 0 <= lo < hi.
    ``finite``
        a strictly increasing tuple of rates.
    ``right_ray``
        [lo, inf); only legal as a production set.
    """

    kind: str
    lo: float = 0.0
    hi: float = math.inf
    values: tuple[float, ...] = ()

    @staticmethod
    def interval(lo: float, hi: float) -> "ControlSet":
        if not (0.0 <= lo < hi) or not math.isfinite(hi):
            raise InvalidParameter(f"interval needs 0 <= lo < hi < inf, got [{lo}, {hi}]")
        return ControlSet("interval", float(lo), float(hi))

    @staticmethod
    def finite(values) -> "ControlSet":
        vals = tuple(float(v) for v in values)
        if not all(math.isfinite(v) for v in vals):
            raise InvalidParameter(f"finite control set needs finite rates, got {vals}")
        if len(vals) < 2:
            raise InvalidParameter("finite control set needs at least two rates")
        if any(b <= a for a, b in zip(vals, vals[1:])):
            raise InvalidParameter("finite control set must be strictly increasing")
        if vals[0] < 0.0:
            raise InvalidParameter("rates must be non-negative")
        return ControlSet("finite", vals[0], vals[-1], vals)

    @staticmethod
    def right_ray(lo: float = 0.0) -> "ControlSet":
        if not math.isfinite(lo):
            raise InvalidParameter(f"ray origin must be finite, got {lo}")
        if lo < 0.0:
            raise InvalidParameter("ray origin must be non-negative")
        return ControlSet("right_ray", float(lo), math.inf)

    @property
    def is_bounded(self) -> bool:
        return self.kind != "right_ray"

    def contains(self, x: float) -> bool:
        def near(v: float) -> bool:
            return abs(x - v) <= _MEMBER_TOL * max(abs(x), abs(v))

        if x < self.lo and not near(self.lo):
            return False
        if self.kind == "finite":
            return any(near(v) for v in self.values)
        return x <= self.hi or near(self.hi)


# ---------------------------------------------------------------------------
# curves


def _positive(family: str, name: str, value: float) -> float:
    value = float(value)
    if not (value > 0.0 and math.isfinite(value)):
        raise InvalidParameter(
            f"{family} needs a positive finite {name}, got {value}")
    return value


@dataclass(frozen=True)
class Curve:
    """Revenue or cost curve.

    Closed-form families evaluate exactly anywhere.  Every family gives its
    slope on each piece as a quadratic (slope_coefficients); a table is
    linear between knots, so its slope is constant on each cell.  The
    smooth families (linear demand, cubic) also give their envelope on an
    interval in closed form (hull_kind, hull_vertices) and the rate at a
    slope (rate_at_slope), at which the conjugate kernel reads an arc of
    that envelope.

    Families
    --------
    linear_demand : R(q) = (a - b q) q
    affine        : C(x) = c x
    cubic         : C(x) = x^3/3 - k x^2 + k^2 x
    table         : piecewise linear through given (x, y) knots
    """

    family: str
    params: tuple[float, ...] = ()
    xs: tuple[float, ...] = ()
    ys: tuple[float, ...] = ()

    @staticmethod
    def linear_demand_revenue(a: float, b: float) -> "Curve":
        return Curve("linear_demand", (_positive("linear demand", "a", a),
                                       _positive("linear demand", "b", b)))

    @staticmethod
    def affine_cost(c: float) -> "Curve":
        return Curve("affine", (_positive("affine cost", "c", c),))

    @staticmethod
    def cubic_cost(k: float) -> "Curve":
        return Curve("cubic", (_positive("cubic cost", "k", k),))

    @staticmethod
    def table(points) -> "Curve":
        pts = sorted((float(x), float(y)) for x, y in points)
        if not all(math.isfinite(x) and math.isfinite(y) for x, y in pts):
            raise InvalidParameter("table points must be finite")
        if len(pts) < 2:
            raise DegenerateGrid("table needs at least two knots")
        xs = tuple(p[0] for p in pts)
        ys = tuple(p[1] for p in pts)
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise InvalidParameter("table knots must be strictly increasing")
        return Curve("table", (), xs, ys)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.family == "linear_demand":
            a, b = self.params
            out = (a - b * x) * x
        elif self.family == "affine":
            out = self.params[0] * x
        elif self.family == "cubic":
            k = self.params[0]
            out = x * x * x / 3.0 - k * x * x + k * k * x
        elif self.family == "table":
            out = np.interp(x, self.xs, self.ys)
        else:  # pragma: no cover
            raise InvalidParameter(f"unknown curve family {self.family!r}")
        return out if out.ndim else float(out)

    def slope_coefficients(self, x) -> tuple:
        """(p0, p1, p2), arrays shaped like x: the slope is p0 + p1 x + p2 x^2
        on the piece that holds each x (for a table, the cell right of it)."""
        x = np.asarray(x, dtype=float)
        zero = np.zeros_like(x)
        if self.family == "table":
            xs, ys = np.asarray(self.xs), np.asarray(self.ys)
            i = np.clip(np.searchsorted(xs, x, "right") - 1, 0, len(xs) - 2)
            return (np.diff(ys) / np.diff(xs))[i], zero, zero
        a = self.params[0]      # linear demand's a, affine's c, the cubic's k
        coef = {"linear_demand": (a, -2.0 * self.params[-1], 0.0),
                "affine": (a, 0.0, 0.0), "cubic": (a * a, -2.0 * a, 1.0)}
        return tuple(c + zero for c in coef[self.family])

    @property
    def hull_kind(self) -> str | None:
        """The envelope the solver takes of a smooth family: "concave" for
        linear demand, "convex" for the cubic, None when piecewise linear."""
        return {"linear_demand": "concave", "cubic": "convex"}.get(self.family)

    def hull_vertices(self, lo: float, hi: float) -> tuple:
        """(vertices, arc) of the hull_kind envelope on [lo, hi], lo < hi:
        arc[i] marks the edge from vertex i to i + 1 as an arc of the curve,
        else a chord.  Linear demand is its own concave hull.  The cubic is
        concave below k and convex above, so its convex hull is the chord
        from lo to the tangency t = (3k - lo)/2, where C(t) - C(lo) =
        C'(t)(t - lo), then the curve: the chord alone when hi <= t, the
        curve alone when lo >= k."""
        if self.family == "cubic":
            k = self.params[0]
            t = (3.0 * k - lo) / 2.0
            if lo < k and hi <= t:
                return np.array([lo, hi]), np.array([False])
            if lo < k:
                return np.array([lo, t, hi]), np.array([False, True])
        return np.array([lo, hi]), np.array([True])

    def rate_at_slope(self, z):
        """The rate with slope z on the curve's monotone branch, for a
        scalar or an array z.  The cubic uses its increasing branch x >= k,
        where its convex hull follows the curve.  Affine curves and tables
        have no such branch and raise InvalidParameter."""
        z = np.asarray(z, dtype=float)
        if self.family == "linear_demand":
            a, b = self.params
            return (a - z) / (2.0 * b)
        if self.family == "cubic":
            return self.params[0] + np.sqrt(np.maximum(z, 0.0))
        raise InvalidParameter(f"a {self.family} curve has no arc to read a "
                               "rate at a slope")


# ---------------------------------------------------------------------------
# problem spec


@dataclass(frozen=True)
class ProblemSpec:
    """Unvalidated problem description."""

    beta: float
    demand_set: ControlSet
    production_set: ControlSet
    revenue: Curve
    cost: Curve
    # read by nothing; perfbench's workloads still pass it (test_bench_hooks)
    grid_n: int | None = None


@dataclass(frozen=True, eq=False)
class ValidatedProblem:
    """A problem that passed validate_problem: a ProblemSpec's fields, plus
    its curves' points.

    ``q_grid`` holds the revenue's points on Q (see _points) and ``a_grid``
    the cost's on a bounded A; it is None for a right ray, where the
    Hamiltonian builder hulls the cubic up to 2 (k + sqrt z_max).
    """

    beta: float
    demand_set: ControlSet
    production_set: ControlSet
    revenue: Curve
    cost: Curve
    q_grid: np.ndarray = field(repr=False)
    a_grid: np.ndarray | None = field(repr=False)


def _points(curve: Curve, cset: ControlSet) -> np.ndarray | None:
    """The points a curve is read at: a finite set's members, none on a
    ray, else the set's ends and the table knots strictly between them.

    A piecewise-linear curve (affine or table) is fixed by them, and a
    smooth one is hulled from its closed form, which reads only the ends;
    validation decides every assumption there.
    """
    if not cset.is_bounded:
        return None
    if cset.kind == "finite":
        return np.asarray(cset.values)
    ks = np.asarray(curve.xs, dtype=float)
    return np.concatenate([[cset.lo], ks[(ks > cset.lo) & (ks < cset.hi)],
                           [cset.hi]])


def _check_curve_domain(curve: Curve, cset: ControlSet, label: str) -> None:
    """A table must span cset, each end within _VAL_TOL of the larger of
    the two rates compared; a closed form holds on [0, inf), which holds
    every (non-negative) control set."""
    if curve.family != "table":
        return
    lo, hi = curve.xs[0], curve.xs[-1]
    if cset.lo < lo - _VAL_TOL * max(abs(lo), abs(cset.lo)):
        raise AssumptionViolation(f"{label} curve is undefined below {lo}")
    if not cset.is_bounded:
        raise CoercivityUndetectable(
            "a finite cost table cannot certify unbounded average cost growth "
            "on a production ray"
        )
    if cset.hi > hi + _VAL_TOL * max(abs(hi), abs(cset.hi)):
        raise AssumptionViolation(f"{label} table does not cover the control set")


def validate_problem(spec: ProblemSpec | ValidatedProblem) -> ValidatedProblem:
    """Check the standing assumptions at the curves' points and freeze them.

    Raises AssumptionViolation (or CoercivityUndetectable / InvalidParameter)
    with a message naming the violated assumption.  Idempotent: passing an
    already validated problem returns it unchanged.
    """
    if isinstance(spec, ValidatedProblem):
        return spec
    # the closed forms decide the assumptions for these roles only
    if spec.revenue.family == "cubic" or spec.cost.family == "linear_demand":
        raise InvalidParameter("revenue must be linear demand, affine or a "
                               "table, and cost affine, cubic or a table")
    if not (spec.beta > 0 and math.isfinite(spec.beta)):
        raise InvalidParameter("discount rate beta must be positive and finite")

    Q, A = spec.demand_set, spec.production_set
    if not Q.is_bounded:
        raise AssumptionViolation("the demand set must be compact")
    if not Q.contains(0.0):
        raise AssumptionViolation("0 must belong to the demand set")
    if not A.contains(0.0):
        raise AssumptionViolation("0 must belong to the production set")
    # Both sets must offer something besides shutdown.
    if Q.hi <= 0.0:
        raise AssumptionViolation("the demand set must contain a positive rate")
    if A.is_bounded and A.hi <= 0.0:
        raise AssumptionViolation("the production set must contain a positive rate")

    _check_curve_domain(spec.revenue, Q, "revenue")
    _check_curve_domain(spec.cost, A, "cost")

    # linear demand is concave with R(0) = 0, so it is non-negative on an
    # interval iff it is at the top end; its peak there scales the slack
    q_grid = probe = _points(spec.revenue, Q)
    if spec.revenue.family == "linear_demand" and Q.kind == "interval":
        a, b = spec.revenue.params
        probe = np.append(q_grid, np.clip(a / (2.0 * b), Q.lo, Q.hi))
    r_vals = np.asarray(spec.revenue(probe))
    r_scale = float(np.max(np.abs(r_vals))) or 1.0
    if abs(float(spec.revenue(0.0))) > _VAL_TOL * r_scale:
        raise AssumptionViolation("revenue must vanish at zero demand")
    if np.any(r_vals < -_VAL_TOL * r_scale):
        raise AssumptionViolation("revenue must be non-negative on the demand set")

    # the affine and cubic costs are non-negative and non-decreasing; on a
    # ray a table was refused above, and only the cubic is coercive
    a_grid = _points(spec.cost, A)
    if a_grid is None:
        if spec.cost.family == "affine":
            raise AssumptionViolation(
                "production cost is not coercive: an affine cost's average "
                "cost stays at its slope on an unbounded production set")
    else:
        c_vals = np.asarray(spec.cost(a_grid))
        c_scale = float(np.max(np.abs(c_vals))) or 1.0
        if np.any(c_vals < -_VAL_TOL * c_scale):
            raise AssumptionViolation("production cost must be non-negative")
        if np.any(np.diff(c_vals) < -_VAL_TOL * c_scale):
            raise AssumptionViolation("production cost must be non-decreasing")

    return ValidatedProblem(spec.beta, Q, A, spec.revenue, spec.cost,
                            q_grid, a_grid)


# ---------------------------------------------------------------------------
# built-in families


def builtin_linear_cost(c: float, alpha_bar: float, q_bar: float,
                        revenue: Curve, beta: float) -> ProblemSpec:
    """Bounded production at constant marginal cost c against a strictly
    concave revenue.

    Q = [0, q_bar], A = [0, alpha_bar], C(a) = c a.  The revenue curve must
    be strictly concave on [0, q_bar], which of the families only linear
    demand is.
    """
    if c <= 0 or alpha_bar <= 0 or q_bar <= 0 or beta <= 0:
        raise InvalidParameter("c, alpha_bar, q_bar and beta must be positive")
    if revenue.family != "linear_demand":
        raise InvalidParameter("revenue must be strictly concave on [0, q_bar]")
    return ProblemSpec(
        beta=float(beta),
        demand_set=ControlSet.interval(0.0, q_bar),
        production_set=ControlSet.interval(0.0, alpha_bar),
        revenue=revenue,
        cost=Curve.affine_cost(c),
    )


def builtin_arvan_moses(a_coef: float, b_coef: float, k: float,
                        beta: float) -> ProblemSpec:
    """Linear demand against a concave-then-convex cubic cost on a ray.

    R(q) = (a - b q) q on Q = [0, a/b]; C(x) = x^3/3 - k x^2 + k^2 x on
    A = [0, inf).  The cost is concave up to k and convex beyond, so for a
    middle range of demand intercepts no constant production rate is
    optimal and the solver falls back to two-point mixtures.
    """
    if a_coef <= 0 or b_coef <= 0 or k <= 0 or beta <= 0:
        raise InvalidParameter("all coefficients must be positive")
    return ProblemSpec(
        beta=float(beta),
        demand_set=ControlSet.interval(0.0, a_coef / b_coef),
        production_set=ControlSet.right_ray(0.0),
        revenue=Curve.linear_demand_revenue(a_coef, b_coef),
        cost=Curve.cubic_cost(k),
    )
