"""Stationary, relaxed, cyclic, and stock-drawdown strategies.

The static question: is there a single rate u in Q intersect A with
R(u) - C(u) = min H?  The best constant rate, exact from the curves'
pieces, answers it.  If yes, produce and sell at u forever (once stock is
gone) and nothing beats it.  If no, the gap is closed by mixing two sales
rates and two production rates with matching means (the relaxed optimum),
realized physically by fast production/sales cycles whose payoff comes
within order epsilon of the bound while stock stays non-negative.

An optimal plan draws positive initial stock down in finite time, then
runs a stationary plan forever; stationary_plan is the one rule that picks
that tail, and drawdown_plan builds the arc from the solved value function.
Along the arc the marginal value of stock rises exponentially at the
discount rate, so the slope table's knots are the arc's, at t = ln(xi /
xi0) / beta, with Psi its stock and the table's controls its controls.

Every stationary plan is a piecewise-constant periodic control and says so
through segments(problem) -> (period, phases, mean_rate), the phases being
(t0, t1, produce, sell, rate) tuples covering one period.  A static rate
is one endless phase (period inf), a relaxed optimum one endless phase at
its mean rates, a cycle its eps-periodic phases.  A DrawdownPlan is the
drawdown arc at its knots and cell midpoints, then one of these as its
tail.  Plans are this data and nothing else: simulate reads it, and the
Euler referee that samples controls over time lives with the tests.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from ._roots import stop_width
from .envelope import hull_decompose
from .errors import DecompositionMismatch, InvalidParameter, ZetaZeroWarning
from .hamiltonian import (HamiltonianModel, _in_domain, _sides,
                          controls_at as _h_controls)
from .problem import ValidatedProblem, validate_problem
from .value import ValueFunction

# the drawdown arc's stock reaches zero at tau within this share of
# max(1, x0)
_ARC_X_TOL = 1e-10


@dataclass(frozen=True)
class StaticPlan:
    """Produce and sell at the constant rate u."""
    u: float

    def segments(self, problem: ValidatedProblem) -> tuple:
        """One endless phase at u, which must lie in Q intersect A."""
        u = self.u
        if not (problem.demand_set.contains(u) and problem.production_set.contains(u)):
            raise InvalidParameter(f"static rate {u} leaves Q or A")
        rate = float(problem.revenue(u) - problem.cost(u))
        return math.inf, ((0.0, math.inf, u, u, rate),), rate

    def describe(self) -> str:
        return f"static u={self.u:.10g}"


@dataclass(frozen=True)
class StaticReport:
    """Whether the best constant rate u_hat, where R - C = payoff, attains
    min H = payoff + gap; the witness is u_hat if it does, else None."""
    optimal: bool
    u_hat: float
    payoff: float
    gap: float
    witness: float | None


@dataclass(frozen=True)
class RelaxedStatic:
    """Two-point mixtures on sales and production with equal means.

    gamma weighs q1, nu weighs a1; payoff is the mixed running profit,
    which matches min H when u_tilde maximizes the convexified profit.
    """
    u_tilde: float
    q1: float
    q2: float
    gamma: float
    a1: float
    a2: float
    nu: float
    payoff: float

    @property
    def sales_mixed(self) -> bool:
        return self.q1 != self.q2

    @property
    def production_mixed(self) -> bool:
        return self.a1 != self.a2

    def segments(self, problem: ValidatedProblem) -> tuple:
        """One endless phase at the mean rates, earning the mixed payoff."""
        a = self.nu * self.a1 + (1.0 - self.nu) * self.a2
        q = self.gamma * self.q1 + (1.0 - self.gamma) * self.q2
        return math.inf, ((0.0, math.inf, a, q, self.payoff),), self.payoff

    def describe(self) -> str:
        return (f"relaxed u~={self.u_tilde:.10g} "
                f"q=({self.q1:.10g},{self.q2:.10g};{self.gamma:.10g}) "
                f"a=({self.a1:.10g},{self.a2:.10g};{self.nu:.10g})")


@dataclass(frozen=True, eq=False)
class CyclicPlan:
    """Periodic realization of a relaxed optimum with period eps.

    phases are (t_start, t_end, produce, sell, payoff_rate) tuples covering
    one period; stock starts and ends each period at zero and peaks at
    peak_stock = kappa-ish fraction into the cycle.  mean_payoff is the
    time average over a period and equals the relaxed payoff.
    """
    eps: float
    phases: tuple
    kappa: float
    peak_stock: float
    mean_payoff: float

    def segments(self, problem: ValidatedProblem) -> tuple:
        return self.eps, self.phases, self.mean_payoff

    def describe(self) -> str:
        return (f"cyclic eps={self.eps:.10g} kappa={self.kappa:.10g} "
                f"peak={self.peak_stock:.10g}")


@dataclass(frozen=True, eq=False)
class DrawdownPlan:
    """Feedback drawdown of initial stock, then a stationary tail.

    Along the optimal path the marginal value of stock obeys xi(t) =
    v'(x0) e^(beta t) until it reaches zeta at time tau.  Row k is the
    instant t_knots[k] at slope xi_knots[k], with stock x_knots[k] and
    the production and sales one-sided into the cell that follows (a kink
    of H holds two rows at one instant), and a_mid, q_mid the controls at
    the midpoint between rows k and k + 1.  Then tail runs.
    """
    x0: float
    tau: float
    t_knots: np.ndarray = field(repr=False)
    x_knots: np.ndarray = field(repr=False)
    a_knots: np.ndarray = field(repr=False)
    q_knots: np.ndarray = field(repr=False)
    xi_knots: np.ndarray = field(repr=False)
    a_mid: np.ndarray = field(repr=False)
    q_mid: np.ndarray = field(repr=False)
    tail: object

    def describe(self) -> str:
        return (f"drawdown x0={self.x0:.10g} tau={self.tau:.10g} "
                f"then {self.tail.describe()}")


# ---------------------------------------------------------------------------
# static analysis


def _static_candidate(problem) -> tuple:
    """Best constant rate: argmax of R(u) - C(u) over Q intersect A.

    A finite set offers its members that the other set holds.  A continuum
    is split at the table knots inside it into cells, on each of which
    D = R' - C' = p0 + p1 u + p2 u^2 is concave (R' is affine, C' convex),
    so R - C peaks at a cell end or at D's upper root, taken without
    cancellation.  R - C is read once at these candidates; ties within
    1e-12 of the best value go to the smallest rate.  Returns (u_hat,
    payoff), the same at any grid_n.
    """
    problem = validate_problem(problem)
    rev, cost = problem.revenue, problem.cost
    q, a = problem.demand_set, problem.production_set
    if "finite" in (q.kind, a.kind):
        us = np.unique([u for s, t in ((q, a), (a, q)) if s.kind == "finite"
                        for u in s.values if t.contains(u)])
    else:
        lo, hi = max(q.lo, a.lo), min(q.hi, a.hi)
        knots = [x for c in (rev, cost) if c.family == "table" for x in c.xs]
        ends = np.unique([lo, hi] + [x for x in knots if lo < x < hi])
        mid = 0.5 * (ends[:-1] + ends[1:])
        p0, p1, p2 = np.subtract(rev.slope_coefficients(mid),
                                 cost.slope_coefficients(mid))
        # where D has no upper root this reads nan or +-inf, in no cell
        with np.errstate(invalid="ignore", divide="ignore"):
            disc = np.sqrt(p1 * p1 - 4.0 * p0 * p2)
            root = np.where(p1 < 0.0, 2.0 * p0 / (disc - p1),
                            (p1 + disc) / (-2.0 * p2))
        inside = (ends[:-1] < root) & (root < ends[1:])
        us = np.unique(np.concatenate([ends, root[inside]]))
    vals = rev(us) - cost(us)
    m = float(vals.max())
    idx = int(np.argmax(vals >= m - 1e-12 * abs(m)))
    return float(us[idx]), float(vals[idx])


def static_optimality_test(problem, model: HamiltonianModel) -> StaticReport:
    """Static plan is optimal iff the best constant rate u_hat attains
    min H.

    By Young-Fenchel R(u) - zeta u <= R*(zeta) and zeta u - C(u) <=
    C*(zeta), and min H = R*(zeta) + C*(zeta), so the gap is the sum of
    these two non-negative slacks at u_hat.  Optimal iff each vanishes
    within 1e-12 of its own terms, |R(u)| + |zeta u| and |C(u)| + |zeta u|;
    u_hat, which lies in Q intersect A, is then the witness.
    """
    problem = validate_problem(problem)
    u_hat, payoff = _static_candidate(problem)
    c_star, r_star = _in_domain(model, model.zeta)
    r, c = float(problem.revenue(u_hat)), float(problem.cost(u_hat))
    zu = model.zeta * u_hat
    optimal = (r_star.value - (r - zu) <= 1e-12 * (abs(r) + abs(zu))
               and c_star.value - (zu - c) <= 1e-12 * (abs(c) + abs(zu)))
    return StaticReport(optimal=optimal, u_hat=u_hat, payoff=payoff,
                        gap=float(model.h_min - payoff),
                        witness=u_hat if optimal else None)


# ---------------------------------------------------------------------------
# relaxed optimum and its cyclic realization


def convexified_static(problem, model: HamiltonianModel) -> tuple:
    """Best mean rate for the relaxed problem: argmax of the convexified
    running profit R^ - C^ over co(Q) intersect co(A), read at zeta.

    H(z) >= R^(u) - C^(u) for all u and z (Young-Fenchel), with equality
    iff u attains both conjugates at z, and min H is the relaxed optimum:
    every maximizer lies in both attaining spans, [r_lo, r_hi] for sales
    and [c_lo, c_hi] for production, at zeta.  These meet, as H'(zeta+) =
    c_hi - r_lo >= 0 >= c_lo - r_hi = H'(zeta-), and max(r_lo, c_lo), their
    smallest common point, keeps ties at the smallest rate.  Returns
    (u_tilde, payoff); only model is read.
    """
    u = max(_h_controls(model, model.zeta))
    rev, cost = model.rev_env, model.cost_env
    return u, float(rev.hull_exact(u) - cost.hull_exact(u))


def relaxed_static(problem, model: HamiltonianModel,
                   u_tilde: float | None = None) -> RelaxedStatic:
    """Decompose the relaxed optimum into two-point mixtures.

    Point masses appear wherever the relevant envelope touches its curve.
    Raises DecompositionMismatch if the mixtures fail to reproduce the
    convexified payoff.
    """
    problem = validate_problem(problem)
    if u_tilde is None:
        u_tilde, _ = convexified_static(problem, model)
    u_tilde = float(u_tilde)

    q1, q2, gamma = hull_decompose(model.rev_env, u_tilde)
    a1, a2, nu = hull_decompose(model.cost_env, u_tilde)

    mean_q = gamma * q1 + (1.0 - gamma) * q2
    mean_a = nu * a1 + (1.0 - nu) * a2
    tol_mean = 1e-9 * max(1.0, abs(u_tilde))
    if abs(mean_q - u_tilde) > tol_mean or abs(mean_a - u_tilde) > tol_mean:
        raise DecompositionMismatch(
            f"mixture means ({mean_q}, {mean_a}) drift from {u_tilde}")

    rev = gamma * float(problem.revenue(q1)) + (1.0 - gamma) * float(problem.revenue(q2))
    cost = nu * float(problem.cost(a1)) + (1.0 - nu) * float(problem.cost(a2))
    payoff = rev - cost
    hull_payoff = float(model.rev_env.hull_exact(u_tilde)
                        - model.cost_env.hull_exact(u_tilde))
    if abs(payoff - hull_payoff) > 1e-6 * max(1.0, abs(hull_payoff)):
        raise DecompositionMismatch(
            f"mixed payoff {payoff:.12g} vs convexified {hull_payoff:.12g}")
    return RelaxedStatic(u_tilde=u_tilde, q1=q1, q2=q2, gamma=float(gamma),
                         a1=a1, a2=a2, nu=float(nu), payoff=float(payoff))


def cyclic_strategy(problem, relaxed: RelaxedStatic, eps: float | None = None):
    """Realize a relaxed optimum as a production/sales cycle of period eps.

    eps defaults to (1/beta)/64.  High production and low sales lead the
    cycle, so stock rises from zero first and returns to zero at the
    period's end; with both mixtures degenerate this collapses to the
    static plan.
    """
    problem = validate_problem(problem)
    if eps is None:
        eps = (1.0 / problem.beta) / 64.0
    if eps <= 0.0:
        raise InvalidParameter("cycle period must be positive")
    if not relaxed.sales_mixed and not relaxed.production_mixed:
        return StaticPlan(relaxed.u_tilde)

    sw_a = (1.0 - relaxed.nu) * eps       # produce a2 until here, a1 after
    sw_q = relaxed.gamma * eps            # sell q1 until here, q2 after
    cuts = sorted({0.0, sw_a, sw_q, eps})
    phases = []
    for t0, t1 in zip(cuts, cuts[1:]):
        if t1 - t0 <= 0.0:
            continue
        mid = 0.5 * (t0 + t1)
        a = relaxed.a2 if mid < sw_a else relaxed.a1
        q = relaxed.q1 if mid < sw_q else relaxed.q2
        rate = float(problem.revenue(q) - problem.cost(a))
        phases.append((float(t0), float(t1), float(a), float(q), rate))

    x = peak = peak_t = mean = 0.0
    for t0, t1, a, q, rate in phases:
        x += (a - q) * (t1 - t0)
        if x > peak:
            peak, peak_t = x, t1
        mean += rate * (t1 - t0)
    if x < -1e-9 * peak:
        raise DecompositionMismatch("cycle fails to return stock to zero")
    return CyclicPlan(eps=float(eps), phases=tuple(phases),
                      kappa=float(peak_t / eps),
                      peak_stock=float(max(peak, 0.0)),
                      mean_payoff=float(mean / eps))


def cyclic_value(plan: CyclicPlan, beta: float) -> float:
    """Exact discounted payoff of cycling forever from zero stock."""
    if beta <= 0.0:
        raise InvalidParameter("discount rate must be positive")
    one = 0.0
    for t0, t1, _, _, rate in plan.phases:
        one += rate * (math.exp(-beta * t0) - math.exp(-beta * t1)) / beta
    return one / (1.0 - math.exp(-beta * plan.eps))


def stationary_plan(problem, model: HamiltonianModel, eps: float | None = None):
    """The stationary plan to run once stock is gone.

    Without eps: the static witness if a constant rate attains min H,
    otherwise the relaxed optimum realized as a cycle of the default
    period (see cyclic_strategy).  With eps: that cycle at period eps.
    """
    if eps is None:
        report = static_optimality_test(problem, model)
        if report.optimal:
            return StaticPlan(report.witness)
    return cyclic_strategy(problem, relaxed_static(problem, model), eps)


# ---------------------------------------------------------------------------
# drawdown of initial stock


def drawdown_plan(vf: ValueFunction, x0: float, tail):
    """Optimal plan from initial stock x0: the drawdown arc, then tail.

    The model and the discount rate are read from the solved value
    function vf; tail is the stationary plan that runs once stock hits
    zero (see stationary_plan), returned as it is when x0 is zero or when
    stock has no marginal value (zeta <= 0).  Stock past vf.x_resolved,
    where the slope table ends, is rejected with InvalidParameter rather
    than dropped, and so is stock below the smallest the table resolves
    next to zeta.  The arc's knots are xi0 = v'(x0) and the table's knots
    in (xi0, zeta], its stock x0 and then the table's Psi, and its
    controls the table's own; only the cell [xi0, first knot] is read.
    """
    if x0 < 0.0:
        raise InvalidParameter(f"initial stock must be non-negative, got {x0}")
    model, beta = vf.model, vf.beta
    zeta = model.zeta

    if zeta <= 0.0:
        warnings.warn("stock has no marginal value; there is no drawdown "
                      "arc and the stationary tail is already optimal",
                      ZetaZeroWarning)
        return tail

    if x0 > vf.x_resolved:
        raise InvalidParameter(
            f"initial stock {x0:g} exceeds x_resolved = {vf.x_resolved:g}, "
            "the largest stock the slope table resolves")

    if x0 == 0.0:
        return tail

    xi0 = min(vf.v_prime(x0), zeta)
    tau = math.log(zeta / xi0) / beta

    # arc knot i is xi0 for i = 0, then table knot j - i; cell i runs from
    # arc knot i to i + 1, and only cell 0, [xi0, xi_knots[j - 1]], is read
    j = int(np.count_nonzero(vf.xi_knots > xi0))
    z = np.concatenate([[xi0], vf.xi_knots[:j][::-1]])
    first = _sides(*_in_domain(model, np.array([xi0, 0.5 * (xi0 + z[1])])))

    # the smallest stock the table resolves here.  Psi' = -H'/(beta xi) is
    # read at xi0+ and at zeta-; a kink at zeta ties the slopes within
    # 1e-9 zeta of it, and the first cell clears four such bands to read
    # its midpoint.  v' finds ln xi0 to bracket_root's stop width,
    # which moves stock by q, and the arc must close to _ARC_X_TOL
    d_zeta = vf._sides[1, 0] - vf._sides[0, 0]
    q = max(first[3, 0] - first[2, 0], d_zeta) / beta * stop_width(
        math.log(xi0))
    x_min = max(4e-9 * d_zeta / beta,
                q / _ARC_X_TOL if q > _ARC_X_TOL else 0.0)
    if x0 < x_min:
        raise InvalidParameter(
            f"initial stock {x0:g} is below {x_min:.3g}, the smallest stock "
            "the slope table resolves next to zeta")
    n = len(vf.xi_knots)
    sides = np.column_stack([first[:, 0], vf._sides[:, :j][:, ::-1]])
    mids = np.column_stack([first[:, 1], vf._sides[:, n:n + j - 1][:, ::-1]])
    # a knot's row holds the controls into the cell above it and the span
    # means at its midpoint; those below it get a row at zeta and at kinks
    put = np.union1d(1 + np.flatnonzero(
        np.any(sides[:2, 1:] != sides[2:, 1:], axis=0)), [j])
    a, q, a_mid, q_mid = (np.insert(v[:j], put, w[put]) for v, w in (
        (sides[2], sides[0]), (sides[3], sides[1]),
        (0.5 * (mids[0] + mids[2]), sides[0]),
        (0.5 * (mids[1] + mids[3]), sides[1])))
    at = np.insert(np.arange(j), put, put)
    x_knots = np.concatenate([[x0], vf.psi_knots[:j][::-1]])
    return DrawdownPlan(x0=float(x0), tau=float(tau),
                        t_knots=(np.log(z / xi0) / beta)[at],
                        x_knots=x_knots[at], a_knots=a, q_knots=q,
                        xi_knots=z[at], a_mid=a_mid[:-1], q_mid=q_mid[:-1],
                        tail=tail)
