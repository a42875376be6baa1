"""Stationary, relaxed, cyclic, and stock-drawdown strategies.

The static question: is there a single rate u in Q intersect A with
R(u) - C(u) = min H?  It is decided in rates, by the rule the relaxed
optimum's mixtures follow: u attains iff it lies in both attaining spans
at zeta and neither envelope mixes it, and the best constant rate, exact
from the curves' pieces, is tried first.  If yes, produce and sell at u
forever (once stock is gone) and nothing beats it.  If no, the gap is
closed by mixing two sales rates and two production rates with matching
means (the relaxed optimum), realized physically by fast production/sales
cycles whose payoff comes within order epsilon of the bound while stock
stays non-negative.

An optimal plan draws positive initial stock down in finite time, then
runs a stationary plan forever; stationary_plan is the one rule that picks
that tail, and drawdown_plan builds the arc from the solved value function.
Along the arc the marginal value of stock rises exponentially at the
discount rate, so the value table's knots are the arc's, at t = ln(xi /
xi0) / beta, with Psi its stock and the table's controls its controls.

Every stationary plan is a piecewise-constant periodic control and says so
through segments(problem) -> (period, phases, mean_rate), the phases being
(t0, t1, produce, sell, rate) tuples covering one period.  A static rate
is one endless phase (period inf), a relaxed optimum one endless phase at
its mean rates, a cycle its eps-periodic phases, certified to close by
_stock_run, the sum simulate lays out: a net within the rounding of the
fastest flow, which a tiny mixture weight does not shrink, is zero.  A
DrawdownPlan is the drawdown arc at its knots, then one of these as its
tail.  Plans are this data and nothing else: simulate reads it, and the
Euler referee that samples controls over time lives with the tests.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .envelope import _apart, hull_decompose
from .errors import DecompositionMismatch, InvalidParameter, ZetaZeroWarning
from .hamiltonian import (_ZETA_WIDTH, HamiltonianModel, _in_domain, _sides,
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
    """Whether a constant rate attains min H = payoff + gap, payoff being
    R - C at the best constant rate u_hat; the witness is the rate that
    attains (u_hat, or u_tilde in the kernel's slope tie band; see
    static_optimality_test), None if none does.  u_tilde is the relaxed
    optimum's mean rate and relaxed_payoff R^ - C^ there, as
    convexified_static reads them; a report built by hand may leave both
    None."""
    optimal: bool
    u_hat: float
    payoff: float
    gap: float
    witness: float | None
    u_tilde: float | None = None
    relaxed_payoff: float | None = None


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
    one period; its stock rises from zero to peak_stock at kappa * eps and
    ends at or above zero (see _stock_run).  mean_payoff, the period's
    time-average payoff, equals the relaxed payoff.
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
    of H holds two rows at one instant).  Then tail runs.
    """
    x0: float
    tau: float
    t_knots: np.ndarray = field(repr=False)
    x_knots: np.ndarray = field(repr=False)
    a_knots: np.ndarray = field(repr=False)
    q_knots: np.ndarray = field(repr=False)
    xi_knots: np.ndarray = field(repr=False)
    tail: object

    def describe(self) -> str:
        return (f"drawdown x0={self.x0:.10g} tau={self.tau:.10g} "
                f"then {self.tail.describe()}")


# ---------------------------------------------------------------------------
# static analysis


def _static_candidate(problem: ValidatedProblem) -> tuple:
    """Best constant rate: argmax of R(u) - C(u) over Q intersect A.

    A finite set offers its members that the other set holds.  A continuum
    is split at the table knots inside it into cells, on each of which
    D = R' - C' = p0 + p1 u + p2 u^2 is concave (R' is affine, C' convex),
    so R - C peaks at a cell end or at D's upper root, taken without
    cancellation.  R - C is read once at these candidates; ties within
    1e-12 of the best value go to the smallest rate.  Returns (u_hat, payoff).
    """
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
    """Static plan is optimal iff a constant rate attains min H.

    A rate attains it iff it lies in both attaining spans at zeta and
    neither envelope mixes it (hull_decompose, the rule the relaxed
    optimum's mixtures follow): then R(u) - zeta u = R*(zeta) and zeta u -
    C(u) = C*(zeta), whose sum is min H, and u lies in Q intersect A.
    zeta is known to _ZETA_WIDTH zeta (hamiltonian._root_end), so each span
    is read at zeta (1 - _ZETA_WIDTH), zeta and zeta (1 + _ZETA_WIDTH) and
    joined, and u_hat lies in both joined spans if it is not _apart from
    its nearest point of their intersection.  u_tilde = max(c_lo, r_lo) at
    zeta, the spans' smallest common point, is tried next: it attains
    where zeta lies in the kernel's 1e-9 slope tie band of a chord that
    u_hat, on the curve just past the chord's end, is not in.  The first
    rate that attains is the witness; the gap decides nothing.  The
    report carries u_tilde and its relaxed payoff, so this batch is the
    one reading of the relaxed optimum a caller needs.
    """
    problem = validate_problem(problem)
    u_hat, payoff = _static_candidate(problem)
    w = _ZETA_WIDTH * np.array([-1.0, 0.0, 1.0])
    c, r = _in_domain(model, model.zeta * (1.0 + w))
    lo = max(c.argmax_lo.min(), r.argmax_lo.min())
    hi = min(c.argmax_hi.max(), r.argmax_hi.max())
    u_tilde = float(max(c.argmax_lo[1], r.argmax_lo[1]))
    spanned = not _apart(u_hat, min(max(u_hat, lo), hi))
    tries = (u_hat, u_tilde) if spanned else (u_tilde,)
    envs = (model.cost_env, model.rev_env)
    witness = next((u for u in tries if all(
        x1 == x2 for x1, x2, _ in (hull_decompose(e, u) for e in envs))), None)
    return StaticReport(optimal=witness is not None, u_hat=u_hat,
                        payoff=payoff, gap=float(model.h_min - payoff),
                        witness=witness, u_tilde=u_tilde,
                        relaxed_payoff=_hull_payoff(model, u_tilde))


# ---------------------------------------------------------------------------
# relaxed optimum and its cyclic realization


def _hull_payoff(model: HamiltonianModel, u: float) -> float:
    """The convexified running profit R^(u) - C^(u)."""
    return float(model.rev_env.hull_exact(u) - model.cost_env.hull_exact(u))


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
    return u, _hull_payoff(model, u)


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

    # hull_decompose weighs each mixture so that its mean is u_tilde
    q1, q2, gamma = hull_decompose(model.rev_env, u_tilde)
    a1, a2, nu = hull_decompose(model.cost_env, u_tilde)
    r1, r2 = (float(problem.revenue(q)) for q in (q1, q2))
    c1, c2 = (float(problem.cost(a)) for a in (a1, a2))
    payoff = gamma * r1 + (1.0 - gamma) * r2 - (nu * c1 + (1.0 - nu) * c2)
    hull_payoff = _hull_payoff(model, u_tilde)
    # a weight is rounded against 1, so the bound scales with the readings
    # it weighs, not with the mixed sums, which a tiny weight shrinks
    if abs(payoff - hull_payoff) > 1e-6 * sum(map(abs, (r1, r2, c1, c2))):
        raise DecompositionMismatch(
            f"mixed payoff {payoff:.12g} vs convexified {hull_payoff:.12g}")
    return RelaxedStatic(u_tilde=u_tilde, q1=q1, q2=q2, gamma=float(gamma),
                         a1=a1, a2=a2, nu=float(nu), payoff=float(payoff))


def _stock_run(ph, dur, span: float) -> np.ndarray:
    """Running stock from zero of phases ph held for dur (last axis).  A
    sum within 1e-14 of span times the fastest |produce| + |sell| is zero:
    a tiny mixture weight shrinks the peak, not that flow's rounding."""
    run = np.cumsum((ph[:, 2] - ph[:, 3]) * dur, axis=-1)
    run[np.abs(run) <= 1e-14 * span * np.abs(ph[:, 2:4]).sum(1).max()] = 0.0
    return run


def cyclic_strategy(problem, relaxed: RelaxedStatic, eps: float | None = None):
    """Realize a relaxed optimum as a production/sales cycle of period eps.

    eps defaults to (1/beta)/64.  High production and low sales lead the
    cycle, so stock rises from zero first and returns to zero at the
    period's end; with both mixtures degenerate this collapses to the
    static plan.  A cycle is refused iff its period net by _stock_run is
    negative; its peak, kappa and mean payoff read the same sums.
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
    cuts = np.unique([0.0, sw_a, sw_q, eps])
    mid = 0.5 * (cuts[:-1] + cuts[1:])
    a = np.where(mid < sw_a, relaxed.a2, relaxed.a1)
    q = np.where(mid < sw_q, relaxed.q1, relaxed.q2)
    ph = np.column_stack([cuts[:-1], cuts[1:], a, q,
                          problem.revenue(q) - problem.cost(a)])
    dur = np.diff(cuts)
    run = _stock_run(ph, dur, eps)
    if run[-1] < 0.0:
        raise DecompositionMismatch("cycle fails to return stock to zero")
    k = int(np.argmax(run))
    return CyclicPlan(eps=float(eps), phases=tuple(map(tuple, ph.tolist())),
                      kappa=float(cuts[k + 1] / eps) if run[k] > 0.0 else 0.0,
                      peak_stock=max(float(run[k]), 0.0),
                      mean_payoff=float(np.cumsum(ph[:, 4] * dur)[-1] / eps))


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
    The verdict runs either way, and its u_tilde is the cycle's mean rate.
    """
    return _tail(problem, model, static_optimality_test(problem, model), eps)


def _tail(problem, model: HamiltonianModel, report: StaticReport, eps):
    """stationary_plan's rule, for a caller that holds the verdict."""
    if eps is None and report.optimal:
        return StaticPlan(report.witness)
    relaxed = relaxed_static(problem, model, report.u_tilde)
    return cyclic_strategy(problem, relaxed, eps)


# ---------------------------------------------------------------------------
# drawdown of initial stock


def drawdown_plan(vf: ValueFunction, x0: float, tail):
    """Optimal plan from initial stock x0: the drawdown arc, then tail.

    The model and the discount rate are read from the solved value
    function vf; tail is the stationary plan that runs once stock hits
    zero (see stationary_plan), returned as it is when x0 is zero or when
    stock has no marginal value (zeta <= 0).  The arc's knots are xi0 =
    v'(x0) and the table's knots in (xi0, zeta], its stock x0 and then the
    table's Psi, and its controls the table's own; only xi0 is read.
    InvalidParameter refuses a stock whose slope v'(x0) underflows, and
    one that the slope's last bit moves by more than the arc's closing
    tolerance, as it does at a tiny discount rate.
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

    if x0 == 0.0:
        return tail

    xi0 = vf.v_prime(x0)
    if xi0 < zeta * np.finfo(float).tiny:
        raise InvalidParameter(
            f"initial stock {x0:g} is past the stock at which the marginal "
            f"value of stock underflows: v'(x0) / zeta = {xi0 / zeta:.3g}")
    tau = math.log(zeta / xi0) / beta

    # arc knot i is xi0 for i = 0, then table knot j - i; cell i runs from
    # arc knot i to i + 1, and only xi0 is read
    j = int(np.count_nonzero(vf.xi_knots > xi0))
    z = np.concatenate([[xi0], vf.xi_knots[:j][::-1]])
    first = _sides(*_in_domain(model, z[:1]))
    # Psi' = -H'/(beta xi), so the stock a double's spacing of xi0 spans
    # must be finer than the arc's closing tolerance
    res = (first[1, 0] - first[0, 0]) * np.spacing(xi0) / (beta * xi0)
    tol = _ARC_X_TOL * max(1.0, x0)
    if res > tol:
        raise InvalidParameter(
            f"the stock resolution at v'(x0), |H'| ulp(xi0) / (beta xi0) = "
            f"{res:.3g}, exceeds the drawdown arc's closing tolerance "
            f"{tol:.3g}")
    # in the kernel's tie band of a kink xi0 reads the kink's whole span;
    # when that kink is the knot above xi0, the arc starts in the cell
    # below it, whose controls the knot holds on its lower side
    below = vf.xi_knots[j] if j < len(vf.xi_knots) else 0.0
    if j and np.any(first[:2, 0] != first[2:, 0]) and z[1] - xi0 < xi0 - below:
        first[2:, 0] = vf._sides[:2, j - 1]
    sides = np.column_stack([first, vf._sides[:, :j][:, ::-1]])
    # a knot's row holds the controls into the cell above it; those below
    # it get a row at zeta and at kinks
    put = np.union1d(1 + np.flatnonzero(
        np.any(sides[:2, 1:] != sides[2:, 1:], axis=0)), [j])
    a, q = (np.insert(v[:j], put, w[put])
            for v, w in ((sides[2], sides[0]), (sides[3], sides[1])))
    at = np.insert(np.arange(j), put, put)
    x_knots = np.concatenate([[x0], vf.psi_knots[:j][::-1]])
    return DrawdownPlan(x0=float(x0), tau=float(tau),
                        t_knots=(np.log(z / xi0) / beta)[at],
                        x_knots=x_knots[at], a_knots=a, q_knots=q,
                        xi_knots=z[at], tail=tail)
