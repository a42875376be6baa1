"""Stationary, relaxed, cyclic, and stock-drawdown strategies.

The static question: is there a single rate u in Q intersect A with
R(u) - C(u) = min H?  If yes, produce and sell at u forever (once stock is
gone) and nothing beats it.  If no, the gap is closed by mixing two sales
rates and two production rates with matching means (the relaxed optimum),
realized physically by fast production/sales cycles whose payoff comes
within order epsilon of the bound while stock stays non-negative.

Positive initial stock is drawn down along the feedback rule first: the
marginal value of stock rises exponentially at the discount rate along an
optimal path, so time parametrizes the slope directly and no root finding
is needed along the trajectory.

Every stationary plan is a piecewise-constant periodic control and says so
through segments(problem) -> (period, phases, mean_rate), the phases being
(t0, t1, produce, sell, rate) tuples covering one period.  A static rate
is one endless phase (period inf), a relaxed optimum one endless phase at
its mean rates, a cycle its eps-periodic phases.  A DrawdownPlan is the
drawdown arc, tabulated at its knots, followed by one of these as its
tail.  Plans are this data and nothing else: simulate reads it, and the
Euler referee that samples controls over time lives with the tests.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from ._roots import bracket_root
from .envelope import Envelope, contact_argmax_intervals, hull_decompose
from .errors import DecompositionMismatch, InvalidParameter, ZetaZeroWarning
from .hamiltonian import HamiltonianModel, controls_at as _h_controls
from .problem import ValidatedProblem, validate_problem
from .value import ValueFunction

# knots on the drawdown arc, before the two added at each kink crossing
_DRAWDOWN_KNOTS = 1025


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
    """Verdict on whether a static plan attains the stationary optimum."""
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
    u_tilde: float
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

    Along the optimal path the marginal value of stock obeys
    xi(t) = v'(x0) e^(beta t) until it reaches zeta at time tau; stock,
    production, and sales at the tabulated knots realize that slope path.
    After tau the plan hands over to tail (static, relaxed, or cyclic).
    """
    x0: float
    tau: float
    t_knots: np.ndarray = field(repr=False)
    x_knots: np.ndarray = field(repr=False)
    a_knots: np.ndarray = field(repr=False)
    q_knots: np.ndarray = field(repr=False)
    tail: object

    def describe(self) -> str:
        return (f"drawdown x0={self.x0:.10g} tau={self.tau:.10g} "
                f"then {self.tail.describe()}")


# ---------------------------------------------------------------------------
# static analysis


def _candidate_rates(problem: ValidatedProblem) -> np.ndarray:
    """Grid over Q intersect A, honoring finite members and table knots."""
    q, a = problem.demand_set, problem.production_set
    if q.kind == "finite" or a.kind == "finite":
        members = []
        if q.kind == "finite":
            members.extend(u for u in q.values if a.contains(u))
        if a.kind == "finite":
            members.extend(u for u in a.values if q.contains(u))
        if not members:
            members = [0.0]
        return np.unique(np.asarray(members, dtype=float))
    lo = max(q.lo, a.lo)
    hi = q.hi if a.kind == "right_ray" else min(q.hi, a.hi)
    if hi <= lo:
        return np.array([lo])
    pts = [np.linspace(lo, hi, problem.grid_n)]
    for curve in (problem.revenue, problem.cost):
        if curve.family == "table":
            ks = np.asarray(curve.xs, dtype=float)
            pts.append(ks[(ks >= lo) & (ks <= hi)])
    return np.unique(np.concatenate(pts))


def static_candidate(problem) -> tuple:
    """Best constant rate: argmax of R(u) - C(u) over Q intersect A.

    On intervals with smooth curves the first sampled maximizer is polished
    by the root of R' - C' bracketed outward from it; the root wins a tie,
    being on the same hump.  Ties go to the smallest rate.  Returns
    (u_hat, payoff).
    """
    problem = validate_problem(problem)
    rev, cost = problem.revenue, problem.cost
    us = _candidate_rates(problem)
    vals = np.atleast_1d(rev(us) - cost(us))
    m = float(vals.max())
    tol = 1e-12 * max(1.0, abs(m))
    idx = int(np.nonzero(vals >= m - tol)[0][0])
    u, payoff = float(us[idx]), float(rev(us[idx]) - cost(us[idx]))
    smooth = rev.has_derivative and cost.has_derivative and "finite" not in (
        problem.demand_set.kind, problem.production_set.kind)
    if not smooth:
        return u, payoff

    def slope(t):
        return rev.derivative(t) - cost.derivative(t)

    i_lo, i_hi = max(idx - 1, 0), min(idx + 1, len(us) - 1)
    s_lo, s_hi = slope(us[i_lo]), slope(us[i_hi])
    step = 1
    while s_hi > 0.0 and i_hi < len(us) - 1:
        i_lo, s_lo, i_hi = i_hi, s_hi, min(i_hi + step, len(us) - 1)
        s_hi, step = slope(us[i_hi]), 2 * step
    step = 1
    while s_lo < 0.0 and i_lo > 0:
        i_hi, s_hi, i_lo = i_lo, s_lo, max(i_lo - step, 0)
        s_lo, step = slope(us[i_lo]), 2 * step
    if s_lo > 0.0 > s_hi:
        root = float(bracket_root(lambda t, _: slope(t), us[i_lo], us[i_hi])[0])
        v = float(rev(root) - cost(root))
        if v >= payoff - tol:
            u, payoff = root, v
    return u, payoff


def _match_tolerance(env: Envelope) -> float:
    """Slack for matching contact intervals: refinable envelopes pin their
    contacts to the curve, anything else (tables, finite sets) has contacts
    only at knots, which must match exactly."""
    if env.refinable:
        lo, hi = env.domain
        return 1e-6 * max(1.0, hi - lo)
    return 0.0


def static_optimality_test(problem, model: HamiltonianModel) -> StaticReport:
    """Static plan is optimal iff best sales and best production at slope
    zeta can agree on a common rate.

    A witness counts only if it is admissible (in Q intersect A) and its
    running profit reaches min H, so the verdict cannot contradict the gap.
    """
    problem = validate_problem(problem)
    u_hat, payoff = static_candidate(problem)
    gap = model.h_min - payoff
    floor = model.h_min - 1e-6 * max(1.0, abs(model.h_min))

    def attains(w: float) -> bool:
        return (problem.demand_set.contains(w)
                and problem.production_set.contains(w)
                and float(problem.revenue(w) - problem.cost(w)) >= floor)

    iv_r = contact_argmax_intervals(model.rev_env, model.zeta)
    iv_c = contact_argmax_intervals(model.cost_env, model.zeta)
    d_r = _match_tolerance(model.rev_env)
    d_c = _match_tolerance(model.cost_env)
    witness = None
    for rlo, rhi in iv_r:
        for clo, chi in iv_c:
            lo = max(rlo - d_r, clo - d_c)
            hi = min(rhi + d_r, chi + d_c)
            if lo <= hi:
                w = 0.5 * (max(rlo, clo) + min(rhi, chi))
                w = float(min(max(w, lo), hi))
                if attains(w):
                    witness = w
                    break
        if witness is not None:
            break
    return StaticReport(optimal=witness is not None, u_hat=u_hat,
                        payoff=payoff, gap=float(gap), witness=witness)


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


def cyclic_strategy(problem, relaxed: RelaxedStatic, eps: float):
    """Realize a relaxed optimum as a production/sales cycle of period eps.

    High production and low sales lead the cycle, so stock rises from zero
    first and returns to zero at the period's end; with both mixtures
    degenerate this collapses to the static plan.
    """
    problem = validate_problem(problem)
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

    x = 0.0
    peak, peak_t = 0.0, 0.0
    mean = 0.0
    for t0, t1, a, q, rate in phases:
        x_next = x + (a - q) * (t1 - t0)
        if x_next > peak:
            peak, peak_t = x_next, t1
        if x > peak:
            peak, peak_t = x, t0
        x = x_next
        mean += rate * (t1 - t0)
    if x < -1e-9 * max(1.0, peak):
        raise DecompositionMismatch("cycle fails to return stock to zero")
    return CyclicPlan(eps=float(eps), u_tilde=relaxed.u_tilde,
                      phases=tuple(phases), kappa=float(peak_t / eps),
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


# ---------------------------------------------------------------------------
# drawdown of initial stock


def drawdown_plan(problem, vf: ValueFunction, model: HamiltonianModel,
                  x0: float, tail: str = "auto", eps: float | None = None):
    """Optimal plan from initial stock x0.

    tail selects the stationary plan once stock hits zero: "auto" runs the
    static test and falls back to relaxed/cyclic, "static", "relaxed", and
    "cyclic" force a kind.  eps sets the cycle period when the tail
    cycles (default 1/beta scaled down to 2^-6).
    """
    problem = validate_problem(problem)
    if x0 < 0.0:
        raise InvalidParameter(f"initial stock must be non-negative, got {x0}")
    beta = problem.beta

    if model.zeta <= 0.0:
        warnings.warn("stock has no marginal value; selling it is pointless "
                      "and the static plan at rate 0 is already optimal",
                      ZetaZeroWarning)
        return StaticPlan(0.0)

    report = static_optimality_test(problem, model)
    if tail == "auto":
        tail = "static" if report.optimal else "cyclic"
    if tail == "static":
        if not report.optimal:
            raise InvalidParameter(
                "static tail requested but no constant rate attains min H")
        tail_plan = StaticPlan(report.witness if report.witness is not None
                               else report.u_hat)
    elif tail == "relaxed":
        tail_plan = relaxed_static(problem, model)
    elif tail == "cyclic":
        relaxed = relaxed_static(problem, model)
        if eps is None:
            eps = (1.0 / beta) / 64.0
        tail_plan = cyclic_strategy(problem, relaxed, eps)
    else:
        raise InvalidParameter(f"unknown tail kind {tail!r}")

    if x0 == 0.0:
        return tail_plan

    xi0 = vf.v_prime(x0)
    xi0 = min(xi0, model.zeta)
    if xi0 <= 0.0:
        raise InvalidParameter("marginal value vanished; stock too large "
                               "for the resolved slope table")
    tau = math.log(model.zeta / xi0) / beta

    # Controls jump where the slope path crosses a kink of H.  Each
    # crossing gets two knots at the same instant carrying the one-sided
    # controls, so quadrature over the knots never straddles a jump.
    switch_zs = [float(z) for z in model.kink_zs
                 if xi0 * (1.0 + 1e-12) <= z <= model.zeta * (1.0 - 1e-12)]
    base = np.linspace(0.0, tau, _DRAWDOWN_KNOTS)
    if switch_zs:
        keep = np.ones(_DRAWDOWN_KNOTS, dtype=bool)
        for z in switch_zs:
            keep &= np.abs(base - math.log(z / xi0) / beta) \
                > 1e-9 * max(tau, 1.0)
        keep[0] = keep[-1] = True
        pts = [(float(t), None) for t in base[keep]]
        for z in switch_zs:
            t_star = math.log(z / xi0) / beta
            dz = 1e-7 * max(1.0, z)
            pts.append((t_star, z - dz))
            pts.append((t_star, z + dz))
        pts.sort(key=lambda p: (p[0], p[1] if p[1] is not None else 0.0))
    else:
        pts = [(float(t), None) for t in base]

    t_knots = np.array([p[0] for p in pts])
    # math.exp per knot: np.exp rounds differently on some inputs
    xis = [min(xi0 * math.exp(beta * t), model.zeta) for t, _ in pts]
    z_query = [xi if z_side is None else min(max(z_side, 0.0), model.zeta)
               for xi, (_, z_side) in zip(xis, pts)]
    x_knots = vf.psi(np.array(xis))
    a_knots, q_knots = _h_controls(model, np.array(z_query))
    x_knots[0] = x0
    x_knots[-1] = 0.0
    return DrawdownPlan(x0=float(x0), tau=float(tau), t_knots=t_knots,
                        x_knots=x_knots, a_knots=a_knots, q_knots=q_knots,
                        tail=tail_plan)
