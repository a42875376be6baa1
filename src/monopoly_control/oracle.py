"""Brute-force discrete-time dynamic-programming cross-check.

Nothing here touches envelopes, conjugates, or slope grids: the oracle
discretizes time, stock, and both control sets, then solves the Bellman
equation

    v(x) = max_{a, q}  (R(q) - C(a)) k  +  gamma v(x + (a - q) dt),
    k = (1 - e^(-beta dt)) / beta,   gamma = e^(-beta dt),

subject to x + (a - q) dt >= 0, with stock clamped at the top of the grid
(extra stock is worthless there, so the clamp only understates).  The max
separates through the post-sales level y = x - q dt, so each sweep is two
one-dimensional maximizations instead of a joint one.

The fixed point is found by modified policy iteration (Puterman 1994,
section 6.5): each full Bellman sweep, with its max over controls, is
followed by _EVAL_SWEEPS cheap sweeps that evaluate that sweep's greedy
policy with no max.  Only the Bellman sweeps decide when to stop.  The
bound they give (see dp_value) holds whatever table they start from, so
the evaluation sweeps change how fast the table gets there, not the
fixed point nor how closely it is certified.

An unbounded production set is capped independently of the main solver:
no rational producer exceeds argmax_a { s a - C(a) } where s is the best
average revenue max_q R(q)/q, because stock can never be worth more than
s per unit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameter, NotConverged
from .problem import ValidatedProblem, validate_problem
from .tableio import write_csv

_BIG_NEG = -1e30
# evaluation sweeps per greedy policy in modified policy iteration
_EVAL_SWEEPS = 64


@dataclass(frozen=True, eq=False)
class DPResult:
    """Certified fixed-point table with greedy policies."""

    x_grid: np.ndarray = field(repr=False)
    v_hat: np.ndarray = field(repr=False)
    policy_produce: np.ndarray = field(repr=False)
    policy_sell: np.ndarray = field(repr=False)
    beta: float
    dt: float
    iterations: int
    sup_change: float
    fix_gap: float

    def value_at(self, x):
        out = np.interp(x, self.x_grid, self.v_hat)
        return float(out) if np.ndim(x) == 0 else out

    @property
    def x_max(self) -> float:
        return float(self.x_grid[-1])


def production_cap(problem: ValidatedProblem) -> float:
    """Largest production rate any shadow price can justify."""
    q = problem.q_grid
    pos = q[q > 0.0]
    if not len(pos):
        return 1.0
    s = float(np.max(problem.revenue(pos) / pos))
    if s <= 0.0:
        return float(pos[-1])
    hi = 4.0 * (float(q[-1]) + 1.0)
    for _ in range(60):
        a = np.linspace(0.0, hi, 4097)
        k = int(np.argmax(s * a - problem.cost(a)))
        if a[k] < 0.9 * hi:
            return max(float(a[k]), float(q[-1])) * 1.05 + 1e-9
        hi *= 2.0
    raise InvalidParameter("production payoff keeps improving; cost fails "
                           "to outgrow revenue on any probed range")


def _control_grid(cset, n: int, cap: float | None) -> np.ndarray:
    if cset.kind == "finite":
        return np.asarray(cset.values, dtype=float)
    hi = cset.hi if cset.is_bounded else cap
    return np.linspace(cset.lo, hi, n)


def dp_value(problem, *, x_max: float, nx: int = 512, dt: float = 0.002,
             tol_fix: float = 1e-9, na: int = 65, nq: int = 65,
             max_iter: int = 200_000) -> DPResult:
    """Modified policy iteration on the discretized problem.

    Per-step rates use the exact discount weight for a constant rate, so
    the only discretization errors are the control/stock grids and the
    piecewise-constant-in-dt policy class.  Each round is one Bellman
    sweep v -> Tv, then _EVAL_SWEEPS sweeps v -> r + gamma P v that
    evaluate the greedy policy of that Bellman sweep (Puterman 1994,
    section 6.5).  The rounds stop once a Bellman sweep's contraction
    sandwich (see below) certifies the corrected table within tol_fix of
    the discretized fixed point.  That bound holds for any table the
    sweep starts from, so the evaluation sweeps leave the fixed point and
    the certificate as plain value iteration has them and only save the
    max over controls.  ``iterations`` and ``max_iter`` count every sweep
    applied to the table, Bellman and evaluation alike.
    """
    problem = validate_problem(problem)
    beta = problem.beta
    if not (math.isfinite(x_max) and x_max > 0.0) or nx < 8:
        raise InvalidParameter("stock grid must be finite and positive with "
                               "nx >= 8")
    if not (math.isfinite(dt) and dt > 0.0):
        raise InvalidParameter("time step must be finite and positive")
    gamma = math.exp(-beta * dt)
    if gamma >= 1.0:
        raise InvalidParameter(f"time step {dt:g} is too small: the per-step "
                               "discount exp(-beta dt) rounds to 1")
    if not tol_fix > 0.0:
        raise InvalidParameter("fixed-point tolerance must be positive")

    cap = None
    if problem.a_grid is None:
        cap = production_cap(problem)
    a_grid = _control_grid(problem.production_set, na, cap)
    q_grid = _control_grid(problem.demand_set, nq, None)
    h = x_max / (nx - 1)
    if dt * (float(a_grid[-1]) + float(q_grid[-1])) > 8.0 * h * max(nx, 1):
        raise InvalidParameter("time step moves stock across the whole grid; "
                               "refine dt or widen the grid")

    x_grid = np.linspace(0.0, x_max, nx)
    pad = int(math.ceil(float(q_grid[-1]) * dt / h)) + 1
    y_grid = np.concatenate([x_grid[0] - h * np.arange(pad, 0, -1), x_grid])

    k = (1.0 - gamma) / beta
    r_gain = np.asarray(problem.revenue(q_grid), dtype=float) * k
    c_pay = np.asarray(problem.cost(a_grid), dtype=float) * k

    # stage 1 (production): v at clip(y + a dt) for every (a, y)
    tgt = y_grid[None, :] + a_grid[:, None] * dt
    feas = tgt >= -1e-12
    pos = np.clip(tgt, 0.0, x_max) / h
    ilo = np.clip(pos.astype(np.intp), 0, nx - 2)
    w1 = pos - ilo

    # stage 2 (sales): u at x - q dt for every (q, x)
    pts = x_grid[None, :] - q_grid[:, None] * dt
    pos2 = (pts - y_grid[0]) / h
    jlo = np.clip(pos2.astype(np.intp), 0, len(y_grid) - 2)
    w2 = np.clip(pos2 - jlo, 0.0, 1.0)

    # contraction sandwich: after any Bellman sweep with increment
    # delta = Tv - v, the fixed point lies between Tv + g*min(delta) and
    # Tv + g*max(delta), g = gamma/(1-gamma), whatever v was.  The width
    # shrinks at the rate of the gap between delta components, far faster
    # than delta itself, so this both terminates early and certifies the
    # result.
    g = gamma / (1.0 - gamma)
    v = np.zeros(nx)
    sup = math.inf
    fix_gap = math.inf
    it = 0
    delta = v
    # sweeps write into buffers made once: a fresh temporary this large per
    # sweep would be a new memory mapping, faulted in page by page
    cand1, tmp1, cand2, tmp2 = (np.empty(a.shape) for a in (w1, w1, w2, w2))
    ilo1, jlo1, w0, w20, infeas = ilo + 1, jlo + 1, 1.0 - w1, 1.0 - w2, ~feas
    ys, xs = np.arange(len(y_grid)), np.arange(nx)

    def stages(v):  # one sweep: production stage into cand1, sales into cand2
        np.multiply(np.take(v, ilo, out=cand1), w0, out=cand1)
        np.add(cand1, np.multiply(np.take(v, ilo1, out=tmp1), w1, out=tmp1), out=cand1)
        np.subtract(np.multiply(cand1, gamma, out=cand1), c_pay[:, None], out=cand1)
        np.copyto(cand1, _BIG_NEG, where=infeas)
        u = cand1.max(axis=0)
        np.multiply(np.take(u, jlo, out=cand2), w20, out=cand2)
        np.add(cand2, np.multiply(np.take(u, jlo1, out=tmp2), w2, out=tmp2), out=cand2)
        np.add(cand2, r_gain[:, None], out=cand2)

    def greedy_stencil():
        """The last sweep's greedy policy as one 4-point stencil: evaluating
        it maps v to pay + sum_k wts[k] * v[idx[k]], with no max."""
        # production at each post-sales level y: u = pay1 + u0 v[lo] +
        # u1 v[lo + 1]; an infeasible y keeps the floor and no weights
        ia = cand1.argmax(axis=0)
        ok = feas[ia, ys]
        pay1 = np.where(ok, -c_pay[ia], _BIG_NEG)
        lo = ilo[ia, ys]
        u0, u1 = gamma * ok * w0[ia, ys], gamma * ok * w1[ia, ys]
        # sales at each x: u interpolated between y-points j and j + 1
        iq = cand2.argmax(axis=0)
        j, s0, s1 = jlo[iq, xs], w20[iq, xs], w2[iq, xs]
        pay = r_gain[iq] + s0 * pay1[j] + s1 * pay1[j + 1]
        idx = np.stack([lo[j], lo[j] + 1, lo[j + 1], lo[j + 1] + 1])
        wts = np.stack([s0 * u0[j], s0 * u1[j],
                        s1 * u0[j + 1], s1 * u1[j + 1]])
        return pay, idx, wts

    while it < max_iter:
        stages(v)
        it += 1
        v_new = cand2.max(axis=0)
        delta = v_new - v
        sup = float(np.abs(delta).max())
        v = v_new
        fix_gap = g * 0.5 * (float(delta.max()) - float(delta.min()))
        if fix_gap < tol_fix:
            break
        pay, idx, wts = greedy_stencil()
        for _ in range(min(_EVAL_SWEEPS, max_iter - it)):
            v = pay + np.einsum("kx,kx->x", wts, v.take(idx))
            it += 1
    else:
        raise NotConverged(f"policy iteration stalled with certified gap "
                           f"{fix_gap:.3g} after {max_iter} sweeps")

    v = v + g * 0.5 * (float(delta.min()) + float(delta.max()))
    stages(v)
    a_star_y = a_grid[cand1.argmax(axis=0)]
    q_star = q_grid[cand2.argmax(axis=0)]
    y_star = x_grid - q_star * dt
    a_star = np.interp(y_star, y_grid, a_star_y)

    return DPResult(x_grid=x_grid, v_hat=v, policy_produce=a_star,
                    policy_sell=q_star, beta=beta, dt=dt, iterations=it,
                    sup_change=sup, fix_gap=fix_gap)


def brute_conjugate(xs, fs, z: float, kind: str) -> tuple:
    """Exhaustive conjugate over raw samples; the envelope module's rival.

    kind 'cost' maximizes x z - f, 'revenue' maximizes f - x z.  Returns
    (value, argmax).
    """
    xs = np.asarray(xs, dtype=float)
    fs = np.asarray(fs, dtype=float)
    if kind == "cost":
        vals = xs * z - fs
    elif kind == "revenue":
        vals = fs - xs * z
    else:
        raise InvalidParameter("kind must be 'cost' or 'revenue'")
    k = int(np.argmax(vals))
    return float(vals[k]), float(xs[k])


def write_dp_csv(res: DPResult, path) -> None:
    write_csv(path, ["x", "v_hat", "produce", "sell"],
              [res.x_grid, res.v_hat, res.policy_produce, res.policy_sell])
