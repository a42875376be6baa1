"""Brute-force discrete-time dynamic-programming cross-check.

Nothing here touches envelopes, conjugates, or slope grids: the oracle
discretizes time, stock, and both control sets, then solves the Bellman
equation

    v(x) = max_{a, q}  (R(q) - C(a)) k  +  gamma v(x + (a - q) dt),
    k = (1 - e^(-beta dt)) / beta,   gamma = e^(-beta dt),

subject to x + (a - q) dt >= 0, with stock clamped at the top of the grid
(extra stock is worthless there, so the clamp only understates).  The max
separates through the post-sales level y = x - q dt, so each sweep is two
one-dimensional maximizations instead of a joint one.  A control moves
stock by the same fraction of a cell from every node of the uniform grid,
so each is one small product of shifted copies of the table (_stage).

The fixed point is found by policy iteration with exact evaluation
(Howard's method; Puterman 1994, section 6.4): each full Bellman sweep,
with its max over controls, picks a greedy policy, and one banded linear
solve (_solve_policy: a batched solve of independent interiors, then a
small system on the separators between them) sets the table to that
policy's exact value.  Only the Bellman sweeps decide when to stop.  The
bound they give (see dp_value) holds whatever table they start from, so
the solves change how fast the table gets there, not the fixed point nor
how closely it is certified.

An unbounded production set is capped independently of the main solver:
no rational producer exceeds argmax_a { s a - C(a) } where s is the best
average revenue sup_q R(q)/q, because stock can never be worth more than
s per unit.  Both are read in closed form from the curves (_production_cap).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameter, NotConverged
from .problem import ValidatedProblem, _unique, validate_problem
from .tableio import write_csv

_BIG_NEG = -1e30
# certified distance of the returned table from the discretized fixed point
_TOL_FIX = 1e-9
# smallest interior of the policy solve's periods; a stencil reaching
# further from the diagonal widens the interiors to four times its reach
_MIN_BLOCK = 16


@dataclass(frozen=True, eq=False)
class DPResult:
    """Certified fixed-point table with greedy policies."""

    x_grid: np.ndarray = field(repr=False)
    v_hat: np.ndarray = field(repr=False)
    policy_produce: np.ndarray = field(repr=False)
    policy_sell: np.ndarray = field(repr=False)
    iterations: int
    solves: int
    sup_change: float
    fix_gap: float

    def value_at(self, x):
        out = np.interp(x, self.x_grid, self.v_hat)
        return float(out) if np.ndim(x) == 0 else out


def _production_cap(problem: ValidatedProblem) -> float:
    """argmax_a {s a - C(a)} with a 5 % margin.  s = sup R(q)/q is A - B lo
    for linear demand on an interval, else the largest R(q)/q at the
    revenue's positive points (R/q is monotone on each linear piece); a
    ray's cost is the cubic, whose s a - C(a) peaks at 0 or at k + sqrt(s),
    the largest rate attaining slope s (Curve.rate_at_slope)."""
    q, R = problem.q_grid, problem.revenue
    if problem.demand_set.kind == "interval" and R.family == "linear_demand":
        s = R.params[0] - R.params[1] * problem.demand_set.lo
    else:
        pos = q[q > 0.0]
        s = float(np.max(R(pos) / pos))
    a = float(problem.cost.rate_at_slope(s))
    if s * a - problem.cost(a) <= 0.0:
        a = 0.0
    return max(a, float(q[-1])) * 1.05 + 1e-9


def _count(name: str, n, least: int) -> int:
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < least:
        raise InvalidParameter(f"{name} must be an integer >= {least}, "
                               f"got {n!r}")
    return int(n)


def _control_grid(cset, name: str, n, cap: float | None) -> np.ndarray:
    if cset.kind == "finite":
        return np.asarray(cset.values, dtype=float)
    # one point would drop the interval to its lower end
    n = _count(name, n, 2)
    hi = cset.hi if cset.is_bounded else cap
    return np.linspace(cset.lo, hi, n)


def _solve_policy(pay, idx, wts) -> np.ndarray:
    """Exact value of one policy: v solving (I - W) v = pay, where
    W[x, idx[i, x]] += wts[i, x].

    The weights are non-negative and each row of W sums below 1 (they
    carry the discount), so I - W is strictly diagonally dominant, and so
    are its diagonal blocks and their Schur complements: no pivoting
    across blocks is needed.  The nodes fall into k periods, each an
    interior of m = max(_MIN_BLOCK, 4 bw) nodes and a separator of bw,
    bw = max |idx[i, x] - x| the stencil's reach, padded at the end with
    identity rows.  No row reaches past the separators either side of its
    interior, so one batched solve eliminates every interior at once
    (one-level nested dissection; George 1973), one dense solve takes the
    separators' Schur complement, block tridiagonal in (k - 1) bw
    unknowns, and a batched product recovers the interiors.  Each LAPACK
    call costs a fixed overhead that dwarfs its arithmetic at these sizes,
    so there are two per policy, one when a single period covers the grid.
    """
    n = pay.size
    rows = np.broadcast_to(np.arange(n), idx.shape)
    bw = int(np.abs(idx - rows).max())
    m = max(_MIN_BLOCK, 4 * bw)
    p = m + bw
    k = -(-(n + bw) // p)
    # row x of period j = x // p sees columns j p - bw ... j p + p + bw - 1:
    # separator j - 1, interior j, separator j, the first bw of interior j + 1
    span = p + 2 * bw
    cell = rows * span + (idx - (rows // p * p - bw))
    band = np.bincount(cell.ravel(), -wts.ravel(), minlength=k * p * span)
    band = band.reshape(k, p, span)
    band.reshape(k, -1)[:, bw::span + 1] += 1.0   # row r's own column, bw + r
    rhs = np.zeros((k, p))
    rhs.flat[:n] = pay
    # y[j] = A_j^-1 [r_j | coupling to separator j - 1 | to separator j]
    y = np.linalg.solve(band[:, :m, bw:bw + m], np.concatenate(
        [rhs[:, :m, None], band[:, :m, :bw], band[:, :m, bw + m:bw + p]], 2))
    left, right = slice(1, bw + 1), slice(bw + 1, None)
    # separator j reads the last bw of interior j and the first bw of j + 1
    lt = band[:-1, m:, m:bw + m] @ y[:-1, m - bw:]
    rt = band[:-1, m:, p + bw:] @ y[1:, :bw]
    s4 = np.zeros((k - 1, bw, k - 1, bw))
    j = np.arange(k - 1)
    s4[j, :, j] = band[:-1, m:, bw + m:bw + p] - lt[:, :, right] - rt[:, :, left]
    s4[j[1:], :, j[1:] - 1] = -lt[1:, :, left]
    s4[j[:-1], :, j[:-1] + 1] = -rt[:-1, :, right]
    s = rhs[:-1, m:] - lt[:, :, 0] - rt[:, :, 0]
    if s.size:
        s = np.linalg.solve(s4.reshape(s.size, s.size), s.ravel())
    sep = np.zeros((k + 1, bw))
    sep[1:-1] = s.reshape(k - 1, bw)
    v = np.zeros((k, p))
    v[:, :m] = y[:, :, 0] - (y[:, :, 1:] @ np.concatenate(
        [sep[:-1], sep[1:]], 1)[:, :, None])[:, :, 0]
    v[:, m:] = sep[1:]
    return v.reshape(-1)[:n]


def _stage(s, base: int, scale: float, pay, n_in: int, n_out: int):
    """One stage of a Bellman sweep: cand[r, k] = pay[k] + scale t(r + base
    + s[k]), t read between nodes r + o[k] and r + o[k] + 1 with weights
    1 - f[k] and f[k] and clamped to t[0] below and t[-1] above.

    The shifts are the same from every node r, so cand = windows @ E: the
    columns of windows are t shifted to each distinct offset, then ones,
    and E holds the scaled weights, then pay.  Returns run(t) -> cand, a
    buffer overwritten by each call, and (o, f).
    """
    fl = np.floor(s)
    f = s - fl
    o = fl.astype(np.intp) + base
    offs = _unique(np.concatenate([o, o + 1]))
    cols = np.arange(len(s))
    e = np.zeros((len(offs) + 1, len(s)))
    e[np.searchsorted(offs, o), cols] = scale * (1.0 - f)
    e[np.searchsorted(offs, o + 1), cols] = scale * f
    e[-1] = pay
    lo, hi = max(0, -int(offs[0])), max(0, int(offs[-1]) + n_out - n_in)
    padded = np.empty(lo + n_in + hi)
    shifted = np.lib.stride_tricks.sliding_window_view(padded, n_out)
    starts = offs + lo
    # nodes on the rows of windows.T and cand: the argmax runs along rows
    windows = np.ones((len(offs) + 1, n_out))
    cand = np.empty((n_out, len(s)))

    def run(t):
        padded[:lo] = t[0]
        padded[lo:lo + n_in] = t
        padded[lo + n_in:] = t[-1]
        np.take(shifted, starts, axis=0, out=windows[:-1])
        return np.matmul(windows.T, e, out=cand)

    return run, o, f


def _bellman(a_grid, q_grid, a_pay, q_pay, gamma: float, dt: float,
             h: float, nx: int, pad: int):
    """dp_value's Bellman sweep on nx stock nodes h apart, and the greedy
    policy as a stencil.  Production maps v to u on the post-sales grid,
    pad nodes lower: u(y) = max_a a_pay[a] + gamma v(y + a dt); sales map
    it back: Tv(x) = max_q q_pay[q] + u(x - q dt).  sweep(v) returns (Tv,
    ia, iq), the first greedy index per y and per x, Tv read at them.
    """
    ny = nx + pad
    ys, xs = np.arange(ny), np.arange(nx)
    s_a = a_grid * dt / h
    stage1, o1, f1 = _stage(s_a, -pad, gamma, a_pay, nx, ny)
    # a move below zero stock, y + a dt < 0, is floored; it can only occur
    # on the first pad + 1 post-sales nodes, and the floor absorbs any value.
    # The move is in nodes, so its rounding slack is too: 1e-9 of a node
    floor1 = np.where(ys[:pad + 1, None] - pad + s_a < -1e-9, _BIG_NEG, 0.0)
    # pad > q dt / h keeps every sales shift at or above one node
    stage2, o2, f2 = _stage(pad - q_grid * dt / h, 0, 1.0, q_pay, ny, nx)

    def sweep(v):
        cand1 = stage1(v)
        cand1[:pad + 1] += floor1
        ia = cand1.argmax(axis=1)
        u = cand1[ys, ia]
        cand2 = stage2(u)
        iq = cand2.argmax(axis=1)
        return cand2[xs, iq], ia, iq

    def greedy_stencil(ia, iq):
        """The greedy policy (ia per y, iq per x) as one 4-point stencil:
        it maps v to pay + sum_k wts[k] * v[idx[k]], with no max."""
        # production at each post-sales level y: u = p1 + u0 v[lo] +
        # u1 v[hi], floored where the move is infeasible, as in the sweep
        p1 = a_pay[ia]
        p1[:pad + 1] += floor1[ys[:pad + 1], ia[:pad + 1]]
        o = ys + o1[ia]
        lo, hi = np.clip(o, 0, nx - 1), np.clip(o + 1, 0, nx - 1)
        u0, u1 = gamma * (1.0 - f1[ia]), gamma * f1[ia]
        # sales at each x: u interpolated between y-nodes j and j1
        j = xs + o2[iq]
        j1 = np.minimum(j + 1, ny - 1)
        s0, s1 = 1.0 - f2[iq], f2[iq]
        pay = q_pay[iq] + s0 * p1[j] + s1 * p1[j1]
        idx = np.stack([lo[j], hi[j], lo[j1], hi[j1]])
        wts = np.stack([s0 * u0[j], s0 * u1[j], s1 * u0[j1], s1 * u1[j1]])
        return pay, idx, wts

    return sweep, greedy_stencil


def dp_value(problem, *, x_max: float, nx: int = 512, dt: float = 0.002,
             na: int = 65, nq: int = 65) -> DPResult:
    """Policy iteration with exact evaluation on the discretized problem.

    Per-step rates use the exact discount weight for a constant rate, so
    the only discretization errors are the control/stock grids and the
    piecewise-constant-in-dt policy class.  Each round is one Bellman
    sweep v -> Tv, then one linear solve that sets v to the exact value of
    that sweep's greedy policy, v = r + gamma P v (Howard's policy
    iteration; Puterman 1994, section 6.4).  The rounds stop once a
    Bellman sweep's contraction sandwich (see below) certifies the
    corrected table within _TOL_FIX = 1e-9 of the discretized fixed point.
    That bound holds for any table the sweep starts from, so the solves
    leave the fixed point and the certificate as plain value iteration has
    them and only cut the number of rounds.  ``iterations`` counts the
    Bellman sweeps and policy solves applied to the table, at most 4 nx +
    64 of them; ``solves`` counts the solves alone.

    Each stage of a sweep is one matrix product (_stage) of at most two
    shifted copies of the table per control and a weight matrix made once
    per call, then one argmax along each node's row.  Each policy solve
    is two LAPACK calls (_solve_policy).  Their rounding depends on the
    BLAS build and on how the nodes are split, and moves v_hat by rounding
    only; the tests pin the policies and rounds by hash.

    A greedy policy equal to the one just solved means the table is
    already that policy's value: every later round would repeat this one
    bit for bit.  If its certificate is still above _TOL_FIX (rounding, at
    a discount this close to 1, keeps it there), NotConverged is raised
    at once with the certified gap.
    """
    problem = validate_problem(problem)
    beta = problem.beta
    nx = _count("nx", nx, 8)
    # two rounds per stock node with room to spare: a greedy policy whose
    # switch point creeps one node per round takes about one per node
    max_iter = 4 * nx + 64
    if not (math.isfinite(x_max) and x_max > 0.0):
        raise InvalidParameter("stock grid must be finite and positive")
    if not (math.isfinite(dt) and dt > 0.0):
        raise InvalidParameter("time step must be finite and positive")
    gamma = math.exp(-beta * dt)
    if gamma >= 1.0:
        raise InvalidParameter(f"time step {dt:g} is too small: the per-step "
                               "discount exp(-beta dt) rounds to 1")

    cap = None
    if problem.a_grid is None:
        cap = _production_cap(problem)
    a_grid = _control_grid(problem.production_set, "na", na, cap)
    q_grid = _control_grid(problem.demand_set, "nq", nq, None)
    h = x_max / (nx - 1)
    if dt * (float(a_grid[-1]) + float(q_grid[-1])) > 8.0 * h * nx:
        raise InvalidParameter("time step moves stock across the whole grid; "
                               "refine dt or widen the grid")

    x_grid = np.linspace(0.0, x_max, nx)
    pad = int(math.ceil(float(q_grid[-1]) * dt / h)) + 1
    y_grid = np.concatenate([x_grid[0] - h * np.arange(pad, 0, -1), x_grid])

    k = (1.0 - gamma) / beta
    r_gain = np.asarray(problem.revenue(q_grid), dtype=float) * k
    c_pay = np.asarray(problem.cost(a_grid), dtype=float) * k
    g = gamma / (1.0 - gamma)

    sweep, greedy_stencil = _bellman(a_grid, q_grid, -c_pay, r_gain, gamma,
                                     dt, h, nx, pad)

    # contraction sandwich: after any Bellman sweep with increment
    # delta = Tv - v, the fixed point lies between Tv + g*min(delta) and
    # Tv + g*max(delta), g = gamma/(1-gamma), whatever v was.  The width
    # shrinks at the rate of the gap between delta components, far faster
    # than delta itself, so this both terminates early and certifies the
    # result.
    v = np.zeros(nx)
    sup = math.inf
    fix_gap = math.inf
    it = solves = 0
    delta = v
    solved = None   # the greedy policy whose exact value v holds

    while it < max_iter:
        v_new, *policy = sweep(v)
        it += 1
        delta = v_new - v
        sup = float(np.abs(delta).max())
        v = v_new
        fix_gap = g * 0.5 * (float(delta.max()) - float(delta.min()))
        if fix_gap < _TOL_FIX:
            break
        if solved is not None and all(map(np.array_equal, policy, solved)):
            raise NotConverged(f"greedy policy repeats with certified gap "
                               f"{fix_gap:.3g} after {it} sweeps and solves")
        if it < max_iter:
            v = _solve_policy(*greedy_stencil(*policy))
            solved = policy
            it += 1
            solves += 1
    else:
        raise NotConverged(f"policy iteration stalled with certified gap "
                           f"{fix_gap:.3g} after {max_iter} sweeps and solves")

    v = v + g * 0.5 * (float(delta.min()) + float(delta.max()))
    _, ia, iq = sweep(v)
    a_star_y = a_grid[ia]
    q_star = q_grid[iq]
    y_star = x_grid - q_star * dt
    a_star = np.interp(y_star, y_grid, a_star_y)

    return DPResult(x_grid=x_grid, v_hat=v, policy_produce=a_star,
                    policy_sell=q_star, iterations=it,
                    solves=solves, sup_change=sup, fix_gap=fix_gap)


def write_dp_csv(res: DPResult, path) -> None:
    write_csv(path, ["x", "v_hat", "produce", "sell"],
              [res.x_grid, res.v_hat, res.policy_produce, res.policy_sell])
