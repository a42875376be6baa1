"""Running-profit function H and its minimizing slope band.

H(z) = sup_q {R(q) - q z} + sup_a {a z - C(a)} prices a unit of stock at z
and asks for the best instantaneous profit.  It is convex; its smallest
minimizer zeta is the marginal value of the first unit of inventory and
drives the whole value function.  The model keeps the two envelopes and
a slope range [0, z_max] wide enough that the minimum is interior,
truncating an unbounded production set high enough that the truncation is
invisible to every query in that range.  H itself is not stored.

Every reading of H combines the two conjugates of the envelope kernel at
the same slopes, and every query takes a scalar or an array alike: H(z) is
the sum of the conjugate values, H'(z+) = max attaining a - min attaining
q, H'(z-) the mirror, and the controls are the smallest attaining pair.
zeta is the first z with H'(z+) >= 0 and m_hi the last with H'(z-) <= 0.
H is convex and H' jumps only at the kinks of the two envelopes, so one
batch at 0, the kinks and z_max gives both one-sided slopes at every
point where H' can jump.  Between two of them H' is constant or rises
strictly, so zeta and m_hi are among those points unless H' crosses zero
inside a cell; then one bracketed root search finds zeta, and m_hi =
zeta.  On tables and finite sets H' is constant between kinks, so both are
kinks and no search runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .envelope import (
    Envelope,
    concave_hull,
    convex_hull,
    fenchel_cost,
    fenchel_revenue,
)
from .errors import OutOfDomain, TruncationFailed
from .problem import ValidatedProblem, validate_problem

_MAX_GROWTH = 60
# an unbounded production set is first truncated at this multiple of
# q_hi + 1; the ceiling doubles until it covers every queried slope
_FIRST_CEILING = 2.0


@dataclass(frozen=True, eq=False)
class HamiltonianModel:
    """Running-profit function with its minimizer band.

    H is read on [0, z_max] from the two envelopes through the conjugate
    kernel.  [zeta, m_hi] is the set of minimizers of H, and the value
    function uses its smallest, zeta.  trunc_bound is the production
    ceiling substituted for an unbounded production set (None when the set
    was already bounded).
    """

    problem: ValidatedProblem = field(repr=False)
    rev_env: Envelope = field(repr=False)
    cost_env: Envelope = field(repr=False)
    z_max: float
    zeta: float
    m_hi: float
    h_min: float
    kink_zs: np.ndarray = field(repr=False)
    trunc_bound: float | None


def _envelope(build, curve, cset, xs) -> Envelope:
    """build's hull of curve over cset, read at the curve's points xs."""
    return build(xs, curve(xs), curve=curve, finite=cset.kind == "finite")


def _revenue_envelope(problem: ValidatedProblem) -> Envelope:
    return _envelope(concave_hull, problem.revenue, problem.demand_set,
                     problem.q_grid)


def _cost_envelope(problem: ValidatedProblem, ceiling: float | None) -> Envelope:
    xs = problem.a_grid
    if xs is None:
        # a ray carries a smooth cost (validate_problem), hulled up to the
        # ceiling
        xs = np.array([problem.production_set.lo, ceiling])
    return _envelope(convex_hull, problem.cost, problem.production_set, xs)


def _conjugates(rev_env: Envelope, cost_env: Envelope, z) -> tuple:
    """(cost, revenue) conjugates at the slopes z."""
    return fenchel_cost(cost_env, z), fenchel_revenue(rev_env, z)


def _slopes(c, r) -> tuple:
    """(H'(z-), H'(z+)) from the attaining spans of the two conjugates."""
    return c.argmax_lo - r.argmax_hi, c.argmax_hi - r.argmax_lo


def _sides(c, r) -> np.ndarray:
    """Rows (produce, sell) below z, then above it: the span ends."""
    return np.stack([c.argmax_lo, r.argmax_hi, c.argmax_hi, r.argmax_lo])


def _root_end(f, a: float, b: float) -> float:
    """The end in the class f >= 0 of [a, b], shrunk around f's change of
    class (f < 0 or f >= 0) by Illinois steps kept half a tolerance inside
    it, and by bisection when three steps have not halved it, until
    |b - a| <= 1e-15 + 8.9e-16 |b|, b the latest point."""
    fa, fb = f(a), f(b)
    w1 = w2 = w3 = math.inf             # widths one to three steps back
    while True:
        w, tol = abs(b - a), 1e-15 + 8.9e-16 * abs(b)
        if w <= tol:
            return b if fb >= 0.0 else a
        d = 0.5 * tol / w
        s = min(max(fb / (fb - fa), d), 1.0 - d)
        x = b - (0.5 if w > 0.5 * w3 else s) * (b - a)
        fx = f(x)
        # Illinois: keep the end across the class change; an end kept
        # twice in a row has its value halved
        if (fx < 0.0) != (fb < 0.0):
            a, fa = b, fb
        else:
            fa *= 0.5
        b, fb = x, fx
        w1, w2, w3 = w, w1, w2


def build_hamiltonian(problem) -> HamiltonianModel:
    """Build the envelopes, bracket the minimum of H, locate its minimizer
    band, and freeze the model.

    An unbounded production set is truncated at _FIRST_CEILING (q_hi + 1)
    first, and the ceiling doubles while the largest rate attaining the
    cost conjugate at z_max reaches 0.9 of it; results do not depend on
    the starting value.
    """
    problem = validate_problem(problem)
    rev_env = _revenue_envelope(problem)

    unbounded = problem.a_grid is None
    ceiling = (_FIRST_CEILING * (float(problem.q_grid[-1]) + 1.0)
               if unbounded else None)
    rev_kinks = rev_env.kink_slopes()
    # twice the steepest revenue slope, which a kink or an end attains
    z_max = 2.0 * max(1.0, float(np.abs(rev_kinks).max()))

    cost_env = _cost_envelope(problem, ceiling)

    # each round reads H and its one-sided slopes at 0, the kinks and
    # z_max in one batch; H(0) of the first round is the growth reference
    h0 = None
    for _ in range(_MAX_GROWTH):
        kinks = np.concatenate([rev_kinks, cost_env.kink_slopes()])
        kinks = np.unique(kinks[(kinks > 0.0) & (kinks <= z_max)])
        pts = np.unique(np.concatenate([[0.0], kinks, [z_max]]))
        c, r = _conjugates(rev_env, cost_env, pts)
        hs = r.value + c.value
        h0 = hs[0] if h0 is None else h0
        wide = hs[-1] > h0 + 1e-9 * abs(h0)
        covered = not unbounded or c.argmax_hi[-1] < 0.9 * ceiling
        if wide and covered:
            break
        if not covered:
            ceiling *= 2.0
            cost_env = _cost_envelope(problem, ceiling)
        if not wide:
            z_max *= 2.0
    else:
        raise TruncationFailed(
            "could not bracket the minimum of the running-profit function; "
            "production set may fail the coercivity margin")

    # zeta is the first point with H'(z+) >= 0 and m_hi the point before
    # the first with H'(z-) > 0.  In a kink-free cell H' is constant or
    # rises strictly, so where it turns inside the cell below zeta the
    # minimum is strict and m_hi = zeta; elsewhere both are points
    dm, dp = _slopes(c, r)
    up, down = np.flatnonzero(dp >= 0.0), np.flatnonzero(dm > 0.0)
    j = int(up[0]) if len(up) else len(pts) - 1
    k = int(down[0]) if len(down) else len(pts)
    zeta, m_hi = float(pts[j]), float(pts[max(k - 1, 0)])
    seen = dict(zip(pts.tolist(), hs.tolist()))
    if j > 0 and dm[j] > 0.0:
        # zeta is the end of the search's bracket where H'(z+) >= 0, a
        # point the search read, so H at zeta is in seen
        def rising(z):
            c, r = _conjugates(rev_env, cost_env, z)
            seen[z] = float(r.value + c.value)
            return float(_slopes(c, r)[1])

        zeta = m_hi = _root_end(rising, float(pts[j - 1]), float(pts[j]))
    h_min = seen[zeta]

    return HamiltonianModel(problem=problem, rev_env=rev_env, cost_env=cost_env,
                            z_max=float(z_max), zeta=float(zeta),
                            m_hi=float(m_hi), h_min=float(h_min), kink_zs=kinks,
                            trunc_bound=ceiling)


def _in_domain(model: HamiltonianModel, z) -> tuple:
    """Conjugates at z after checking that z lies in [0, z_max]."""
    zs = np.asarray(z, dtype=float)
    if zs.size and not (zs.min() >= 0.0 and zs.max() <= model.z_max):
        raise OutOfDomain(f"z outside [0, {model.z_max}]")
    return _conjugates(model.rev_env, model.cost_env, z)


def h_at(model: HamiltonianModel, z):
    """H(z) for a scalar or an array of slopes."""
    c, r = _in_domain(model, z)
    return r.value + c.value


def subgradient(model: HamiltonianModel, z) -> tuple:
    """One-sided derivatives (H'(z-), H'(z+)) from the attaining sets."""
    return _slopes(*_in_domain(model, z))


def controls_at(model: HamiltonianModel, z) -> tuple:
    """Smallest attaining (production, sales) pair at slope z."""
    c, r = _conjugates(model.rev_env, model.cost_env, z)
    return (c.argmax_lo, r.argmax_lo)
