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
zeta is the first z with H'(z+) >= 0 and m_hi the last with H'(z-) <= 0,
from a kink or the bracketed root search in the grid cell of the change.
That cell is found coarse to fine: the readings at every 64th grid slope
locate the coarse step where each sign turns, and only the slopes inside
it are read.  H is convex, so both readings are monotone in z and each
sign turns once; the first index found is then the full scan's.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._roots import bracket_root
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
# the zeta and m_hi cells are searched on every _COARSE-th grid slope first
_COARSE = 64
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


def _revenue_envelope(problem: ValidatedProblem) -> Envelope:
    xs = problem.q_grid
    return concave_hull(xs, problem.revenue(xs), curve=problem.revenue,
                        finite=problem.demand_set.kind == "finite")


def _cost_envelope(problem: ValidatedProblem, ceiling: float | None) -> Envelope:
    xs = problem.a_grid
    if xs is None:
        xs = problem.production_set.sample(problem.grid_n, hi=ceiling)
    return convex_hull(xs, problem.cost(xs), curve=problem.cost,
                       finite=problem.production_set.kind == "finite")


def _conjugates(rev_env: Envelope, cost_env: Envelope, z) -> tuple:
    """(cost, revenue) conjugates at the slopes z."""
    return fenchel_cost(cost_env, z), fenchel_revenue(rev_env, z)


def _slopes(c, r) -> tuple:
    """(H'(z-), H'(z+)) from the attaining spans of the two conjugates."""
    return c.argmax_lo - r.argmax_hi, c.argmax_hi - r.argmax_lo


def _sides(c, r) -> np.ndarray:
    """Rows (produce, sell) below z, then above it: the span ends."""
    return np.stack([c.argmax_lo, r.argmax_hi, c.argmax_hi, r.argmax_lo])


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
    # twice the steepest revenue slope
    z_max = 2.0 * max(1.0, float(np.abs(rev_env._es).max()))

    cost_env = _cost_envelope(problem, ceiling)

    def h(z):
        c, r = _conjugates(rev_env, cost_env, z)
        return r.value + c.value

    def d(z):
        return _slopes(*_conjugates(rev_env, cost_env, z))

    h0 = h(0.0)
    gap = 1e-9 * max(1.0, abs(h0))
    for _ in range(_MAX_GROWTH):
        c, r = _conjugates(rev_env, cost_env, z_max)
        wide = r.value + c.value > h0 + gap
        covered = not unbounded or c.argmax_hi < 0.9 * ceiling
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

    z_grid = np.linspace(0.0, z_max, problem.grid_n)

    kinks = np.concatenate([rev_env.kink_slopes(), cost_env.kink_slopes()])
    kinks = np.unique(kinks[(kinks > 0.0) & (kinks <= z_max)])

    # zeta is the first z with H'(z+) >= 0 and m_hi the last with
    # H'(z-) <= 0: slot 0 reads H'(z+) and slot 1 reads -H'(z-), each
    # turning non-negative at its edge.  The grid brackets both within
    # one cell, since batch and scalar readings of the kernel agree bit
    # for bit
    def rising(dm, dp, slot):
        return np.where(slot == 0, dp, -dm)

    def kink_edge(slot: int, i: int) -> float | None:
        # the first kink holding 0 in its subgradient where the sign
        # changes within 1e-8 of it is the edge in [z_grid[i-1], z_grid[i]];
        # all kinks near the cell are read in one batch
        lo, hi = z_grid[i - 1], z_grid[i]
        hs = 1e-8 * np.maximum(1.0, kinks)
        near = (kinks + hs >= lo) & (kinks - hs <= hi)
        kz, hz = kinks[near], hs[near]
        if not len(kz):
            return None
        dm, dp = d(np.concatenate([kz, kz - hz, kz + hz]))
        neg = rising(dm, dp, slot) < 0.0
        m = len(kz)
        hit = np.flatnonzero((dm[:m] <= 0.0) & (0.0 <= dp[:m])
                            & (neg[m:2 * m] != neg[2 * m:]))
        return float(kz[hit[0]]) if len(hit) else None

    i_zeta, i_mhi = _first_turns(d, z_grid)
    edges = [0.0, float(z_grid[max(i_mhi - 1, 0)])]      # zeta, m_hi
    cells = {slot: i for slot, i in enumerate((i_zeta, i_mhi))
             if 0 < i < len(z_grid)}
    for slot, i in list(cells.items()):
        kz = kink_edge(slot, i)
        if kz is not None:
            edges[slot] = kz
            del cells[slot]
    if cells:
        # edges off a kink: one batch of brackets, equal to its scalar
        # searches bit for bit; zeta is the upper end, m_hi the lower
        slots = np.array(list(cells))
        i = np.array(list(cells.values()))
        ends = bracket_root(lambda z, k: rising(*d(z), slots[k]),
                            z_grid[i - 1], z_grid[i])
        for n, slot in enumerate(slots):
            edges[slot] = float(ends[1 - slot][n])
    zeta, m_hi = edges
    m_hi = max(m_hi, zeta)
    h_min = h(zeta)

    return HamiltonianModel(problem=problem, rev_env=rev_env, cost_env=cost_env,
                            z_max=float(z_max), zeta=float(zeta),
                            m_hi=float(m_hi), h_min=float(h_min), kink_zs=kinks,
                            trunc_bound=ceiling)


def _first_turns(d, z_grid: np.ndarray) -> list:
    """[i_zeta, i_mhi]: the first i with H'(z_i+) >= 0 (else the last
    index) and the first with H'(z_i-) > 0 (else len(z_grid)), read on
    every _COARSE-th slope and the last, then on the slopes inside the
    coarse steps where the signs turn, in one more batch."""
    n = len(z_grid)
    coarse = np.minimum(np.arange(0, n + _COARSE - 1, _COARSE), n - 1)
    dm, dp = d(z_grid[coarse])
    ends, cells = [], []
    for turned, none in ((dp >= 0.0, n - 1), (dm > 0.0, n)):
        j = np.flatnonzero(turned)
        ends.append(int(coarse[j[0]]) if len(j) else none)
        # the turn lies in (coarse[j - 1], coarse[j]]
        cells.append(np.arange(coarse[j[0] - 1] + 1 if len(j) and j[0]
                               else ends[-1], ends[-1]))
    fine = np.union1d(*cells)
    if len(fine):
        dm, dp = d(z_grid[fine])
        for s, turned in enumerate((dp >= 0.0, dm > 0.0)):
            at = turned[np.searchsorted(fine, cells[s])]
            ends[s] = int(np.append(cells[s][at], ends[s])[0])
    return ends


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
