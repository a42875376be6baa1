"""Shared fixtures: the worked example instances, solved once per session,
an Euler referee that scores plans independently of simulate, an
exhaustive conjugate that checks the envelope module's, a Hamiltonian
built from another truncation ceiling, the plain
monotone-chain loop that its array evaluation must reproduce, the HJB
residual of a value function, the exact Psi of a piecewise-linear H on
table_curves and seeded tables, the % loop the CSV kernel must match, and
the per-knot drawdown layout, running-clock phase loop and phase-by-phase
cycle loop that the strategy and simulate modules' array layouts must
reproduce, with the solved cases they are compared on."""

import math
import pathlib

import numpy as np
import pytest

from monopoly_control import (
    ControlSet,
    Curve,
    CyclicPlan,
    DrawdownPlan,
    InvalidParameter,
    ProblemSpec,
    RelaxedStatic,
    StateViolation,
    StaticPlan,
    build_hamiltonian,
    build_value,
    builtin_arvan_moses,
    builtin_linear_cost,
    h_at,
    validate_problem,
)
from monopoly_control import hamiltonian
from monopoly_control.config import load_problem
from monopoly_control.hamiltonian import controls_at

REPO = pathlib.Path(__file__).resolve().parents[1]


def random_table_instance(rng: np.random.Generator):
    """A random bounded problem with tabulated revenue and cost curves.

    Revenue is any non-negative table anchored at zero (not necessarily
    concave), cost any non-decreasing one, so the hull machinery gets
    exercised rather than bypassed.
    """
    beta = float(rng.uniform(0.3, 1.5))
    q_hi = float(rng.uniform(0.5, 2.0))
    a_hi = float(rng.uniform(0.5, 2.5))

    n_r = int(rng.integers(4, 10))
    r_xs = np.concatenate([[0.0], np.sort(rng.uniform(0.0, q_hi, n_r - 2)),
                           [q_hi]])
    r_xs = np.unique(r_xs)
    r_ys = np.concatenate([[0.0], rng.uniform(0.0, 1.2, len(r_xs) - 1)])

    n_c = int(rng.integers(4, 10))
    c_xs = np.concatenate([[0.0], np.sort(rng.uniform(0.0, a_hi, n_c - 2)),
                           [a_hi]])
    c_xs = np.unique(c_xs)
    c_ys = np.concatenate([[0.0],
                           np.cumsum(rng.uniform(0.0, 0.6, len(c_xs) - 1))])

    if rng.uniform() < 0.25:
        vals = np.unique(np.concatenate([[0.0],
                                         rng.uniform(0.0, a_hi, 4)]))
        production = ControlSet.finite(vals) if len(vals) >= 2 \
            else ControlSet.interval(0.0, a_hi)
    else:
        production = ControlSet.interval(0.0, a_hi)

    spec = ProblemSpec(
        beta=beta,
        demand_set=ControlSet.interval(0.0, q_hi),
        production_set=production,
        revenue=Curve.table(list(zip(r_xs, r_ys))),
        cost=Curve.table(list(zip(c_xs, c_ys))),
    )
    return validate_problem(spec)


def _plan_rates(problem, plan, t, model):
    """(running payoff, stock drift) of a plan's control at the times t.

    A relaxed control is a measure: it earns the mixture of R and C, not R
    and C at its mean rates, and moves stock at the means.  A drawdown
    takes its controls from the feedback rule at the slope
    min(xi0 e^(beta t), zeta), xi0 = zeta e^(-beta tau), not from its knots.
    """
    rev, cost = problem.revenue, problem.cost
    if isinstance(plan, DrawdownPlan):
        beta, zeta = problem.beta, model.zeta
        xi0 = zeta * math.exp(-beta * plan.tau)
        arc = t < plan.tau
        a, q = controls_at(model, np.minimum(xi0 * np.exp(beta * t[arc]), zeta))
        pay, drift = _plan_rates(problem, plan.tail, t[~arc] - plan.tau, model)
        return (np.concatenate([rev(q) - cost(a), pay]),
                np.concatenate([a - q, drift]))
    if isinstance(plan, StaticPlan):
        u = np.full_like(t, plan.u)
        return rev(u) - cost(u), np.zeros_like(t)
    if isinstance(plan, RelaxedStatic):
        g, n = plan.gamma, plan.nu
        pay = (g * rev(plan.q1) + (1.0 - g) * rev(plan.q2)
               - n * cost(plan.a1) - (1.0 - n) * cost(plan.a2))
        drift = (n * plan.a1 + (1.0 - n) * plan.a2
                 - g * plan.q1 - (1.0 - g) * plan.q2)
        return np.full_like(t, pay), np.full_like(t, drift)
    if isinstance(plan, CyclicPlan):
        ph = np.array(plan.phases)
        k = np.searchsorted(ph[:, 1], np.fmod(t, plan.eps), side="right")
        k = np.minimum(k, len(ph) - 1)
        a, q = ph[k, 2], ph[k, 3]
        return rev(q) - cost(a), a - q
    raise TypeError(f"no referee for {type(plan).__name__}")


def euler_referee(problem, plan, *, horizon, x0=0.0, model=None, steps=4096):
    """Discounted total of a plan run by an Euler scheme on a uniform grid.

    Each step holds the control at its midpoint (so a grid that contains
    every switch integrates a piecewise-constant plan exactly) and is
    weighted by the exact discount mass of the step.  A step places a
    switch only to within its length, so stock counts as breached below
    minus one step's largest move, and the first breach raises
    StateViolation.  model is the HamiltonianModel a drawdown's feedback
    rule reads.
    """
    t = np.linspace(0.0, horizon, steps + 1)
    pay, drift = _plan_rates(problem, plan, 0.5 * (t[:-1] + t[1:]), model)
    stock = x0 + np.concatenate([[0.0], np.cumsum(drift * np.diff(t))])
    bad = np.nonzero(stock < -(horizon / steps) * np.abs(drift).max() - 1e-12)[0]
    if len(bad):
        raise StateViolation(float(t[bad[0]]), float(stock[bad[0]]))
    disc = np.exp(-problem.beta * t)
    return float(np.sum(pay * (disc[:-1] - disc[1:])) / problem.beta)


def _brute_conjugate(xs, fs, z: float, kind: str) -> tuple:
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


def _reference_chain(xs, gs) -> list:
    """Andrew's monotone chain for a lower hull, one stack step at a time
    on Python floats: the vertex list envelope._chain_lower must return."""
    xs = np.asarray(xs, dtype=float).tolist()
    gs = np.asarray(gs, dtype=float).tolist()
    out: list[int] = []
    for i in range(len(xs)):
        while len(out) >= 2:
            i0, i1 = out[-2], out[-1]
            lhs = (gs[i1] - gs[i0]) * (xs[i] - xs[i1])
            rhs = (gs[i] - gs[i1]) * (xs[i1] - xs[i0])
            if lhs >= rhs:
                out.pop()
            else:
                break
        out.append(i)
    return out


def _reference_drawdown(vf, x0: float, tail) -> DrawdownPlan:
    """The drawdown arc laid out knot by knot on Python floats: xi0 =
    v'(x0), then the value table's knots above it with their Psi, the
    attaining spans read afresh at every knot in one batch; a knot's row
    carries the controls into the cell above it, and the controls below it
    get a row of their own where they differ and at zeta.  Where the
    reading at xi0 spans two controls (the kernel's tie band of a kink)
    and xi0 is nearer the knot above than the knot below (or 0), the arc
    starts in the cell below that knot, so its first row holds the
    controls read below that knot.  The plan strategy.drawdown_plan must
    return, bit for bit, for zeta > 0 and a stock x0 > 0 it accepts."""
    model, beta = vf.model, vf.beta
    xi0 = vf.v_prime(x0)
    tau = math.log(model.zeta / xi0) / beta
    above = [k for k in range(len(vf.xi_knots)) if vf.xi_knots[k] > xi0]
    zs = [xi0] + [float(vf.xi_knots[k]) for k in reversed(above)]
    xs = [float(x0)] + [float(vf.psi_knots[k]) for k in reversed(above)]
    knot_below = max([float(k) for k in vf.xi_knots if k <= xi0], default=0.0)
    c, r = hamiltonian._in_domain(model, np.array(zs))
    last = len(zs) - 1
    rows = []      # (t, slope, stock, produce, sell)
    for i, (z, x) in enumerate(zip(zs, xs)):
        t = float(np.log(z / xi0)) / beta
        below = (float(c.argmax_lo[i]), float(r.argmax_hi[i]))
        into = (float(c.argmax_hi[i]), float(r.argmax_lo[i]))
        if (i == 0 < last and below != into
                and zs[1] - xi0 < xi0 - knot_below):
            into = (float(c.argmax_lo[1]), float(r.argmax_hi[1]))
        if i == last or (i > 0 and below != into):
            rows.append((t, z, x, *below))
        if i < last:
            rows.append((t, z, x, *into))
    t, z, x, a, q = (np.array(col) for col in zip(*rows))
    return DrawdownPlan(x0=float(x0), tau=float(tau), t_knots=t, x_knots=x,
                        a_knots=a, q_knots=q, xi_knots=z, tail=tail)


def _reference_segments(period: float, phases, horizon: float) -> tuple:
    """(cuts, controls) of a periodic control laid out phase by phase on a
    running clock, a phase kept where it ends past the last cut: the knot
    times and (produce, sell, rate) rows simulate._simulate_segments must
    lay out, bit for bit."""
    cuts, controls, base = [0.0], [], 0.0
    while True:
        for t0, t1, a, q, rate in phases:
            if base + t0 >= horizon:
                break
            end = min(base + t1, horizon)
            if end > cuts[-1]:
                cuts.append(end)
                controls.append((a, q, rate))
        base += period
        if base >= horizon - 1e-15 * max(1.0, horizon):
            return cuts, controls


def _reference_cycle(problem, relaxed, eps: float) -> tuple:
    """(phases, kappa, peak_stock, mean_payoff) of a relaxed optimum's
    cycle of period eps built phase by phase on Python floats: stock and
    payoff summed in phase order from zero, the peak at the first strict
    maximum above zero (kappa 0 if none).  The fields
    strategy.cyclic_strategy must return, bit for bit, whether or not the
    cycle's net closes."""
    sw_a = (1.0 - relaxed.nu) * eps
    sw_q = relaxed.gamma * eps
    cuts = sorted({0.0, sw_a, sw_q, eps})
    phases = []
    for t0, t1 in zip(cuts, cuts[1:]):
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
    return tuple(phases), peak_t / eps, peak, mean / eps


def _exact_table_psi(model, xi) -> np.ndarray:
    """Psi at the slopes xi (0 < xi <= zeta) of a model whose H is
    piecewise linear (tables and finite sets): the sum over the cells
    between kinks of -H'/beta ln(z_hi/z_lo), H' read at the cell's
    midpoint, where both sides agree.  Kinks within a relative 1e-9 of the
    one below count once; H is linear between true kinks, so an extra kink
    cannot change the sum."""
    zeta, beta = model.zeta, model.problem.beta
    ks = model.kink_zs[(model.kink_zs > 0.0) & (model.kink_zs < zeta)]
    if len(ks):
        ks = ks[np.concatenate([[True], np.diff(ks) > 1e-9 * ks[1:]])]
    edges = np.concatenate([[0.0], ks, [zeta]])
    slope = hamiltonian.subgradient(model, 0.5 * (edges[:-1] + edges[1:]))[0]
    lo = np.maximum(edges[None, :-1], np.asarray(xi, dtype=float)[:, None])
    hi = np.maximum(edges[None, 1:], lo)
    return (-slope / beta * np.log(hi / lo)).sum(axis=1)


def _drawdown_cases() -> list:
    """(label, problem, model, value function, stocks) to compare the
    drawdown and phase layouts on: every shipped config at beta 0.3, 0.7
    and 1.5 from stocks 0.05, 0.2 and 0.49, and 30 seeded random table
    instances with zeta > 0 from stocks at 0.1, 0.4 and 0.98 of
    min(0.5, x_resolved)."""
    cases = []
    for cfg in sorted((REPO / "configs").glob("*.cfg")):
        for beta in (0.3, 0.7, 1.5):
            p = validate_problem(load_problem(cfg, [f"problem.beta={beta}"]))
            m = build_hamiltonian(p)
            cases.append((f"{cfg.stem}@{beta}", p, m, build_value(m),
                          (0.05, 0.2, 0.49)))
    rng = np.random.default_rng(16)
    while len(cases) < 15 + 30:
        p = random_table_instance(rng)
        m = build_hamiltonian(p)
        if m.zeta > 0.0:
            vf = build_value(m)
            top = min(0.5, vf.x_resolved)
            cases.append((f"table{len(cases) - 15}", p, m, vf,
                          (0.1 * top, 0.4 * top, 0.98 * top)))
    return cases


# relative step of the central difference in _hjb_residual
_FD_STEP = 1e-6


def _hjb_residual(value_fn, model, x: float) -> float:
    """Relative defect of beta*v = H(v') using a numerical slope.

    value_fn is anything exposing value_at (a ValueFunction or the
    dynamic-programming oracle's DPResult); the slope comes from a central
    difference so the check does not reuse the internal inversion.
    """
    v_at = value_fn.value_at
    h = _FD_STEP * max(1.0, abs(x))
    if x >= h:
        dv = (v_at(x + h) - v_at(x - h)) / (2.0 * h)
    else:
        dv = (v_at(x + h) - v_at(max(x, 0.0))) / h
    dv = min(max(dv, 0.0), model.zeta)
    lhs = model.problem.beta * v_at(x)
    return abs(lhs - float(h_at(model, dv))) / max(1.0, abs(lhs))


def _reference_csv(header, columns) -> bytes:
    """The CSV bytes of the % loop every table was written with before the
    numpy kernel: tableio.write_csv must write exactly these."""
    cols = [np.asarray(c, dtype=float).tolist() for c in columns]
    row = ",".join(["%.17g"] * len(cols))
    lines = [",".join(header)] + [row % r for r in zip(*cols)]
    return ("\n".join(lines) + "\n").encode("ascii")


@pytest.fixture(scope="session")
def hjb_residual():
    return _hjb_residual


@pytest.fixture(scope="session")
def reference_csv():
    return _reference_csv


@pytest.fixture(scope="session")
def reference_chain():
    return _reference_chain


@pytest.fixture(scope="session")
def reference_drawdown():
    return _reference_drawdown


@pytest.fixture(scope="session")
def reference_segments():
    return _reference_segments


@pytest.fixture(scope="session")
def reference_cycle():
    return _reference_cycle


@pytest.fixture(scope="session")
def drawdown_cases():
    return _drawdown_cases()


@pytest.fixture(scope="session")
def referee():
    return euler_referee


@pytest.fixture(scope="session")
def brute_conjugate():
    return _brute_conjugate


@pytest.fixture(scope="session")
def make_random_instance():
    return random_table_instance


@pytest.fixture(scope="session")
def exact_table_psi():
    return _exact_table_psi


@pytest.fixture(scope="session")
def seeded_table_models():
    """(problem, model) for table_curves and 200 random_table_instance
    draws from default_rng(7), 54 of them with a finite production set."""
    rng = np.random.default_rng(7)
    problems = [validate_problem(load_problem(REPO / "configs"
                                              / "table_curves.cfg"))]
    problems += [random_table_instance(rng) for _ in range(200)]
    return [(p, build_hamiltonian(p)) for p in problems]


@pytest.fixture(scope="session")
def build_hamiltonian_from():
    """build_hamiltonian(problem) with an unbounded production set hulled
    up to at least ceiling in every round, not only to 2 (k + sqrt z_max)."""
    def build(problem, ceiling):
        def cost_envelope(p, z_max):
            top = max(ceiling, 2.0 * float(p.cost.derivative_inverse()(z_max)))
            xs = np.array([p.production_set.lo, top])
            return hamiltonian.convex_hull(xs, p.cost(xs), curve=p.cost)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hamiltonian, "_cost_envelope", cost_envelope)
            return build_hamiltonian(problem)
    return build


@pytest.fixture(scope="session")
def configs_dir():
    return REPO / "configs"


@pytest.fixture(scope="session")
def linear_cost_problem():
    """Affine cost c=0.2, A=[0,0.3], R(q)=q(1-q) on [0,1], beta=0.5."""
    return validate_problem(builtin_linear_cost(
        0.2, 0.3, 1.0, Curve.linear_demand_revenue(1.0, 1.0), beta=0.5))


@pytest.fixture(scope="session")
def linear_cost_model(linear_cost_problem):
    return build_hamiltonian(linear_cost_problem)


@pytest.fixture(scope="session")
def linear_cost_value(linear_cost_model):
    return build_value(linear_cost_model)


@pytest.fixture(scope="session")
def am_mid_problem():
    """Cubic cost K=1 on a ray, R(q)=q(1-q), beta=0.5: the mixing case."""
    return validate_problem(builtin_arvan_moses(1.0, 1.0, 1.0, beta=0.5))


@pytest.fixture(scope="session")
def am_mid_model(am_mid_problem):
    return build_hamiltonian(am_mid_problem)


@pytest.fixture(scope="session")
def am_mid_value(am_mid_model):
    return build_value(am_mid_model)


@pytest.fixture(scope="session")
def am_low_problem():
    return validate_problem(builtin_arvan_moses(0.2, 1.0, 1.0, beta=0.5))


@pytest.fixture(scope="session")
def am_low_model(am_low_problem):
    return build_hamiltonian(am_low_problem)


@pytest.fixture(scope="session")
def am_high_problem():
    return validate_problem(builtin_arvan_moses(4.0, 0.5, 1.0, beta=0.5))


@pytest.fixture(scope="session")
def am_high_model(am_high_problem):
    return build_hamiltonian(am_high_problem)
