"""Value function: closed-form Psi, inversion, HJB residuals, export."""

import dataclasses
import math

import numpy as np
import pytest

from monopoly_control import (
    ControlSet,
    Curve,
    ProblemSpec,
    build_hamiltonian,
    build_value,
    builtin_arvan_moses,
    h_at,
    load_problem,
    validate_problem,
    write_value_csv,
)
from monopoly_control import envelope
from monopoly_control.envelope import fenchel_cost, fenchel_revenue
from monopoly_control.errors import InvalidParameter, OutOfDomain
from monopoly_control.hamiltonian import subgradient


def _linear_cost_psi_closed(xi, zeta=0.4, c=0.2, alpha_bar=0.3, a=1.0, b=1.0,
                     beta=0.5):
    # antiderivative of -H'(z)/(beta z) on [c, zeta], where
    # H'(z) = alpha_bar - (a - z)/(2 b)
    lead = alpha_bar - a / (2.0 * b)
    return -(lead * math.log(zeta / xi) + (zeta - xi) / (2.0 * b)) / beta


def test_linear_cost_value_at_zero(linear_cost_value):
    # v(0) = H(zeta)/beta = 0.15/0.5
    assert linear_cost_value.value_at(0.0) == pytest.approx(0.3, abs=1e-12)
    assert linear_cost_value.zeta == pytest.approx(0.4, abs=1e-9)
    assert not linear_cost_value.constant
    assert linear_cost_value.v_flat == pytest.approx(0.5, abs=1e-10)


def test_linear_cost_psi_against_antiderivative(linear_cost_value):
    for xi in (0.39, 0.35, 0.3, 0.25, 0.2):
        assert linear_cost_value.psi(xi) == pytest.approx(
            _linear_cost_psi_closed(xi), abs=1e-9), xi


def test_linear_cost_production_threshold(linear_cost_value):
    # stock level where the marginal value drops to the marginal cost
    x_hat = linear_cost_value.psi(0.2)
    assert x_hat == pytest.approx(0.07725887222397809, abs=1e-9)
    assert linear_cost_value.v_prime(x_hat) == pytest.approx(0.2, abs=1e-9)


def test_v_prime_at_origin_is_zeta(linear_cost_value, am_mid_value):
    assert linear_cost_value.v_prime(0.0) == linear_cost_value.zeta
    assert am_mid_value.v_prime(0.0) == am_mid_value.zeta


def test_v_prime_psi_roundtrip(linear_cost_value):
    for x in (0.001, 0.01, 0.05, 0.1, 0.3):
        xi = linear_cost_value.v_prime(x)
        assert linear_cost_value.psi(xi) == pytest.approx(x, abs=1e-8)


def test_am_mid_value_at_zero(am_mid_value):
    assert am_mid_value.value_at(0.0) == pytest.approx(0.28125, abs=1e-12)
    assert am_mid_value.v_flat == pytest.approx(0.5, abs=1e-10)


def test_value_monotone_concave_bounded(linear_cost_value, am_mid_value):
    for vf in (linear_cost_value, am_mid_value):
        xs = vf.psi_knots
        vals = np.array([vf.value_at(float(x)) for x in xs[::50]])
        assert np.all(np.diff(vals) > 0.0)
        assert np.all(vals <= vf.v_flat + 1e-12)
        slopes = vf.xi_knots
        assert np.all(np.diff(slopes[::25]) < 0.0)


def test_hjb_residual_small(linear_cost_value, linear_cost_model, am_mid_value,
                            am_mid_model, hjb_residual):
    for vf, m in ((linear_cost_value, linear_cost_model), (am_mid_value, am_mid_model)):
        for x in (0.01, 0.05, 0.12, 0.3):
            assert abs(hjb_residual(vf, m, x)) < 1e-6, (x, m)


def test_constant_value_when_zeta_zero():
    spec = ProblemSpec(
        beta=0.5,
        demand_set=ControlSet.interval(0.0, 1.0),
        production_set=ControlSet.interval(0.0, 1.0),
        revenue=Curve.table([(0.0, 0.0), (1.0, 0.0)]),
        cost=Curve.affine_cost(0.3),
    )
    vf = build_value(build_hamiltonian(validate_problem(spec)))
    assert vf.constant
    assert vf.value_at(0.0) == vf.value_at(5.0) == pytest.approx(0.0)
    assert vf.x_resolved == 0.0
    with pytest.raises(InvalidParameter, match="flat value function"):
        vf.psi(0.1)


def test_psi_domain_guard(linear_cost_value):
    # Psi is defined on (0, zeta], below the last knot too
    vf = linear_cost_value
    for bad in (0.41, 0.0, -0.1):
        with pytest.raises(OutOfDomain):
            vf.psi(bad)
    assert vf.psi(vf.xi_knots[-1] * 0.5) > vf.x_resolved


def test_value_beyond_resolved_clamps(linear_cost_value):
    # past the last knot v' keeps falling and v keeps rising toward
    # H(0)/beta, which it reaches where v' underflows
    vf = linear_cost_value
    far = vf.x_resolved * 1.5
    assert vf.v_prime(far) < vf.v_prime(vf.x_resolved)
    v_far = vf.value_at(far)
    assert vf.value_at(vf.x_resolved) < v_far <= vf.v_flat
    assert vf.v_prime(1e6) == 0.0
    assert vf.value_at(1e6) == pytest.approx(vf.v_flat, rel=1e-15)


def test_write_value_csv_deterministic(tmp_path, linear_cost_value):
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    write_value_csv(linear_cost_value, p1)
    write_value_csv(linear_cost_value, p2)
    b1 = p1.read_bytes()
    assert b1 == p2.read_bytes()
    header, first = b1.decode().splitlines()[:2]
    assert header == "x,v,v_prime"
    x0, v0, vp0 = (float(t) for t in first.split(","))
    assert (x0, v0, vp0) == (0.0, pytest.approx(0.3), pytest.approx(0.4))


def test_value_csv_roundtrip(tmp_path, am_mid_value):
    path = tmp_path / "v.csv"
    write_value_csv(am_mid_value, path)
    data = np.genfromtxt(path, delimiter=",", names=True)
    assert data["x"][0] == 0.0
    k = len(data["x"]) // 2
    assert am_mid_value.value_at(float(data["x"][k])) == pytest.approx(
        float(data["v"][k]), abs=1e-12)


def _bits(x) -> str:
    return float(x).hex()


@pytest.mark.parametrize("name", ["linear_cost_value", "am_mid_value"])
def test_v_prime_memo_is_exact(name, request):
    # a repeated scalar query returns the float the first one computed, and
    # every answer has the bits of a ValueFunction that never saw a query
    vf = dataclasses.replace(request.getfixturevalue(name))
    fresh = dataclasses.replace(vf)
    x = 0.37 * vf.x_resolved
    first = vf.v_prime(x)
    assert vf.v_prime(x) is first
    assert _bits(first) == _bits(fresh.v_prime(x))
    assert _bits(vf.value_at(x)) == _bits(dataclasses.replace(vf).value_at(x))
    assert vf.v_prime(np.float64(x)) is first
    # arrays bypass the memo and equal their scalar queries one by one
    xs = np.concatenate([[0.0, x], np.linspace(0.0, vf.x_resolved, 57)])
    batch = vf.v_prime(xs)
    assert vf.v_prime(x) is first
    one_by_one = [dataclasses.replace(vf).v_prime(float(p)) for p in xs]
    assert [_bits(b) for b in batch] == [_bits(b) for b in one_by_one]
    assert [_bits(vf.v_prime(float(p))) for p in xs] == \
        [_bits(b) for b in one_by_one]
    # one entry, the last scalar query
    assert vf._last == [(float(xs[-1]), vf.v_prime(float(xs[-1])))]


@pytest.mark.parametrize("name", ["linear_cost_value", "am_mid_value"])
def test_value_at_memo_keeps_h(name, request, monkeypatch):
    # a scalar value_at repeated off the knots reads v' from the memo and H
    # in closed form, with no kernel reading at all; another stock in
    # between solves afresh, and every answer has the bits of a
    # ValueFunction that never saw a query
    vf = dataclasses.replace(request.getfixturevalue(name))
    x, y = 0.37 * vf.x_resolved, 0.21 * vf.x_resolved
    want = {p: _bits(dataclasses.replace(vf).value_at(p)) for p in (x, y)}
    reads = []
    kernel = envelope._conjugate
    monkeypatch.setattr(envelope, "_conjugate",
                        lambda env, w: reads.append(w) or kernel(env, w))
    assert [_bits(vf.value_at(p)) for p in (x, x, y, x, x)] == \
        [want[x], want[x], want[y], want[x], want[x]]
    assert reads == []
    assert vf._last == [(x, vf.v_prime(x))]


def test_psi_knots_match_the_per_cell_integrator(configs_dir):
    # build_value reads H' once per knot; every knot's Psi has the bits of
    # psi, the closed form from the top of the knot's kink cell, and every
    # kink and zeta is a knot
    for cfg in sorted(configs_dir.glob("*.cfg")):
        model = build_hamiltonian(validate_problem(load_problem(cfg)))
        vf = build_value(model)
        assert vf.psi_knots.tobytes() == vf.psi(vf.xi_knots).tobytes(), \
            cfg.name
        tops = vf._kinks[3]
        assert tops[0] == vf.zeta and np.all(np.isin(tops, vf.xi_knots))
        assert np.all(np.isin(model.kink_zs[model.kink_zs < vf.zeta], tops))


def test_table_psi_matches_exact_log_sum(seeded_table_models,
                                        exact_table_psi):
    # H' is piecewise constant on tables and finite sets, so Psi is a sum
    # of logs, which the closed form meets to rounding
    for k, (_, model) in enumerate(seeded_table_models):
        vf = build_value(model)
        ref = exact_table_psi(model, vf.xi_knots)
        assert np.all(np.abs(vf.psi_knots - ref) <= 1e-13 * ref), k


@pytest.mark.parametrize("name", ["arvan_moses_high", "arvan_moses_low",
                                  "arvan_moses_mid", "linear_cost",
                                  "table_curves"])
def test_kept_readings_equal_fresh_ones(configs_dir, name):
    # H and the one-sided controls kept at the knots, H'(xi-) read off
    # them, and H(0) behind v_flat are the readings the kernel, h_at and
    # subgradient make afresh, bit for bit; v at every knot, from H's closed
    # form in its cell, is the H kept there to the rounding of the kernel's
    # terms, which H(0) bounds
    model = build_hamiltonian(validate_problem(
        load_problem(configs_dir / f"{name}.cfg")))
    vf = build_value(model)
    xi = vf.xi_knots
    assert vf.h_knots.tobytes() == h_at(model, xi).tobytes()
    c, r = fenchel_cost(model.cost_env, xi), fenchel_revenue(model.rev_env, xi)
    assert vf._sides.tobytes() == np.stack(
        [c.argmax_lo, r.argmax_hi, c.argmax_hi, r.argmax_lo]).tobytes()
    assert (vf._sides[0] - vf._sides[1]).tobytes() == \
        subgradient(model, xi)[0].tobytes()
    assert _bits(vf.v_flat) == _bits(float(h_at(model, 0.0)) / vf.beta)
    xs = vf.psi_knots
    tol = 4e-16 * (np.abs(vf.h_knots) + abs(vf.v_flat) * vf.beta) / vf.beta
    assert np.all(np.abs(vf.value_at(xs) - vf.h_knots / vf.beta) <= tol)
    fresh = h_at(model, vf.v_prime(xs)) / vf.beta
    assert np.all(np.abs(vf.value_at(xs) - fresh) <= tol)


@pytest.mark.parametrize("name", ["arvan_moses_high", "arvan_moses_low",
                                  "arvan_moses_mid", "linear_cost",
                                  "table_curves"])
def test_v_prime_inverts_psi_to_rounding(configs_dir, name):
    # the cell is solved in L = ln(top/xi), so a small xi keeps a relative
    # tolerance: Psi(v'(x)) is x up to rounding, past the last knot too
    vf = build_value(build_hamiltonian(validate_problem(
        load_problem(configs_dir / f"{name}.cfg"))))
    for share in (1e-12, 1e-6, 0.1, 0.2, 0.5, 0.9, 0.99, 1.5, 4.0):
        x = share * vf.x_resolved
        assert abs(vf.psi(vf.v_prime(x)) - x) <= 1e-15 * max(1.0, x), share


def _refined_psi(model, xi, refine=64) -> np.ndarray:
    """Psi at the knots xi (zeta first, falling) by Simpson's rule in ln z
    on refine geometric sub-cells of every knot cell, -H' read one-sided
    into the cell at its ends; the cells are summed in extended precision.
    Every sub-cell spans the same ratio, about 1e-4, so Simpson's error is
    about 1e-18 of the sum."""
    lo, hi = xi[1:], xi[:-1]
    k = np.arange(2 * refine + 1) / (2 * refine)
    z = hi[:, None] * (lo / hi)[:, None] ** k
    z[:, 0], z[:, -1] = hi, lo
    d_minus, d_plus = subgradient(model, z)
    f = -0.5 * (d_minus + d_plus)
    f[:, 0], f[:, -1] = -d_minus[:, 0], -d_plus[:, -1]
    w = np.ones(2 * refine + 1)
    w[1::2], w[2:-1:2] = 4.0, 2.0
    cells = np.log(hi / lo) / (6 * refine) * (f @ w) / model.problem.beta
    return np.concatenate([[0.0], np.cumsum(cells.astype(np.longdouble))])


def _psi_models(configs_dir, seeded_table_models) -> list:
    """(label, model): the shipped configs at beta 0.5 and 1.3, capped
    sets whose tops are kinks of H in (0, zeta) (demand below the
    revenue's peak, production on the cubic's arc, and both), the first
    eight seeded tables with zeta > 0, and six seeded cubic problems."""
    out = []
    for cfg in sorted(configs_dir.glob("*.cfg")):
        for beta in (0.5, 1.3):
            out.append((f"{cfg.stem}@{beta}", build_hamiltonian(validate_problem(
                load_problem(cfg, [f"problem.beta={beta}"])))))
    # the kink reads sales 0.35 - 1 ulp from below: a vertex, not an arc
    out.append(("q_hi_kink", build_hamiltonian(validate_problem(load_problem(
        configs_dir / "arvan_moses_mid.cfg", ["revenue.A=0.5", "revenue.B=0.4",
                                              "sets.q=interval 0 0.35"])))))
    # more demand tops whose kink reads sales an ulp off q_hi, then a
    # production top at rate 2.2 or 1.9 on the cubic's arc (kink (a - 1)^2),
    # alone and below a demand top 3.2 under the peak 4 (kink 0.8)
    capped = {"q_hi_kink_019": ("0.5", "0.7", "interval 0 0.19", None),
              "q_hi_kink_139": ("2.4", "0.8", "interval 0 1.39", None),
              "a_hi_arc_22": ("4", "0.5", "interval 0 8", "interval 0 2.2"),
              "a_hi_arc_19": ("4", "0.5", "interval 0 8", "interval 0 1.9"),
              "both_capped": ("4", "0.5", "interval 0 3.2", "interval 0 2.2")}
    for label, (a, b, q, prod) in capped.items():
        sets = [f"revenue.A={a}", f"revenue.B={b}", f"sets.q={q}"]
        sets += [f"sets.a={prod}"] if prod else []
        out.append((label, build_hamiltonian(validate_problem(load_problem(
            configs_dir / "arvan_moses_mid.cfg", sets)))))
    tables = [m for _, m in seeded_table_models if m.zeta > 0.0]
    out += [(f"table{k}", m) for k, m in enumerate(tables[:8])]
    rng = np.random.default_rng(12)
    for k in range(6):
        a, b, c, beta = rng.uniform([0.1, 0.3, 0.3, 0.3], [6.0, 2.0, 2.0, 1.5])
        out.append((f"cubic{k}", build_hamiltonian(validate_problem(
            builtin_arvan_moses(a, b, c, beta=beta)))))
    return out


def test_psi_knots_meet_a_refined_quadrature(configs_dir,
                                             seeded_table_models):
    # Psi is in closed form on every kink cell, so at every knot it meets
    # a 64-times refined Simpson sum within 1e-13, where a Simpson table on
    # the knots alone is 6e-9 off.  The reference itself loses up to 8e-14
    # next to a root of H' at zeta, where q* - a* cancels in its readings
    for label, model in _psi_models(configs_dir, seeded_table_models):
        vf = build_value(model)
        ref = _refined_psi(model, vf.xi_knots)
        err = np.abs(vf.psi_knots - ref)
        assert vf.psi_knots[0] == 0.0 and np.all(err[1:] <= 1e-13 * ref[1:]), \
            (label, float(np.max(err[1:] / ref[1:])))
