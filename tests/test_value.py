"""Value function: quadrature, inversion, HJB residuals, export."""

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
    fenchel_cost,
    fenchel_revenue,
    h_at,
    load_problem,
    subgradient,
    validate_problem,
    write_value_csv,
)
from monopoly_control.errors import OutOfDomain
from monopoly_control.value import _cells


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


def test_psi_domain_guard(linear_cost_value):
    with pytest.raises(OutOfDomain):
        linear_cost_value.psi(0.41)
    with pytest.raises(OutOfDomain):
        linear_cost_value.psi(linear_cost_value.xi_knots[-1] * 0.5)


def test_value_beyond_resolved_clamps(linear_cost_value):
    far = linear_cost_value.x_resolved * 1.5
    v_far = linear_cost_value.value_at(far)
    assert v_far <= linear_cost_value.v_flat + 1e-12
    assert v_far >= linear_cost_value.value_at(linear_cost_value.x_resolved) - 1e-12


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
    assert vf._last == [(float(xs[-1]), vf.v_prime(float(xs[-1])), None)]


@pytest.mark.parametrize("name", ["linear_cost_value", "am_mid_value"])
def test_value_at_memo_keeps_h(name, request, monkeypatch):
    # a scalar value_at repeated off the knots reads H once; another stock
    # in between reads it afresh, and every answer has the bits of a
    # ValueFunction that never saw a query
    vf = dataclasses.replace(request.getfixturevalue(name))
    x, y = 0.37 * vf.x_resolved, 0.21 * vf.x_resolved
    want = {p: _bits(dataclasses.replace(vf).value_at(p)) for p in (x, y)}
    reads = []
    monkeypatch.setattr("monopoly_control.value.h_at",
                        lambda model, z: reads.append(z) or h_at(model, z))
    assert [_bits(vf.value_at(p)) for p in (x, x, y, x, x)] == \
        [want[x], want[x], want[y], want[x], want[x]]
    assert len(reads) == 3
    assert vf._last[0][2] / vf.beta == vf.value_at(x)


def test_psi_knots_match_the_per_cell_integrator(configs_dir):
    # build_value reads H' once per knot and midpoint; the table it builds
    # has the bits of integrating cell by cell through _cells, given H' at
    # each cell's top from a fresh reading
    for cfg in sorted(configs_dir.glob("*.cfg")):
        model = build_hamiltonian(validate_problem(load_problem(cfg)))
        vf = build_value(model)
        xi = vf.xi_knots
        d_top = subgradient(model, xi[:-1])[0]
        per_cell = np.concatenate(
            [[0.0], np.cumsum(_cells(model, vf.beta, xi[1:], xi[:-1], d_top))])
        assert vf.psi_knots.tobytes() == per_cell.tobytes(), cfg.name


def test_table_psi_matches_exact_log_sum(seeded_table_models,
                                        exact_table_psi):
    # H' is piecewise constant on tables and finite sets, so Psi is a sum
    # of logs; Simpson in z is the only error left once each hull edge
    # reads its true slope at a kink (1.9e-11 at most on these models)
    for k, (_, model) in enumerate(seeded_table_models):
        vf = build_value(model)
        ref = exact_table_psi(model, vf.xi_knots)
        assert np.all(np.abs(vf.psi_knots - ref) <= 1e-10 * ref), k


@pytest.mark.parametrize("name", ["arvan_moses_high", "arvan_moses_low",
                                  "arvan_moses_mid", "linear_cost",
                                  "table_curves"])
def test_kept_readings_equal_fresh_ones(configs_dir, name):
    # H and the one-sided controls kept at the knots and midpoints, H'(xi-)
    # read off them, H(0) behind v_flat, and v at every knot (array and
    # scalar queries) are the readings the kernel, h_at and subgradient
    # make afresh, bit for bit
    model = build_hamiltonian(validate_problem(
        load_problem(configs_dir / f"{name}.cfg")))
    vf = build_value(model)
    xi, n = vf.xi_knots, len(vf.xi_knots)
    assert vf.h_knots.tobytes() == h_at(model, xi).tobytes()
    zs = np.concatenate([xi, 0.5 * (xi[1:] + xi[:-1])])
    c, r = fenchel_cost(model.cost_env, zs), fenchel_revenue(model.rev_env, zs)
    assert vf._sides.tobytes() == np.stack(
        [c.argmax_lo, r.argmax_hi, c.argmax_hi, r.argmax_lo]).tobytes()
    assert (vf._sides[0, :n] - vf._sides[1, :n]).tobytes() == \
        subgradient(model, xi)[0].tobytes()
    assert _bits(vf.v_flat) == _bits(float(h_at(model, 0.0)) / vf.beta)
    xs = vf.psi_knots
    fresh = h_at(model, vf.v_prime(xs)) / vf.beta
    assert vf.value_at(xs).tobytes() == fresh.tobytes()
    assert [_bits(vf.value_at(float(x))) for x in xs] == \
        [_bits(v) for v in fresh]


@pytest.mark.parametrize("name", ["arvan_moses_high", "arvan_moses_low",
                                  "arvan_moses_mid", "linear_cost",
                                  "table_curves"])
def test_v_prime_inverts_psi_to_rounding(configs_dir, name):
    # the cell is searched in ln xi, so the slope floor's small xi keeps a
    # relative tolerance: Psi(v'(x)) is x up to rounding across the table
    vf = build_value(build_hamiltonian(validate_problem(
        load_problem(configs_dir / f"{name}.cfg"))))
    for share in (0.1, 0.2, 0.5, 0.9, 0.99):
        x = share * vf.x_resolved
        assert abs(vf.psi(vf.v_prime(x)) - x) <= 1e-15 * max(1.0, x), share
