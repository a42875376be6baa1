"""Value function of the stock-constrained problem.

With zeta > 0 the value function never touches its own formula directly:
it is the composition v(x) = H(xi(x)) / beta where xi(x) inverts the
state-to-slope map

    Psi(xi) = -integral_xi^zeta H'(z) / (beta z) dz,

so Psi(xi) is the stock level at which the marginal value of inventory has
fallen to xi.  H' is negative on (0, zeta), making Psi increasing as xi
decreases; v is then increasing, concave, and capped by H(0)/beta.  With
zeta = 0 holding stock is pointless and v is the constant H(0)/beta.

Psi is integrated cell by cell with Simpson's rule on _N_XI geometric
slopes from zeta down to _XI_FLOOR_RATIO zeta, refined by the kink slopes
of H', using the one-sided derivative that points into each cell at its
edges.  One cell integrator serves the knot table, Psi between knots and
the inversion xi(x), a bracketed root search in ln xi inside the unique
cell containing x, so Psi at and between its knots comes from the same
derivative code.  Psi, xi and v take scalars and arrays alike; a scalar
is a batch of one.  The table keeps H and the one-sided controls of its
one batch, whence H'(xi-), read with H(0): v at a knot and the value
table read the kept H, a cell between knots reads H' only at its lower
edge and midpoint, and the drawdown arc runs on the kept controls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._roots import bracket_root
from .errors import InvalidParameter, OutOfDomain
from .hamiltonian import HamiltonianModel, _in_domain, _sides, _slopes, h_at
from .tableio import write_csv

# the slope table stops where the marginal value has decayed to this share of zeta
_XI_FLOOR_RATIO = 1e-6
# geometric slope knots from zeta down to the floor, before the kink slopes
_N_XI = 2000


@dataclass(frozen=True, eq=False)
class ValueFunction:
    """Value of the control problem as a function of initial stock.

    xi_knots run from zeta down to the resolved slope floor; psi_knots are
    the matching stock levels (increasing from 0), and h_knots the H read
    there; _sides holds the one-sided controls (see hamiltonian._sides),
    whence H'(xi-) and H'(xi+), at the knots, then at the cell midpoints,
    cell k lying below knot k.  Beyond the last knot the marginal value has
    decayed below zeta times the floor ratio and is clamped there, which
    perturbs the value by an invisible amount.  v_flat is H(0)/beta.
    """

    model: HamiltonianModel = field(repr=False)
    beta: float
    constant: bool
    v_flat: float
    zeta: float
    xi_knots: np.ndarray = field(repr=False)
    psi_knots: np.ndarray = field(repr=False)
    h_knots: np.ndarray = field(repr=False)
    _sides: np.ndarray = field(repr=False)
    # (x, v'(x), H(v'(x)) or None until value_at reads it) of the last
    # scalar v_prime query; NaN matches nothing
    _last: list = field(default_factory=lambda: [(math.nan, math.nan, None)],
                        init=False, repr=False)

    @property
    def x_resolved(self) -> float:
        """Stock level up to which the slope table resolves v'."""
        return 0.0 if self.constant else float(self.psi_knots[-1])

    def psi(self, xi):
        """Stock level at which the marginal value equals xi (a scalar or
        an array of slopes)."""
        if self.constant:
            raise InvalidParameter("flat value function has no slope map")
        xi = np.asarray(xi, dtype=float)
        floor = float(self.xi_knots[-1])
        if not (np.all(xi <= self.zeta) and np.all(xi >= floor * (1.0 - 1e-12))):
            raise OutOfDomain(
                f"slope outside resolved range [{floor}, {self.zeta}]")
        xi = np.minimum(np.maximum(xi, floor), self.zeta)
        # xi_knots[k] is the smallest knot at or above xi
        k = len(self.xi_knots) - 1 - np.searchsorted(self.xi_knots[::-1], xi)
        out = self.psi_knots[k] + _cells(
            self.model, self.beta, xi, self.xi_knots[k],
            self._sides[0, k] - self._sides[1, k])
        return float(out) if out.ndim == 0 else out

    def v_prime(self, x):
        """Marginal value of stock (a scalar or an array); decreasing,
        v'(0) = zeta, held at the slope floor past x_resolved.

        A scalar query repeated at the same stock, as a plan, its summary
        and its profit gap all ask at x0, returns the float the last one
        computed instead of searching again; arrays always search.
        """
        if np.ndim(x) == 0:
            x = float(x)
            key, xi, _ = self._last[0]
            if key == x:
                return xi
        x = np.asarray(x, dtype=float)
        if np.any(x < 0.0):
            raise OutOfDomain("stock must be non-negative")
        if self.constant:
            return 0.0 if x.ndim == 0 else np.zeros(x.shape)
        xs = np.minimum(x, self.psi_knots[-1]).reshape(-1)
        # psi_knots[k - 1] < x <= psi_knots[k]: exact on a knot, otherwise
        # the root of Psi(xi) = x in the cell [xi_knots[k], xi_knots[k - 1]]
        k = np.searchsorted(self.psi_knots, xs)
        out = self.xi_knots[k]
        off = np.nonzero(self.psi_knots[k] != xs)[0]
        # searched in s = ln xi, whose tolerance is relative in xi
        k, bot, top = k[off], self.xi_knots[k[off]], self.xi_knots[k[off] - 1]
        d_top = self._sides[0, k - 1] - self._sides[1, k - 1]

        def gap(s, i):
            xi = np.clip(np.exp(s), bot[i], top[i])
            return (self.psi_knots[k[i] - 1] + _cells(
                self.model, self.beta, xi, top[i], d_top[i]) - xs[off[i]])

        s = bracket_root(gap, np.log(bot), np.log(top))[0]
        out[off] = np.clip(np.exp(s), bot, top)
        if x.ndim:
            return out.reshape(x.shape)
        xi = float(out[0])
        self._last[0] = (float(x), xi, None)
        return xi

    def value_at(self, x):
        """v(x) for a scalar or an array of stock levels; on a knot of the
        table it is the H kept there, and a scalar query repeated off the
        knots reads the H that v_prime's memo kept from the last one."""
        xi = self.v_prime(x)
        if self.constant:
            return self.v_flat if np.ndim(xi) == 0 else np.full(np.shape(xi), self.v_flat)
        xs = np.minimum(x, self.psi_knots[-1])
        k = np.searchsorted(self.psi_knots, xs)
        h, off = np.array(self.h_knots[k]), self.psi_knots[k] != xs
        if h.ndim:
            if off.any():
                h[off] = h_at(self.model, xi[off])
            return h / self.beta
        if off:
            # v_prime(x) has just left (x, xi, H or None) in the memo
            key, xi, h = self._last[0]
            if h is None:
                h = float(h_at(self.model, np.array([xi]))[0])
                self._last[0] = (key, xi, h)
        return float(h) / self.beta


def _cells(model: HamiltonianModel, beta: float, z_lo, z_hi, d_hi):
    """Simpson integrals of -H'(z)/(beta z) over kink-free cells [z_lo,
    z_hi], H'(z_hi-) = d_hi kept by the table, from one batch that reads
    H' at z_lo and at the midpoints."""
    z_mid = 0.5 * (z_lo + z_hi)
    m, shape = np.size(z_lo), np.shape(z_lo)
    d_minus, d_plus = _slopes(*_in_domain(
        model, np.concatenate([np.ravel(z_lo), np.ravel(z_mid)])))
    d_mid = 0.5 * (d_minus[m:] + d_plus[m:])
    return _simpson(beta, z_lo, z_mid, z_hi, d_plus[:m].reshape(shape),
                    d_mid.reshape(shape), d_hi)


def _simpson(beta, z_lo, z_mid, z_hi, d_lo, d_mid, d_hi) -> np.ndarray:
    """Simpson's rule for -H'(z)/(beta z) on cells [z_lo, z_hi] from H' at
    the edges, one-sided into the cell (d_lo = H'(z_lo+), d_hi =
    H'(z_hi-)), and at the kink-free midpoint (d_mid, the mean of both
    sides).  An empty cell (z_hi <= z_lo) integrates to zero."""
    g_lo = -d_lo / (beta * z_lo)
    g_mid = -d_mid / (beta * z_mid)
    g_hi = -d_hi / (beta * z_hi)
    val = (z_hi - z_lo) / 6.0 * (np.maximum(g_lo, 0.0)
                                 + 4.0 * np.maximum(g_mid, 0.0)
                                 + np.maximum(g_hi, 0.0))
    return np.where(z_hi > z_lo, np.maximum(val, 0.0), 0.0)


def build_value(model: HamiltonianModel) -> ValueFunction:
    """Tabulate Psi on _N_XI geometric slopes, refined by the kink slopes of
    H, and wrap the inversion."""
    beta = model.problem.beta
    zeta = model.zeta
    if zeta <= 0.0:
        empty = np.empty(0)
        return ValueFunction(model=model, beta=beta, constant=True,
                             v_flat=float(h_at(model, 0.0)) / beta, zeta=0.0,
                             xi_knots=empty, psi_knots=empty, h_knots=empty,
                             _sides=empty)

    xi = np.geomspace(zeta, zeta * _XI_FLOOR_RATIO, _N_XI)
    inner = model.kink_zs
    inner = inner[(inner > xi[-1]) & (inner < zeta)]
    if len(inner):
        xi = np.unique(np.concatenate([xi, inner]))[::-1]
        keep = np.ones(len(xi), dtype=bool)
        keep[1:] = np.abs(np.diff(xi)) > 1e-13 * xi[:-1]
        xi = xi[keep]

    # psi accumulates from zeta (xi[0]) downward through the cells; the
    # conjugates are read once at every knot, every midpoint and 0
    n = len(xi)
    z_lo, z_hi = xi[1:], xi[:-1]
    z_mid = 0.5 * (z_lo + z_hi)
    c, r = _in_domain(model, np.concatenate([xi, z_mid, [0.0]]))
    h = r.value + c.value
    d_minus, d_plus = _slopes(c, r)
    cells = _simpson(beta, z_lo, z_mid, z_hi, d_plus[1:n],
                     0.5 * (d_minus[n:-1] + d_plus[n:-1]), d_minus[:n - 1])
    psi = np.concatenate([[0.0], np.cumsum(cells)])

    return ValueFunction(model=model, beta=beta, constant=False,
                         v_flat=float(h[-1]) / beta, zeta=zeta, xi_knots=xi,
                         psi_knots=psi, h_knots=h[:n],
                         _sides=_sides(c, r)[:, :-1])


def write_value_csv(vf: ValueFunction, path) -> None:
    """Knot-exact table: stock, value, marginal value."""
    if vf.constant:
        cols = [np.array([0.0, 1.0]), np.full(2, vf.v_flat), np.zeros(2)]
    else:
        cols = [vf.psi_knots, vf.h_knots / vf.beta, vf.xi_knots]
    write_csv(path, ["x", "v", "v_prime"], cols)
