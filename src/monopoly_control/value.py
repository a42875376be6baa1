"""Value function of the stock-constrained problem.

With zeta > 0 the value function is the composition v(x) = H(xi(x)) /
beta where xi(x) inverts the state-to-slope map

    Psi(xi) = -integral_xi^zeta H'(z) / (beta z) dz,

so Psi(xi) is the stock level at which the marginal value of inventory has
fallen to xi.  H' is negative on (0, zeta), making Psi increasing as xi
decreases; v is then increasing, concave, and capped by H(0)/beta.  With
zeta = 0 holding stock is pointless: v is the constant H(0)/beta = min H/beta.

Psi and H are in closed form, exact to rounding, on each kink cell of H
(from zeta down through the kinks of H to 0), where each attaining rate of
-H' = q* - a* is a hull vertex or moves along an arc (see _cells).  So from
its value g at the cell's top T, -H' rises as g + s1 (T - z) + s2 (sqrt T -
sqrt z), and with L = ln(T/xi), phi(L) = L - 1 + e^-L, d = 1 - e^-L and
e = 1 - e^(-L/2)

    beta (Psi(xi) - Psi(T)) = g L + s1 T phi(L) + 2 s2 sqrt(T) phi(L/2),
    H(xi) - H(T) = g T d + s1 (T d)^2 / 2 + s2 T^1.5 e^2 (1 - 2e/3):

the antiderivatives c ln z, (A ln z - z)/(2B) and k ln z + 2 sqrt z from
the top, all terms non-negative, so nothing cancels where H' vanishes at
zeta.  The table reads both conjugates once, at _N_XI geometric slopes from
zeta down to _XI_FLOOR_RATIO zeta, the kinks of H and 0.  A query solves
Psi = x by Newton's steps in the stock's cell, reading no conjugate; past
the last kink stock grows like L |H'(0+)| / beta, so every stock has a
slope until it underflows.  Psi, xi and v take scalars and arrays alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .envelope import _apart
from .errors import InvalidParameter, OutOfDomain
from .hamiltonian import HamiltonianModel, _in_domain, _sides
from .problem import _unique
from .tableio import write_csv

# geometric slope knots from zeta down to _XI_FLOOR_RATIO zeta
_XI_FLOOR_RATIO = 1e-6
_N_XI = 2000
# phi(L) = L^2 sum_n (-L)^n / (n + 2)!, to 1e-17 where L < 1/4 and L - 1 +
# e^-L cancels; a query takes at most _MAX_STEPS Newton steps
_PHI_SERIES = [1.0 / math.factorial(n + 2) for n in range(11, -1, -1)]
_MAX_STEPS = 60


def _phi(L):
    """L - 1 + e^-L for an array of L >= 0, to rounding."""
    out, small = L + np.expm1(-L), L < 0.25
    if small.any():
        s = L[small]
        out[small] = s * s * np.polyval(_PHI_SERIES, -s)
    return out


def _psi_rise(beta, top, g, s1, s2, L):
    """Psi(xi) - Psi(top) on cells, L = ln(top/xi)."""
    p = _phi(np.stack(np.broadcast_arrays(L, 0.5 * L)))
    return (g * L + s1 * top * p[0] + 2.0 * s2 * np.sqrt(top) * p[1]) / beta


def _h_rise(top, g, s1, s2, L):
    """H(xi) - H(top) on cells, L = ln(top/xi)."""
    d, e = -np.expm1(-L), -np.expm1(-0.5 * L)
    return (top * d * (g + 0.5 * s1 * top * d)
            + s2 * top * np.sqrt(top) * e * e * (1.0 - e / 1.5))


def _cells(problem, top, a_hi, q_hi, a_lo, q_lo) -> tuple:
    """(top, g, s1, s2) of kink-free cells whose rates read (a_hi, q_hi)
    below their top and (a_lo, q_lo) above their bottom, g = q - a at the
    top, floored at 0 where H' vanishes.  With p0 + p1 x + p2 x^2 a slope
    (Curve.slope_coefficients), sales that move follow linear demand, q =
    (z - p0)/p1, and production the cubic, a = k + sqrt(z/p2).  A rate
    moves iff its readings are apart (envelope._apart): on one curve piece
    they are only along an arc, and a vertex may read an ulp off."""
    p1 = problem.revenue.slope_coefficients(q_lo)[1]
    p2 = problem.cost.slope_coefficients(a_lo)[2]
    s1 = -1.0 / np.where(_apart(q_lo, q_hi) & (p1 < 0.0), p1, -np.inf)
    s2 = np.where(_apart(a_lo, a_hi) & (p2 > 0.0), p2, np.inf) ** -0.5
    return top, np.maximum(q_hi - a_hi, 0.0), s1, s2


def _at_slope(kinks: np.ndarray, xi) -> tuple:
    """(columns, L): each slope xi's cell, the one with the smallest top at
    or above it, and L = ln(top/xi), inf at an underflowed xi = 0."""
    top = kinks[3]
    k = len(top) - 1 - np.searchsorted(top[::-1], xi)
    with np.errstate(divide="ignore"):
        return kinks[:, k], np.log1p((top[k] - xi) / xi)


def _psi_at(kinks: np.ndarray, beta: float, xi) -> np.ndarray:
    cell, L = _at_slope(kinks, xi)
    return cell[0] + _psi_rise(beta, *cell[3:], L)


@dataclass(frozen=True, eq=False)
class ValueFunction:
    """Value of the control problem as a function of initial stock.

    xi_knots run from zeta down to the geometric floor and any kink of H
    below it, with the stock psi_knots, H h_knots and the one-sided
    controls _sides (see hamiltonian._sides) there.  _kinks has a column
    per kink cell from zeta down: Psi and H at its top, ln(top/bottom)
    (inf for the last, which reaches 0) and top, g, s1, s2.
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
    _kinks: np.ndarray = field(repr=False)
    # (x, v'(x)) of the last scalar v_prime query; NaN matches nothing
    _last: list = field(default_factory=lambda: [(math.nan, math.nan)],
                        init=False, repr=False)

    @property
    def x_resolved(self) -> float:
        """Stock level of the last knot of the table."""
        return 0.0 if self.constant else float(self.psi_knots[-1])

    def psi(self, xi):
        """Stock at which the marginal value is xi, slopes in (0, zeta]."""
        if self.constant:
            raise InvalidParameter("flat value function has no slope map")
        xi = np.asarray(xi, dtype=float)
        if not (np.all(xi > 0.0) and np.all(xi <= self.zeta)):
            raise OutOfDomain(f"slope outside (0, {self.zeta}]")
        out = _psi_at(self._kinks, self.beta, xi)
        return float(out) if out.ndim == 0 else out

    def v_prime(self, x):
        """Marginal value of stock, decreasing from v'(0) = zeta.  A scalar
        query repeated at the same stock, as a plan, its summary and its
        profit gap all ask at x0, returns the float the last one computed."""
        if np.ndim(x) == 0 and self._last[0][0] == float(x):
            return self._last[0][1]
        x = np.asarray(x, dtype=float)
        if np.any(x < 0.0):
            raise OutOfDomain("stock must be non-negative")
        if self.constant:
            return 0.0 if x.ndim == 0 else np.zeros(x.shape)
        xi = self._solve(x.reshape(-1))
        if x.ndim:
            return xi.reshape(x.shape)
        self._last[0] = (float(x), float(xi[0]))
        return self._last[0][1]

    def value_at(self, x):
        """v(x) = H(v'(x))/beta for a scalar or an array of stock levels."""
        xi = self.v_prime(x)
        if self.constant:
            return self.v_flat + 0.0 * xi
        cell, L = _at_slope(self._kinks, xi)
        out = (cell[1] + _h_rise(*cell[3:], L)) / self.beta
        return float(out) if out.ndim == 0 else out

    def _solve(self, x: np.ndarray) -> np.ndarray:
        """v' at stocks x: L = ln(top/xi) in each stock's cell by Newton's
        steps, with Psi' = -H'(xi) / (beta xi) exact."""
        beta, k = self.beta, np.searchsorted(self._kinks[0], x, "right") - 1
        psi, _, span, *cell = self._kinks[:, k]
        (top, g, s1, s2), y = cell, beta * (x - psi)
        # phi(L) >= L^2 / (2 + L), so beta Psi rises at least as g L + c L^2
        # / (1 + L/2), c = s1 top/2 + s2 sqrt(top)/4, whose root bounds L;
        # Psi is convex in L, so the steps fall from there to the root
        rt = np.sqrt(top)
        a, b = g + s1 * top + 0.5 * s2 * rt, 2.0 * g - y
        # a stock far past the table overflows the root to inf, which span
        # clips, and the steps then return v' = 0
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            r = np.sqrt(b * b + 8.0 * a * y)
            L = np.minimum(span, np.where(b > 0.0, 4.0 * y / (b + r),
                                          (r - b) / (2.0 * a)))
            for _ in range(_MAX_STEPS):
                rise = (g - s1 * top * np.expm1(-L)
                        - s2 * rt * np.expm1(-0.5 * L))
                nxt = L - (beta * _psi_rise(beta, *cell, L) - y) / rise
                if not np.any(nxt < L):
                    break
                L = np.where(nxt < L, nxt, L)
        return top * np.exp(-L)


def _over_beta(top: float, beta: float) -> float:
    """top / beta, refused where it overflows: top is the largest |H| or
    beta Psi, so the values v = H/beta or the stocks would overflow."""
    if math.isfinite(top) and math.isinf(top / float(beta)):
        raise InvalidParameter(
            f"beta = {beta:.3g} is too small: v = H/beta and its stock "
            f"overflow, so beta must exceed {top / np.finfo(float).max:.2g}")
    return top / beta


def build_value(model: HamiltonianModel) -> ValueFunction:
    """Read the conjugates at the knots and 0, close Psi on each kink cell
    of H, and wrap the inversion."""
    beta, zeta = model.problem.beta, model.zeta
    if zeta <= 0.0:
        # H's minimizer is 0, so h_min holds the bits of the model's H(0)
        empty = np.empty(0)
        return ValueFunction(model=model, beta=beta, constant=True,
                             v_flat=_over_beta(model.h_min, beta),
                             zeta=0.0, xi_knots=empty, psi_knots=empty,
                             h_knots=empty, _sides=empty, _kinks=empty)

    floor = zeta * _XI_FLOOR_RATIO
    if floor == 0.0:
        raise InvalidParameter(
            f"zeta = {zeta:.3g} is too small for the value table: its slope "
            f"floor zeta * {_XI_FLOOR_RATIO:g} rounds to 0, so zeta must "
            f"exceed {math.ulp(0.0) / _XI_FLOOR_RATIO / 2.0:.2g}")
    # kink_zs is positive, sorted and distinct, so each kink's place in xi
    # is read from the ascending slopes
    kinks = model.kink_zs[model.kink_zs < zeta]
    asc = _unique(np.concatenate([np.geomspace(zeta, floor, _N_XI), kinks]))
    xi = asc[::-1]
    c, r = _in_domain(model, np.append(xi, 0.0))
    h, sides = r.value + c.value, _sides(c, r)

    # a cell runs from zeta or a kink down to the next kink or 0, its rates
    # read below its top and above its bottom
    top = np.append(0, len(xi) - 1 - np.searchsorted(asc, kinks[::-1]))
    bot, zs = np.append(top[1:], len(xi)), xi[top]
    cell = np.stack(_cells(model.problem, zs, sides[0, top], sides[1, top],
                           sides[2, bot], sides[3, bot]))
    span = np.append(np.log1p((zs[:-1] - zs[1:]) / zs[1:]), math.inf)
    # beta Psi rises over each cell, the last one down to the last knot
    rise = _psi_rise(1.0, *cell,
                     np.append(span[:-1], math.log(zs[-1] / xi[-1])))
    _over_beta(max(float(np.abs(h).max()), float(rise.sum())), beta)
    psi = np.append(0.0, np.cumsum(rise[:-1] / beta))
    cells = np.vstack([psi, h[top], span, cell])
    return ValueFunction(model=model, beta=beta, constant=False,
                         v_flat=float(h[-1]) / beta, zeta=zeta, xi_knots=xi,
                         psi_knots=_psi_at(cells, beta, xi), h_knots=h[:-1],
                         _sides=sides[:, :-1], _kinks=cells)


def write_value_csv(vf: ValueFunction, path) -> None:
    """Knot-exact table: stock, value, marginal value."""
    if vf.constant:
        cols = [np.array([0.0, 1.0]), np.full(2, vf.v_flat), np.zeros(2)]
    else:
        cols = [vf.psi_knots, vf.h_knots / vf.beta, vf.xi_knots]
    write_csv(path, ["x", "v", "v_prime"], cols)
