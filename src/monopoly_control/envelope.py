"""Convex and concave envelopes of sampled curves, with Fenchel conjugates.

The solver never needs the raw revenue or cost curve, only its concave or
convex envelope: the running Hamiltonian is blind to the difference, and
two-point mixtures recover anything the envelope promises.  An Envelope is
built from samples by a monotone chain; where the hull bridges a non-convex
dip of a closed-form curve, the bridge endpoints are then polished by
solving the common-tangent conditions on the continuous curve and inserted
as knots, giving contact points far below sample resolution.  Table curves
keep knot-only contacts.  The envelope is its edge arrays (vertices, edge
slopes, and which edges bridge non-contact knots), and its value query
hull_exact takes a scalar or an array alike; slopes are read from the
conjugates' attaining spans, not from the envelope.

Conjugate queries come in two orientations:

* ``fenchel_cost``     sup_a  { a z - C(a) }   over a convex envelope,
* ``fenchel_revenue``  sup_q  { R(q) - q z }   over a concave envelope,

both views of one array kernel on the oriented (lower-hull) data, which
returns the conjugate value and the attaining span for every slope of a
batch; a scalar query is a batch of one.  Where the curve has a closed-form
derivative inverse the kernel polishes the maximizer against the original
curve, so the value is exact off the sample knots.  The ``_grid`` and
``argmax_grid`` functions are the same kernel, read one field at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ._roots import bracket_root
from .errors import DecompositionMismatch, DegenerateGrid, InvalidParameter, OutOfDomain


@dataclass(frozen=True)
class ConjugateValue:
    """Conjugate value with the attaining set's endpoints.

    argmax_lo == argmax_hi for a unique maximizer; they differ when the
    query slope ties an affine piece of the envelope, in which case the
    whole piece attains.  Fields are floats for a scalar query and arrays
    of the query's shape for an array query.
    """

    value: float | np.ndarray
    argmax_lo: float | np.ndarray
    argmax_hi: float | np.ndarray


@dataclass(frozen=True, eq=False)
class Envelope:
    """Envelope of a sampled curve; immutable after construction.

    xs, f, hull are parallel arrays (knots, curve values, envelope values).
    contact marks knots where the envelope touches the curve.  The envelope
    itself is its edge arrays: vertices _vidx/_vx/_vg, edge slopes _es, and
    _bridge marking edges that span a non-contact knot; every non-contact
    knot lies strictly inside a bridge.
    """

    kind: str                       # "convex" or "concave"
    xs: np.ndarray = field(repr=False)
    f: np.ndarray = field(repr=False)
    hull: np.ndarray = field(repr=False)
    contact: np.ndarray = field(repr=False)
    # oriented internals: _g = sign*f has a lower hull with increasing slopes
    _sign: float = field(repr=False)
    _vidx: np.ndarray = field(repr=False)       # vertex indices into xs
    _vx: np.ndarray = field(repr=False)         # vertex abscissae, xs[_vidx]
    _vg: np.ndarray = field(repr=False)         # oriented values at vertices
    _es: np.ndarray = field(repr=False)         # oriented edge slopes, increasing
    _bridge: np.ndarray = field(repr=False)     # per edge: spans a non-contact knot
    _eval: Callable | None = field(repr=False, default=None)
    _deriv: Callable | None = field(repr=False, default=None)
    _dinv: Callable | None = field(repr=False, default=None)
    # knots are the only admissible points; everything between them is
    # reachable solely as a mixture of knots
    finite_support: bool = False

    @property
    def refinable(self) -> bool:
        return self._deriv is not None

    @property
    def domain(self) -> tuple[float, float]:
        return float(self.xs[0]), float(self.xs[-1])

    @property
    def value_tol(self) -> float:
        rng = float(self.f.max() - self.f.min())
        return 1e-9 * (rng if rng > 0.0 else max(1.0, float(np.abs(self.f).max())))

    def hull_exact(self, x):
        """Envelope value using the continuous curve off bridges.

        On a bridge the refined chord is exact; elsewhere the envelope
        coincides with the curve, so the curve itself is the better value.
        With finite support there is no curve between knots and every edge
        is its own chord.
        """
        x, e, inside = self._edge_of(x)
        a, b = self._vx[e], self._vx[e + 1]
        t = (x - a) / (b - a)
        chord = self._sign * ((1.0 - t) * self._vg[e] + t * self._vg[e + 1])
        curve = (self._eval(x) if self._eval is not None
                 else np.interp(x, self.xs, self.f))
        out = np.where(inside & (self.finite_support | self._bridge[e]), chord,
                       curve)
        return float(out) if out.ndim == 0 else out

    def _edge_of(self, x) -> tuple:
        """(x, e, inside) for x in the domain: e the hull edge that could
        hold x, inside whether x lies in that edge's open x-interval."""
        x = np.asarray(x, dtype=float)
        lo, hi = self.domain
        out = ~((lo - 1e-12 <= x) & (x <= hi + 1e-12))
        if out.any():
            raise OutOfDomain(f"{x[out].flat[0]} outside [{lo}, {hi}]")
        vx = self._vx
        e = np.clip(np.searchsorted(vx, x) - 1, 0, len(vx) - 2)
        return x, e, (vx[e] < x) & (x < vx[e + 1])

    def kink_slopes(self) -> np.ndarray:
        """Slopes where a conjugate's maximizer genuinely jumps.

        For piecewise-linear curves (tables, finite sets) every hull edge
        slope is such a kink.  For smooth refinable curves only multi-knot
        affine pieces (bridges, true flats) kink the conjugate, plus the
        end-of-domain derivatives where the maximizer saturates.  Consumers
        insert these into their own grids; spurious entries are harmless.
        """
        if not self.refinable:
            return np.unique(self._sign * self._es)
        return np.unique(np.concatenate([
            self._sign * self._es[np.diff(self._vidx) > 1],
            self._deriv(self.xs[[0, -1]])]))


# ---------------------------------------------------------------------------
# construction


def _chain_lower(xs: list, gs: list) -> list:
    """Monotone chain for the lower hull of a graph; collinear interior
    points are dropped, so affine runs become single edges."""
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


def _tangency_point(gder, w: float, b_lo: float, b_mid: float, b_hi: float) -> float:
    """Solve gder(x) = w near b_mid; endpoints win when the sign allows."""
    d_mid = gder(b_mid) - w
    if d_mid == 0.0:
        return b_mid
    if d_mid > 0.0:
        lo, hi = b_lo, b_mid
        if lo >= hi or gder(lo) - w >= 0.0:
            return lo
    else:
        lo, hi = b_mid, b_hi
        if lo >= hi or gder(hi) - w <= 0.0:
            return hi
    return float(bracket_root(lambda t, _: gder(t) - w, lo, hi)[1])


def _refine_bridges(xs: np.ndarray, gs: np.ndarray, vidx: list,
                    geval, gder) -> list:
    """Polish bridge endpoints by the common-tangent conditions.

    Returns new knots (tangency abscissae) to insert.  A bridge whose
    endpoint sits on the domain boundary keeps that endpoint fixed.
    """
    n = len(xs)
    span = float(xs[-1] - xs[0])
    new_pts: list[float] = []
    for a_i, b_i in zip(vidx, vidx[1:]):
        if b_i - a_i <= 1:
            continue
        left_free = a_i > 0
        right_free = b_i < n - 1
        if not (left_free or right_free):
            continue
        x1, x2 = float(xs[a_i]), float(xs[b_i])
        f1, f2 = float(gs[a_i]), float(gs[b_i])
        lo1 = float(xs[a_i - 1]) if left_free else x1
        hi1 = float(xs[a_i + 1])
        lo2 = float(xs[b_i - 1])
        hi2 = float(xs[b_i + 1]) if right_free else x2
        for _ in range(60):
            s = (f2 - f1) / (x2 - x1)
            x1_new, x2_new = x1, x2
            if left_free:
                x1_new = _tangency_point(gder, s, lo1, x1, min(hi1, x2 - 1e-15 * span))
                f1 = float(geval(x1_new))
            if right_free:
                x2_new = _tangency_point(gder, s, max(lo2, x1 + 1e-15 * span), x2, hi2)
                f2 = float(geval(x2_new))
            moved = abs(x1_new - x1) + abs(x2_new - x2)
            x1, x2 = x1_new, x2_new
            if moved <= 1e-14 * span:
                break
        for p in (x1, x2):
            k = int(np.searchsorted(xs, p))
            near = min(abs(p - xs[k - 1]) if k > 0 else math.inf,
                       abs(p - xs[k]) if k < n else math.inf)
            if near > 1e-12 * span:
                new_pts.append(p)
    return new_pts


def _build(xs, fs, evaluator, derivative, derivative_inverse, kind: str,
           finite: bool = False) -> Envelope:
    xs = np.ascontiguousarray(xs, dtype=float)
    fs = np.ascontiguousarray(fs, dtype=float)
    if xs.ndim != 1 or xs.shape != fs.shape:
        raise InvalidParameter("xs and fs must be 1-d arrays of equal length")
    if len(xs) < 2:
        raise DegenerateGrid("need at least two sample points")
    if np.any(np.diff(xs) <= 0.0):
        raise InvalidParameter("sample knots must be strictly increasing")
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(fs))):
        raise InvalidParameter("samples must be finite")

    sign = 1.0 if kind == "convex" else -1.0
    geval = gder = None
    if evaluator is not None:
        geval = (lambda t: float(evaluator(t))) if sign > 0 else (lambda t: -float(evaluator(t)))
    if derivative is not None:
        gder = derivative if sign > 0 else (lambda t: -derivative(t))

    gs = sign * fs
    vidx = _chain_lower(xs.tolist(), gs.tolist())
    if geval is not None and gder is not None:
        new_pts = _refine_bridges(xs, gs, vidx, geval, gder)
        if new_pts:
            add = np.asarray(sorted(set(new_pts)), dtype=float)
            pos = np.searchsorted(xs, add)
            xs = np.insert(xs, pos, add)
            gs = np.insert(gs, pos, [geval(p) for p in add])
            fs = sign * gs
            vidx = _chain_lower(xs.tolist(), gs.tolist())

    vidx_arr = np.asarray(vidx, dtype=np.intp)
    vx = xs[vidx_arr]
    vg = gs[vidx_arr]
    hull_g = np.interp(xs, vx, vg)
    hull = sign * hull_g

    rng = float(fs.max() - fs.min())
    tol = 1e-9 * (rng if rng > 0.0 else max(1.0, float(np.abs(fs).max())))
    contact = np.abs(hull - fs) <= tol
    contact[vidx_arr] = True

    es = np.diff(vg) / np.diff(vx)
    # non-contact knots strictly inside each edge, by a running count
    gaps = np.concatenate([[0], np.cumsum(~contact)])
    bridge = gaps[vidx_arr[1:]] > gaps[vidx_arr[:-1]]

    dinv = None
    if derivative_inverse is not None:
        # oriented: solve g'(x) = w, where g = sign*f, so f'(x) = sign*w
        dinv = derivative_inverse if sign > 0 else (lambda w: derivative_inverse(-np.asarray(w)))

    return Envelope(kind=kind, xs=xs, f=fs, hull=hull, contact=contact,
                    _sign=sign, _vidx=vidx_arr, _vx=vx, _vg=vg, _es=es,
                    _bridge=bridge, _eval=evaluator, _deriv=derivative,
                    _dinv=dinv, finite_support=finite)


def convex_hull(xs, fs, *, evaluator=None, derivative=None,
                derivative_inverse=None, finite=False) -> Envelope:
    """Greatest convex minorant of the sampled curve.

    finite marks xs as the only admissible points rather than samples of
    a continuum.
    """
    return _build(xs, fs, evaluator, derivative, derivative_inverse,
                  "convex", finite)


def concave_hull(xs, fs, *, evaluator=None, derivative=None,
                 derivative_inverse=None, finite=False) -> Envelope:
    """Least concave majorant of the sampled curve."""
    return _build(xs, fs, evaluator, derivative, derivative_inverse,
                  "concave", finite)


# ---------------------------------------------------------------------------
# conjugates


def _conjugate(env: Envelope, w: np.ndarray) -> tuple:
    """sup_x { x w - g(x) } and its attaining span [lo, hi] for an array of w.

    A slope within a relative 1e-9 of an edge slope ties that edge and the
    whole edge attains, except a one-cell edge of a smooth arc, which is a
    sampling artifact and not a true flat.  Off ties the vertex maximizer is
    polished by the curve's derivative inverse, kept inside the sample cell
    around the vertex and taken only where it does not lower the value.
    """
    es, vx, vg = env._es, env._vx, env._vg
    last = len(es) - 1
    idx = np.searchsorted(es, w)
    tol = 1e-9 * np.maximum(1.0, np.abs(w))
    lo_i = idx - ((idx > 0) & (np.abs(es[np.maximum(idx - 1, 0)] - w) <= tol))
    hi_i = idx + ((idx <= last) & (np.abs(es[np.minimum(idx, last)] - w) <= tol))
    if env.refinable:
        one_cell = env._vidx[hi_i] - env._vidx[lo_i] == 1
        lo_i = np.where(one_cell, idx, lo_i)
        hi_i = np.where(one_cell, idx, hi_i)
    x_lo, x_hi = vx[lo_i], vx[hi_i]
    val = np.maximum(x_lo * w - vg[lo_i], x_hi * w - vg[hi_i])
    if env._dinv is not None:
        xs = env.xs
        p = env._vidx[idx]
        xr = np.asarray(env._dinv(w), dtype=float)
        vr = xr * w - env._sign * env._eval(xr)
        take = ((lo_i == hi_i) & (xr > xs[np.maximum(p - 1, 0)])
                & (xr < xs[np.minimum(p + 1, len(xs) - 1)]) & (vr >= val))
        x_lo, x_hi = np.where(take, xr, x_lo), np.where(take, xr, x_hi)
        val = np.where(take, vr, val)
    return val, x_lo, x_hi


def _view(env: Envelope, z, kind: str) -> ConjugateValue:
    """Batch view of the kernel in the orientation of env; a scalar z is a
    batch of one and comes back as floats."""
    if env.kind != kind:
        side = "cost" if kind == "convex" else "revenue"
        raise InvalidParameter(f"{side} conjugate needs a {kind} envelope")
    z = np.asarray(z, dtype=float)
    val, lo, hi = _conjugate(env, z if kind == "convex" else -z)
    if z.ndim == 0:
        return ConjugateValue(float(val), float(lo), float(hi))
    return ConjugateValue(val, lo, hi)


def fenchel_cost(env: Envelope, z) -> ConjugateValue:
    """sup_a { a z - C(a) } over the convex envelope of the cost."""
    return _view(env, z, "convex")


def fenchel_revenue(env: Envelope, z) -> ConjugateValue:
    """sup_q { R(q) - q z } over the concave envelope of the revenue."""
    return _view(env, z, "concave")


def fenchel_cost_grid(env: Envelope, zs) -> np.ndarray:
    return _view(env, zs, "convex").value


def fenchel_revenue_grid(env: Envelope, zs) -> np.ndarray:
    return _view(env, zs, "concave").value


def cost_argmax_grid(env: Envelope, zs, side: str = "left") -> np.ndarray:
    """Maximizers of a*z - C(a); side='left' picks the smaller a at ties."""
    cv = _view(env, zs, "convex")
    return cv.argmax_lo if side == "left" else cv.argmax_hi


def revenue_argmax_grid(env: Envelope, zs, side: str = "left") -> np.ndarray:
    """Maximizers of R(q) - q*z; side='left' picks the smaller q at ties."""
    cv = _view(env, zs, "concave")
    return cv.argmax_lo if side == "left" else cv.argmax_hi


def contact_argmax_intervals(env: Envelope, z: float) -> list:
    """Maximizers of the conjugate objective over the original curve.

    Returns closed intervals [lo, hi] (degenerate for isolated points).
    Inside the attaining set of the envelope the original curve attains
    exactly at contact points, so bridges contribute their two endpoints
    while true affine runs contribute the whole run.
    """
    cv = fenchel_cost(env, z) if env.kind == "convex" \
        else fenchel_revenue(env, z)
    if cv.argmax_lo == cv.argmax_hi:
        return [(cv.argmax_lo, cv.argmax_hi)]
    i = int(np.searchsorted(env.xs, cv.argmax_lo))
    j = int(np.searchsorted(env.xs, cv.argmax_hi, side="right"))
    xs = env.xs[i:j]
    step = np.diff(np.concatenate([[0], env.contact[i:j], [0]]).astype(np.int8))
    starts, stops = np.nonzero(step == 1)[0], np.nonzero(step == -1)[0] - 1
    return [(float(xs[a]), float(xs[b])) for a, b in zip(starts, stops)]


# ---------------------------------------------------------------------------
# decomposition


def hull_decompose(env: Envelope, x: float) -> tuple:
    """Express x as a two-point mixture of contact points.

    Returns (x1, x2, delta) with x = delta*x1 + (1-delta)*x2 and
    hull(x) = delta*f(x1) + (1-delta)*f(x2).  Where the envelope touches
    the curve the mixture collapses to (x, x, 1).
    """
    lo, hi = env.domain
    if not (lo - 1e-12 * max(1.0, abs(lo)) <= x <= hi + 1e-12 * max(1.0, abs(hi))):
        raise OutOfDomain(f"{x} outside [{lo}, {hi}]")
    x = float(min(max(x, lo), hi))

    _, e, inside = env._edge_of(x)
    if not (inside and (env.finite_support or env._bridge[e])):
        return (x, x, 1.0)

    i, j = int(env._vidx[e]), int(env._vidx[e + 1])
    ks = np.nonzero(env.contact[i:j + 1])[0] + i
    left = ks[env.xs[ks] <= x]
    right = ks[env.xs[ks] >= x]
    x1 = float(env.xs[left[-1]]) if len(left) else float(env.xs[i])
    x2 = float(env.xs[right[0]]) if len(right) else float(env.xs[j])
    if x1 == x2:
        return (x, x, 1.0)
    delta = (x2 - x) / (x2 - x1)
    mix = delta * float(env.f[int(np.searchsorted(env.xs, x1))]) \
        + (1.0 - delta) * float(env.f[int(np.searchsorted(env.xs, x2))])
    if abs(mix - env.hull_exact(x)) > 1e3 * env.value_tol:
        raise DecompositionMismatch(
            f"mixture value {mix:.12g} vs envelope {env.hull_exact(x):.12g} at x={x:.12g}")
    return (x1, x2, float(delta))
