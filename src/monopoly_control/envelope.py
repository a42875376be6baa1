"""Convex and concave envelopes of sampled curves, with Fenchel conjugates.

The solver never needs the raw revenue or cost curve, only its concave or
convex envelope: the running Hamiltonian is blind to the difference, and
two-point mixtures recover anything the envelope promises.  A hull is
built from the curve's points by a monotone chain and, for a smooth curve
(a Curve with a derivative inverse, on a continuum), from the Curve
itself: where the hull bridges a non-convex dip, the bridge endpoints are
polished by solving the common-tangent conditions on the curve and
inserted as knots, giving contact points far below sample resolution.
Any other curve is piecewise linear through its points, which keep
knot-only contacts, and every edge slope is a kink.  The envelope is its
edge arrays (vertices, edge slopes, and which edges bridge non-contact
knots), and its value query hull_exact takes a scalar or an array alike;
slopes are read from the conjugates' attaining spans, not from the
envelope.

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
from .problem import Curve


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
    knot lies strictly inside a bridge.  _table holds, per vertex, the
    conjugate kernel's reads: the slopes of the edges below and above (-inf
    and +inf past the ends), whether each is wider than one sample cell,
    and the samples either side.
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
    _table: tuple = field(repr=False)           # per vertex, for _conjugate
    # the smooth curve refined and polished against, None when piecewise
    # linear, and its oriented derivative inverse: solves g'(x) = w
    _curve: Curve | None = field(repr=False, default=None)
    _dinv: Callable | None = field(repr=False, default=None)
    # knots are the only admissible points; everything between them is
    # reachable solely as a mixture of knots
    finite_support: bool = False

    @property
    def refinable(self) -> bool:
        return self._curve is not None

    @property
    def domain(self) -> tuple[float, float]:
        return float(self.xs[0]), float(self.xs[-1])

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
        curve = (self._curve(x) if self.refinable
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
            self._curve.derivative(self.xs[[0, -1]])]))


# ---------------------------------------------------------------------------
# construction

# a run of at least this many consecutive triples that all pop, or all
# keep, is worth an array step; shorter runs, such as the random pops that
# rounding causes on collinear samples, stay with the stack loop.  Any run
# this long covers two whole bytes of the packed outcomes
_MIN_RUN = 23


def _chain_lower(xs: np.ndarray, gs: np.ndarray) -> np.ndarray:
    """Monotone chain for the lower hull of a graph (an index array).

    An interior point that the orientation test finds collinear is
    dropped, so an affine run becomes a single edge where its samples
    stay on one line after rounding (dyadic knots and values, say).
    Elsewhere rounding can keep some of its points and split the run into
    edges of nearly equal slope; _build merges those for tables and
    finite sets.

    The chain is Andrew's stack loop (_stack_loop).  Long stretches of it
    are evaluated as array expressions, elementwise the same float
    operations in the same order, so the vertex list is the loop's to the
    bit.  Every consecutive triple (i - 2, i - 1, i) is tested at once, and
    the runs of _MIN_RUN or more equal outcomes mark where that pays:

    * a run that keeps (convex stretch): with (i - 2, i - 1) on top the
      loop tests only the consecutive triple, so everything up to the next
      triple that pops is pushed in one step, as an arange;
    * a run that pops (concave stretch under a bridge): with (p, a, i - 1)
      on top each new i pops i - 1 and keeps a, which _anchor_run tests
      for growing chunks of i, stopping at the first i that breaks it.

    Everything else runs the loop itself on Python floats.  The stack is a
    list of Python ints on top of the index arrays in below.
    """
    n = len(xs)
    if n < 3:
        return np.arange(n)
    dx, dg = np.diff(xs), np.diff(gs)
    pops = dg[:-1] * dx[1:] >= dg[1:] * dx[:-1]
    # runs (c, e, popping) of equal outcomes for the points c..e - 1; the
    # triple ending at point k is pops[k - 2].  Scattered outcomes, with no
    # two equal whole bytes in a row, have no run to find
    runs = ()
    b = np.packbits(pops)
    if np.any((b[1:] == b[:-1]) & ((b[1:] == 0) | (b[1:] == 255))):
        cut = np.concatenate(([0], np.flatnonzero(pops[1:] != pops[:-1]) + 1,
                              [len(pops)]))
        long = np.flatnonzero(np.diff(cut) >= _MIN_RUN)
        runs = zip((cut[long] + 2).tolist(), (cut[long + 1] + 2).tolist(),
                   pops[cut[long]].tolist())
    out = [0, 1]
    below = []
    lists = []      # xs and gs as Python floats, made for the first long loop

    def loop(lo: int, hi: int) -> None:
        # a few steps read the arrays (numpy scalars round alike) rather
        # than pay for the lists
        if not lists and hi - lo >= _MIN_RUN:
            lists[:] = xs.tolist(), gs.tolist()
        _stack_loop(*(lists or (xs, gs)), out, below, lo, hi)

    i = 2
    for c, e, popping in runs:
        if e - max(c, i) < _MIN_RUN:
            continue
        if i < c:
            loop(i, c)
            i = c
        if popping:
            i = _anchor_run(xs, gs, out, below, i, e - i)
            continue
        if out[-2] != i - 2:
            loop(i, i + 1)
            i += 1
        if out[-2] == i - 2:
            # no triple ending in [i, e) pops
            if len(out) > 2:
                below.append(np.array(out[:-2], dtype=np.intp))
            below.append(np.arange(i - 2, e - 2))
            out[:] = [e - 2, e - 1]
            i = e
    loop(i, n)
    return np.concatenate([*below, np.array(out, dtype=np.intp)])


def _stack_loop(xl: list, gl: list, out: list, below: list, lo: int,
                hi: int) -> None:
    """Andrew's loop over points lo..hi - 1, the stack (out over below)
    holding at least two: pop the top i1 (under i0) for a new point i while
    (g[i1] - g[i0]) (x[i] - x[i1]) >= (g[i] - g[i1]) (x[i1] - x[i0]), then
    push i.  The top two points' coordinates are kept in locals (x1, g1 and
    x0, g0); a pop that leaves out with one moves up to 64 back from below."""
    x0, g0 = xl[out[-2]], gl[out[-2]]
    x1, g1 = xl[out[-1]], gl[out[-1]]
    push, pop = out.append, out.pop
    for i in range(lo, hi):
        x, g = xl[i], gl[i]
        while (g1 - g0) * (x - x1) >= (g - g1) * (x1 - x0):
            pop()
            x1, g1 = x0, g0
            if len(out) < 2:
                if not below:
                    break
                top = below.pop()
                out[:0] = top[-64:].tolist()
                below += [top[:-64]] if len(top) > 64 else []
            k = out[-2]
            x0, g0 = xl[k], gl[k]
        push(i)
        x0, g0, x1, g1 = x1, g1, x, g


def _anchor_run(xs: np.ndarray, gs: np.ndarray, out: list, below: list,
                i: int, size: int) -> int:
    """Push the anchor run starting at i, (..., p, a, i - 1) on top, onto
    out; returns the first index the run does not cover."""
    n = len(xs)
    a = out[-2]
    p = out[-3] if len(out) >= 3 else int(below[-1][-1]) if below else None
    while i < n:
        j = np.arange(i, min(i + size, n))
        # the triple (a, j - 1, j) pops j - 1 ...
        ok = ((gs[j - 1] - gs[a]) * (xs[j] - xs[j - 1])
              >= (gs[j] - gs[j - 1]) * (xs[j - 1] - xs[a]))
        if p is not None:
            # ... and (p, a, j) keeps a
            ok &= ~((gs[a] - gs[p]) * (xs[j] - xs[a])
                    >= (gs[j] - gs[a]) * (xs[a] - xs[p]))
        k = len(j) if ok.all() else int(np.argmin(ok))
        if k:
            out[-1] = i + k - 1
            i += k
        if k < len(j):
            break
        size *= 2
    return i


def _tangency_points(gder, w, b_lo, b_mid, b_hi) -> np.ndarray:
    """Solve gder(x) = w near b_mid, for arrays of brackets; an endpoint
    wins where the sign allows, and the rest are one bracket_root batch."""
    d_mid = gder(b_mid) - w
    up = d_mid > 0.0
    lo, hi = np.where(up, b_lo, b_mid), np.where(up, b_mid, b_hi)
    end = np.where(up, lo, hi)
    d_end = gder(end) - w
    out = np.where(d_mid == 0.0, b_mid, end)
    k = np.flatnonzero((d_mid != 0.0) & (lo < hi)
                       & np.where(up, d_end < 0.0, d_end > 0.0))
    out[k] = bracket_root(lambda t, i: gder(t) - w[k[i]], lo[k], hi[k])[1]
    return out


def _refine_bridges(xs: np.ndarray, gs: np.ndarray, vidx: np.ndarray,
                    geval, gder) -> np.ndarray:
    """Polish bridge endpoints by the common-tangent conditions.

    Returns new knots (tangency abscissae) to insert.  A bridge whose
    endpoint sits on the domain boundary keeps that endpoint fixed.  Each
    round moves the free ends of every bridge still moving in one batch.
    """
    n = len(xs)
    span = float(xs[-1] - xs[0])
    e = np.flatnonzero(np.diff(vidx) > 1)
    a_i, b_i = vidx[e], vidx[e + 1]
    left, right = a_i > 0, b_i < n - 1
    free = left | right
    a_i, b_i, left, right = a_i[free], b_i[free], left[free], right[free]
    x1, x2, f1, f2 = xs[a_i], xs[b_i], gs[a_i], gs[b_i]
    lo1, hi1 = xs[a_i - left], xs[a_i + 1]
    lo2, hi2 = xs[b_i - 1], xs[b_i + right]
    run = np.arange(len(a_i))               # bridges still moving
    for _ in range(60):
        # ends that meet leave no chord: the edge was a run of rounding pops
        run = run[x2[run] > x1[run]]
        if not len(run):
            break
        s = (f2[run] - f1[run]) / (x2[run] - x1[run])
        ls, rs = left[run], right[run]
        lb, rb = run[ls], run[rs]
        m = len(lb)
        t = _tangency_points(
            gder, np.concatenate([s[ls], s[rs]]),
            np.concatenate([lo1[lb], np.maximum(lo2[rb], x1[rb] + 1e-15 * span)]),
            np.concatenate([x1[lb], x2[rb]]),
            np.concatenate([np.minimum(hi1[lb], x2[lb] - 1e-15 * span), hi2[rb]]))
        g = geval(t)
        old1, old2 = x1[run], x2[run]
        x1[lb], f1[lb] = t[:m], g[:m]
        x2[rb], f2[rb] = t[m:], g[m:]
        moved = np.abs(x1[run] - old1) + np.abs(x2[run] - old2)
        run = run[~(moved <= 1e-14 * span)]
    kept = x2 > x1
    p = np.concatenate([x1[kept], x2[kept]])
    k = np.searchsorted(xs, p)
    near = np.minimum(
        np.where(k > 0, np.abs(p - xs[np.maximum(k - 1, 0)]), math.inf),
        np.where(k < n, np.abs(p - xs[np.minimum(k, n - 1)]), math.inf))
    return p[near > 1e-12 * span]


# a one-cell hull edge at a dent is split into this many cells, at most
# _SPLIT_ROUNDS times
_SPLIT = 64
_SPLIT_ROUNDS = 8


def _split_dents(xs: np.ndarray, gs: np.ndarray, vidx: np.ndarray, geval,
                 gder, dinv) -> tuple:
    """Split the sample cells that hide a dent of a smooth curve.

    The tangent at a vertex v passes below a convex curve everywhere, so
    where the curve dips under it at t = dinv(g'(v)), the point of equal
    slope on the convex branch, a dent lies between v and t.  When v ends
    a one-cell hull edge, that dent may sit inside the cell, below sample
    resolution (the truncated ray of a large problem); the cell is split
    until the chain sees every such dent across several cells.  Returns
    (xs, gs, vidx).
    """
    span = float(xs[-1] - xs[0])
    for _ in range(_SPLIT_ROUNDS):
        v, gv = xs[vidx], gs[vidx]
        w = gder(v)
        t = dinv(w)
        # only a vertex off the convex branch (t != v) can start a dent
        k = np.flatnonzero(np.abs(t - v) > 1e-12 * span)
        rise = w[k] * (t[k] - v[k])
        k = k[geval(t[k]) - gv[k] - rise < -1e-9 * (np.abs(gv[k])
                                                     + np.abs(rise))]
        # the one-cell edges either side of those vertices
        e = np.unique(np.concatenate([k[k < len(v) - 1], k[k > 0] - 1]))
        e = e[vidx[e + 1] - vidx[e] == 1]
        if not len(e):
            break
        a, b = v[e, None], v[e + 1, None]
        add = (a + (b - a) * (np.arange(1, _SPLIT) / _SPLIT)).ravel()
        pos = np.searchsorted(xs, add)
        xs, gs = np.insert(xs, pos, add), np.insert(gs, pos, geval(add))
        vidx = _chain_lower(xs, gs)
    return xs, gs, vidx


def _build(xs, fs, curve: Curve | None, kind: str, finite: bool) -> Envelope:
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
    gs = sign * fs
    vidx = _chain_lower(xs, gs)
    # a curve with a derivative inverse, on a continuum, is smooth: it is
    # refined and polished against; anything else is piecewise linear
    inverse = None if curve is None or finite else curve.derivative_inverse()
    if inverse is None:
        curve = dinv = None
    else:
        # oriented: solve g'(x) = w, where g = sign*f, so f'(x) = sign*w
        dinv = inverse if sign > 0 else (lambda w: inverse(-np.asarray(w)))
        geval, gder = (lambda t: sign * curve(t)), (lambda t: sign * curve.derivative(t))
        xs, gs, vidx = _split_dents(xs, gs, vidx, geval, gder, dinv)
        fs = sign * gs
        add = np.unique(_refine_bridges(xs, gs, vidx, geval, gder))
        if len(add):
            pos = np.searchsorted(xs, add)
            xs = np.insert(xs, pos, add)
            gs = np.insert(gs, pos, geval(add))
            fs = sign * gs
            vidx = _chain_lower(xs, gs)
    chain = vidx
    # a piecewise-linear curve or finite set has one edge per true slope:
    # rounding splits a run of collinear knots into edges whose slopes tie
    # under the kernel's rule, so the vertices between tied edges go
    while curve is None and len(vidx) > 2:
        s = np.diff(gs[vidx]) / np.diff(xs[vidx])
        tie = np.abs(np.diff(s)) <= 1e-9 * np.maximum(
            1.0, np.maximum(np.abs(s[:-1]), np.abs(s[1:])))
        if not tie.any():
            break
        vidx = np.delete(vidx, 1 + np.flatnonzero(tie))

    vx = xs[vidx]
    vg = gs[vidx]
    hull_g = np.interp(xs, vx, vg)
    hull = sign * hull_g

    # contact within 1e-9 of the values at the knot: a tolerance scaled to
    # the whole range would hide a dent that is small against the far end
    # of a truncated ray
    contact = np.abs(hull_g - gs) <= 1e-9 * np.maximum(np.abs(hull_g),
                                                       np.abs(gs))
    contact[chain] = True

    es = np.concatenate([[-math.inf], np.diff(vg) / np.diff(vx), [math.inf]])
    wide = np.concatenate([[True], np.diff(vidx) > 1, [True]])
    # non-contact knots strictly inside each edge, by a running count
    gaps = np.concatenate([[0], np.cumsum(~contact)])
    bridge = gaps[vidx[1:]] > gaps[vidx[:-1]]

    return Envelope(kind=kind, xs=xs, f=fs, hull=hull, contact=contact,
                    _sign=sign, _vidx=vidx, _vx=vx, _vg=vg, _es=es[1:-1],
                    _bridge=bridge, _table=(
                        es[:-1], es[1:], wide[:-1], wide[1:],
                        xs[np.maximum(vidx - 1, 0)],
                        xs[np.minimum(vidx + 1, len(xs) - 1)]),
                    _curve=curve, _dinv=dinv,
                    finite_support=finite)


def convex_hull(xs, fs, *, curve=None, finite=False) -> Envelope:
    """Greatest convex minorant of the curve sampled as fs at xs.

    curve is the Curve sampled; a smooth one (with a derivative inverse)
    refines bridges and polishes conjugates.  finite marks xs as the only
    admissible points rather than samples of a continuum.
    """
    return _build(xs, fs, curve, "convex", finite)


def concave_hull(xs, fs, *, curve=None, finite=False) -> Envelope:
    """Least concave majorant of the curve sampled as fs at xs."""
    return _build(xs, fs, curve, "concave", finite)


# ---------------------------------------------------------------------------
# conjugates


def _conjugate(env: Envelope, w: np.ndarray) -> tuple:
    """sup_x { x w - g(x) } and its attaining span [lo, hi] for an array of w.

    A slope within a relative 1e-9 of an edge slope ties that edge and the
    whole edge attains, except a one-cell edge of a smooth arc, which is a
    sampling artifact and not a true flat (unless the other edge ties too).
    Off ties the vertex maximizer is polished by the curve's derivative
    inverse, kept inside the sample cell around the vertex and taken only
    where it does not lower the value.  Edges and samples are read from the
    envelope's _table at the vertex idx that w sorts to; spans are worked
    out only for a batch where some slope ties.
    """
    es_lo, es_hi, wide_lo, wide_hi, x_below, x_above = env._table
    idx = np.searchsorted(env._es, w)
    tol = 1e-9 * np.maximum(1.0, np.abs(w))
    # es_lo[idx] < w <= es_hi[idx], so these are the distances to w
    tie_lo = w - es_lo[idx] <= tol
    tie_hi = es_hi[idx] - w <= tol
    vx, vg = env._vx, env._vg
    x_lo = x_hi = vx[idx]
    val = x_lo * w - vg[idx]
    spans = tie_lo | tie_hi
    if spans.any():
        if env.refinable:
            tie_lo, tie_hi = (tie_lo & (wide_lo[idx] | tie_hi),
                              tie_hi & (wide_hi[idx] | tie_lo))
        lo_i, hi_i = idx - tie_lo, idx + tie_hi
        x_lo, x_hi = vx[lo_i], vx[hi_i]
        val = np.maximum(x_lo * w - vg[lo_i], x_hi * w - vg[hi_i])
        spans = lo_i != hi_i
    if env.refinable:
        xr = np.asarray(env._dinv(w), dtype=float)
        vr = xr * w - env._sign * env._curve(xr)
        take = ((xr > x_below[idx]) & (xr < x_above[idx]) & (vr >= val)
                & ~spans)
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


def cost_argmax_grid(env: Envelope, zs) -> np.ndarray:
    """Smallest maximizers of a*z - C(a)."""
    return _view(env, zs, "convex").argmax_lo


def revenue_argmax_grid(env: Envelope, zs) -> np.ndarray:
    """Smallest maximizers of R(q) - q*z."""
    return _view(env, zs, "concave").argmax_lo


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
    f1 = float(env.f[int(np.searchsorted(env.xs, x1))])
    f2 = float(env.f[int(np.searchsorted(env.xs, x2))])
    mix = delta * f1 + (1.0 - delta) * f2
    h = env.hull_exact(x)
    # the bound scales with the values compared, not with the range of all
    # samples, which the far end of a truncated ray inflates
    if abs(mix - h) > 1e-6 * max(abs(f1), abs(f2), abs(h)):
        raise DecompositionMismatch(
            f"mixture value {mix:.12g} vs envelope {h:.12g} at x={x:.12g}")
    return (x1, x2, float(delta))
