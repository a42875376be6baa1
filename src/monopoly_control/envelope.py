"""Convex and concave envelopes of curves, with Fenchel conjugates.

The solver never needs the raw revenue or cost curve, only its concave or
convex envelope: the running Hamiltonian is blind to the difference, and
two-point mixtures recover anything the envelope promises.  A smooth curve
on a continuum (a Curve with a hull_kind) is hulled in closed form from the
Curve itself: the envelope is a run of arcs of the curve and chords
between them, and a chord of a smooth curve is a bridge that mixes its two
ends.  Any other curve, and a finite set, is piecewise linear through its
points, hulled by a monotone chain with knot-only contacts, and every edge
slope is a kink.  The envelope is its edge arrays (vertices, edge slopes,
and which edges are arcs and which bridge the curve), and its value query
hull_exact takes a scalar or an array alike; slopes are read from the
conjugates' attaining spans, not from the envelope.

Conjugate queries come in two orientations:

* ``fenchel_cost``     sup_a  { a z - C(a) }   over a convex envelope,
* ``fenchel_revenue``  sup_q  { R(q) - q z }   over a concave envelope,

both views of one array kernel on the oriented (lower-hull) data, which
returns the conjugate value and the attaining span for every slope of a
batch; a scalar query is a batch of one.  The kernel reads an arc at the
rate whose slope is the query's (Curve.rate_at_slope), so the value is
exact on the curve.  The ``_grid`` and ``argmax_grid`` functions are the
same kernel, read one field at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DecompositionMismatch, DegenerateGrid, InvalidParameter, OutOfDomain
from .problem import Curve, _unique


@dataclass(frozen=True)
class ConjugateValue:
    """Conjugate value with the attaining set's endpoints.

    argmax_lo == argmax_hi for a unique maximizer; they differ when the
    query slope is an affine piece's slope, to 4 ulps, in which case the
    whole piece attains.  Fields are floats for a scalar query and arrays
    of the query's shape for an array query.
    """

    value: float | np.ndarray
    argmax_lo: float | np.ndarray
    argmax_hi: float | np.ndarray


@dataclass(frozen=True, eq=False)
class Envelope:
    """Envelope of a curve; immutable after construction.

    xs, f are parallel arrays (knots, curve values): a piecewise-linear
    curve's points, or a smooth curve's hull vertices.
    contact marks knots where the envelope touches the curve.  The envelope
    itself is its edge arrays: vertices _vidx/_vx/_vg, edge slopes _es, _arc
    marking edges that are arcs of a smooth curve, and _bridge marking
    edges that leave the curve: chords of a smooth curve, and edges that
    span a non-contact knot, every one of which lies strictly inside a
    bridge.  _table holds, per vertex, the conjugate kernel's reads: the
    slopes of the edges below and above (-inf and +inf past the ends),
    whether each is a chord, and the ends of the arcs that meet there.
    """

    kind: str                       # "convex" or "concave"
    xs: np.ndarray = field(repr=False)
    f: np.ndarray = field(repr=False)
    contact: np.ndarray = field(repr=False)
    # oriented internals: _g = sign*f has a lower hull with increasing slopes
    _sign: float = field(repr=False)
    _vidx: np.ndarray = field(repr=False)       # vertex indices into xs
    _vx: np.ndarray = field(repr=False)         # vertex abscissae, xs[_vidx]
    _vg: np.ndarray = field(repr=False)         # oriented values at vertices
    _es: np.ndarray = field(repr=False)         # oriented edge slopes, increasing
    _arc: np.ndarray = field(repr=False)        # per edge: an arc of the curve
    _bridge: np.ndarray = field(repr=False)     # per edge: leaves the curve
    _table: tuple = field(repr=False)           # per vertex, for _conjugate
    # the smooth curve whose arcs the envelope follows, None when piecewise
    # linear
    _curve: Curve | None = field(repr=False, default=None)
    # knots are the only admissible points; everything between them is
    # reachable solely as a mixture of knots
    finite_support: bool = False

    @property
    def smooth(self) -> bool:
        return self._curve is not None

    @property
    def domain(self) -> tuple[float, float]:
        return float(self.xs[0]), float(self.xs[-1])

    def hull_exact(self, x):
        """Envelope value using the continuous curve off bridges.

        On a bridge the chord is exact; elsewhere the envelope coincides
        with the curve, so the curve itself is the better value.  With
        finite support there is no curve between knots and every edge is
        its own chord.
        """
        x, e, inside = self._edge_of(x)
        a, b = self._vx[e], self._vx[e + 1]
        t = (x - a) / (b - a)
        chord = self._sign * ((1.0 - t) * self._vg[e] + t * self._vg[e + 1])
        curve = (self._curve(x) if self.smooth
                 else np.interp(x, self.xs, self.f))
        out = np.where(inside & (self.finite_support | self._bridge[e]), chord,
                       curve)
        return float(out) if out.ndim == 0 else out

    def _edge_of(self, x) -> tuple:
        """(x, e, inside) for x in the domain, widened at each end by 1e-12
        of its scale max(|lo|, |hi|): e the hull edge that could hold x,
        inside whether x lies in that edge's open x-interval."""
        x = np.asarray(x, dtype=float)
        lo, hi = self.domain
        tol = 1e-12 * max(abs(lo), abs(hi))
        out = ~((lo - tol <= x) & (x <= hi + tol))
        if out.any():
            raise OutOfDomain(f"{x[out].flat[0]} outside [{lo}, {hi}]")
        vx = self._vx
        # x's edge is the one past each inner vertex below x
        e = np.searchsorted(vx[1:-1], x)
        return x, e, (vx[e] < x) & (x < vx[e + 1])

    def kink_slopes(self) -> np.ndarray:
        """Slopes where a conjugate's maximizer genuinely jumps.

        These are the chord slopes: every hull edge of a piecewise-linear
        curve (tables, finite sets), and the chords of a smooth curve, plus
        its slopes at the domain's ends, p0 + p1 x + p2 x^2 from
        Curve.slope_coefficients, where the maximizer saturates (along an
        arc it moves continuously).  Consumers insert these into their own
        grids; spurious entries are harmless.
        """
        ks = self._sign * self._es[~self._arc]
        if self.smooth:
            x = self.xs[[0, -1]]
            p0, p1, p2 = self._curve.slope_coefficients(x)
            ks = np.concatenate([ks, p0 + p1 * x + p2 * x * x])
        return _unique(ks)


# ---------------------------------------------------------------------------
# construction


def _chain_lower(xs: np.ndarray, gs: np.ndarray) -> np.ndarray:
    """Andrew's monotone chain for the lower hull of a graph (an index
    array): pop the top i1 (under i0) for a new point i while
    (g[i1] - g[i0]) (x[i] - x[i1]) >= (g[i] - g[i1]) (x[i1] - x[i0]), then
    push i.

    An interior point that the orientation test finds collinear is
    dropped, so an affine run becomes a single edge where its points stay
    on one line after rounding (dyadic knots and values, say).  Elsewhere
    rounding can keep some of its points and split the run into edges of
    nearly equal slope; _build merges those.
    """
    xl, gl = xs.tolist(), gs.tolist()
    out = []
    for i, (x, g) in enumerate(zip(xl, gl)):
        while len(out) >= 2:
            i0, i1 = out[-2], out[-1]
            if (gl[i1] - gl[i0]) * (x - xl[i1]) < (g - gl[i1]) * (xl[i1] - xl[i0]):
                break
            out.pop()
        out.append(i)
    return np.array(out, dtype=np.intp)


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
    if curve is not None and not finite and curve.hull_kind == kind:
        # a smooth curve on a continuum: its hull on [xs[0], xs[-1]] in
        # closed form, every vertex a contact
        xs, arc = curve.hull_vertices(float(xs[0]), float(xs[-1]))
        fs = np.asarray(curve(xs), dtype=float)
        gs = sign * fs
        vidx = np.arange(len(xs))
    else:
        curve = None
        gs = sign * fs
        vidx = chain = _chain_lower(xs, gs)
        # a piecewise-linear curve or finite set has one edge per true
        # slope: rounding splits a run of collinear knots into edges whose
        # slopes agree within a relative 1e-9, the table's collinearity
        # rule, so the vertices between such edges go
        while len(vidx) > 2:
            s = np.diff(gs[vidx]) / np.diff(xs[vidx])
            tie = np.abs(np.diff(s)) <= 1e-9 * np.maximum(np.abs(s[:-1]),
                                                          np.abs(s[1:]))
            if not tie.any():
                break
            vidx = np.delete(vidx, 1 + np.flatnonzero(tie))
        arc = np.zeros(len(vidx) - 1, dtype=bool)

    vx = xs[vidx]
    vg = gs[vidx]

    if curve is None:
        hull_g = np.interp(xs, vx, vg)
        # contact within 1e-9 of the values at the knot: a tolerance scaled
        # to the whole range would hide a dent that is small against the
        # far end of the knots
        contact = np.abs(hull_g - gs) <= 1e-9 * np.maximum(np.abs(hull_g),
                                                           np.abs(gs))
        contact[chain] = True
        # non-contact knots strictly inside each edge, by a running count
        gaps = np.concatenate([[0], np.cumsum(~contact)])
        bridge = gaps[vidx[1:]] > gaps[vidx[:-1]]
    else:
        contact = np.ones(len(xs), dtype=bool)
        bridge = ~arc

    es = np.diff(vg) / np.diff(vx)
    slopes = np.concatenate([[-math.inf], es, [math.inf]])
    chord = np.concatenate([[True], ~arc, [True]])
    # the points a vertex's readings reach: itself, or an arc that meets it
    reach_lo = np.concatenate([vx[:1], np.where(arc, vx[:-1], vx[1:])])
    reach_hi = np.concatenate([np.where(arc, vx[1:], vx[:-1]), vx[-1:]])

    return Envelope(kind=kind, xs=xs, f=fs, contact=contact,
                    _sign=sign, _vidx=vidx, _vx=vx, _vg=vg, _es=es, _arc=arc,
                    _bridge=bridge, _table=(
                        slopes[:-1], slopes[1:], chord[:-1], chord[1:],
                        reach_lo, reach_hi),
                    _curve=curve, finite_support=finite)


def convex_hull(xs, fs, *, curve=None, finite=False) -> Envelope:
    """Greatest convex minorant of the curve read as fs at xs.

    curve is the Curve read; a smooth one (hull_kind "convex") is hulled
    from its closed form on [xs[0], xs[-1]], and the values fs and the
    points between the ends are not read.  finite marks xs as the only
    admissible points rather than points of a continuum.
    """
    return _build(xs, fs, curve, "convex", finite)


def concave_hull(xs, fs, *, curve=None, finite=False) -> Envelope:
    """Least concave majorant of the curve read as fs at xs."""
    return _build(xs, fs, curve, "concave", finite)


# ---------------------------------------------------------------------------
# conjugates


def _conjugate(env: Envelope, w: np.ndarray) -> tuple:
    """sup_x { x w - g(x) } and its attaining span [lo, hi] for an array of w.

    A slope ties a chord only when the two are one float read two ways,
    within 4 ulps of the slope (as _apart), and then the whole chord
    attains; the -inf and +inf pads past the end edges never tie.  Off
    ties a vertex between chords attains; where an arc meets the vertex,
    the point of slope w on the curve, clipped to the arc, does.  Edges
    and arcs are read from the envelope's _table at the vertex idx that w
    sorts to; spans are worked out only for a batch where some slope ties.
    """
    es_lo, es_hi, chord_lo, chord_hi, reach_lo, reach_hi = env._table
    idx = np.searchsorted(env._es, w)
    tol = 4.0 * np.spacing(np.abs(w))
    # es_lo[idx] < w <= es_hi[idx], so these are the distances to w, and
    # a pad's is inf
    tie_lo = chord_lo[idx] & (w - es_lo[idx] <= tol)
    tie_hi = chord_hi[idx] & (es_hi[idx] - w <= tol)
    vx, vg = env._vx, env._vg
    if env.smooth:
        # oriented: g = sign*f has slope w where f has slope sign*w
        x_lo = x_hi = np.clip(env._curve.rate_at_slope(env._sign * w),
                              reach_lo[idx], reach_hi[idx])
        val = x_lo * w - env._sign * env._curve(x_lo)
    else:
        x_lo = x_hi = vx[idx]
        val = x_lo * w - vg[idx]
    spans = tie_lo | tie_hi
    if spans.any():
        lo_i, hi_i = idx - tie_lo, idx + tie_hi
        val = np.where(spans, np.maximum(vx[lo_i] * w - vg[lo_i],
                                         vx[hi_i] * w - vg[hi_i]), val)
        x_lo = np.where(spans, vx[lo_i], x_lo)
        x_hi = np.where(spans, vx[hi_i], x_hi)
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
    lo, hi = cv.argmax_lo, cv.argmax_hi
    if lo == hi:
        return [(lo, hi)]
    if env.smooth or env.finite_support:
        # a smooth curve's span is a chord, which touches it at its ends,
        # and a finite set has nothing between its members
        vx = env._vx if env.smooth else env.xs[env.contact]
        return [(x, x) for x in vx[(vx >= lo) & (vx <= hi)].tolist()]
    i = int(np.searchsorted(env.xs, lo))
    j = int(np.searchsorted(env.xs, hi, side="right"))
    xs = env.xs[i:j]
    step = np.diff(np.concatenate([[0], env.contact[i:j], [0]]).astype(np.int8))
    starts, stops = np.nonzero(step == 1)[0], np.nonzero(step == -1)[0] - 1
    return [(float(xs[a]), float(xs[b])) for a, b in zip(starts, stops)]


# ---------------------------------------------------------------------------
# decomposition


def _apart(u, w):
    """Whether readings u and w differ by more than 4 ulps of the larger:
    one point read two ways, by a closed form and a kernel say, is not."""
    return np.abs(u - w) > 4.0 * np.spacing(np.maximum(abs(u), abs(w)))


def hull_decompose(env: Envelope, x: float) -> tuple:
    """Express x as a two-point mixture of contact points.

    Returns (x1, x2, delta) with x = delta*x1 + (1-delta)*x2 and
    hull(x) = delta*f(x1) + (1-delta)*f(x2).  Where the envelope touches
    the curve, and at an x not _apart from a contact point beside it, the
    mixture collapses to (x, x, 1).
    """
    x, e, inside = env._edge_of(x)
    lo, hi = env.domain
    x = float(min(max(x, lo), hi))
    if not (inside and (env.finite_support or env._bridge[e])):
        return (x, x, 1.0)

    i, j = int(env._vidx[e]), int(env._vidx[e + 1])
    ks = np.nonzero(env.contact[i:j + 1])[0] + i
    left = ks[env.xs[ks] <= x]
    right = ks[env.xs[ks] >= x]
    x1 = float(env.xs[left[-1]]) if len(left) else float(env.xs[i])
    x2 = float(env.xs[right[0]]) if len(right) else float(env.xs[j])
    if not (_apart(x, x1) and _apart(x, x2)):
        return (x, x, 1.0)
    delta = (x2 - x) / (x2 - x1)
    f1 = float(env.f[int(np.searchsorted(env.xs, x1))])
    f2 = float(env.f[int(np.searchsorted(env.xs, x2))])
    mix = delta * f1 + (1.0 - delta) * f2
    h = env.hull_exact(x)
    # the bound scales with the values compared, not with the range of all
    # knots, which the far end of a truncated ray inflates
    if abs(mix - h) > 1e-6 * max(abs(f1), abs(f2), abs(h)):
        raise DecompositionMismatch(
            f"mixture value {mix:.12g} vs envelope {h:.12g} at x={x:.12g}")
    return (x1, x2, float(delta))
