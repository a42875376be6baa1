"""The bracketed root search behind zeta, where H' turns inside a cell.

bracket_root(f, lo, hi) shrinks brackets [lo, hi] across which f changes
class (f < 0 or f >= 0) by Illinois steps, kept half a tolerance inside,
and bisects when three steps have not halved a bracket.  Each bracket (a
scalar is a batch of one) stops on its own at |hi - lo| <= 1e-15 + 8.9e-16
|x|, x its latest point, so a batch equals its scalar calls bit for bit.
f(x, i) evaluates brackets i at x; both ends return in their classes.
An empty batch returns at once, with no call to f.
"""

from __future__ import annotations

import numpy as np


def bracket_root(f, lo, hi) -> tuple:
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    if not lo.size:
        return lo, hi
    i = np.arange(lo.size)                          # brackets still running
    a, b = lo.reshape(-1).copy(), hi.reshape(-1).copy()
    fa, fb = np.asarray(f(a, i), dtype=float), np.asarray(f(b, i), dtype=float)
    neg = fa < 0.0                                  # class of the lo end
    w1 = w2 = w3 = np.full(i.size, np.inf)          # widths one to three steps back
    while True:
        # b is the latest point, a the far end of the bracket
        w, tol = np.abs(b - a), 1e-15 + 8.9e-16 * np.abs(b)
        run = w > tol
        if not run.all():
            end, b_lo = ~run, ((fb < 0.0) == neg)[~run]
            lo.reshape(-1)[i[end]] = np.where(b_lo, b[end], a[end])
            hi.reshape(-1)[i[end]] = np.where(b_lo, a[end], b[end])
            i, a, b, fa, fb, neg, w, tol, w1, w2, w3 = (
                v[run] for v in (i, a, b, fa, fb, neg, w, tol, w1, w2, w3))
        if not i.size:
            return lo, hi
        d = 0.5 * tol / w
        s = np.minimum(np.maximum(fb / (fb - fa), d), 1.0 - d)
        x = b - np.where(w > 0.5 * w3, 0.5, s) * (b - a)
        fx = np.asarray(f(x, i), dtype=float)
        # Illinois: keep the end across the class change; an end kept
        # twice in a row has its value halved
        flip = (fx < 0.0) != (fb < 0.0)
        a, fa = np.where(flip, b, a), np.where(flip, fb, 0.5 * fa)
        b, fb = x, fx
        w1, w2, w3 = w, w1, w2
