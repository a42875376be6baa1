"""The bracketed root search shared by every one-dimensional solve."""

import numpy as np

from monopoly_control._roots import bracket_root


def _width_ok(lo, hi):
    return np.all(np.abs(hi - lo) <= 1e-15 + 8.9e-16 * np.abs(hi))


def test_bracket_keeps_each_end_in_its_class():
    c = np.linspace(0.1, 3.0, 9)
    lo, hi = bracket_root(lambda x, i: x ** 3 - c[i], np.zeros(9), np.full(9, 2.0))
    assert np.all(lo ** 3 - c < 0.0) and np.all(hi ** 3 - c >= 0.0)
    assert _width_ok(lo, hi)
    # decreasing f: the lo end stays in the f >= 0 class
    lo, hi = bracket_root(lambda x, _: 1.0 - x * x, 0.0, 3.0)
    assert 1.0 - lo * lo >= 0.0 > 1.0 - hi * hi and _width_ok(lo, hi)


def test_batch_equals_scalar_calls():
    c = np.random.default_rng(0).uniform(0.05, 0.95, 50)

    def f(x, i):
        return np.where(x >= c[i], 1.0, -1.0) + (x - c[i])

    lo, hi = bracket_root(f, np.zeros(50), np.ones(50))
    for k in range(50):
        l1, h1 = bracket_root(lambda x, _: f(x, np.array([k])), 0.0, 1.0)
        assert l1.ndim == 0 and (l1, h1) == (lo[k], hi[k])


def test_jump_and_multiple_root_converge():
    # a step stands in for the jump of H' at a kink; (x - 0.7)^5 for a
    # root where interpolation steps crawl and bisection takes over
    for f, root in ((lambda x, _: np.where(x >= 0.3, 1.0, -1.0), 0.3),
                    (lambda x, _: (x - 0.7) ** 5, 0.7)):
        lo, hi = bracket_root(f, 0.0, 1.0)
        assert lo <= root <= hi and _width_ok(lo, hi)


def test_empty_batch_returns_at_once():
    def f(x, i):
        raise AssertionError("f called on an empty batch")

    lo, hi = bracket_root(f, np.zeros(0), np.ones(0))
    assert lo.shape == hi.shape == (0,)
