"""The CSV writer every export goes through."""

import tracemalloc

import numpy as np
import pytest

from monopoly_control import tableio


def _one_string_csv(path, header, columns):
    # the writer as it was before chunking: the whole file as one string
    cols = [np.asarray(c, dtype=float).tolist() for c in columns]
    row = ",".join(["%.17g"] * len(cols))
    lines = [",".join(header)] + [row % r for r in zip(*cols)]
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def test_chunked_csv_bytes_match_one_string(tmp_path):
    n = 3 * tableio._CHUNK_ROWS + 17
    rng = np.random.default_rng(3)
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e-300]
    a = rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, n)
    a[rng.choice(n, len(special), replace=False)] = special
    cols = [a, rng.uniform(size=n), np.arange(n, dtype=float)]
    for rows in (n, tableio._CHUNK_ROWS, 5, 0):
        part = [c[:rows] for c in cols]
        tableio.write_csv(tmp_path / "new.csv", ["a", "b", "c"], part)
        _one_string_csv(tmp_path / "old.csv", ["a", "b", "c"], part)
        assert (tmp_path / "new.csv").read_bytes() == \
            (tmp_path / "old.csv").read_bytes()


def test_write_csv_refuses_unequal_columns(tmp_path):
    with pytest.raises(ValueError, match="columns differ in length"):
        tableio.write_csv(tmp_path / "u.csv", ["a", "b"], [[1.0, 2.0], [3.0]])
    assert not (tmp_path / "u.csv").exists()


def _assert_same(got: bytes, want: bytes):
    # report the first differing line instead of two megabyte strings
    if got != want:
        g, w = got.split(b"\n"), want.split(b"\n")
        k = next((i for i, (a, b) in enumerate(zip(g, w)) if a != b),
                 min(len(g), len(w)))
        pytest.fail(f"line {k}: {g[k:k + 1]!r} != {w[k:k + 1]!r}")


def _check(tmp_path, reference_csv, values, ncol=4):
    """Write values as rows of ncol columns; compare with the % loop."""
    values = np.asarray(values, dtype=float)
    values = np.concatenate([values, np.full(-len(values) % ncol, 0.5)])
    cols = list(values.reshape(-1, ncol).T)
    header = [f"c{j}" for j in range(ncol)]
    tableio.write_csv(tmp_path / "k.csv", header, cols)
    _assert_same((tmp_path / "k.csv").read_bytes(), reference_csv(header, cols))


def test_kernel_matches_format_on_random_bit_patterns(tmp_path, reference_csv):
    # 1,001,472 doubles: every biased exponent (subnormals, 0, inf and nan
    # included) 489 times, with random significands and signs
    rng = np.random.default_rng(13)
    expo = np.tile(np.arange(2048, dtype=np.uint64), 489)
    bits = (rng.integers(0, 2 ** 52, expo.size, dtype=np.uint64)
            | (expo << np.uint64(52))
            | (rng.integers(0, 2, expo.size, dtype=np.uint64) << np.uint64(63)))
    _check(tmp_path, reference_csv, bits.view(np.float64), ncol=16)


def test_kernel_at_powers_of_ten_and_notation_edges(tmp_path, reference_csv):
    tens = np.array([float(f"1e{k}") for k in range(-300, 301)]
                    + [1e-5, 1e-4, 1e16, 1e17, 9.5e-5, 9.9999999999999995e-5,
                       9.9999999999999998e15, 99999999999999984.0, 0.001])
    near = np.concatenate([tens, np.nextafter(tens, 0.0),
                           np.nextafter(tens, np.inf)])
    _check(tmp_path, reference_csv, np.concatenate([near, -near]), ncol=3)


def test_kernel_at_decimal_ties_and_specials(tmp_path, reference_csv):
    rng = np.random.default_rng(29)
    # m / 2**j with m odd and m * 5**j of 18 digits: exact ties at the
    # 17th digit, and their neighbours
    ties = []
    for j in range(3, 26):
        lo, hi = -(-10 ** 17 // 5 ** j), 10 ** 18 // 5 ** j
        for m in rng.integers(lo, hi, 40).tolist():
            m |= 1
            if len(str(m * 5 ** j)) == 18:
                ties.append(m / 2 ** j)
    ties = np.array(ties)
    assert len(ties) > 500
    # integers above 2**53, and quarter steps above 2**50 (x.25 and x.75
    # are ties at the 17th digit)
    big = (rng.integers(2 ** 52, 2 ** 53, 2000).astype(float)
           * 2.0 ** rng.integers(1, 70, 2000))
    quarter = 2.0 ** 50 + rng.integers(0, 2 ** 40, 2000) + 0.25 * rng.integers(0, 4, 2000)
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
               2.2250738585072014e-308, 1.7976931348623157e308, 1e-280,
               1e280, 0.1, 0.5, 1.0, 10.0, 123.0]
    values = np.concatenate([ties, np.nextafter(ties, 0.0),
                             np.nextafter(ties, np.inf), big, quarter, special])
    _check(tmp_path, reference_csv, np.concatenate([values, -values]), ncol=5)


@pytest.mark.parametrize("shape", [(1, 1), (7, 1), (1, 6), (0, 3), (0, 1),
                                   (tableio._CHUNK_ROWS - 1, 2),
                                   (tableio._CHUNK_ROWS, 2),
                                   (tableio._CHUNK_ROWS + 1, 2),
                                   (2 * tableio._CHUNK_ROWS + 3, 1)])
def test_kernel_table_shapes(tmp_path, reference_csv, shape):
    rows, ncol = shape
    rng = np.random.default_rng(rows * 7 + ncol)
    cols = list(rng.normal(size=(ncol, rows)) * 10.0 ** rng.integers(-8, 20, (ncol, rows)))
    header = [f"h{j}" for j in range(ncol)]
    tableio.write_csv(tmp_path / "s.csv", header, cols)
    _assert_same((tmp_path / "s.csv").read_bytes(), reference_csv(header, cols))


def test_kernel_writes_ordinary_numbers_itself(tmp_path, monkeypatch):
    # the format() guard must catch only what the certificate rejects:
    # ordinary numbers never reach it; inf, nan, subnormals and magnitudes
    # past 1e280 always do.  (Exact decimal ties also reach it; with a full
    # 53-bit significand they need |x| in [1e14, 1e17), so those are left
    # out of the ordinary numbers.)
    calls = []

    def counting(value, spec):
        calls.append(value)
        return format(value, spec)

    monkeypatch.setattr(tableio, "format", counting, raising=False)
    rng = np.random.default_rng(5)
    exps = rng.integers(-250, 250, 20000)
    exps = np.where((exps >= 13) & (exps <= 17), exps - 20, exps)
    ordinary = rng.normal(size=20000) * 10.0 ** exps
    ordinary[::97] = 0.0
    tableio.write_csv(tmp_path / "o.csv", ["a", "b"], list(ordinary.reshape(2, -1)))
    assert calls == []
    guarded = [np.inf, -np.inf, np.nan, 5e-324, 1e-300, 1e300]
    tableio.write_csv(tmp_path / "g.csv", ["a"], [guarded + [1.5, -0.0]])
    assert len(calls) == len(guarded)


@pytest.mark.parametrize("shift", [-1.0, 1.0])
def test_kernel_survives_an_exponent_off_by_one(tmp_path, reference_csv,
                                               monkeypatch, shift):
    # log10 may land on the wrong side of a power of ten; with every
    # exponent one off, the certificate must send each element to format()
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: log10(a) + shift)
    rng = np.random.default_rng(3)
    values = rng.normal(size=600) * 10.0 ** rng.integers(-30, 30, 600)
    _check(tmp_path, reference_csv, values, ncol=3)


def test_write_csv_memory_is_bounded(tmp_path):
    # a 200k x 5 table; the columns exist before tracing starts, so the
    # peak is the writer's own: chunks, not the table
    rng = np.random.default_rng(11)
    cols = list(rng.normal(size=(5, 200_000)))
    tracemalloc.start()
    try:
        tableio.write_csv(tmp_path / "m.csv", list("abcde"), cols)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20, peak
