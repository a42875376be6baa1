"""The CSV writer every export goes through."""

import numpy as np

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
