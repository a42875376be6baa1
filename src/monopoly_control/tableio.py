"""Tiny CSV writer shared by the exporting modules.

Every export in this package goes through write_csv so that numbers are
always rendered with 17 significant digits (round-trip exact for float64)
and files are byte-identical across runs of the same inputs.
"""

from __future__ import annotations

import os
from typing import Sequence

import numpy as np

# rows formatted per write in write_csv
_CHUNK_ROWS = 4096


def fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_csv(path: str | os.PathLike, header: Sequence[str],
              columns: Sequence[Sequence[float]]) -> None:
    """Write columns of floats under a comma-separated header.

    Rows are formatted and written _CHUNK_ROWS at a time, so memory stays
    bounded however long the table is.
    """
    cols = [np.asarray(c, dtype=float) for c in columns]
    n = len(cols[0])
    if any(len(c) != n for c in cols):
        raise ValueError("columns differ in length")
    row = ",".join(["%.17g"] * len(cols))
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for s in range(0, n, _CHUNK_ROWS):
            chunk = zip(*(c[s:s + _CHUNK_ROWS].tolist() for c in cols))
            fh.write("\n".join([row % r for r in chunk]) + "\n")


def write_keyvalues(path: str | os.PathLike, items: Sequence[tuple[str, object]]) -> None:
    """Write `key = value` lines; floats get the 17-digit format."""
    lines = []
    for key, val in items:
        if isinstance(val, float):
            val = fmt(val)
        lines.append(f"{key} = {val}")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
