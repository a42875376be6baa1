"""Tiny CSV writer shared by the exporting modules.

Every export in this package goes through write_csv so that numbers are
always rendered with 17 significant digits (round-trip exact for float64)
and files are byte-identical across runs of the same inputs.
"""

from __future__ import annotations

import os
from typing import Sequence

import numpy as np


def fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_csv(path: str | os.PathLike, header: Sequence[str],
              columns: Sequence[Sequence[float]]) -> None:
    """Write columns of floats under a comma-separated header."""
    cols = [np.asarray(c, dtype=float).tolist() for c in columns]
    n = len(cols[0])
    if any(len(c) != n for c in cols):
        raise ValueError("columns differ in length")
    row = ",".join(["%.17g"] * len(cols))
    lines = [",".join(header)] + [row % r for r in zip(*cols)]
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_keyvalues(path: str | os.PathLike, items: Sequence[tuple[str, object]]) -> None:
    """Write `key = value` lines; floats get the 17-digit format."""
    lines = []
    for key, val in items:
        if isinstance(val, float):
            val = fmt(val)
        lines.append(f"{key} = {val}")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
