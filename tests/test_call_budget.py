"""Solving a problem file reads the conjugate kernel a bounded number of
times.

``solve`` then ``simulate --x0 0.2`` runs in process on every shipped
config while the calls to ``envelope._conjugate`` and the slopes they read
are counted.  The counts are deterministic, so this counts rather than
times.  The call budgets are the counts of the current solver and the
slope budgets add a small margin: a change that brings back a redundant
batch of readings (a full slope table, a second reading of kept knots, a
separate controls batch, a second H at the stock already asked, the
drawdown reading more than its first cell) fails
here instead of only slowing the benchmark down.
"""

import numpy as np
import pytest

from monopoly_control import envelope
from monopoly_control.cli import main

# (kernel calls, slopes read) allowed for solve + simulate --x0 0.2
BUDGET = {
    "arvan_moses_high": (72, 16662),
    "arvan_moses_low": (60, 16882),
    "arvan_moses_mid": (58, 16882),
    "linear_cost": (64, 16640),
    "table_curves": (56, 16446),
}


@pytest.mark.parametrize("name", sorted(BUDGET))
def test_conjugate_readings_within_budget(name, configs_dir, tmp_path,
                                          monkeypatch):
    counts = [0, 0]
    kernel = envelope._conjugate

    def counted(env, w):
        counts[0] += 1
        counts[1] += np.size(w)
        return kernel(env, w)

    monkeypatch.setattr(envelope, "_conjugate", counted)
    cfg = str(configs_dir / f"{name}.cfg")
    assert main(["solve", cfg, "--out", str(tmp_path)]) == 0
    assert main(["simulate", cfg, "--x0", "0.2", "--out", str(tmp_path)]) == 0
    calls, slopes = BUDGET[name]
    assert counts[0] <= calls and counts[1] <= slopes, (name, counts)
