"""Seeded input generators for the benchmark workloads.

Every generator draws one *block* of op inputs from a numpy Generator and
returns plain JSON-ready dicts, so a run can record exactly what the
program was fed.  Blocks are stratified: each holds every shipped config
(pipeline, oracle) or every query model once, in a seeded order, and a
sweep block holds three cubic instances and one table instance.  A run
stops only at a block boundary, so every run measures the same mix and
the seed moves the parameters, not the proportions.

Nothing here imports monopoly_control: the program sees only what these
functions return.
"""

from __future__ import annotations

import numpy as np

SHIPPED_CONFIGS = ("arvan_moses_high", "arvan_moses_low", "arvan_moses_mid",
                   "linear_cost", "table_curves")
QUERY_MODELS = ("arvan_moses_mid", "linear_cost", "table_curves")

# beta range of the randomized acceptance batteries
BETA_RANGE = (0.3, 1.5)
# cubic family: A and B span the criterion-1 triples, K the criterion-2 sweep
CUBIC_RANGES = {"A": (0.1, 6.0), "B": (0.4, 2.0), "K": (0.2, 2.0)}
TABLE_GRID_N = 257


def _order(rng: np.random.Generator, names) -> list:
    return [names[int(i)] for i in rng.permutation(len(names))]


def pipeline_block(rng: np.random.Generator) -> list:
    """One solve+simulate per shipped config: beta in [0.3, 1.5], x0 in (0, 0.5]."""
    return [{"config": name,
             "beta": float(rng.uniform(*BETA_RANGE)),
             "x0": float(0.5 * (1.0 - rng.random()))}
            for name in _order(rng, SHIPPED_CONFIGS)]


def cubic_instance(rng: np.random.Generator) -> dict:
    """Linear demand against the cubic cost on a production ray."""
    params = {k: float(rng.uniform(*CUBIC_RANGES[k])) for k in ("A", "B", "K")}
    return {"kind": "cubic", **params, "beta": float(rng.uniform(*BETA_RANGE))}


def table_instance(rng: np.random.Generator) -> dict:
    """Random bounded table problem, drawn like the test suite's
    ``random_table_instance`` (same distributions, same draw order),
    including its ~25% finite production sets."""
    beta = float(rng.uniform(0.3, 1.5))
    q_hi = float(rng.uniform(0.5, 2.0))
    a_hi = float(rng.uniform(0.5, 2.5))

    n_r = int(rng.integers(4, 10))
    r_xs = np.unique(np.concatenate(
        [[0.0], np.sort(rng.uniform(0.0, q_hi, n_r - 2)), [q_hi]]))
    r_ys = np.concatenate([[0.0], rng.uniform(0.0, 1.2, len(r_xs) - 1)])

    n_c = int(rng.integers(4, 10))
    c_xs = np.unique(np.concatenate(
        [[0.0], np.sort(rng.uniform(0.0, a_hi, n_c - 2)), [a_hi]]))
    c_ys = np.concatenate([[0.0],
                           np.cumsum(rng.uniform(0.0, 0.6, len(c_xs) - 1))])

    production = {"interval": [0.0, a_hi]}
    if rng.uniform() < 0.25:
        vals = np.unique(np.concatenate([[0.0], rng.uniform(0.0, a_hi, 4)]))
        if len(vals) >= 2:
            production = {"finite": vals.tolist()}

    return {"kind": "table", "beta": beta, "q_hi": q_hi,
            "revenue": np.column_stack([r_xs, r_ys]).tolist(),
            "cost": np.column_stack([c_xs, c_ys]).tolist(),
            "production": production, "grid_n": TABLE_GRID_N}


def sweep_block(rng: np.random.Generator) -> list:
    """Three cubic instances and one table instance, in a seeded order."""
    kinds = _order(rng, ("cubic", "cubic", "cubic", "table"))
    return [cubic_instance(rng) if k == "cubic" else table_instance(rng)
            for k in kinds]


def query_block(rng: np.random.Generator) -> list:
    """One stock level per query model, as a fraction u in (0, 1) of
    min(1, x_resolved); the worker turns u into x once the model is solved."""
    return [{"model": name, "u": float(rng.uniform(np.nextafter(0.0, 1.0), 1.0))}
            for name in _order(rng, QUERY_MODELS)]


def oracle_block(rng: np.random.Generator) -> list:
    """Every shipped config once, in a seeded order."""
    return [{"config": name} for name in _order(rng, SHIPPED_CONFIGS)]


BLOCKS = {
    "pipeline": pipeline_block,
    "sweep": sweep_block,
    "query": query_block,
    "oracle": oracle_block,
}


def blocks(workload: str, seed: int):
    """Endless, deterministic stream of input blocks for one workload."""
    make = BLOCKS[workload]
    rng = np.random.default_rng(seed)
    while True:
        yield make(rng)
