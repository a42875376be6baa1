"""Span tracing around monopoly_control's layer boundaries, from outside.

The tracer wraps public functions where other modules (or the benchmark)
call them: every name bound to the function in any ``monopoly_control``
module namespace is replaced, which covers imported aliases such as
``strategy._h_controls`` for ``hamiltonian.controls_at``.  It also wraps
the ``ValueFunction`` query methods and ``cli.main``.  Each call records a
span (name, start, end, parent span, op id) into flat arrays that stay in
memory until the run ends; ``uninstall`` restores every original binding.

A span's self time is its duration minus the durations of its direct
child spans.  Per-layer metrics are totals over the traced ops divided by
the number of ops.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import sys
from array import array
from time import perf_counter

import numpy as np

# (defining module, attribute, span name)
TRACED_FUNCTIONS = (
    ("config", "load_problem", "config.load_problem"),
    ("problem", "validate_problem", "problem.validate_problem"),
    ("envelope", "convex_hull", "envelope.hull"),
    ("envelope", "concave_hull", "envelope.hull"),
    ("envelope", "fenchel_cost", "envelope.conj"),
    ("envelope", "fenchel_revenue", "envelope.conj"),
    ("envelope", "fenchel_cost_grid", "envelope.conj_grid"),
    ("envelope", "fenchel_revenue_grid", "envelope.conj_grid"),
    ("envelope", "cost_argmax_grid", "envelope.conj_grid"),
    ("envelope", "revenue_argmax_grid", "envelope.conj_grid"),
    ("envelope", "contact_argmax_intervals", "envelope.decompose"),
    ("envelope", "hull_decompose", "envelope.decompose"),
    ("hamiltonian", "build_hamiltonian", "hamiltonian.build"),
    ("hamiltonian", "subgradient", "hamiltonian.subgradient"),
    ("hamiltonian", "h_at", "hamiltonian.h_at"),
    ("hamiltonian", "controls_at", "hamiltonian.controls"),
    ("value", "build_value", "value.build"),
    ("value", "write_value_csv", "value.csv"),
    ("strategy", "static_optimality_test", "strategy.static"),
    ("strategy", "convexified_static", "strategy.convexified"),
    ("strategy", "relaxed_static", "strategy.relaxed"),
    ("strategy", "drawdown_plan", "strategy.drawdown"),
    ("simulate", "simulate", "simulate.simulate"),
    ("simulate", "profit_gap", "simulate.profit_gap"),
    ("oracle", "dp_value", "oracle.dp"),
    ("cli", "main", "cli.main"),
    ("tableio", "write_csv", "tableio.write"),
    ("tableio", "write_keyvalues", "tableio.write"),
)
TRACED_METHODS = (
    ("value", "ValueFunction", "psi", "value.psi"),
    ("value", "ValueFunction", "v_prime", "value.v_prime"),
    ("value", "ValueFunction", "value_at", "value.value_at"),
)


def _dp_bytes_per_sweep(p, nx: int, dt: float, x_max: float, na: int,
                        nq: int) -> float:
    """Bytes one value-iteration sweep reads and writes, computed from the
    array sizes of ``oracle.dp_value``'s sweep (not measured).

    Per element of the (na, ny) production stage: 152 B for the
    interpolated gather ``v[ilo]*(1-w1) + v[ilo+1]*w1`` (index reads, the
    ``ilo+1`` temporary, two gathers, ``1-w1``, two products, the sum),
    49 B for ``where(feas, -c + gamma*vi, ...)`` and 8 B for the max.  Per
    element of the (nq, nx) sales stage: 152 B for the same gather, 16 B
    for the revenue add, 8 B for the max.  Plus 48 B per stock node for
    the increment and its extrema.
    """
    a_set, q_set = p.production_set, p.demand_set
    na = len(a_set.values) if a_set.kind == "finite" else na
    nq = len(q_set.values) if q_set.kind == "finite" else nq
    h = x_max / (nx - 1)
    ny = nx + int(math.ceil(q_set.hi * dt / h)) + 1
    return float((152 + 49 + 8) * na * ny + (152 + 16 + 8) * nq * nx + 48 * nx)


def _trunc_rounds(model) -> float:
    """Doublings of the production ceiling past its start, 2 (q_hi + 1)."""
    if model.trunc_bound is None:
        return 0.0
    q_hi = float(model.problem.q_grid[-1])
    return math.log2(model.trunc_bound / (2.0 * (q_hi + 1.0)))


def _dp_measures(args, kwargs, dp) -> dict:
    from monopoly_control.oracle import dp_value
    call = inspect.signature(dp_value).bind(*args, **kwargs)
    call.apply_defaults()
    a = call.arguments
    per_sweep = _dp_bytes_per_sweep(a["problem"], a["nx"], a["dt"],
                                    a["x_max"], a["na"], a["nq"])
    return {"oracle.sweeps": float(dp.iterations),
            "oracle.bytes": per_sweep * dp.iterations}


def _written(args, kwargs, out) -> dict:
    path = args[0] if args else kwargs["path"]
    return {"tableio.bytes_written": float(os.path.getsize(path))}


# counts taken from a call's arguments or result: span -> f(args, kwargs, out)
MEASURES = {
    "envelope.hull": lambda a, k, out: {"envelope.hull_points": float(len(a[0]))},
    "envelope.conj_grid": lambda a, k, out: {
        "envelope.conj_grid_points": float(np.size(a[1]))},
    "hamiltonian.build": lambda a, k, m: {"hamiltonian.trunc_rounds": _trunc_rounds(m)},
    "value.build": lambda a, k, vf: {"value.knots": float(len(vf.xi_knots))},
    "strategy.drawdown": lambda a, k, plan: {
        "strategy.drawdown_knots": float(len(getattr(plan, "t_knots", ())))},
    "simulate.simulate": lambda a, k, traj: {"simulate.points": float(len(traj.t))},
    "oracle.dp": _dp_measures,
    "tableio.write": _written,
}


class Tracer:
    """Records spans for every wrapped call while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.outer = array("b")
        self.measures: dict[str, float] = {}
        self.current_op = -1
        self._stack: list[int] = []
        self._depth: list[int] = []
        self._restore: list[tuple] = []

    # -- recording

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return self._ids[name]

    def wrap(self, fn, span: str):
        nid = self._id(span)
        measure = MEASURES.get(span)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.start)
            stack = tracer._stack
            tracer.name.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.op.append(tracer.current_op)
            tracer.outer.append(tracer._depth[nid] == 0)
            tracer.end.append(0.0)
            tracer._depth[nid] += 1
            stack.append(idx)
            tracer.start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = perf_counter()
                stack.pop()
                tracer._depth[nid] -= 1
            if measure is not None and tracer.current_op >= 0:
                totals = tracer.measures
                for key, val in measure(args, kwargs, out).items():
                    totals[key] = totals.get(key, 0.0) + val
            return out

        return traced

    # -- installation

    def install(self) -> None:
        """Wrap every traced function in every monopoly_control namespace."""
        defining = {name: importlib.import_module(f"monopoly_control.{name}")
                    for name, *_ in TRACED_FUNCTIONS + TRACED_METHODS}
        mods = [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == "monopoly_control"
                                      or n.startswith("monopoly_control."))]
        for mod_name, attr, span in TRACED_FUNCTIONS:
            orig = getattr(defining[mod_name], attr)
            wrapped = self.wrap(orig, span)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapped)
                        self._restore.append((mod, key, orig))
        for mod_name, cls_name, attr, span in TRACED_METHODS:
            cls = getattr(defining[mod_name], cls_name)
            orig = cls.__dict__[attr]
            setattr(cls, attr, self.wrap(orig, span))
            self._restore.append((cls, attr, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    # -- analysis

    def arrays(self) -> dict:
        n = len(self.start)
        return {
            "name": np.frombuffer(self.name, dtype=np.uint16, count=n),
            "start": np.frombuffer(self.start, dtype=float, count=n),
            "end": np.frombuffer(self.end, dtype=float, count=n),
            "parent": np.frombuffer(self.parent, dtype=np.int_, count=n),
            "op": np.frombuffer(self.op, dtype=np.int_, count=n),
            "outer": np.frombuffer(self.outer, dtype=np.int8, count=n) != 0,
        }

    def layer_metrics(self, n_ops: int) -> dict:
        """Per-op per-layer metrics over spans recorded inside ops."""
        a = self.arrays()
        dur, self_s = span_times(a["start"], a["end"], a["parent"])
        in_op = a["op"] >= 0
        ids = {name: i for i, name in enumerate(self.names)}

        def pick(span):
            return in_op & (a["name"] == ids[span]) if span in ids \
                else np.zeros(len(dur), dtype=bool)

        def calls(span):
            return float(np.count_nonzero(pick(span))) / n_ops

        def incl(span):
            return float(dur[pick(span) & a["outer"]].sum()) / n_ops

        def own(span):
            return float(self_s[pick(span)].sum()) / n_ops

        def measured(key):
            return self.measures.get(key, 0.0) / n_ops

        out = {
            "config.load_s": incl("config.load_problem"),
            "problem.validate_s": incl("problem.validate_problem"),
            "envelope.hull_calls": calls("envelope.hull"),
            "envelope.hull_points": measured("envelope.hull_points"),
            "envelope.hull_s": incl("envelope.hull"),
            "envelope.conj_calls": calls("envelope.conj"),
            "envelope.conj_s": incl("envelope.conj"),
            "envelope.conj_grid_points": measured("envelope.conj_grid_points"),
            "envelope.conj_grid_s": incl("envelope.conj_grid"),
            "envelope.decompose_s": incl("envelope.decompose"),
            "hamiltonian.build_calls": calls("hamiltonian.build"),
            "hamiltonian.build_self_s": own("hamiltonian.build"),
            "hamiltonian.trunc_rounds": measured("hamiltonian.trunc_rounds"),
            "hamiltonian.subgradient_calls": calls("hamiltonian.subgradient"),
            "hamiltonian.subgradient_s": incl("hamiltonian.subgradient"),
            "hamiltonian.h_at_calls": calls("hamiltonian.h_at"),
            "hamiltonian.controls_calls": calls("hamiltonian.controls"),
            "hamiltonian.controls_s": incl("hamiltonian.controls"),
            "value.build_s": incl("value.build"),
            "value.knots": measured("value.knots"),
            "value.psi_calls": calls("value.psi"),
            "value.psi_s": incl("value.psi"),
            "value.v_prime_calls": calls("value.v_prime"),
            "value.v_prime_s": incl("value.v_prime"),
            "value.value_at_s": incl("value.value_at"),
            "value.csv_s": incl("value.csv"),
            "strategy.static_s": incl("strategy.static"),
            "strategy.convexified_s": incl("strategy.convexified"),
            "strategy.relaxed_s": incl("strategy.relaxed"),
            "strategy.drawdown_self_s": own("strategy.drawdown"),
            "strategy.drawdown_knots": measured("strategy.drawdown_knots"),
            "simulate.simulate_s": incl("simulate.simulate"),
            "simulate.points": measured("simulate.points"),
            "simulate.profit_gap_s": incl("simulate.profit_gap"),
            "oracle.dp_s": incl("oracle.dp"),
            "oracle.sweeps": measured("oracle.sweeps"),
            "cli.main_s": incl("cli.main"),
            "tableio.write_s": incl("tableio.write"),
            "tableio.bytes_written": measured("tableio.bytes_written"),
        }
        sweeps = self.measures.get("oracle.sweeps", 0.0)
        out["oracle.sweep_ms"] = 1e3 * out["oracle.dp_s"] * n_ops / sweeps \
            if sweeps else 0.0
        out["oracle.bytes_per_sweep_computed"] = \
            self.measures.get("oracle.bytes", 0.0) / sweeps if sweeps else 0.0
        return out


def span_times(start, end, parent) -> tuple:
    """(duration, self time) per span; self = duration - direct children."""
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    parent = np.asarray(parent, dtype=np.int_)
    dur = end - start
    has = parent >= 0
    child = np.bincount(parent[has], weights=dur[has], minlength=len(dur))
    return dur, dur - child


def parse_importtime(text: str) -> dict:
    """Total and scipy import seconds from ``python -X importtime`` output.

    Lines are ``import time: self | cumulative | <indent>name`` in post
    order, two spaces of indent per nesting level.  ``total_s`` is the
    cumulative time of ``monopoly_control``; ``scipy_s`` sums the
    cumulative times of scipy modules that no other scipy module imported.
    """
    nodes = []          # (depth, name, cumulative_us, scipy ancestor?)
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cum, name = line[len("import time:"):].split("|", 2)
        try:
            cum_us = int(cum)
        except ValueError:
            continue        # the header line
        stripped = name.lstrip(" ")
        depth = (len(name) - len(stripped) - 1) // 2
        nodes.append((depth, stripped.strip(), cum_us))
    total = scipy = 0.0
    # children precede their parent; walk backwards keeping the chain of
    # open ancestors to know whether a scipy module sits under another
    chain: list[tuple[int, str]] = []
    for depth, name, cum_us in reversed(nodes):
        while chain and chain[-1][0] >= depth:
            chain.pop()
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(n == "scipy" or n.startswith("scipy.")
                                for _, n in chain):
            scipy += cum_us * 1e-6
        if name == "monopoly_control":
            total = cum_us * 1e-6
        chain.append((depth, name))
    return {"import.total_s": total, "import.scipy_s": scipy}
