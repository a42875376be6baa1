"""The benchmark workloads, driven through monopoly_control's public API.

pipeline and oracle are the workloads BENCHMARK.json gates; query and
sweep are diagnostics that run.py still runs on request (see Query and
Sweep).

Each workload has the same shape:

``setup()``
    work done once before the first timed op (parse and validate inputs;
    ``query`` also solves the models it queries);
``prepare(inp)``
    turn one generated input into the op's argument (untimed);
``run(arg)``
    the timed op;
``check(records)``
    correctness checks, run after the timed loop; returns a failure reason
    per op index;
``fingerprint(result)``
    the op's complete output as comparable bytes, used to show that the
    traced run computes exactly what the untraced run does;
``release(result)``
    drop what the op left behind (pipeline output directories).

Calls go through module attributes (``hamiltonian.build_hamiltonian``,
``cli.main``) so that the tracer's wrappers see them.
"""

from __future__ import annotations

import math
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from inputs import QUERY_MODELS, SHIPPED_CONFIGS
from monopoly_control import (
    ControlSet,
    Curve,
    ProblemSpec,
    cli,
    config,
    hamiltonian,
    oracle,
    problem,
    strategy,
    value,
)

# criterion-6 bounds on the realized profit gap of a simulated drawdown
PROFIT_GAP_RANGE = (-1e-6, 2e-3)
# criterion-1 tolerance on the cubic-family closed forms
CLOSED_FORM_RTOL = 1e-6
# an "optimal" static verdict needs |gap| within this share of max(1, |min H|)
VERDICT_GAP_RTOL = 1e-6
# criterion-5 bound on max |v_hat - v| over x <= 0.25, in units of
# max(1, |v(0)|): identical to the absolute 1e-2 of the acceptance gate on
# its instances, whose values stay below 1
ORACLE_VALUE_TOL = 1e-2
ORACLE_X_MAX = 0.5
ORACLE_CHECK_X = 0.25


@dataclass
class Record:
    """One attempted op: its input, argument, result or error, and time."""
    index: int
    block: int
    inp: dict
    arg: object
    result: object = None
    error: str | None = None
    seconds: float = 0.0


class Workload:
    """Defaults shared by the workloads: no set-up, nothing to release.

    ``block_seconds`` is the nominal time of one input block, measured on a
    2-vCPU Intel Xeon at 2.1 GHz; it sizes a run (see worker.block_count).
    """

    def __init__(self, root: Path, work_dir: Path):
        self.root = root
        self.work_dir = work_dir

    def setup(self) -> None:
        pass

    def release(self, result) -> None:
        pass


def _config_path(root: Path, name: str) -> Path:
    return root / "configs" / f"{name}.cfg"


def _floats_bytes(*values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


# ---------------------------------------------------------------------------


class Pipeline(Workload):
    """Solve a problem file as a CLI user does: ``solve`` then ``simulate``."""

    name = "pipeline"
    block_seconds = 2.15

    def setup(self) -> None:
        for name in SHIPPED_CONFIGS:
            problem.validate_problem(
                config.load_problem(_config_path(self.root, name)))

    def prepare(self, inp: dict) -> list:
        path = str(_config_path(self.root, inp["config"]))
        beta = f"problem.beta={inp['beta']!r}"
        return [["solve", path, "--set", beta],
                ["simulate", path, "--set", beta, "--x0", repr(inp["x0"])]]

    def run(self, argvs: list) -> dict:
        out = tempfile.mkdtemp(prefix="op-", dir=self.work_dir)
        codes = tuple(cli.main(argv + ["--out", out]) for argv in argvs)
        return {"codes": codes, "out": out}

    def check(self, records: list) -> dict:
        bad = {}
        for rec in records:
            if rec.error is not None:
                continue
            if rec.result["codes"] != (0, 0):
                bad[rec.index] = f"exit codes {rec.result['codes']}"
                continue
            summary = Path(rec.result["out"]) / "simulate_summary.txt"
            items = dict(line.split(" = ", 1)
                         for line in summary.read_text().splitlines())
            if "profit_gap" not in items:
                bad[rec.index] = "simulate reported no profit_gap"
                continue
            gap = float(items["profit_gap"])
            lo, hi = PROFIT_GAP_RANGE
            if not lo <= gap <= hi:
                bad[rec.index] = f"profit_gap {gap!r} outside [{lo}, {hi}]"
        return bad

    def fingerprint(self, result: dict) -> bytes:
        out = Path(result["out"])
        parts = [repr(result["codes"]).encode()]
        for f in sorted(out.iterdir()):
            parts += [f.name.encode(), f.read_bytes()]
        return b"\0".join(parts)

    def release(self, result) -> None:
        if result is not None:
            shutil.rmtree(result["out"], ignore_errors=True)


# ---------------------------------------------------------------------------


def _cubic_closed_forms(a: float, b: float, k: float) -> tuple:
    """(zeta, u_tilde) for (a - b q) q against x^3/3 - k x^2 + k^2 x.

    Three regimes split at k^2/4 and 3bk + k^2/4: shutdown, mixing on the
    hull's linear stretch, interior static rate on the convex branch.
    """
    t1 = k * k / 4.0
    t2 = 3.0 * b * k + t1
    if a <= t1:
        return a, 0.0
    if a <= t2:
        return t1, (a - t1) / (2.0 * b)
    root = math.sqrt(b * b - 2.0 * b * k + a)
    return (-b + root) ** 2, -b + k + root


class Sweep(Workload):
    """Solve many distinct problems to their stationary answers only.

    Not one of the gated workloads: its checks currently fail on about
    one op in ten, because the static verdict contradicts its gap on
    most finite production sets and ``convexified_static`` misses the
    closed-form u_tilde on some interior-static cubic instances.  The
    checks and inputs are kept as they are so the defects stay visible.
    """

    name = "sweep"
    block_seconds = 0.1

    def prepare(self, inp: dict):
        if inp["kind"] == "cubic":
            return problem.builtin_arvan_moses(inp["A"], inp["B"], inp["K"],
                                               beta=inp["beta"])
        prod = inp["production"]
        production = (ControlSet.finite(prod["finite"]) if "finite" in prod
                      else ControlSet.interval(*prod["interval"]))
        return ProblemSpec(
            beta=inp["beta"],
            demand_set=ControlSet.interval(0.0, inp["q_hi"]),
            production_set=production,
            revenue=Curve.table([tuple(p) for p in inp["revenue"]]),
            cost=Curve.table([tuple(p) for p in inp["cost"]]),
            grid_n=inp["grid_n"])

    def run(self, spec) -> dict:
        p = problem.validate_problem(spec)
        model = hamiltonian.build_hamiltonian(p)
        vf = value.build_value(model)
        report = strategy.static_optimality_test(p, model)
        u_tilde, relaxed_payoff = strategy.convexified_static(p, model)
        rel = strategy.relaxed_static(p, model, u_tilde)
        return {"sets": (p.demand_set, p.production_set),
                "zeta": model.zeta, "h_min": model.h_min,
                "report": report, "u_tilde": u_tilde,
                "relaxed_payoff": relaxed_payoff, "relaxed": rel,
                "v0": vf.value_at(0.0)}

    def check(self, records: list) -> dict:
        bad = {}
        for rec in records:
            if rec.error is not None:
                continue
            reason = self._verdict(rec.result)
            if reason is None and rec.inp["kind"] == "cubic":
                reason = self._closed_forms(rec.inp, rec.result)
            if reason is not None:
                bad[rec.index] = reason
        return bad

    @staticmethod
    def _verdict(res: dict) -> str | None:
        """optimal => gap ~ 0 and witness in Q n A; not optimal => gap > 0."""
        rep, (q_set, a_set) = res["report"], res["sets"]
        if not rep.optimal:
            return None if rep.gap > 0.0 else \
                f"not optimal but gap {rep.gap!r} <= 0"
        tol = VERDICT_GAP_RTOL * max(1.0, abs(res["h_min"]))
        if abs(rep.gap) > tol:
            return f"optimal but gap {rep.gap!r} exceeds {tol:.3g}"
        w = rep.witness
        if w is None or not (q_set.contains(w) and a_set.contains(w)):
            return f"optimal but witness {w!r} not in Q n A"
        return None

    @staticmethod
    def _closed_forms(inp: dict, res: dict) -> str | None:
        zeta_cf, u_cf = _cubic_closed_forms(inp["A"], inp["B"], inp["K"])
        for label, num, cf in (("zeta", res["zeta"], zeta_cf),
                               ("u_tilde", res["u_tilde"], u_cf)):
            err = abs(num - cf) / abs(cf) if cf != 0.0 else abs(num)
            if not err <= CLOSED_FORM_RTOL:
                return f"{label} {num!r} vs closed form {cf!r} (rel {err:.3g})"
        return None

    def fingerprint(self, res: dict) -> bytes:
        rep, rel = res["report"], res["relaxed"]
        w = math.nan if rep.witness is None else rep.witness
        return _floats_bytes(
            res["zeta"], res["h_min"], float(rep.optimal), rep.u_hat,
            rep.payoff, rep.gap, w, res["u_tilde"], res["relaxed_payoff"],
            rel.q1, rel.q2, rel.gamma, rel.a1, rel.a2, rel.nu, rel.payoff,
            res["v0"])


# ---------------------------------------------------------------------------


class Query(Workload):
    """Query solved models for v, v' and the controls at one stock level.

    Not one of the gated workloads: it is correct, but a third gated
    workload would leave room for runs too short to be steady on a shared
    2-vCPU machine.  Its scalar machinery (v' -> subgradient -> scalar
    conjugates) is also what pipeline's drawdown calls per knot.
    """

    name = "query"
    block_seconds = 0.004

    def __init__(self, root: Path, work_dir: Path):
        super().__init__(root, work_dir)
        self.models = {}

    def setup(self) -> None:
        for name in QUERY_MODELS:
            p = problem.validate_problem(
                config.load_problem(_config_path(self.root, name)))
            model = hamiltonian.build_hamiltonian(p)
            vf = value.build_value(model)
            self.models[name] = (model, vf, min(1.0, vf.x_resolved))

    def prepare(self, inp: dict):
        model, vf, x_cap = self.models[inp["model"]]
        x = inp["u"] * x_cap
        inp["x"] = x
        return model, vf, x

    def run(self, arg) -> tuple:
        model, vf, x = arg
        v = vf.value_at(x)
        d = vf.v_prime(x)
        a, q = hamiltonian.controls_at(model, d)
        return v, d, a, q

    def check(self, records: list) -> dict:
        """Per model, on the sorted query set: v non-decreasing, v'
        non-increasing and inside [0, zeta]."""
        bad = {}
        by_model = {}
        for rec in records:
            if rec.error is None:
                by_model.setdefault(rec.inp["model"], []).append(rec)
        for name, recs in by_model.items():
            zeta = self.models[name][1].zeta
            recs.sort(key=lambda r: r.inp["x"])
            prev = None
            for rec in recs:
                v, d = rec.result[0], rec.result[1]
                if not 0.0 <= d <= zeta:
                    bad[rec.index] = f"v'={d!r} outside [0, zeta={zeta!r}]"
                elif prev is not None and v < prev[0]:
                    bad[rec.index] = f"v decreases: {prev[0]!r} -> {v!r}"
                elif prev is not None and d > prev[1]:
                    bad[rec.index] = f"v' increases: {prev[1]!r} -> {d!r}"
                prev = (v, d)
        return bad

    def fingerprint(self, result: tuple) -> bytes:
        return _floats_bytes(*result)


# ---------------------------------------------------------------------------


class Oracle(Workload):
    """Certify one discrete-time value-iteration table per op."""

    name = "oracle"
    block_seconds = 6.1

    def __init__(self, root: Path, work_dir: Path):
        super().__init__(root, work_dir)
        self.problems = {}
        self._exact = {}

    def setup(self) -> None:
        for name in SHIPPED_CONFIGS:
            self.problems[name] = problem.validate_problem(
                config.load_problem(_config_path(self.root, name)))

    def prepare(self, inp: dict):
        return self.problems[inp["config"]]

    def run(self, p):
        return oracle.dp_value(p, x_max=ORACLE_X_MAX)

    def _analytic(self, name: str, xs: np.ndarray) -> tuple:
        """v on the oracle's grid points, and v(0); solved once per config."""
        if name not in self._exact:
            model = hamiltonian.build_hamiltonian(self.problems[name])
            vf = value.build_value(model)
            self._exact[name] = (np.array([vf.value_at(float(x)) for x in xs]),
                                 vf.value_at(0.0))
        return self._exact[name]

    def check(self, records: list) -> dict:
        bad = {}
        for rec in records:
            if rec.error is not None:
                continue
            dp = rec.result
            if not dp.fix_gap < 1e-9:
                bad[rec.index] = f"fix_gap {dp.fix_gap!r} not below 1e-9"
                continue
            xs = dp.x_grid[dp.x_grid <= ORACLE_CHECK_X + 1e-12]
            exact, v0 = self._analytic(rec.inp["config"], xs)
            err = float(np.max(np.abs(dp.value_at(xs) - exact)))
            tol = ORACLE_VALUE_TOL * max(1.0, abs(v0))
            if not err <= tol:
                bad[rec.index] = f"max |v_hat - v| = {err:.3g} above {tol:.3g}"
        return bad

    def fingerprint(self, dp) -> bytes:
        return b"".join([dp.x_grid.tobytes(), dp.v_hat.tobytes(),
                         dp.policy_produce.tobytes(), dp.policy_sell.tobytes(),
                         _floats_bytes(dp.iterations, dp.sup_change,
                                       dp.fix_gap)])


WORKLOADS = {w.name: w for w in (Pipeline, Sweep, Query, Oracle)}
