#!/usr/bin/env python3
"""Benchmark for monopoly_control: seeded workloads, end to end and per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 40 --trace 0

``--workload`` is pipeline, oracle, or all (both).  ``query`` and ``sweep``
are diagnostics outside BENCHMARK.json (see perfbench/README.md); sweep's
checks fail on known solver defects, so it reports ``correct: false``.  With
``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` a separate traced run reports the per-layer metrics and the
tracing overhead.  Each workload runs in its own fresh interpreter with
BLAS/OpenMP pinned to one thread, as a closed loop on one thread.  A
human-readable report comes first; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
full record (machine, generated inputs, per-op times, failures) is written
under .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import parse_importtime

HERE = Path(__file__).resolve().parent
WORKLOADS = ("pipeline", "oracle")     # the ones BENCHMARK.json gates
DIAGNOSTICS = ("query", "sweep")
SETUP_SAMPLES = 7       # fresh interpreters per run; setup_s is their median
IMPORTTIME_SAMPLES = 3
DEADLINE_S = 170.0      # per workload, so a run ends within 180 s


class BenchError(Exception):
    pass


def _child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Runner:
    def __init__(self, root: Path, seconds: float, deadline: float):
        self.root = root
        self.seconds = seconds
        self.deadline = deadline
        self.env = _child_env(root)
        self.out_dir = root / ".perfbench_out"
        self.out_dir.mkdir(exist_ok=True)
        self.work_dir = self.out_dir / f"work-{os.getpid()}"

    def _remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0.0:
            raise BenchError(f"run exceeded {DEADLINE_S:.0f} s")
        return left

    def _worker(self, workload: str, seed: int, mode: str) -> dict:
        result = self.work_dir / f"{workload}-{mode}.json"
        result.unlink(missing_ok=True)
        t_launch = time.monotonic()
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", repr(self.seconds), "--mode", mode,
               "--t-launch", repr(t_launch), "--result", str(result),
               "--work-dir", str(self.work_dir)]
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env,
                                  stdout=subprocess.DEVNULL,
                                  timeout=self._remaining())
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{workload} {mode} worker timed out") from exc
        if proc.returncode != 0 or not result.is_file():
            raise BenchError(f"{workload} {mode} worker exited with "
                             f"{proc.returncode}")
        return json.loads(result.read_text())

    def _importtime(self) -> dict:
        samples = []
        for _ in range(IMPORTTIME_SAMPLES):
            try:
                proc = subprocess.run(
                    [sys.executable, "-X", "importtime", "-c",
                     "import monopoly_control"],
                    cwd=self.root, env=self.env, capture_output=True,
                    text=True, timeout=self._remaining())
            except subprocess.TimeoutExpired as exc:
                raise BenchError("import timing timed out") from exc
            if proc.returncode != 0:
                raise BenchError("import monopoly_control failed:\n"
                                 + proc.stderr[-2000:])
            samples.append(parse_importtime(proc.stderr))
        return {k: statistics.median(s[k] for s in samples)
                for k in samples[0]}

    def run(self, workload: str, seed: int, trace: bool) -> dict:
        self.work_dir.mkdir(exist_ok=True)
        try:
            if trace:
                imports = self._importtime()
                rec = self._worker(workload, seed, "trace")
                rec["per_layer"].update(imports)
                rec["metrics"] = rec["per_layer"]
            else:
                setups = [self._worker(workload, seed, "setup")["setup_s"]
                          for _ in range(SETUP_SAMPLES - 1)]
                rec = self._worker(workload, seed, "run")
                setups.append(rec["setup_s"])
                rec["setup_samples"] = setups
                rec["metrics"] = dict(rec["end_to_end"],
                                      setup_s=statistics.median(setups))
        finally:
            shutil.rmtree(self.work_dir, ignore_errors=True)
        rec.update(workload=workload, seed=seed, seconds=self.seconds,
                   trace=int(trace))
        path = self.out_dir / f"{workload}-seed{seed}-trace{int(trace)}.json"
        path.write_text(json.dumps(rec, indent=1))
        rec["record_path"] = str(path.relative_to(self.root))
        return rec


def _report(rec: dict, specs: list) -> dict:
    """Print one workload's metrics; return the gated ones."""
    m = rec["metrics"]
    mach = rec["machine"]
    print(f"perfbench workload={rec['workload']} seed={rec['seed']} "
          f"seconds={rec['seconds']:g} trace={rec['trace']}")
    print(f"  machine: nproc={mach['nproc']} usable={mach['usable_cpus']} "
          f"cpu={mach['cpu_model']!r} python={mach['python']} "
          f"numpy={mach['numpy']} scipy={mach['scipy']} "
          f"blas/omp threads=1")
    gated = {}
    for spec in specs:
        name, unit = spec["name"], spec["unit"]
        if name not in m or m[name] is None:
            raise BenchError(f"metric {name} missing from the run")
        gated[name] = {"value": float(m[name]), "unit": unit}
        print(f"  {name:34s} {m[name]:>14.6g} {unit}")
    if not rec["trace"]:
        # printed but not gated: op_p90_ms needs 10 samples beyond it, and
        # error_rate is 0 on a healthy workload (gated as attempted/failed)
        n = m["samples"]
        if m["op_p90_ms"] is None:
            print(f"  {'op_p90_ms':34s} {'omitted':>14s}    "
                  f"({m['samples_beyond_p90']} of {n} samples beyond p90, "
                  f"fewer than 10)")
        else:
            print(f"  {'op_p90_ms':34s} {m['op_p90_ms']:>14.6g} ms    "
                  f"({m['samples_beyond_p90']} of {n} samples beyond)")
        print(f"  {'error_rate':34s} {m['error_rate']:>14.6g} fraction "
              f"({rec['failed']} of {rec['attempted']} ops failed)")
        print("  ops_per_s per pass: "
              + " ".join(f"{r:.6g}" for r in m["pass_ops_per_s"]))
        print("  setup_s samples (s): "
              + " ".join(f"{s:.4f}" for s in rec["setup_samples"]))
    for idx, why in list(rec["failures"].items())[:5]:
        print(f"  failed op {idx}: {why}")
    if rec["failed"] > 5:
        print(f"  ... {rec['failed'] - 5} more failures in the record")
    print(f"  record: {rec['record_path']}")
    return gated


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + DIAGNOSTICS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="timed-loop length; whole input blocks run, "
                         "at least one")
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    root = Path.cwd()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + DEADLINE_S * len(names)
    try:
        for need in ("BENCHMARK.json", "src/monopoly_control/__init__.py",
                     "configs"):
            if not (root / need).exists():
                raise BenchError(f"{need} not found; run from the root of a "
                                 f"monopoly-control checkout")
        bench = json.loads((root / "BENCHMARK.json").read_text())
        specs = bench["per_layer"] if args.trace else bench["end_to_end"]
        runner = Runner(root, args.seconds, deadline)
        results = [runner.run(w, args.seed, bool(args.trace)) for w in names]
        gated = [_report(rec, specs) for rec in results]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if len(names) == 1:
        metrics = gated[0]
    else:
        metrics = {f"{w}.{k}": v for w, g in zip(names, gated)
                   for k, v in g.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
