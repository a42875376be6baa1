"""One workload in one fresh interpreter; started by run.py.

Modes:

``setup``  import monopoly_control, do the workload's set-up, report the
           time since the parent launched this process, and exit;
``run``    the same, then the timed passes over --seconds (see
           ``timed_passes``) and the correctness checks: the untraced,
           end-to-end run;
``trace``  set up, run an untraced pass for half of --seconds, then replay
           the same ops with the tracer installed for at most the other
           half, compare every replayed result bit for bit with its
           untraced twin, and derive the per-layer metrics.

The result goes to --result as JSON.  Run from the root of a checkout
with ./src on PYTHONPATH; the package must come from there.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import inputs
import monopoly_control
from spans import Tracer
from workloads import WORKLOADS, Record


def _check_program(root: Path) -> None:
    where = Path(monopoly_control.__file__).resolve()
    if (root / "src").resolve() not in where.parents:
        raise SystemExit(f"monopoly_control imported from {where}, "
                         f"not from {root / 'src'}")


def machine() -> dict:
    import numpy
    import scipy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": cpu,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas_threads": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                              "MKL_NUM_THREADS")}}


PASSES = 4   # every op input runs this many times; its time is the median


def run_pass(wl, blocks, budget: float, tracer=None):
    """Closed loop over whole blocks: each op starts when the previous one
    returns.  Stops at the block boundary nearest to ``budget`` seconds
    (after at least one block).  Returns (records, wall seconds)."""
    records = []
    t_start = time.perf_counter()
    for b, block in enumerate(blocks):
        for inp in block:
            rec = Record(index=len(records), block=b, inp=inp,
                         arg=wl.prepare(inp))
            if tracer is not None:
                tracer.current_op = rec.index
            t0 = time.perf_counter()
            try:
                rec.result = wl.run(rec.arg)
            except Exception as exc:  # an op failure is data, not a crash
                rec.error = f"{type(exc).__name__}: {exc}"
            rec.seconds = time.perf_counter() - t0
            if tracer is not None:
                tracer.current_op = -1
            records.append(rec)
        elapsed = time.perf_counter() - t_start
        if elapsed + 0.5 * elapsed / (b + 1) >= budget:
            break
    return records, time.perf_counter() - t_start


def replay_blocks(records) -> list:
    """The input blocks a pass ran, for running them again."""
    out = []
    for rec in records:
        if rec.block == len(out):
            out.append([])
        out[-1].append(dict(rec.inp))
    return out


def _same(wl, a, b) -> bool:
    if a.error is not None or b.error is not None:
        return a.error == b.error
    return wl.fingerprint(a.result) == wl.fingerprint(b.result)


def failures(wl, records) -> dict:
    bad = {r.index: r.error for r in records if r.error is not None}
    bad.update(wl.check(records))
    return bad


def block_count(wl, seconds: float, passes: int = PASSES) -> int:
    """Input blocks per pass: the number that fills seconds/passes at the
    workload's nominal block time, at least one.  The count is fixed in
    advance, not measured, so every run of a seed does the same work
    however fast the machine or the program is at that moment."""
    return max(1, round(seconds / passes / wl.block_seconds))


def timed_passes(wl, blocks, seconds: float, passes: int = PASSES) -> dict:
    """The end-to-end measurement.

    The first pass runs ``block_count`` fresh input blocks; the remaining
    passes run the same inputs again.  Each input's op time is its mean
    over the passes, and ops_per_s is all ops over all passes divided by
    their wall time.  Means, not medians over passes: the machine's speed
    drifts over tens of seconds rather than jumping for single ops, and on
    sets of runs the means spread less.  The first pass is checked for
    correctness; every later result must equal it bit for bit.
    """
    first, wall = run_pass(
        wl, itertools.islice(blocks, block_count(wl, seconds, passes)),
        math.inf)
    bad = failures(wl, first)
    per_op = [[r.seconds] for r in first]
    walls = [wall]
    again = replay_blocks(first)
    for _ in range(passes - 1):
        recs, wall = run_pass(wl, iter(again), math.inf)
        walls.append(wall)
        for a, b in zip(first, recs):
            per_op[a.index].append(b.seconds)
            if a.index not in bad and not _same(wl, a, b):
                bad[a.index] = "result differs between passes"
            wl.release(b.result)
    for rec in first:
        wl.release(rec.result)

    times = [statistics.fmean(t) for t in per_op]
    p90 = statistics.quantiles(times, n=10, method="inclusive")[-1] \
        if len(times) >= 2 else times[0]
    beyond = sum(t > p90 for t in times)
    return {
        "records": first,
        "bad": bad,
        "per_op_seconds": per_op,
        "metrics": {
            "op_p50_ms": 1e3 * statistics.median(times),
            "op_p90_ms": 1e3 * p90 if beyond >= 10 else None,
            "samples": len(times),
            "samples_beyond_p90": beyond,
            "ops_per_s": len(first) * passes / sum(walls),
            "pass_ops_per_s": [len(first) / w for w in walls],
            "error_rate": len(bad) / len(times),
            # ru_maxrss is in KiB on Linux
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0,
        },
    }


def trace_run(wl, blocks, seconds: float) -> tuple:
    """Untraced pass, then the same ops traced; returns (records, layer, bad).

    The traced replay stops after about seconds/2 as well, so it may cover
    a prefix of the untraced ops; overhead compares the same prefix.
    """
    plain, _ = run_pass(wl, blocks, seconds / 2.0)
    tracer = Tracer()
    tracer.install()
    try:
        traced, _ = run_pass(wl, iter(replay_blocks(plain)), seconds / 2.0,
                             tracer=tracer)
    finally:
        tracer.uninstall()
    n = len(traced)
    bad = failures(wl, plain)
    for a, b in zip(plain, traced):
        if a.index not in bad and not _same(wl, a, b):
            bad[a.index] = "traced result differs from untraced"
    layer = tracer.layer_metrics(n)
    t_plain = sum(r.seconds for r in plain[:n])
    t_traced = sum(r.seconds for r in traced)
    layer["trace.untraced_ops_per_s"] = n / t_plain
    layer["trace.traced_ops_per_s"] = n / t_traced
    layer["trace.overhead_frac"] = t_traced / t_plain - 1.0
    layer["trace.spans_per_op"] = len(tracer.start) / n
    for rec in plain + traced:
        wl.release(rec.result)
    return plain, layer, bad


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--t-launch", type=float, required=True,
                    help="parent's time.monotonic() just before launch")
    ap.add_argument("--result", required=True)
    ap.add_argument("--work-dir", required=True)
    args = ap.parse_args(argv)

    root = Path.cwd()
    _check_program(root)
    wl = WORKLOADS[args.workload](root, Path(args.work_dir))
    wl.setup()
    setup_s = time.monotonic() - args.t_launch

    out = {"setup_s": setup_s}
    if args.mode != "setup":
        blocks = inputs.blocks(args.workload, args.seed)
        if args.mode == "run":
            got = timed_passes(wl, blocks, args.seconds)
            records, bad = got["records"], got["bad"]
            out["end_to_end"] = got["metrics"]
            out["op_ms_per_pass"] = [[1e3 * t for t in ts]
                                     for ts in got["per_op_seconds"]]
        else:
            records, layer, bad = trace_run(wl, blocks, args.seconds)
            out["per_layer"] = layer
        out.update({
            "machine": machine(),
            "attempted": len(records),
            "failed": len(bad),
            "failures": {str(k): v for k, v in sorted(bad.items())},
            "inputs": [dict(r.inp, block=r.block) for r in records],
        })
    Path(args.result).write_text(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
