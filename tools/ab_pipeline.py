"""Time two copies of the package against each other on perfbench's
pipeline inputs, op by op, in one process.

    python tools/ab_pipeline.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories that hold a monopoly_control package
(a checkout's src/).  Each package is copied, under a name of its own,
into a temporary directory and imported from there, so the two copies
live side by side.  The inputs are perfbench's `pipeline` blocks, and each
op's argv is the one perfbench's Pipeline.prepare builds (perfbench/ is
read and not changed): 8 blocks of seed 3, five ops each, an op being the
CLI's `solve` and then `simulate --x0` of a shipped config at a drawn
beta.  One untimed round warms both copies up; then 10 rounds run every
op through both copies, alternating which copy goes first from op to op
and from round to round.

Every op's exit codes and output files must be byte-identical between the
copies; the first difference is reported and the run exits 1.  The report
gives each side's median-of-means op time (per input the mean over the
rounds, then the median over the inputs), their ratio NEW/OLD, the ratio
of the two sides' mean op times, and on how many inputs each side was
faster.  Pass one SRC twice for an A/A run: its ratios are the tool's
noise floor.  On a 2-vCPU host three A/A runs read mean ratios 0.999 to
1.014 and median ratios 0.975 to 1.027.

Interleaving two copies in one process slows both sides (each evicts the
other's code and data from the caches), so the op times are not those of
a perfbench run.  Only the ratios mean anything.
"""

import contextlib
import importlib
import io
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("old", "new")
SEED, BLOCKS, ROUNDS = 3, 8, 10


def _pipeline_argvs() -> list:
    """perfbench's pipeline inputs as Pipeline.prepare turns them into
    argvs: BLOCKS blocks of seed SEED."""
    sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]
    inputs = importlib.import_module("inputs")
    prepare = importlib.import_module("workloads").Pipeline(ROOT, None).prepare
    stream = inputs.blocks("pipeline", SEED)
    return [prepare(inp) for _ in range(BLOCKS) for inp in next(stream)]


def _op(cli, argvs: list, out: Path) -> tuple:
    """(seconds, exit codes, {file name: bytes}) of one op into out."""
    out.mkdir()
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        codes = tuple(cli.main(argv + ["--out", str(out)]) for argv in argvs)
        dt = time.perf_counter() - t0
    files = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
    shutil.rmtree(out)
    return dt, codes, files


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    ops = _pipeline_argvs()
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        tmp = Path(tmp)
        for side, src in zip(SIDES, sys.argv[1:]):
            shutil.copytree(Path(src) / "monopoly_control", tmp / f"ab_{side}",
                            ignore=shutil.ignore_patterns("__pycache__"))
        sys.path.insert(0, str(tmp))
        clis = {side: importlib.import_module(f"ab_{side}.cli")
                for side in SIDES}
        times = {side: [[] for _ in ops] for side in SIDES}
        for rnd in range(ROUNDS + 1):
            for i, argvs in enumerate(ops):
                order = SIDES if (i + rnd) % 2 == 0 else SIDES[::-1]
                res = {side: _op(clis[side], argvs, tmp / f"op-{side}")
                       for side in order}
                if res["old"][1:] != res["new"][1:]:
                    print(f"outputs differ on input {i}: {argvs[1]}")
                    return 1
                if rnd:
                    for side in SIDES:
                        times[side][i].append(res[side][0])
    means = {side: [statistics.fmean(ts) for ts in times[side]]
             for side in SIDES}
    med = {side: statistics.median(means[side]) for side in SIDES}
    avg = {side: statistics.fmean(means[side]) for side in SIDES}
    wins = sum(n < o for o, n in zip(means["old"], means["new"]))
    print(f"{len(ops)} inputs (seed {SEED}) x {ROUNDS} rounds, "
          f"every output byte-identical")
    for side in SIDES:
        print(f"{side}: median-of-means {1e3 * med[side]:.3f} ms, "
              f"mean {1e3 * avg[side]:.3f} ms")
    print(f"ratio new/old: median {med['new'] / med['old']:.3f}, "
          f"mean {avg['new'] / avg['old']:.3f}")
    print(f"faster on: new {wins}, old {len(ops) - wins} inputs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
