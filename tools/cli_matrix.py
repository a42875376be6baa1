"""Run a fixed matrix of CLI commands and keep every output.

    python tools/cli_matrix.py OUT SRC

For each config in SRC/../configs (the configs of the checkout that holds
SRC, so each checkout runs its own) at beta 0.5 and 1.3, runs `solve`,
`strategy --x0 0.2`, `strategy --x0 0.2 --eps 0.05`, `simulate --x0 0.2`,
`simulate --x0 0.1 --eps 0.05`, `oracle`, `compare --x0 0.25` and
`compare --x0 0.25 --eps 0.05` (80 runs) as `python -m monopoly_control.cli`,
with the package imported from SRC.
Each run gets a directory under OUT, which must not exist yet, holding the
files the command wrote and its stdout, stderr and exit_code.  A run
writes `--out .` from inside its directory, so no path of OUT reaches the
outputs, and two trees made from two checkouts of the package compare
with `diff -r`.  Children run with PYTHONDONTWRITEBYTECODE=1, so SRC gets
no bytecode.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

BETAS = ("0.5", "1.3")
COMMANDS = (
    ("solve",),
    ("strategy", "--x0", "0.2"),
    ("strategy", "--x0", "0.2", "--eps", "0.05"),
    ("simulate", "--x0", "0.2"),
    ("simulate", "--x0", "0.1", "--eps", "0.05"),
    ("oracle",),
    ("compare", "--x0", "0.25"),
    ("compare", "--x0", "0.25", "--eps", "0.05"),
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("out", type=Path, help="directory to create for the runs")
    ap.add_argument("src", type=Path, help="directory that holds the package")
    args = ap.parse_args()
    args.out.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(args.src.resolve()),
               PYTHONDONTWRITEBYTECODE="1")
    runs = 0
    for cfg in sorted((args.src.resolve().parent / "configs").glob("*.cfg")):
        for beta in BETAS:
            for cmd, *flags in COMMANDS:
                name = "_".join([cfg.stem, "beta" + beta, cmd]
                                + [f.lstrip("-") for f in flags])
                run = args.out / name
                run.mkdir()
                proc = subprocess.run(
                    [sys.executable, "-m", "monopoly_control.cli", cmd,
                     str(cfg), "--out", ".", "--set", f"problem.beta={beta}",
                     *flags],
                    cwd=run, env=env, capture_output=True)
                (run / "stdout").write_bytes(proc.stdout)
                (run / "stderr").write_bytes(proc.stderr)
                (run / "exit_code").write_text(f"{proc.returncode}\n")
                runs += 1
    files = sum(len(fs) for _, _, fs in os.walk(args.out))
    print(f"{runs} runs, {files} files under {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
