"""Capture the reference CSVs that the benchmark checks its runs against.

Usage (from the root of a checkout): python3 perfbench/capture.py [WORKLOAD...]

Runs every workload once per program seed, at full and at quick size,
through the same set-up and command line as the timed runs, and stores the
CSVs under perfbench/reference/.  Capture on the commit that defines the
reference; later commits are checked against it.
"""

from __future__ import annotations

import shutil
import sys

from run import RUN_CODE, Bench, reference_paths, timed
from workloads import SEEDS, WORKLOADS


def capture(name: str, seed: int, quick: bool) -> None:
    wl = WORKLOADS[name]
    bench = Bench(wl, seed, quick)
    try:
        bench.setup(1)
        out = bench.work / "out.csv"
        cmd = [sys.executable, "-c", RUN_CODE, *bench.argv(out)]
        wall, _, _, code = timed(cmd, bench.env, bench.work / "err.txt")
        if code != 0:
            raise SystemExit(
                f"{name} seed {seed}: exit {code}\n{(bench.work / 'err.txt').read_text()}"
            )
        refs = reference_paths(wl, seed, quick)
        refs[0].parent.mkdir(parents=True, exist_ok=True)
        for src, dst in zip(bench.outputs(out), refs):
            shutil.copyfile(src, dst)
        print(f"{name} seed {seed}{' quick' if quick else ''}: {wall:.2f} s -> {refs[0].name}")
    finally:
        bench.close()


def main() -> None:
    for name in sys.argv[1:] or list(WORKLOADS):
        for quick in (True, False):
            for seed in range(SEEDS):
                capture(name, seed, quick)


if __name__ == "__main__":
    main()
