"""Self-test of the benchmark in quick mode.

Usage (from the root of a checkout): python3 perfbench/selftest.py

Runs every workload once at reduced size, untraced and traced, and checks
that the result line names every metric of BENCHMARK.json with its unit,
that the output check passed, and that BENCHMARK.json matches the
workloads and metrics the benchmark defines.  Exits 1 on any mismatch.
"""

from __future__ import annotations

import json
import subprocess
import sys

from run import END_TO_END, PER_LAYER, ROOT
from workloads import WORKLOADS


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    if expected[0] != END_TO_END or expected[1] != PER_LAYER:
        problems.append("BENCHMARK.json metrics differ from run.py")
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [
                sys.executable, str(ROOT / "perfbench" / "run.py"), "--quick",
                "--workload", name, "--seed", "0", "--seconds", "1", "--trace", str(trace),
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            label = f"{name} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: output check failed\n{proc.stderr}")
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if units != expected[trace]:
                problems.append(f"{label}: metrics {sorted(units)} do not match BENCHMARK.json")
            print(f"{label}: ok, {result['attempted']} run(s)")
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
