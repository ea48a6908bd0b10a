"""The symdom benchmark: fixed CLI workloads, timed end to end.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--quick]

Each run of the program is a fresh ``symdom`` process, started only after
the previous one ended (a closed loop with one client), so the in-process
caches start empty and the import is paid as users pay it.  Runs repeat
until ``--seconds`` have passed, and at least ``MIN_RUNS`` times.  Every
run's CSV is checked against the reference captured for its seed.

``--trace 0`` reports the end-to-end metrics of untraced runs.  ``--trace
1`` alternates untraced runs with runs under ``traced.py`` and reports
per-layer self times and counts, and the tracing overhead.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from check import CheckResult, check_outputs
from traced import LAYERS
from workloads import SEEDS, WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# One BLAS thread: on a small shared machine two threads made wall time
# spread widely (3.2-4.7 s against 3.4-3.5 s on spectrum-mb22) and cost
# more CPU than they saved; with one, cpu_s tracks wall_s and a change that
# buys wall time with threads cannot hide.
BLAS_THREADS = 1
SETUP_REPS = 3
MIN_RUNS = 3
CHILD_TIMEOUT_S = 120  # a hung child is killed and counts as failed

RUN_CODE = "import sys; from symdom.cli import main; sys.exit(main())"
# Set-up as a user pays it: interpreter start and ``import symdom.cli``;
# with a JSON argument it also fills a basis cache through the public API.
SETUP_CODE = """\
import json, sys
import symdom.cli
if len(sys.argv) > 1:
    from symdom import DomainSpec
    from symdom.kernels import cached_truncated_basis
    cfg = json.loads(sys.argv[1])
    dom = DomainSpec.from_json(cfg["domain"])
    for d in cfg["D_list"]:
        cached_truncated_basis(dom, cfg["lambda"], d, cache_dir=cfg["cache_dir"])
"""
ENV_CODE = """\
import json, os, platform, numpy, scipy, symdom.cli
def blas(show):
    try:
        dep = show(mode="dicts")["Build Dependencies"]["blas"]
        return f"{dep['name']} {dep['version']}"
    except Exception:
        return "unknown"
print(json.dumps({
    "symdom": symdom.cli.__file__,
    "python": platform.python_version(),
    "numpy": numpy.__version__,
    "numpy_blas": blas(numpy.show_config),
    "scipy": scipy.__version__,
    "scipy_blas": blas(scipy.show_config),
    "nproc": os.cpu_count(),
}))
"""

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = {
    "kernels.self_s": "s",
    "kernels.kernel_series.self_s": "s",
    "kernels.kernel_series.calls": "count",
    "kernels.series_useful_ratio": "ratio",
    "kernels.series_partial_sum.self_s": "s",
    "kernels.gram_blocks.self_s": "s",
    "kernels.truncated_basis.self_s": "s",
    "kernels.save_basis.self_s": "s",
    "kernels.load_basis.self_s": "s",
    "kernels.cache_hits": "count",
    "kernels.cache_misses": "count",
    "kernels.cache_bytes_written": "B",
    "kernels.cache_bytes_read": "B",
    "kernels.errors": "count",
    "operators.self_s": "s",
    "operators.quotient_model.self_s": "s",
    "operators.quotient_model.calls": "count",
    "operators.submodule_span.self_s": "s",
    "operators.mult_op.self_s": "s",
    "operators.mult_op.calls": "count",
    "operators.compress_symbol.self_s": "s",
    "operators.compress.self_s": "s",
    "operators.cross_commutator.self_s": "s",
    "operators.schatten_norm.self_s": "s",
    "operators.schatten_norm.calls": "count",
    "operators.essential_normality_profile.self_s": "s",
    "operators.errors": "count",
    "koszul.self_s": "s",
    "koszul.taylor_point_test.self_s": "s",
    "koszul.taylor_point_test.calls": "count",
    "koszul.regularity_report.self_s": "s",
    "koszul.koszul_boundaries.self_s": "s",
    "koszul.joint_eigenvalues.self_s": "s",
    "koszul.joint_eigenvalues.calls": "count",
    "koszul.check_commuting.self_s": "s",
    "koszul.errors": "count",
    "calculus.self_s": "s",
    "calculus.integral_calculus.self_s": "s",
    "calculus.integral_calculus.calls": "count",
    "calculus.nodes_evaluated": "count",
    "calculus.shilov_quadrature.self_s": "s",
    "calculus.series_calculus.self_s": "s",
    "calculus.composition_residual.self_s": "s",
    "calculus.errors": "count",
    "domains.self_s": "s",
    "domains.calls": "count",
    "domains.errors": "count",
    "cli.import_s": "s",
    "cli.self_s": "s",
    "cli.write_rows.self_s": "s",
    "cli.rows_written": "count",
    "cli.errors": "count",
    "cli.out_max_rel_dev": "ratio",
    "cli.out_identical": "ratio",
    "trace.wall_s": "s",
    "trace.covered_frac": "ratio",
    "trace.overhead_frac": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Run:
    traced: bool
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    check: CheckResult
    stderr: str
    trace: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.exit_code == 0 and "Traceback" not in self.stderr and self.check.ok


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "SYMDOM_CACHE_DIR"}
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def timed(cmd: list[str], env: dict, stderr_path: Path) -> tuple[float, float, float, int]:
    """Run cmd to completion; return wall s, user+sys s, peak RSS MB, exit code."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss * 1024 / 1e6, proc.returncode


def reference_paths(wl: Workload, seed: int, quick: bool) -> list[Path]:
    stem = f"{'quick' if quick else 'full'}-seed{seed % SEEDS}"
    folder = HERE / "reference" / wl.name
    paths = [folder / f"{stem}.csv"]
    if wl.summary_columns is not None:
        paths.append(folder / f"{stem}.summary.csv")
    return paths


class Bench:
    """One workload at one seed, run inside a private work directory."""

    def __init__(self, wl: Workload, seed: int, quick: bool) -> None:
        if not (SRC / "symdom" / "cli.py").is_file():
            raise BenchError(f"no symdom sources under {SRC}")
        self.wl, self.seed, self.quick = wl, seed, quick
        self.env = child_env()
        self.work = WORK / f"{wl.name}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.config = wl.make_config(quick)
        self.config_path = self.work / "config.json"
        self.config_path.write_text(json.dumps(self.config, sort_keys=True))
        self.cache_dir: Path | None = None
        self.count = 0

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it, or it is already gone

    def environment(self) -> dict:
        """Untimed first start: compiles bytecode, records versions."""
        proc = subprocess.run(
            [sys.executable, "-c", ENV_CODE], env=self.env, cwd=ROOT,
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise BenchError(f"cannot import symdom:\n{proc.stderr}")
        info = json.loads(proc.stdout.strip().splitlines()[-1])
        if not Path(info["symdom"]).resolve().is_relative_to(SRC.resolve()):
            raise BenchError(f"symdom imported from {info['symdom']}, not {SRC}")
        info["blas_threads"] = BLAS_THREADS
        return info

    def setup(self, reps: int) -> list[float]:
        """Time ``reps`` set-ups; a warm-cache workload keeps the last cache."""
        times = []
        for rep in range(reps):
            cmd = [sys.executable, "-c", SETUP_CODE]
            if self.wl.cache == "warm":
                cache = self.work / f"cache-setup{rep}"
                fill = {k: self.config[k] for k in ("domain", "lambda", "D_list")}
                cmd.append(json.dumps(dict(fill, cache_dir=str(cache))))
                if self.cache_dir is not None:
                    shutil.rmtree(self.cache_dir)
                self.cache_dir = cache
            wall, _, _, code = timed(cmd, self.env, self.work / "setup.err")
            if code != 0:
                raise BenchError(
                    f"set-up exited {code}:\n{(self.work / 'setup.err').read_text()}"
                )
            times.append(wall)
        return times

    def argv(self, out: Path) -> list[str]:
        """Arguments of the next ``symdom`` run; a fresh cache gets a new directory."""
        wl = self.wl
        argv = [
            wl.command, "--config", str(self.config_path), "--seed", str(self.seed % SEEDS),
            "--out", str(out), *wl.extra_args,
        ]
        if wl.cache == "fresh":
            self.cache_dir = self.work / f"cache-run{self.count}"
        if wl.cache != "none":
            argv += ["--cache-dir", str(self.cache_dir)]
        return argv

    def outputs(self, out: Path) -> list[Path]:
        return [out] + ([out.with_name(out.stem + ".summary.csv")] if self.wl.summary_columns else [])

    def run(self, traced: bool) -> Run:
        wl, i = self.wl, self.count
        out = self.work / f"out-{i}.csv"
        argv = self.argv(out)
        self.count += 1
        stats = self.work / f"trace-{i}.json"
        if traced:
            cmd = [sys.executable, str(HERE / "traced.py"), str(stats), *argv]
        else:
            cmd = [sys.executable, "-c", RUN_CODE, *argv]
        err_path = self.work / f"err-{i}.txt"
        wall, cpu, rss, code = timed(cmd, self.env, err_path)
        stderr = err_path.read_text(errors="replace")
        outputs = self.outputs(out)
        refs = reference_paths(wl, self.seed, self.quick)
        tables = [(wl.columns, wl.floor), (wl.summary_columns, wl.floor)]
        if code != 0 or not all(p.is_file() for p in outputs):
            check = CheckResult(False, False, 0.0, "no output")
        elif not all(p.is_file() for p in refs):
            raise BenchError(f"no reference {refs[0]}; run perfbench/capture.py")
        else:
            check = check_outputs(
                [p.read_bytes() for p in outputs], [p.read_bytes() for p in refs], tables
            )
        trace = json.loads(stats.read_text()) if traced and stats.is_file() else {}
        for p in outputs + [stats, err_path]:
            p.unlink(missing_ok=True)
        if wl.cache == "fresh":
            shutil.rmtree(self.cache_dir, ignore_errors=True)
        run = Run(traced, wall, cpu, rss, code, check, stderr, trace)
        if not run.ok:
            print(
                f"FAILED run {i} ({'traced' if traced else 'untraced'}): exit {code}, "
                f"check: {check.problem or 'ok'}\n{stderr[-2000:]}",
                file=sys.stderr,
            )
        return run


def median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def timing_line(name: str, values: list[float], unit: str) -> str:
    q1, q3 = quartiles(values)
    return f"  {name:12s} median {median(values):.4f} {unit}  q1 {q1:.4f}  q3 {q3:.4f}  n={len(values)}"


def measure(bench: Bench, seconds: float, trace: bool, min_runs: int) -> list[Run]:
    """Closed loop: start the next run when the previous one has ended."""
    runs: list[Run] = []
    start = time.perf_counter()
    while True:
        n_traced = sum(r.traced for r in runs)
        n_plain = len(runs) - n_traced
        if trace:
            done = n_plain >= 1 and n_traced >= 1
        else:
            done = len(runs) >= min_runs
        if done and time.perf_counter() - start >= seconds:
            return runs
        runs.append(bench.run(traced=trace and n_traced < n_plain))


def end_to_end(runs: list[Run], setup_times: list[float]) -> dict:
    good = [r for r in runs if r.ok] or runs
    values = {
        "wall_s": [r.wall_s for r in good],
        "cpu_s": [r.cpu_s for r in good],
        "peak_rss_mb": [r.peak_rss_mb for r in good],
        "setup_s": setup_times,
    }
    for name, vals in values.items():
        print(timing_line(name, vals, END_TO_END[name]))
    return {name: median(vals) for name, vals in values.items()}


def per_layer(runs: list[Run], expected: str) -> dict:
    plain = [r for r in runs if not r.traced and r.ok] or [r for r in runs if not r.traced]
    traced = [r for r in runs if r.traced and r.trace] or [r for r in runs if r.traced]
    samples: dict[str, list[float]] = {}
    for r in traced:
        m = r.trace.get("metrics", {})
        covered = sum(m.get(f"{layer}.self_s", 0.0) for layer in LAYERS)
        m["trace.wall_s"] = r.wall_s
        m["trace.covered_frac"] = (covered + m.get("cli.import_s", 0.0)) / r.wall_s
        for name in PER_LAYER:
            samples.setdefault(name, []).append(m.get(name, 0))
    plain_wall = median([r.wall_s for r in plain])
    metrics = {name: median(vals) for name, vals in samples.items()}
    metrics["trace.overhead_frac"] = metrics["trace.wall_s"] / plain_wall - 1.0
    metrics["cli.out_max_rel_dev"] = max(r.check.max_rel_dev for r in runs)
    metrics["cli.out_identical"] = sum(r.check.identical for r in runs) / len(runs)
    shares = {layer: metrics[f"{layer}.self_s"] for layer in LAYERS}
    total = metrics["trace.wall_s"]
    print(f"  traced wall {total:.4f} s (n={len(traced)}), untraced median {plain_wall:.4f} s")
    print(f"  cli.import_s {metrics['cli.import_s']:.4f} s ({metrics['cli.import_s'] / total:.1%})")
    for layer, value in sorted(shares.items(), key=lambda kv: -kv[1]):
        print(f"  {layer + '.self_s':18s} {value:.4f} s ({value / total:.1%})")
    dominant = max(shares, key=shares.get)
    verdict = "as expected" if dominant == expected else f"EXPECTED {expected}"
    print(f"  dominant layer: {dominant} ({verdict}); covered {metrics['trace.covered_frac']:.1%}")
    sizes: dict[str, int] = {}
    for r in traced:
        sizes.update(r.trace.get("sizes", {}))
    print(f"  problem sizes: {json.dumps(sizes, sort_keys=True)}")
    return {name: metrics[name] for name in PER_LAYER}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--quick", action="store_true", help="reduced sizes, one run")
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so the running child is killed and the
    # work directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    wl = WORKLOADS[args.workload]
    try:
        bench = Bench(wl, args.seed, args.quick)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        env = bench.environment()
        print(f"env: {json.dumps(env, sort_keys=True)}")
        print(
            f"workload {wl.name}: symdom {wl.command}, seed {args.seed} "
            f"(program seed {args.seed % SEEDS}){', quick' if args.quick else ''}"
        )
        print(f"  config: {json.dumps(bench.config, sort_keys=True)}")
        # Set-up time is an end-to-end metric only; traced runs set up once.
        setup_times = bench.setup(1 if args.quick or args.trace else SETUP_REPS)
        runs = measure(bench, args.seconds, bool(args.trace), 1 if args.quick else MIN_RUNS)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        bench.close()
    failed = sum(not r.ok for r in runs)
    print(f"  fail_frac {failed / len(runs)} ({failed} of {len(runs)} runs)")
    identical = sum(r.check.identical for r in runs)
    max_dev = max(r.check.max_rel_dev for r in runs)
    print(f"  output: {identical} of {len(runs)} byte-identical to reference, max rel dev {max_dev:.3g}")
    if args.trace:
        values = per_layer(runs, wl.dominant)
        units = PER_LAYER
    else:
        values = end_to_end(runs, setup_times)
        units = END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
