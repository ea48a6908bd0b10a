"""The four fixed ``symdom`` CLI workloads of the benchmark.

Each workload is one subcommand on one JSON config.  The config is fixed;
the benchmark seed reaches the program only through ``--seed``, reduced
modulo ``SEEDS`` so that every seed has a reference CSV captured with
``capture.py``.  Quick mode shrinks the problem for the self-test.
"""

from __future__ import annotations

from dataclasses import dataclass

SEEDS = 16  # program seed = benchmark seed % SEEDS; one reference CSV each

MB22 = {"kind": "matrixball", "n": 2, "r": 2}
Z11 = {"nvars": 4, "terms": {"1,0,0,0": 1.0}}  # first coordinate of MB(2,2)

# Absolute floors below which two numeric cells count as equal.  Values at
# rounding level (partial_sum_error is about 1e-16) carry no digits to
# compare; invariance uses the CLI's NOISE_FLOOR of 1e-10.
ROUNDING_FLOOR = 1e-12
NOISE_FLOOR = 1e-10
# Relative tolerance for every numeric cell above its floor: the bound the
# acceptance criteria put on partial sums and calculus residuals.
REL_TOL = 1e-8

# Column kinds for the output check: "exact" cells must match byte for
# byte, "num" cells are real numbers compared with REL_TOL and the floor,
# "cnum" cells are space-separated complex numbers compared the same way,
# and "point" is exact on point-test rows and "cnum" on the others.
KERNEL_COLUMNS = {
    "domain": "exact", "lambda": "exact", "check": "exact", "D": "exact",
    "index": "exact", "value": "num",
}
SPECTRUM_COLUMNS = {
    "domain": "exact", "row_type": "exact",
    "point": "point",
    "verdict": "exact", "min_stage_gap": "num",
}
CALCULUS_COLUMNS = {
    "domain": "exact", "check": "exact", "item": "exact", "tuple": "exact",
    "residual": "num", "est_error": "num", "node_count": "exact",
}
INVARIANCE_COLUMNS = {
    "domain": "exact", "lambda": "exact", "D": "exact", "symbol_i": "exact",
    "symbol_j": "exact", "p": "exact", "schatten_full": "num",
    "schatten_windowed": "num", "dim_quotient": "exact",
}
SUMMARY_COLUMNS = {
    "family": "exact", "symbol_i": "exact", "symbol_j": "exact", "p": "exact",
    "D_prev": "exact", "D_last": "exact", "windowed_prev": "num",
    "windowed_last": "num", "rel_change": "num",
}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    why: str
    dominant: str  # layer expected to lead the traced self time
    config: dict
    quick: dict  # keys replaced in quick mode
    # "none": no basis cache; "warm": a cache filled during set-up and only
    # read by the timed runs; "fresh": an empty cache directory per run.
    cache: str
    columns: dict
    floor: float = ROUNDING_FLOOR
    summary_columns: dict | None = None  # invariance writes <out>.summary.csv
    extra_args: tuple[str, ...] = ()

    def make_config(self, quick: bool) -> dict:
        cfg = dict(self.config)
        if quick:
            cfg.update(self.quick)
        return cfg


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="kernel-mb22",
            command="kernel",
            why="MB(2,2) kernel series to degree 20: dense C_d blocks and "
            "partial-sum matvecs in kernels dominate",
            dominant="kernels",
            config={
                "domain": MB22, "lambda": 2.5, "D_list": [20], "num_pairs": 20,
                "max_norm": 0.5, "gram_degree": 8,
            },
            quick={"D_list": [10], "num_pairs": 5, "gram_degree": 4},
            cache="none",
            columns=KERNEL_COLUMNS,
        ),
        Workload(
            name="quotient-mb22",
            command="invariance",
            why="MB(2,2) quotient by z11 at D 8 and 10 from a warm basis "
            "cache: operators SVDs, spans and Schatten norms dominate",
            dominant="operators",
            config={
                "domain": MB22, "lambda": 2.5, "D_list": [8, 10],
                "generators": [Z11], "families": ["coordinates"],
                "p_values": [2.0],
            },
            quick={"D_list": [4, 6]},
            cache="warm",
            columns=INVARIANCE_COLUMNS,
            floor=NOISE_FLOOR,
            summary_columns=SUMMARY_COLUMNS,
            extra_args=("--jobs", "1"),
        ),
        Workload(
            name="spectrum-mb22",
            command="spectrum",
            why="Koszul point tests on an MB(2,2) quotient at D 6 on a "
            "16-point grid, basis built and cached on each run",
            dominant="koszul",
            config={
                "domain": MB22, "lambda": 2.5, "tuple": {"kind": "model", "D": 6},
                "generators": [Z11],
                "grid": {"start": -0.5, "stop": 0.5, "steps": 2},
            },
            quick={"tuple": {"kind": "model", "D": 3}},
            cache="fresh",
            columns=SPECTRUM_COLUMNS,
        ),
        Workload(
            name="calculus-ball2",
            command="calculus",
            why="ball2 boundary calculus on the level-3 sphere rule: batched "
            "inverses in calculus dominate, no kernel or operator work",
            dominant="calculus",
            config={"domain": {"kind": "ball", "n": 2}, "level": 3, "num_tuples": 3},
            quick={"level": 1},
            cache="none",
            columns=CALCULUS_COLUMNS,
        ),
    )
}
