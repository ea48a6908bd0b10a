"""Command-line experiment harness.

Four subcommands share one JSON config file plus flag overrides:

  kernel      partial-sum errors against closed-form kernels and
              Gram-vs-oracle deviations
  spectrum    point tests and joint eigenvalues for a model or diagonal tuple
  calculus    integral-vs-direct residuals and Moebius composition checks
  invariance  Schatten profiles of coordinate and Moebius symbol families
              across truncation degrees, with stabilization summary

Output is RFC-4180 CSV (CRLF line endings, mandatory header row); complex
values are rendered as "re+imj" strings.  Reruns with an identical config
and seed produce byte-identical CSV bodies.  Every command exits nonzero on
validation or numerical-guard failures.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .calculus import (
    composition_residual,
    integral_calculus,
    series_calculus,
    shilov_quadrature,
    mobius_rational_components,
)
from .domains import DomainSpec, flatten_point, spectral_norm
from .errors import ConfigError, SymdomError, ValidationError
from .kernels import (
    CACHE_ENV_VAR,
    cached_truncated_basis,
    closed_form_norm,
    gram_blocks,
    kernel_eval,
    multi_indices,
    series_partial_sum,
)
from .koszul import joint_eigenvalues, taylor_point_test
from .operators import essential_normality_profile, quotient_model
from .polynomials import Polynomial
from .sampling import random_commuting_tuple, random_point
from .wallach import classify_weight


# ---------------------------------------------------------------------
# value formatting: deterministic, round-trip safe
# ---------------------------------------------------------------------

def format_complex(v: complex) -> str:
    """Render a complex number as "re+imj". Parsed back by parse_complex."""
    v = complex(v)
    return f"{v.real!r}{'+' if v.imag >= 0 else '-'}{abs(v.imag)!r}j"


def parse_complex(obj, where: str) -> complex:
    """A finite complex number from a JSON number, "re+imj" or [re, im]."""
    if isinstance(obj, (int, float)):
        value = complex(obj)
    elif isinstance(obj, str):
        try:
            value = complex(obj.replace(" ", ""))
        except ValueError:
            raise ConfigError(f"config error at '{where}': not a complex literal: {obj!r}")
    elif isinstance(obj, list) and len(obj) == 2:
        try:
            value = complex(float(obj[0]), float(obj[1]))
        except (TypeError, ValueError):
            raise ConfigError(f"config error at '{where}': [re, im] needs two real numbers")
    else:
        raise ConfigError(f"config error at '{where}': expected number, \"re+imj\", or [re, im]")
    if not cmath.isfinite(value):
        raise ConfigError(f"config error at '{where}': not a finite number: {obj!r}")
    return value


def format_real(v: float) -> str:
    return repr(float(v))


def format_point(z: np.ndarray) -> str:
    return " ".join(format_complex(c) for c in np.asarray(z).ravel())


# ---------------------------------------------------------------------
# config ingestion
# ---------------------------------------------------------------------

def poly_from_json(obj, nvars: int, where: str) -> Polynomial:
    """{"terms": {"a1,a2,...": coeff}} with coeff a number or "re+imj"."""
    if not isinstance(obj, dict) or "terms" not in obj:
        raise ConfigError(f"config error at '{where}': expected {{\"terms\": {{...}}}}")
    got_n = obj.get("nvars", nvars)
    if got_n != nvars:
        raise ConfigError(
            f"config error at '{where}.nvars': {got_n} does not match domain dimension {nvars}"
        )
    terms = {}
    for key, val in checked_container(obj["terms"], f"{where}.terms", dict).items():
        try:
            alpha = tuple(int(part) for part in key.split(","))
        except ValueError:
            raise ConfigError(f"config error at '{where}.terms': bad multi-index key {key!r}")
        if len(alpha) != nvars or any(a < 0 for a in alpha):
            raise ConfigError(
                f"config error at '{where}.terms': key {key!r} is not a "
                f"{nvars}-component multi-index"
            )
        terms[alpha] = parse_complex(val, f"{where}.terms[{key!r}]")
    return Polynomial(nvars, terms)


def poly_to_json(p: Polynomial) -> dict:
    keys = sorted(p.terms, key=lambda a: (sum(a), tuple(-x for x in a)))
    return {
        "nvars": p.nvars,
        "terms": {",".join(str(a) for a in alpha): format_complex(p.terms[alpha]) for alpha in keys},
    }


def point_from_config(obj, dom: DomainSpec, where: str) -> np.ndarray:
    if not isinstance(obj, list) or len(obj) != dom.dim:
        raise ConfigError(
            f"config error at '{where}': expected a list of {dom.dim} complex entries"
        )
    return np.array([parse_complex(c, f"{where}[{i}]") for i, c in enumerate(obj)])


_REQUIRED = object()


def cfg_get(cfg: dict, key: str, default=_REQUIRED):
    if key in cfg:
        return cfg[key]
    if default is _REQUIRED:
        raise ConfigError(f"config error at '{key}': required field is missing")
    return default


def checked_number(
    value, where: str, *, integer: bool, low: float, below: float = math.inf, why: str = ""
):
    """``value`` if it is an integer (or, with ``integer=False``, a real
    number) with low <= value < below; booleans, NaN and infinities are
    rejected with a config error."""
    kinds = int if integer else (int, float)
    if isinstance(value, kinds) and not isinstance(value, bool):
        if low <= value < below and value > -math.inf:
            return value
    kind = "an integer" if integer else "a number"
    if low == -math.inf:
        span = "that is finite"
    else:
        span = f">= {low:g}" if below == math.inf else f"in [{low:g}, {below:g})"
    raise ConfigError(f"config error at '{where}': must be {kind} {span}{why}")


def checked_container(value, where: str, kind: type):
    """``value`` if it is a JSON array (``kind=list``) or object
    (``kind=dict``); anything else is a config error."""
    if isinstance(value, kind):
        return value
    name = "a list" if kind is list else "an object"
    raise ConfigError(f"config error at '{where}': must be {name}")


def _as_int_list(obj, where: str) -> list[int]:
    if not checked_container(obj, where, list):
        raise ConfigError(f"config error at '{where}': must be a non-empty list of integers >= 0")
    return [checked_number(x, f"{where}[{i}]", integer=True, low=0) for i, x in enumerate(obj)]


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}")
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        )
    if not isinstance(cfg, dict):
        raise ConfigError("config error at top level: expected a JSON object")
    return cfg


def normalize_config(cfg: dict, command: str) -> dict:
    """Validate common fields and fill defaults; returns a plain dict whose
    json.dumps(..., sort_keys=True) round-trips through parse unchanged."""
    out = dict(cfg)
    try:
        dom = DomainSpec.from_json(cfg_get(cfg, "domain"))
    except ValidationError as exc:
        raise ConfigError(f"config error at 'domain': {exc}")
    out["domain"] = dom.to_json()
    checked_number(out.setdefault("seed", 0), "seed", integer=True, low=0)
    for key in ("out", "cache_dir"):
        if out.get(key) is not None and not isinstance(out[key], str):
            raise ConfigError(f"config error at '{key}': must be a path string")
    if "lambda" in out:
        lam = checked_number(out["lambda"], "lambda", integer=False, low=-math.inf)
        if command in ("kernel", "invariance") or (
            command == "spectrum"
            and checked_container(out.get("tuple", {}), "tuple", dict).get("kind", "model")
            == "model"
        ):
            if not classify_weight(float(lam), dom).is_module_weight:
                raise ConfigError(
                    f"config error at 'lambda': {lam} is not a continuous-class "
                    f"weight for {dom.label()}"
                )
    if "D_list" in out:
        out["D_list"] = _as_int_list(out["D_list"], "D_list")
    if "generators" in out:
        gens = [
            poly_from_json(g, dom.dim, f"generators[{i}]")
            for i, g in enumerate(checked_container(out["generators"], "generators", list))
        ]
        out["generators"] = [poly_to_json(g) for g in gens]
        if "D_list" in out and gens:
            top = max(g.degree() for g in gens)
            if top > min(out["D_list"]):
                raise ConfigError(
                    f"config error at 'generators': max generator degree {top} "
                    f"exceeds min(D_list) = {min(out['D_list'])}"
                )
    return out


def config_domain(cfg: dict) -> DomainSpec:
    return DomainSpec.from_json(cfg["domain"])


def config_generators(cfg: dict, dom: DomainSpec) -> list[Polynomial]:
    return [
        poly_from_json(g, dom.dim, f"generators[{i}]")
        for i, g in enumerate(cfg.get("generators", []))
    ]


# ---------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------

def write_rows(out_path: str | None, header: list[str], rows: list[list]) -> None:
    if out_path is None:
        _emit(sys.stdout, header, rows)
        return
    parent = os.path.dirname(out_path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        _emit(fh, header, rows)


def _emit(fh, header: list[str], rows: list[list]) -> None:
    writer = csv.writer(fh, lineterminator="\r\n")
    writer.writerow(header)
    writer.writerows(rows)


def summary_path_for(out_path: str) -> str:
    base, ext = os.path.splitext(out_path)
    return base + ".summary" + (ext or ".csv")


# ---------------------------------------------------------------------
# kernel command
# ---------------------------------------------------------------------

def cmd_kernel(cfg: dict) -> int:
    dom = config_domain(cfg)
    lam = float(cfg_get(cfg, "lambda"))
    d_list = sorted(_as_int_list(cfg_get(cfg, "D_list"), "D_list"))
    num_pairs = checked_number(cfg.get("num_pairs", 20), "num_pairs", integer=True, low=1)
    max_norm = checked_number(
        cfg.get("max_norm", 0.6), "max_norm", integer=False, low=0, below=1,
        why="; partial sums converge only inside the domain",
    )
    gram_degree = checked_number(cfg.get("gram_degree", 6), "gram_degree", integer=True, low=0)
    rng = np.random.default_rng(cfg["seed"])

    pairs = [
        (random_point(dom, rng, max_norm=max_norm), random_point(dom, rng, max_norm=max_norm))
        for _ in range(num_pairs)
    ]
    rows: list[list] = []
    label = dom.label()
    for d_trunc in d_list:
        for k, (z, w) in enumerate(pairs):
            err = abs(series_partial_sum(dom, lam, z, w, d_trunc) - kernel_eval(dom, lam, z, w))
            rows.append([label, format_real(lam), "partial_sum_error", d_trunc, k, format_real(err)])
    for block in gram_blocks(dom, lam, gram_degree):
        d = block.degree
        if dom.kind == "matrixball":
            eigs = np.linalg.eigvalsh(block.gram)
            rows.append([label, format_real(lam), "gram_min_eig", d, "", format_real(eigs.min())])
        else:
            oracle = np.array(
                [closed_form_norm(dom, lam, alpha) for alpha in multi_indices(dom.dim, d)]
            )
            dev = np.abs(block.gram - np.diag(oracle)).max() / oracle.max()
            rows.append([label, format_real(lam), "gram_vs_oracle", d, "", format_real(dev)])
    header = ["domain", "lambda", "check", "D", "index", "value"]
    write_rows(cfg.get("out"), header, rows)
    return 0


# ---------------------------------------------------------------------
# spectrum command
# ---------------------------------------------------------------------

def _spectrum_tuple(cfg: dict, dom: DomainSpec) -> list[np.ndarray]:
    spec = checked_container(cfg.get("tuple", {"kind": "model"}), "tuple", dict)
    kind = spec.get("kind", "model")
    if kind == "diagonal":
        entries = checked_container(spec.get("entries"), "tuple.entries", list)
        if not entries:
            raise ConfigError("config error at 'tuple.entries': non-empty list required")
        pts = [point_from_config(e, dom, f"tuple.entries[{i}]") for i, e in enumerate(entries)]
        return [np.diag([flatten_point(dom, p)[i] for p in pts]) for i in range(dom.dim)]
    if kind == "model":
        lam = float(cfg_get(cfg, "lambda"))
        d_trunc = spec.get("D", max(cfg["D_list"]) if "D_list" in cfg else None)
        if d_trunc is None:
            raise ConfigError("config error at 'tuple.D': truncation degree required")
        d_trunc = checked_number(d_trunc, "tuple.D", integer=True, low=0)
        basis = cached_truncated_basis(dom, lam, d_trunc, cache_dir=cfg.get("cache_dir"))
        return list(quotient_model(basis, config_generators(cfg, dom)).tuple_mats)
    raise ConfigError(f"config error at 'tuple.kind': unknown kind {kind!r}")


def _scan_points(cfg: dict, dom: DomainSpec) -> list[np.ndarray]:
    points = [
        point_from_config(p, dom, f"points[{i}]")
        for i, p in enumerate(checked_container(cfg.get("points", []), "points", list))
    ]
    grid = cfg.get("grid")
    if grid is not None:
        checked_container(grid, "grid", dict)
        for key in ("start", "stop", "steps"):
            if key not in grid:
                raise ConfigError(f"config error at 'grid.{key}': required field is missing")
        start, stop = (
            checked_number(grid[key], f"grid.{key}", integer=False, low=-math.inf)
            for key in ("start", "stop")
        )
        steps = checked_number(grid["steps"], "grid.steps", integer=True, low=0)
        axis = np.linspace(start, stop, steps)
        mesh = np.meshgrid(*([axis] * dom.dim), indexing="ij")
        for combo in np.column_stack([m.ravel() for m in mesh]):
            points.append(combo.astype(complex))
    if not points:
        raise ConfigError("config error at 'points': no scan points (set 'points' or 'grid')")
    return points


def cmd_spectrum(cfg: dict) -> int:
    dom = config_domain(cfg)
    mats = _spectrum_tuple(cfg, dom)
    rows: list[list] = []
    label = dom.label()
    for point in _scan_points(cfg, dom):
        report = taylor_point_test(mats, flatten_point(dom, point))
        rows.append(
            [
                label,
                "point_test",
                format_point(point),
                "Regular" if report.regular else "Singular",
                format_real(report.min_stage_gap),
            ]
        )
    for mu in joint_eigenvalues(mats, seed=cfg["seed"]):
        rows.append([label, "joint_eigenvalue", format_point(mu), "", ""])
    header = ["domain", "row_type", "point", "verdict", "min_stage_gap"]
    write_rows(cfg.get("out"), header, rows)
    return 0


# ---------------------------------------------------------------------
# calculus command
# ---------------------------------------------------------------------

_DEFAULT_LEVELS = {("ball", 1): 10, ("polydisc", 1): 10, ("polydisc", 2): 8}


def _default_polys(n: int) -> list[Polynomial]:
    polys = [Polynomial.constant(n, 1.0)]
    polys.append(Polynomial.coordinate(0, n))
    alpha = tuple(2 if i == 0 else 1 for i in range(n))
    polys.append(Polynomial.monomial(alpha, 0.5) + Polynomial.constant(n, -0.25))
    return polys


def cmd_calculus(cfg: dict) -> int:
    dom = config_domain(cfg)
    default_level = _DEFAULT_LEVELS.get((dom.kind, dom.rank if dom.kind == "polydisc" else dom.dim), 4)
    level = checked_number(cfg.get("level", default_level), "level", integer=True, low=1)
    h = checked_number(cfg.get("tuple_size", 6 if dom.dim == 1 else 5), "tuple_size", integer=True, low=1)
    radius = checked_number(
        cfg.get("spectral_radius", 0.6), "spectral_radius", integer=False, low=0, below=1,
        why="; the calculus needs the joint spectrum inside the domain",
    )
    num_tuples = checked_number(cfg.get("num_tuples", 3), "num_tuples", integer=True, low=1)
    rng = np.random.default_rng(cfg["seed"])
    if "polys" in cfg:
        polys = [
            poly_from_json(p, dom.dim, f"polys[{i}]")
            for i, p in enumerate(checked_container(cfg["polys"], "polys", list))
        ]
    else:
        polys = _default_polys(dom.dim)
    z0_list = [
        point_from_config(p, dom, f"z0_list[{i}]")
        for i, p in enumerate(checked_container(cfg.get("z0_list", []), "z0_list", list))
    ]
    if not z0_list:
        z0_list = [np.array([0.3] + [0.0] * (dom.dim - 1), dtype=complex)]

    quad = shilov_quadrature(dom, level)
    tuples = [
        random_commuting_tuple(dom.dim, h, rng, spectral_radius=radius)
        for _ in range(num_tuples)
    ]
    rows: list[list] = []
    label = dom.label()
    results = [integral_calculus(mats, polys, quad, dom) for mats in tuples]
    for pi, f in enumerate(polys):
        for ti, mats in enumerate(tuples):
            res = results[ti][pi]
            direct = series_calculus(mats, f)
            scale = max(1.0, np.linalg.norm(direct, 2))
            resid = np.abs(res.value - direct).max() / scale
            rows.append(
                [
                    label,
                    "integral_vs_series",
                    pi,
                    ti,
                    format_real(resid),
                    format_real(res.est_error),
                    res.node_count,
                ]
            )
    for zi, z0 in enumerate(z0_list):
        for ti, mats in enumerate(tuples):
            resid = composition_residual(mats, z0, dom)
            rows.append([label, "composition", zi, ti, format_real(resid), "", ""])
    header = ["domain", "check", "item", "tuple", "residual", "est_error", "node_count"]
    write_rows(cfg.get("out"), header, rows)
    return 0


# ---------------------------------------------------------------------
# invariance command
# ---------------------------------------------------------------------

NOISE_FLOOR = 1e-10


def _invariance_families(cfg: dict, dom: DomainSpec) -> list[tuple[str, list]]:
    n = dom.dim
    wanted = checked_container(cfg.get("families", ["coordinates", "mobius"]), "families", list)
    coords = [Polynomial.coordinate(i, n) for i in range(n)]
    permissive = cfg.get("permissive")
    if permissive is not None:
        checked_container(permissive, "permissive", dict)
        c = checked_number(permissive.get("c", 1.0), "permissive.c", integer=False, low=0)
        if c == 0:
            raise ConfigError("config error at 'permissive.c': must be positive")
        d_shift = permissive.get("d", [0.0] * n)
        shift = point_from_config(d_shift, dom, "permissive.d")
        coords = [
            coords[i] * c + Polynomial.constant(n, shift[i]) for i in range(n)
        ]
    z0_raw = cfg.get("z0")
    z0 = (
        point_from_config(z0_raw, dom, "z0")
        if z0_raw is not None
        else np.zeros(n, dtype=complex)
    )
    if spectral_norm(dom, flatten_point(dom, z0)) >= 1.0:
        raise ConfigError("config error at 'z0': Moebius parameter must be interior")
    families: list[tuple[str, list]] = []
    for fam in wanted:
        if fam == "coordinates":
            families.append(("coordinates", coords))
        elif fam == "mobius":
            families.append(("mobius", mobius_rational_components(dom, z0)))
        else:
            raise ConfigError(f"config error at 'families': unknown family {fam!r}")
    return families


def cmd_invariance(cfg: dict, jobs: int = 1) -> int:
    dom = config_domain(cfg)
    lam = float(cfg_get(cfg, "lambda"))
    d_list = sorted(_as_int_list(cfg_get(cfg, "D_list"), "D_list"))
    gens = config_generators(cfg, dom)
    p_values = checked_container(cfg.get("p_values", [2.0]), "p_values", list)
    if not p_values:
        raise ConfigError("config error at 'p_values': must be a non-empty list of numbers >= 1")
    for i, p in enumerate(p_values):
        if p != math.inf:  # p = inf (JSON Infinity) is the operator norm
            checked_number(p, f"p_values[{i}]", integer=False, low=1)
    window = cfg.get("window")
    if window is not None:
        checked_number(window, "window", integer=True, low=0)
    cache_dir = cfg.get("cache_dir")
    families = _invariance_families(cfg, dom)

    def run_cell(item):
        fam_name, symbols, d_trunc = item
        return essential_normality_profile(
            dom, lam, gens, symbols, p_values, [d_trunc],
            family=fam_name, window=window, cache_dir=cache_dir,
        )

    cells = [(fam, syms, d) for fam, syms in families for d in d_list]
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(run_cell, cells))
    else:
        results = [run_cell(c) for c in cells]

    header = [
        "domain", "lambda", "D", "symbol_i", "symbol_j",
        "p", "schatten_full", "schatten_windowed", "dim_quotient",
    ]
    rows: list[list] = []
    by_cell: dict[tuple, dict[int, tuple[float, float]]] = {}
    for profile in results:
        for r in profile:
            rows.append(
                [
                    r.domain, format_real(r.lam), r.max_degree, r.symbol_i, r.symbol_j,
                    format_real(r.p), format_real(r.schatten_full),
                    format_real(r.schatten_windowed), r.dim_quotient,
                ]
            )
            by_cell.setdefault((r.family, r.symbol_i, r.symbol_j, r.p), {})[
                r.max_degree
            ] = (r.schatten_full, r.schatten_windowed)
    summary_header = [
        "family", "symbol_i", "symbol_j", "p",
        "D_prev", "D_last", "windowed_prev", "windowed_last", "rel_change",
    ]
    summary_rows: list[list] = []
    if len(d_list) >= 2:
        d_prev, d_last = d_list[-2], d_list[-1]
        for (fam, si, sj, p), per_d in sorted(by_cell.items()):
            w_prev = per_d[d_prev][1]
            w_last = per_d[d_last][1]
            # cells at rounding level have no meaningful relative change
            rel = abs(w_last - w_prev) / w_prev if w_prev > NOISE_FLOOR else 0.0
            summary_rows.append(
                [
                    fam, si, sj, format_real(p), d_prev, d_last,
                    format_real(w_prev), format_real(w_last), format_real(rel),
                ]
            )

    out = cfg.get("out")
    write_rows(out, header, rows)
    if out is None:
        sys.stdout.write("\r\n")
        _emit(sys.stdout, summary_header, summary_rows)
    else:
        write_rows(summary_path_for(out), summary_header, summary_rows)
    return 0


# ---------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symdom",
        description="Experiment harness for symmetric-domain Hilbert module studies",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("kernel", "kernel partial-sum and Gram oracle checks"),
        ("spectrum", "point tests and joint eigenvalues"),
        ("calculus", "integral-vs-direct calculus residuals"),
        ("invariance", "Schatten profile study across truncation degrees"),
    ):
        cmd = sub.add_parser(name, help=helptext)
        cmd.add_argument("--config", required=True, help="path to the JSON config")
        cmd.add_argument("--D", help="override D_list, comma-separated integers")
        cmd.add_argument("--lambda", dest="lam", type=float, help="override lambda")
        cmd.add_argument("--seed", type=int, help="override RNG seed")
        cmd.add_argument("--out", help="override output CSV path")
        cmd.add_argument(
            "--cache-dir",
            help=f"basis cache directory (default: ${CACHE_ENV_VAR} if set)",
        )
        if name == "invariance":
            cmd.add_argument(
                "--jobs", type=int, default=1,
                help="parallel (family, D) cells; output order is unchanged",
            )
    return parser


def apply_overrides(cfg: dict, args: argparse.Namespace) -> dict:
    out = dict(cfg)
    if args.D is not None:
        try:
            out["D_list"] = [int(part) for part in args.D.split(",") if part != ""]
        except ValueError:
            raise ConfigError(f"config error at '--D': not a comma-separated integer list: {args.D!r}")
        if not out["D_list"]:
            raise ConfigError("config error at '--D': empty degree list")
    if args.lam is not None:
        out["lambda"] = args.lam
    if args.seed is not None:
        out["seed"] = args.seed
    if args.out is not None:
        out["out"] = args.out
    if args.cache_dir is not None:
        out["cache_dir"] = args.cache_dir
    return out


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        cfg = apply_overrides(cfg, args)
        cfg = normalize_config(cfg, args.command)
        if args.command == "kernel":
            return cmd_kernel(cfg)
        if args.command == "spectrum":
            return cmd_spectrum(cfg)
        if args.command == "calculus":
            return cmd_calculus(cfg)
        return cmd_invariance(cfg, jobs=getattr(args, "jobs", 1))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SymdomError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
