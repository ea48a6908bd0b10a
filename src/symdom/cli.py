"""Command-line experiment harness.

Four subcommands, each reading a JSON config file plus flag overrides:

  kernel      partial-sum errors against closed-form kernels and
              Gram-vs-oracle deviations
  spectrum    point tests and joint eigenvalues for a model or diagonal tuple
  calculus    integral-vs-direct residuals and Moebius composition checks
  invariance  Schatten profiles of coordinate and Moebius symbol families
              across truncation degrees, with stabilization summary

``FIELDS`` holds one key table per subcommand (kind, default, range).
``normalize_config`` checks a config against it, unknown and repeated keys
included, and is the only validator: the commands read checked values.

Output is RFC-4180 CSV (CRLF line endings, mandatory header row); complex
values are rendered as "re+imj" strings.  Reruns with an identical config
and seed produce byte-identical CSV bodies.  Every command exits nonzero on
validation or numerical-guard failures: 2 on a config error or an input too
large for memory, 3 on a numerical guard.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import itertools
import json
import math
import os
import sys
from typing import NamedTuple

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
from .koszul import joint_eigenvalues, taylor_point_tests
from .operators import QuotientModel, essential_normality_profile, quotient_model
from .polynomials import Polynomial
from .sampling import Stream, random_commuting_tuple, random_point
from .wallach import classify_weight


# ---------------------------------------------------------------------
# value formatting: deterministic, round-trip safe
# ---------------------------------------------------------------------

def format_complex(v: complex) -> str:
    """Render a complex number as "re+imj". Parsed back by parse_complex."""
    v = complex(v)
    return f"{v.real!r}{'+' if v.imag >= 0 else '-'}{abs(v.imag)!r}j"


def _is_number(obj) -> bool:
    """A JSON number: JSON booleans are ints to Python, but not numbers."""
    return isinstance(obj, (int, float)) and not isinstance(obj, bool)


def parse_complex(obj, where: str) -> complex:
    """A finite complex number from a JSON number, "re+imj" or [re, im]."""
    pair = isinstance(obj, list) and len(obj) == 2
    if isinstance(obj, str):
        try:
            value = complex(obj.replace(" ", ""))
        except ValueError:
            raise _error(where, f"not a complex literal: {obj!r}")
    elif pair and not all(_is_number(x) for x in obj):
        raise _error(where, "[re, im] needs two real numbers")
    elif pair or _is_number(obj):
        try:
            value = complex(*obj) if pair else complex(obj)
        except OverflowError:
            raise _error(where, "not a finite number: an integer past the float range")
    else:
        raise _error(where, 'expected number, "re+imj", or [re, im]')
    if not cmath.isfinite(value):
        raise _error(where, f"not a finite number: {obj!r}")
    return value


def format_real(v: float) -> str:
    return repr(float(v))


def format_point(z: np.ndarray) -> str:
    return " ".join(format_complex(c) for c in np.asarray(z).ravel())


# ---------------------------------------------------------------------
# config ingestion: one key table per subcommand, one checker
# ---------------------------------------------------------------------

def poly_to_json(p: Polynomial) -> dict:
    """``p`` as a term map, in the order of ``p.terms``: the order f(T) sums."""
    return {
        "nvars": p.nvars,
        "terms": {",".join(str(a) for a in alpha): format_complex(c) for alpha, c in p.terms.items()},
    }


class Field(NamedTuple):
    """How one config key is checked.

    ``kind`` is int, num (a finite number), p (a number >= 1, or Infinity),
    path, poly, gen (a nonzero poly), point, choice, list, table or domain.
    ``default`` is _REQUIRED, None (optional: absent or null leaves the key
    unset), the value an absent or null key takes, or a function of the
    domain that gives it.
    """

    kind: str
    default: object = None
    low: float = -math.inf  # int, num and p lie in [low, below)
    below: float = math.inf
    of: object = None  # list: the item Field; table: its Fields; choice: (noun, options)
    nonempty: str = ""  # list: the items' plural, when the list may not be empty
    why: str = ""  # appended to a range error


_REQUIRED = object()
_POINT = Field("point")
_GENERATORS = Field("list", [], of=Field("gen"))
_D_LIST = Field("list", of=Field("int", low=0), nonempty="integers >= 0")
# the keys the flags set: every subcommand takes them
_COMMON = {
    "domain": Field("domain", _REQUIRED),
    "seed": Field("int", 0, low=0),
    "out": Field("path"),
    "cache_dir": Field("path"),
    "lambda": Field("num"),
    "D_list": _D_LIST,
}
# kernel and invariance need a weight and truncation degrees
_MODEL = {
    **_COMMON, "lambda": Field("num", _REQUIRED), "D_list": _D_LIST._replace(default=_REQUIRED)
}
_DEFAULT_LEVELS = {("ball", 1): 10, ("polydisc", 1): 10, ("polydisc", 2): 8}

FIELDS = {
    "kernel": {
        **_MODEL,
        "num_pairs": Field("int", 20, low=1),
        "max_norm": Field("num", 0.6, 0, 1, why="; partial sums converge only inside the domain"),
        "gram_degree": Field("int", 6, low=0),
    },
    "spectrum": {
        **_COMMON,
        "generators": _GENERATORS,
        "tuple": Field("table", {"kind": "model"}, of={
            "kind": Field("choice", "model", of=("kind", ("model", "diagonal"))),
            "D": Field("int", low=0),  # default max(D_list)
            "entries": Field("list", of=_POINT, nonempty="points"),
        }),
        "points": Field("list", [], of=_POINT),
        "grid": Field("table", of={
            "start": Field("num", _REQUIRED),
            "stop": Field("num", _REQUIRED),
            "steps": Field("int", _REQUIRED, low=1),
        }),
    },
    "calculus": {
        **_COMMON,
        "level": Field("int", lambda dom: _DEFAULT_LEVELS.get((dom.kind, dom.dim), 4), low=1),
        "tuple_size": Field("int", lambda dom: 6 if dom.dim == 1 else 5, low=1),
        # each component's eigenvalues reach spectral_radius, so on the ball
        # the joint spectrum's radius can reach spectral_radius * sqrt(n)
        "spectral_radius": Field(
            "num",
            lambda dom: min(0.6, 0.6 * math.sqrt(2 / dom.dim)) if dom.kind == "ball" else 0.6,
            0, 1, why="; the calculus needs the joint spectrum inside the domain",
        ),
        "num_tuples": Field("int", 3, low=1),
        "polys": Field(
            "list", lambda dom: [poly_to_json(p) for p in _default_polys(dom.dim)], of=Field("poly")
        ),
        "z0_list": Field("list", [], of=_POINT),
    },
    "invariance": {
        **_MODEL,
        "generators": _GENERATORS,
        "families": Field(
            "list", ["coordinates", "mobius"],
            of=Field("choice", of=("family", ("coordinates", "mobius"))),
        ),
        "p_values": Field("list", [2.0], of=Field("p", low=1), nonempty="numbers >= 1"),
        "window": Field("int", low=0),
        "z0": Field("point", lambda dom: [0.0] * dom.dim),
        "permissive": Field("table", {}, of={  # by default the coordinates themselves
            "c": Field("num", 1.0, low=0),
            "d": Field("point", lambda dom: [0.0] * dom.dim),
        }),
    },
}


def _error(where: str, what: str) -> ConfigError:
    return ConfigError(f"config error at '{where}': {what}")


def _check(value, spec: Field, where: str, dom: DomainSpec | None):
    """``value`` checked against ``spec``, in the JSON form the commands
    read: numbers as floats, points as [re, im] pairs, polynomials as
    canonical term maps, tables with every key present.  Anything else is
    a config error at ``where``."""
    kind = spec.kind
    if kind == "p" and value == math.inf:  # the operator norm; JSON spells it Infinity
        return value
    if kind in ("int", "num", "p"):
        integer, low, below = kind == "int", spec.low, spec.below
        if _is_number(value) and (isinstance(value, int) or not integer):
            if low <= value < below and value > -math.inf:
                if integer:
                    return value
                if abs(value) <= sys.float_info.max:  # a larger integer has no float
                    return float(value)
        if low == -math.inf:
            span = "that is finite"
        else:
            span = f">= {low:g}" if below == math.inf else f"in [{low:g}, {below:g})"
        raise _error(where, f"must be {'an integer' if integer else 'a number'} {span}{spec.why}")
    if kind == "path":
        if isinstance(value, str):
            return value
        raise _error(where, "must be a path string")
    if kind == "choice":
        noun, options = spec.of
        if value in options:
            return value
        raise _error(where, f"unknown {noun} {value!r}")
    if kind == "point":
        if not isinstance(value, list) or len(value) != dom.dim:
            raise _error(where, f"expected a list of {dom.dim} complex entries")
        values = (parse_complex(c, f"{where}[{i}]") for i, c in enumerate(value))
        return [[z.real, z.imag] for z in values]
    if kind == "list":
        if not isinstance(value, list):
            raise _error(where, "must be a list")
        if spec.nonempty and not value:
            raise _error(where, f"must be a non-empty list of {spec.nonempty}")
        return [_check(item, spec.of, f"{where}[{i}]", dom) for i, item in enumerate(value)]
    if kind in ("poly", "gen") and not (isinstance(value, dict) and "terms" in value):
        raise _error(where, 'expected {"terms": {...}}')
    if not isinstance(value, dict):
        raise _error(where, "must be an object")
    known = {"domain": dom.to_json(), "table": spec.of}.get(kind, ("nvars", "terms"))
    prefix = f"{where}." if where else ""
    for key in value:
        if key not in known:
            raise _error(prefix + key, "unknown key")
    if kind == "domain":  # parsed already: only the keys of its own JSON form
        return known
    if kind == "table":
        out = {}
        for key, field in spec.of.items():
            got = value.get(key)
            if got is None:
                got = field.default(dom) if callable(field.default) else field.default
            if got is _REQUIRED:
                raise _error(prefix + key, "required field is missing")
            out[key] = None if got is None else _check(got, field, prefix + key, dom)
        return out
    nvars = _check(value.get("nvars", dom.dim), Field("int"), f"{where}.nvars", dom)
    if nvars != dom.dim:
        raise _error(f"{where}.nvars", f"{nvars} does not match domain dimension {dom.dim}")
    if not isinstance(value["terms"], dict):
        raise _error(f"{where}.terms", "must be an object")
    terms = {}
    for key, coeff in value["terms"].items():
        try:
            alpha = tuple(int(part) for part in key.split(","))
        except ValueError:
            raise _error(f"{where}.terms", f"bad multi-index key {key!r}")
        if len(alpha) != dom.dim or any(a < 0 for a in alpha):
            raise _error(f"{where}.terms", f"key {key!r} is not a {dom.dim}-component multi-index")
        terms[alpha] = parse_complex(coeff, f"{where}.terms[{key!r}]")
    if kind == "gen":  # generators are held in degree order, whatever order they come in
        terms = dict(sorted(terms.items(), key=lambda t: (sum(t[0]), tuple(-a for a in t[0]))))
    poly = Polynomial(dom.dim, terms)
    if kind == "gen" and poly.is_zero():
        raise _error(where, "must be nonzero")
    return poly_to_json(poly)


def _poly(obj: dict) -> Polynomial:
    """The polynomial of a checked term map."""
    terms = {tuple(int(a) for a in key.split(",")): complex(c) for key, c in obj["terms"].items()}
    return Polynomial(obj["nvars"], terms)


def _point(obj: list) -> np.ndarray:
    """The point of a checked list of [re, im] pairs."""
    return np.array([complex(re, im) for re, im in obj])


def _unique_keys(pairs: list) -> dict:
    obj = {}
    for key, value in pairs:
        if key in obj:  # json would keep the last one silently
            raise _error(key, "duplicate key")
        obj[key] = value
    return obj


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}")
    try:
        cfg = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        )
    except ValueError as exc:  # an integer literal past int's digit limit
        raise ConfigError(f"config syntax error: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config error at top level: expected a JSON object")
    return cfg


MAX_SCAN_POINTS = 2**24  # the torus rule's node cap


def normalize_config(cfg: dict, command: str) -> dict:
    """``cfg`` checked against ``FIELDS[command]`` with every default filled
    in, then the checks that span fields.  This is the only validator: the
    commands read what it returns.  json.dumps(..., sort_keys=True) of the
    result round-trips through it unchanged."""
    if cfg.get("domain") is None:
        raise _error("domain", "required field is missing")
    try:
        dom = DomainSpec.from_json(cfg["domain"])
    except ValidationError as exc:
        raise _error("domain", str(exc))
    out = _check(cfg, Field("table", of=FIELDS[command]), "", dom)
    lam, d_list, tup = out["lambda"], out["D_list"], out.get("tuple")
    if command in ("kernel", "invariance") or tup and tup["kind"] == "model":
        if lam is None:
            raise _error("lambda", "required field is missing")
        if not classify_weight(lam, dom).is_module_weight:
            raise _error("lambda", f"{lam} is not a continuous-class weight for {dom.label()}")
    for key, what in (("D_list", "degree"), ("families", "family"), ("p_values", "p")):
        if repeated := [v for i, v in enumerate(out.get(key) or []) if v in out[key][:i]]:
            raise _error(key, f"duplicate {what} {repeated[0]}")  # it would write rows twice
    top = max((_poly(g).degree() for g in out.get("generators", [])), default=0)
    if d_list is not None and top > min(d_list):
        raise _error("generators", f"max generator degree {top} exceeds min(D_list) = {min(d_list)}")
    if command == "spectrum":
        if tup["kind"] == "diagonal" and tup["entries"] is None:
            raise _error("tuple.entries", "required field is missing")
        if tup["kind"] == "model":
            if tup["D"] is None and d_list is None:
                raise _error("tuple.D", "truncation degree required")
            tup["D"] = max(d_list) if tup["D"] is None else tup["D"]
            if top > tup["D"]:
                raise _error("tuple.D", "below the max generator degree")
        grid = out["grid"]
        if grid is not None and grid["steps"] ** dom.dim > MAX_SCAN_POINTS:
            raise _error("grid.steps", f"{grid['steps']}**{dom.dim} points exceed {MAX_SCAN_POINTS}")
        if not out["points"] and grid is None:
            raise _error("points", "no scan points (set 'points' or 'grid')")
    if command == "calculus" and dom.kind == "matrixball":
        raise _error("domain", "no Shilov quadrature for the matrix ball")
    if command == "calculus" and dom.kind == "ball":
        bound = 1 / math.sqrt(dom.dim)
        if out["spectral_radius"] >= bound:
            raise _error(
                "spectral_radius",
                f"must be below 1/sqrt({dom.dim}) = {bound:.6g} on the ball: each component's "
                f"eigenvalues reach it, so the joint spectral radius can reach it times "
                f"sqrt({dom.dim})",
            )
    # Moebius base points are interior, checked before any work is done
    bases = [("z0", out["z0"])] if command == "invariance" else []
    if command == "calculus":
        bases = [(f"z0_list[{i}]", z0) for i, z0 in enumerate(out["z0_list"])]
    for where, z0 in bases:
        if spectral_norm(dom, flatten_point(dom, _point(z0))) >= 1.0:
            raise _error(where, "Moebius parameter must be interior")
    if command == "invariance":
        if out["permissive"]["c"] == 0:
            raise _error("permissive.c", "must be positive")
    return out


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
    dom = DomainSpec.from_json(cfg["domain"])
    lam, max_norm = cfg["lambda"], cfg["max_norm"]
    rng = Stream(cfg["seed"])

    pairs = [
        (random_point(dom, rng, max_norm=max_norm), random_point(dom, rng, max_norm=max_norm))
        for _ in range(cfg["num_pairs"])
    ]
    rows: list[list] = []
    label = dom.label()
    for d_trunc in sorted(cfg["D_list"]):
        for k, (z, w) in enumerate(pairs):
            err = abs(series_partial_sum(dom, lam, z, w, d_trunc) - kernel_eval(dom, lam, z, w))
            rows.append([label, format_real(lam), "partial_sum_error", d_trunc, k, format_real(err)])
    for block in gram_blocks(dom, lam, cfg["gram_degree"]):
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
    write_rows(cfg["out"], header, rows)
    return 0


# ---------------------------------------------------------------------
# spectrum command
# ---------------------------------------------------------------------

def _model(cfg: dict, dom: DomainSpec, d_trunc: int) -> QuotientModel:
    """The quotient model of the config at truncation degree ``d_trunc``,
    its basis read through the disk cache when one is set."""
    basis = cached_truncated_basis(dom, cfg["lambda"], d_trunc, cache_dir=cfg["cache_dir"])
    return quotient_model(basis, [_poly(g) for g in cfg["generators"]])


def cmd_spectrum(cfg: dict) -> int:
    dom = DomainSpec.from_json(cfg["domain"])
    spec = cfg["tuple"]
    if spec["kind"] == "diagonal":
        entries = [flatten_point(dom, _point(e)) for e in spec["entries"]]
        mats = [np.diag([p[i] for p in entries]) for i in range(dom.dim)]
    else:
        mats = list(_model(cfg, dom, spec["D"]).tuple_mats)
    rows: list[list] = []
    label = dom.label()
    points = [_point(p) for p in cfg["points"]]
    grid = cfg["grid"]
    if grid is not None:
        axis = np.linspace(grid["start"], grid["stop"], grid["steps"])
        points += [np.array(c, dtype=complex) for c in itertools.product(axis, repeat=dom.dim)]
    reports = taylor_point_tests(mats, [flatten_point(dom, p) for p in points])
    for point, report in zip(points, reports):
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
    write_rows(cfg["out"], header, rows)
    return 0


# ---------------------------------------------------------------------
# calculus command
# ---------------------------------------------------------------------

def _default_polys(n: int) -> list[Polynomial]:
    polys = [Polynomial.constant(n, 1.0)]
    polys.append(Polynomial.coordinate(0, n))
    alpha = tuple(2 if i == 0 else 1 for i in range(n))
    polys.append(Polynomial.monomial(alpha, 0.5) + Polynomial.constant(n, -0.25))
    return polys


def cmd_calculus(cfg: dict) -> int:
    dom = DomainSpec.from_json(cfg["domain"])
    rng = Stream(cfg["seed"])
    polys = [_poly(p) for p in cfg["polys"]]
    z0_list = [_point(p) for p in cfg["z0_list"]]
    if not z0_list:
        z0_list = [np.array([0.3] + [0.0] * (dom.dim - 1), dtype=complex)]

    try:
        quad = shilov_quadrature(dom, cfg["level"])
    except ValidationError as exc:  # past the rule's node limit or the Sobol table's dimensions
        field = "level" if "level" in str(exc) else "domain"
        raise _error(field, str(exc))
    tuples = [
        random_commuting_tuple(dom.dim, cfg["tuple_size"], rng, spectral_radius=cfg["spectral_radius"])
        for _ in range(cfg["num_tuples"])
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
    write_rows(cfg["out"], header, rows)
    return 0


# ---------------------------------------------------------------------
# invariance command
# ---------------------------------------------------------------------

NOISE_FLOOR = 1e-10


def _invariance_families(cfg: dict, dom: DomainSpec) -> list[tuple[str, list]]:
    n, c, shift = dom.dim, cfg["permissive"]["c"], _point(cfg["permissive"]["d"])
    coords = [Polynomial.coordinate(i, n) * c + Polynomial.constant(n, shift[i]) for i in range(n)]
    z0 = _point(cfg["z0"])
    return [
        (fam, coords if fam == "coordinates" else mobius_rational_components(dom, z0))
        for fam in cfg["families"]
    ]


def cmd_invariance(cfg: dict, jobs: int = 1) -> int:
    dom = DomainSpec.from_json(cfg["domain"])
    d_list = sorted(cfg["D_list"])
    families = _invariance_families(cfg, dom)

    def run_degree(d_trunc):
        model = _model(cfg, dom, d_trunc)  # read by every family, dropped on return
        return [
            essential_normality_profile(model, syms, cfg["p_values"], family=fam, window=cfg["window"])
            for fam, syms in families
        ]

    if jobs > 1:
        from concurrent.futures import ThreadPoolExecutor  # with logging, 3.5 ms of import

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            per_degree = list(pool.map(run_degree, d_list))
    else:
        per_degree = [run_degree(d) for d in d_list]
    # family-major: each family's rows at every D, then the next family's
    results = [r for by_family in zip(*per_degree) for profile in by_family for r in profile]

    header = [
        "domain", "lambda", "D", "symbol_i", "symbol_j",
        "p", "schatten_full", "schatten_windowed", "dim_quotient",
    ]
    rows: list[list] = []
    by_cell: dict[tuple, dict[int, tuple[float, float]]] = {}
    for r in results:
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

    out = cfg["out"]
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
                help="parallel D cells, every family reads that D's model; output order is unchanged",
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
    flags = {"lambda": args.lam, "seed": args.seed, "out": args.out, "cache_dir": args.cache_dir}
    out.update((key, value) for key, value in flags.items() if value is not None)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        jobs = _check(getattr(args, "jobs", 1), Field("int", low=1), "--jobs", None)
        cfg = normalize_config(apply_overrides(load_config(args.config), args), args.command)
        if args.command == "invariance":
            return cmd_invariance(cfg, jobs=jobs)
        commands = {"kernel": cmd_kernel, "spectrum": cmd_spectrum, "calculus": cmd_calculus}
        return commands[args.command](cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SymdomError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # an input too large for this machine
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
