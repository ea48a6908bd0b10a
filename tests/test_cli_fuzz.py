"""Hypothesis fuzz test of the `symdom` command-line contract.

Valid configs are built from the key tables in `symdom.cli.FIELDS`, then
keys are dropped, renamed or given odd values.  Whatever the config, a run
exits 0, 2 or 3 without a traceback, and a rerun is byte-identical."""

import contextlib
import io
import json
import math
import os
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from symdom.cli import FIELDS, main

DOMAINS = {
    "ball1": {"kind": "ball", "n": 1},
    "ball2": {"kind": "ball", "n": 2},
    "polydisc2": {"kind": "polydisc", "n": 2},
}
# calculus on ball2 falls back to a 256 000-node sphere rule when its level
# is dropped; the circle and torus rules stay small
COMMAND_DOMAINS = {
    "kernel": sorted(DOMAINS),
    "spectrum": sorted(DOMAINS),
    "calculus": ["ball1", "polydisc2"],
    "invariance": sorted(DOMAINS),
}
# no large integers: a mutated size such as tuple_size or steps stays small
ODD = [-1, 0, 1, 2.5, True, None, "x", [], {}, math.nan, math.inf]
# past the floating-point range: offered only where a number or a complex
# entry is read, so no size ever takes it, and first, where Hypothesis leans
HUGE = 10**400
NUMBER_KINDS = ("num", "p", "point")


def valid_value(field, key, domain):
    """A small valid value of ``field`` (named ``key``) on ``domain``."""
    dim = domain["n"]
    kind = field.kind
    if kind == "int":
        return int(max(field.low, 1))  # every degree and size stays 1
    if kind == "num":
        return field.low + 0.5 if field.low > -math.inf else 2.0
    if kind == "p":
        return 2.0
    if kind == "path":
        return key
    if kind in ("poly", "gen"):
        return {"terms": {",".join(["1"] + ["0"] * (dim - 1)): 1.0}}
    if kind == "point":
        return [0.1] * dim
    if kind == "choice":
        return field.of[1][0]
    if kind == "list":
        return [valid_value(field.of, key, domain)]
    if kind == "table":
        return {k: valid_value(f, k, domain) for k, f in field.of.items()}
    return dict(domain)


def spots(cfg, fields):
    """Every (parent, key, field) a mutation can hit: the top-level keys,
    the keys of nested objects and the first entry of each list, with the
    Field that reads the value there (None off the tables).  The domain
    comes last: Hypothesis leans towards the first entries."""
    out = [(cfg, k, fields.get(k)) for k in reversed(cfg)]
    for name, value in reversed(cfg.items()):
        if isinstance(value, dict):
            field = fields.get(name)
            table = field.of if field is not None and field.kind == "table" else {}
            out += [(value, k, table.get(k)) for k in value]
    for name, value in cfg.items():
        if isinstance(value, list) and value:
            field = fields.get(name)
            out.append((value, 0, field.of if field is not None and field.kind == "list" else field))
    return out


@st.composite
def configs(draw):
    command = draw(st.sampled_from(sorted(FIELDS)))
    domain = DOMAINS[draw(st.sampled_from(COMMAND_DOMAINS[command]))]
    fields = FIELDS[command]
    cfg = {k: valid_value(f, k, domain) for k, f in fields.items()}
    for _ in range(draw(st.integers(0, 3))):
        parent, key, field = draw(st.sampled_from(spots(cfg, fields)))
        action = draw(st.sampled_from(["drop", "rename", "odd"]))
        value = parent.pop(key)
        if action == "rename" and isinstance(parent, dict):
            parent[key[:-1] or "x"] = value  # a typo: the last letter lost
        elif action != "drop":
            number = field is not None and field.kind in NUMBER_KINDS
            odd = draw(st.sampled_from([HUGE] * number + ODD))
            if isinstance(parent, dict):
                parent[key] = odd
            else:
                parent.insert(0, odd)
    return command, cfg


def run(command):
    """Exit code, stdout, stderr and every file the run left behind."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, "--config", "config.json"])
    files = {
        str(p): p.read_bytes() for p in sorted(Path(".").rglob("*"))
        if p.is_file() and p.name != "config.json"
    }
    return code, out.getvalue(), err.getvalue(), files


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(configs())
def test_any_config_exits_cleanly_and_reruns_identically(case):
    command, cfg = case
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            Path("config.json").write_text(json.dumps(cfg))
            first = run(command)
            code, _, err, _ = first
            assert code in (0, 2, 3), err
            assert "Traceback" not in err
            assert err.count("\n") == (code != 0), err
            assert run(command) == first
        finally:
            os.chdir(home)
