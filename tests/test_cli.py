"""End-to-end tests of the `symdom` command-line harness: happy paths,
deterministic reruns, overrides, and config error reporting."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from symdom.cli import main, normalize_config, summary_path_for
from symdom.domains import DomainSpec
from symdom.kernels import gram_block

Z1_JSON = {"nvars": 2, "terms": {"1,0": 1.0}}


def write_cfg(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def kernel_cfg(out, **extra):
    cfg = {
        "domain": {"kind": "ball", "n": 2},
        "lambda": 2.0,
        "D_list": [4, 6],
        "num_pairs": 5,
        "gram_degree": 4,
        "out": out,
    }
    cfg.update(extra)
    return cfg


def invariance_cfg(out, **extra):
    cfg = {
        "domain": {"kind": "ball", "n": 2},
        "lambda": 2.0,
        "D_list": [4, 6],
        "generators": [Z1_JSON],
        "p_values": [2.0],
        "out": out,
    }
    cfg.update(extra)
    return cfg


# ---------------------------------------------------------------------
# kernel
# ---------------------------------------------------------------------

def test_kernel_happy_path(tmp_path):
    out = str(tmp_path / "kernel.csv")
    cfg = write_cfg(tmp_path, "cfg.json", kernel_cfg(out))
    assert main(["kernel", "--config", cfg]) == 0
    rows = read_csv(out)
    assert rows[0] == ["domain", "lambda", "check", "D", "index", "value"]
    body = rows[1:]
    assert sum(r[2] == "partial_sum_error" for r in body) == 10
    gram = [r for r in body if r[2] == "gram_vs_oracle"]
    assert len(gram) == 5
    assert all(float(r[5]) < 1e-10 for r in gram)
    raw = Path(out).read_bytes()
    assert raw.count(b"\r\n") == len(rows)


def test_kernel_rerun_is_byte_identical(tmp_path):
    out1 = str(tmp_path / "a.csv")
    out2 = str(tmp_path / "b.csv")
    cfg = write_cfg(tmp_path, "cfg.json", kernel_cfg(out1))
    assert main(["kernel", "--config", cfg]) == 0
    assert main(["kernel", "--config", cfg, "--out", out2]) == 0
    assert Path(out1).read_bytes() == Path(out2).read_bytes()


def test_kernel_matrixball_psd_column(tmp_path):
    out = str(tmp_path / "mb.csv")
    cfg = write_cfg(
        tmp_path,
        "cfg.json",
        {
            "domain": {"kind": "matrixball", "n": 2, "r": 2},
            "lambda": 4.0,
            "D_list": [2],
            "num_pairs": 3,
            "gram_degree": 3,
            "out": out,
        },
    )
    assert main(["kernel", "--config", cfg]) == 0
    eig_rows = [r for r in read_csv(out)[1:] if r[2] == "gram_min_eig"]
    assert len(eig_rows) == 4
    assert all(float(r[5]) > 0 for r in eig_rows)
    # one gram_blocks call serves every degree, same values as block by block
    for d, r in enumerate(eig_rows):
        block = gram_block(DomainSpec.matrix_ball(2, 2), 4.0, d)
        assert r[3] == str(d)
        assert r[5] == repr(float(np.linalg.eigvalsh(block.gram).min()))


def test_kernel_seed_override_changes_samples(tmp_path):
    out1 = str(tmp_path / "a.csv")
    out2 = str(tmp_path / "b.csv")
    cfg = write_cfg(tmp_path, "cfg.json", kernel_cfg(out1))
    assert main(["kernel", "--config", cfg]) == 0
    assert main(["kernel", "--config", cfg, "--seed", "5", "--out", out2]) == 0
    assert Path(out1).read_bytes() != Path(out2).read_bytes()


def test_kernel_d_override(tmp_path):
    out = str(tmp_path / "a.csv")
    cfg = write_cfg(tmp_path, "cfg.json", kernel_cfg(out))
    assert main(["kernel", "--config", cfg, "--D", "3"]) == 0
    body = read_csv(out)[1:]
    assert {r[3] for r in body if r[2] == "partial_sum_error"} == {"3"}


# ---------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------

def test_spectrum_diagonal_tuple(tmp_path):
    out = str(tmp_path / "spec.csv")
    cfg = write_cfg(
        tmp_path,
        "cfg.json",
        {
            "domain": {"kind": "polydisc", "n": 2},
            "tuple": {"kind": "diagonal", "entries": [[0.2, 0.3], [-0.4, 0.1]]},
            "points": [[0.2, 0.3], [0.9, 0.9]],
            "out": out,
        },
    )
    assert main(["spectrum", "--config", cfg]) == 0
    body = read_csv(out)[1:]
    tests = [r for r in body if r[1] == "point_test"]
    assert tests[0][3] == "Singular"
    assert tests[1][3] == "Regular"
    eigs = [r for r in body if r[1] == "joint_eigenvalue"]
    assert len(eigs) == 2


def test_spectrum_quotient_model_points(tmp_path):
    # quotient of the z1 submodule: singular at the origin, regular off it
    out = str(tmp_path / "spec.csv")
    cfg = write_cfg(
        tmp_path,
        "cfg.json",
        {
            "domain": {"kind": "ball", "n": 2},
            "lambda": 1.0,
            "tuple": {"kind": "model", "D": 6},
            "generators": [Z1_JSON],
            "points": [[0.0, 0.0], [0.5, 0.5]],
            "out": out,
        },
    )
    assert main(["spectrum", "--config", cfg]) == 0
    tests = [r for r in read_csv(out)[1:] if r[1] == "point_test"]
    assert tests[0][3] == "Singular"
    assert tests[1][3] == "Regular"


def test_spectrum_grid_and_cache(tmp_path):
    out = str(tmp_path / "spec.csv")
    cache = tmp_path / "cache"
    cfg = write_cfg(
        tmp_path,
        "cfg.json",
        {
            "domain": {"kind": "ball", "n": 2},
            "lambda": 2.0,
            "tuple": {"kind": "model", "D": 5},
            "generators": [Z1_JSON],
            "grid": {"start": -0.4, "stop": 0.4, "steps": 3},
            "out": out,
        },
    )
    args = ["spectrum", "--config", cfg, "--cache-dir", str(cache)]
    assert main(args) == 0
    assert list(cache.iterdir())
    first = Path(out).read_bytes()
    assert main(args) == 0
    assert Path(out).read_bytes() == first
    assert len([r for r in read_csv(out)[1:] if r[1] == "point_test"]) == 9


def test_truncated_cache_file_is_rebuilt(tmp_path):
    out1 = str(tmp_path / "a.csv")
    out2 = str(tmp_path / "b.csv")
    cache = tmp_path / "cache"
    cfg = write_cfg(tmp_path, "cfg.json", invariance_cfg(out1))
    args = ["invariance", "--config", cfg, "--cache-dir", str(cache)]
    assert main(args) == 0
    files = sorted(cache.iterdir())
    assert len(files) == 2  # one basis per degree, no temporary files left
    whole = files[0].read_bytes()
    files[0].write_bytes(whole[: len(whole) // 2])
    assert main(args + ["--out", out2]) == 0
    assert Path(out1).read_bytes() == Path(out2).read_bytes()
    assert files[0].read_bytes() == whole


# ---------------------------------------------------------------------
# calculus
# ---------------------------------------------------------------------

def test_calculus_disc_suite(tmp_path):
    out = str(tmp_path / "calc.csv")
    cfg = write_cfg(
        tmp_path,
        "cfg.json",
        {"domain": {"kind": "ball", "n": 1}, "num_tuples": 2, "out": out},
    )
    assert main(["calculus", "--config", cfg]) == 0
    body = read_csv(out)[1:]
    integral = [r for r in body if r[1] == "integral_vs_series"]
    comp = [r for r in body if r[1] == "composition"]
    assert integral and comp
    assert all(float(r[4]) < 1e-8 for r in integral)
    assert all(float(r[4]) < 1e-8 for r in comp)
    assert {r[6] for r in integral} == {"1024"}


def test_calculus_stdout(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        "cfg.json",
        {"domain": {"kind": "ball", "n": 1}, "num_tuples": 1},
    )
    assert main(["calculus", "--config", cfg]) == 0
    captured = capsys.readouterr().out
    assert captured.startswith("domain,check,item,tuple,residual")


@pytest.mark.parametrize("kind, n", [("ball", 1), ("polydisc", 2)])
def test_calculus_level_one_on_circle_and_torus(tmp_path, kind, n):
    out = str(tmp_path / "calc.csv")
    cfg = write_cfg(
        tmp_path,
        "cfg.json",
        {"domain": {"kind": kind, "n": n}, "level": 1, "num_tuples": 2, "out": out},
    )
    assert main(["calculus", "--config", cfg]) == 0
    integral = [r for r in read_csv(out)[1:] if r[1] == "integral_vs_series"]
    # rows run polynomial by polynomial, tuples inside
    assert [(r[2], r[3]) for r in integral] == [
        (str(p), str(t)) for p in range(3) for t in range(2)
    ]
    assert all(np.isfinite(float(r[5])) for r in integral)
    assert {r[6] for r in integral} == {str(2**n)}


# ---------------------------------------------------------------------
# invariance
# ---------------------------------------------------------------------

def test_invariance_happy_path(tmp_path):
    out = str(tmp_path / "inv.csv")
    cfg = write_cfg(tmp_path, "cfg.json", invariance_cfg(out))
    assert main(["invariance", "--config", cfg]) == 0
    rows = read_csv(out)
    assert rows[0][:3] == ["domain", "lambda", "D"]
    # 2 families x 2 degrees x 3 symbol pairs (upper triangle) x 1 p
    assert len(rows) - 1 == 12
    summary = read_csv(summary_path_for(out))
    assert summary[0][-1] == "rel_change"
    assert len(summary) - 1 == 6
    for row in summary[1:]:
        assert float(row[-1]) >= 0.0


def test_invariance_jobs_byte_identical(tmp_path):
    out1 = str(tmp_path / "a.csv")
    out2 = str(tmp_path / "b.csv")
    cfg = write_cfg(tmp_path, "cfg.json", invariance_cfg(out1))
    assert main(["invariance", "--config", cfg]) == 0
    assert main(["invariance", "--config", cfg, "--out", out2, "--jobs", "2"]) == 0
    assert Path(out1).read_bytes() == Path(out2).read_bytes()
    assert Path(summary_path_for(out1)).read_bytes() == Path(
        summary_path_for(out2)
    ).read_bytes()


def test_invariance_zero_mobius_matches_coordinates(tmp_path):
    # z0 = 0 makes the Moebius components the coordinates themselves
    out = str(tmp_path / "inv.csv")
    cfg = write_cfg(tmp_path, "cfg.json", invariance_cfg(out, z0=[0.0, 0.0]))
    assert main(["invariance", "--config", cfg]) == 0
    body = read_csv(out)[1:]
    half = len(body) // 2
    coords, mob = body[:half], body[half:]
    for a, b in zip(coords, mob):
        assert a[2] == b[2] and a[5] == b[5]  # same D and p, names differ
        assert abs(float(a[6]) - float(b[6])) < 1e-12
        assert abs(float(a[7]) - float(b[7])) < 1e-12


def test_invariance_permissive_quadratic_scaling(tmp_path):
    base_out = str(tmp_path / "base.csv")
    scaled_out = str(tmp_path / "scaled.csv")
    base = write_cfg(
        tmp_path, "base.json", invariance_cfg(base_out, families=["coordinates"])
    )
    scaled = write_cfg(
        tmp_path,
        "scaled.json",
        invariance_cfg(
            scaled_out,
            families=["coordinates"],
            permissive={"c": 0.5, "d": [0.1, 0.0]},
        ),
    )
    assert main(["invariance", "--config", base]) == 0
    assert main(["invariance", "--config", scaled]) == 0
    for a, b in zip(read_csv(base_out)[1:], read_csv(scaled_out)[1:]):
        assert abs(float(b[6]) - 0.25 * float(a[6])) < 1e-12
        assert abs(float(b[7]) - 0.25 * float(a[7])) < 1e-12


# ---------------------------------------------------------------------
# config validation and exit codes
# ---------------------------------------------------------------------

def test_missing_config_file(tmp_path, capsys):
    assert main(["kernel", "--config", str(tmp_path / "nope.json")]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_json_syntax_error_reports_position(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{\n  "domain": }\n')
    assert main(["kernel", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "line 2, column 13" in err


def test_rejected_weight(tmp_path, capsys):
    out = str(tmp_path / "x.csv")
    cfg = write_cfg(tmp_path, "cfg.json", kernel_cfg(out, **{"lambda": 0.0}))
    assert main(["kernel", "--config", cfg]) == 2
    assert "not a continuous-class weight" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_weight_override_rescues_config(tmp_path):
    out = str(tmp_path / "x.csv")
    cfg = write_cfg(tmp_path, "cfg.json", kernel_cfg(out, **{"lambda": 0.0}))
    assert main(["kernel", "--config", cfg, "--lambda", "2.0", "--D", "3"]) == 0
    assert os.path.exists(out)


def test_empty_d_override(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "cfg.json", kernel_cfg(str(tmp_path / "x.csv")))
    assert main(["kernel", "--config", cfg, "--D", ""]) == 2
    assert "empty degree list" in capsys.readouterr().err


def test_generator_degree_exceeds_truncation(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        "cfg.json",
        invariance_cfg(
            str(tmp_path / "x.csv"),
            generators=[{"nvars": 2, "terms": {"3,0": 1.0}}],
            D_list=[2, 6],
        ),
    )
    assert main(["invariance", "--config", cfg]) == 2
    assert "exceeds min(D_list)" in capsys.readouterr().err


def test_unknown_family(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path, "cfg.json", invariance_cfg(str(tmp_path / "x.csv"), families=["fourier"])
    )
    assert main(["invariance", "--config", cfg]) == 2
    assert "unknown family" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize(
    "command, cfg",
    [
        (
            "spectrum",
            {
                "domain": {"kind": "polydisc", "n": 2},
                "tuple": {"kind": "diagonal", "entries": [[0.2, 0.3]]},
                "points": [["BAD", 0.2]],
            },
        ),
        (
            "spectrum",
            {
                "domain": {"kind": "polydisc", "n": 2},
                "tuple": {"kind": "diagonal", "entries": [[0.2, 0.3]]},
                "grid": {"start": "BAD", "stop": 0.5, "steps": 2},
            },
        ),
        ("invariance", invariance_cfg(None, z0=["BAD", 0.0])),
        ("invariance", invariance_cfg(None, permissive={"c": "BAD"})),
        ("calculus", {"domain": {"kind": "ball", "n": 1}, "z0_list": [[[0.1, "BAD"]]]}),
    ],
)
def test_non_finite_config_numbers_rejected(tmp_path, capsys, command, cfg, bad):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg).replace('"BAD"', bad))
    assert main([command, "--config", str(path)]) == 2
    assert "config error at" in capsys.readouterr().err


def test_calculus_level_zero_is_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "cfg.json", {"domain": {"kind": "ball", "n": 1}, "level": 0})
    assert main(["calculus", "--config", cfg]) == 2
    assert "'level'" in capsys.readouterr().err


def test_kernel_max_norm_outside_domain_is_config_error(tmp_path, capsys):
    out = str(tmp_path / "x.csv")
    cfg = write_cfg(tmp_path, "cfg.json", kernel_cfg(out, max_norm=1.5))
    assert main(["kernel", "--config", cfg]) == 2
    assert "'max_norm'" in capsys.readouterr().err
    assert not os.path.exists(out)


BALL1 = {"kind": "ball", "n": 1}


@pytest.mark.parametrize(
    "command, cfg, field",
    [
        ("kernel", kernel_cfg(None, num_pairs=-1), "num_pairs"),
        ("kernel", kernel_cfg(None, num_pairs=True), "num_pairs"),
        ("kernel", kernel_cfg(None, gram_degree="x"), "gram_degree"),
        ("kernel", kernel_cfg(None, max_norm=False), "max_norm"),
        ("calculus", {"domain": BALL1, "num_tuples": "3"}, "num_tuples"),
        ("calculus", {"domain": BALL1, "num_tuples": 0}, "num_tuples"),
        ("calculus", {"domain": BALL1, "spectral_radius": 1.5}, "spectral_radius"),
        ("calculus", {"domain": BALL1, "tuple_size": 0}, "tuple_size"),
        ("calculus", {"domain": BALL1, "level": True}, "level"),
        ("invariance", invariance_cfg(None, p_values=[0.5]), "p_values[0]"),
        ("invariance", invariance_cfg(None, p_values=[]), "p_values"),
        ("invariance", invariance_cfg(None, window="x"), "window"),
        (
            "spectrum",
            {
                "domain": {"kind": "polydisc", "n": 2},
                "tuple": {"kind": "diagonal", "entries": [[0.2, 0.3]]},
                "grid": {"start": 0.0, "stop": 0.5, "steps": -1},
            },
            "grid.steps",
        ),
        # JSON booleans are ints to Python; none of these fields takes one
        ("kernel", kernel_cfg(None, D_list=[True]), "D_list[0]"),
        ("kernel", kernel_cfg(None, seed=True), "seed"),
        ("kernel", kernel_cfg(None, **{"lambda": True}), "lambda"),
        ("invariance", invariance_cfg(None, D_list=[2], permissive={"c": True}), "permissive.c"),
        (
            "spectrum",
            {
                "domain": {"kind": "polydisc", "n": 2},
                "tuple": {"kind": "diagonal", "entries": [[0.2, 0.3]]},
                "grid": {"start": True, "stop": 0.5, "steps": 2},
            },
            "grid.start",
        ),
        (
            "spectrum",
            {
                "domain": {"kind": "polydisc", "n": 2},
                "tuple": {"kind": "diagonal", "entries": [[0.2, 0.3]]},
                "grid": {"start": 0.0, "stop": False, "steps": 2},
            },
            "grid.stop",
        ),
    ],
)
def test_numeric_fields_out_of_range_are_config_errors(tmp_path, capsys, command, cfg, field):
    cfg = write_cfg(tmp_path, "cfg.json", cfg)
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert f"config error at '{field}'" in err
    assert "Traceback" not in err


def test_invariance_accepts_infinite_p(tmp_path):
    # p = inf is the operator norm; JSON spells it Infinity
    out = str(tmp_path / "inv.csv")
    cfg = write_cfg(
        tmp_path, "cfg.json",
        invariance_cfg(out, D_list=[3], p_values=[float("inf")], families=["coordinates"]),
    )
    assert main(["invariance", "--config", cfg]) == 0
    assert {r[5] for r in read_csv(out)[1:]} == {"inf"}


def test_import_does_not_load_scipy_stats():
    code = "import sys, symdom.cli; print('scipy.stats' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert done.stdout.strip() == "False"


def test_bad_domain_kind(tmp_path):
    cfg = write_cfg(
        tmp_path, "cfg.json", {"domain": {"kind": "halfplane", "n": 1}, "lambda": 1.0}
    )
    assert main(["kernel", "--config", cfg]) == 2


def test_normalize_config_idempotent():
    cfg = {
        "domain": {"kind": "ball", "n": 2},
        "lambda": 2.0,
        "D_list": [4, 6],
        "generators": [Z1_JSON],
    }
    once = normalize_config(cfg, "invariance")
    twice = normalize_config(json.loads(json.dumps(once)), "invariance")
    assert json.dumps(once, sort_keys=True) == json.dumps(twice, sort_keys=True)


BALL2 = {"kind": "ball", "n": 2}
DIAGONAL = {"kind": "diagonal", "entries": [[0.2, 0.3]]}


@pytest.mark.parametrize(
    "command, cfg, field",
    [
        ("invariance", invariance_cfg(None, permissive=1), "permissive"),
        ("invariance", invariance_cfg(None, generators=3), "generators"),
        ("invariance", invariance_cfg(None, generators=[{"terms": []}]), "generators[0].terms"),
        ("invariance", invariance_cfg(None, families=3), "families"),
        ("spectrum", {"domain": BALL2, "lambda": 2.0, "tuple": "model"}, "tuple"),
        ("spectrum", {"domain": BALL2, "tuple": "model", "points": [[0.1, 0.1]]}, "tuple"),
        ("spectrum", {"domain": BALL2, "lambda": 2.0, "tuple": {"kind": "model", "D": "x"}}, "tuple.D"),
        ("spectrum", {"domain": BALL2, "lambda": 2.0, "tuple": {"D": -1}}, "tuple.D"),
        ("spectrum", {"domain": BALL2, "lambda": 2.0, "tuple": {"D": 3.7}}, "tuple.D"),
        ("spectrum", {"domain": BALL2, "tuple": DIAGONAL, "points": 5}, "points"),
        ("spectrum", {"domain": BALL2, "tuple": DIAGONAL, "grid": 3}, "grid"),
        ("calculus", {"domain": BALL1, "polys": 3}, "polys"),
        ("calculus", {"domain": BALL1, "z0_list": 5}, "z0_list"),
        ("kernel", kernel_cfg(3), "out"),
        ("invariance", invariance_cfg(None, cache_dir=3), "cache_dir"),
        # the domain size is an integer, never coerced from a float, string or boolean
        ("kernel", kernel_cfg(None, domain={"kind": "ball", "n": 2.5}), "domain"),
        ("kernel", kernel_cfg(None, domain={"kind": "ball", "n": "2"}), "domain"),
        ("kernel", kernel_cfg(None, domain={"kind": "ball", "n": True}), "domain"),
        ("kernel", kernel_cfg(None, domain={"kind": "matrixball", "n": 2, "r": 1.0}), "domain"),
    ],
)
def test_config_fields_of_the_wrong_type_are_config_errors(tmp_path, capsys, command, cfg, field):
    cfg = write_cfg(tmp_path, "cfg.json", cfg)
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert f"config error at '{field}'" in err
    assert "Traceback" not in err
