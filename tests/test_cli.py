"""End-to-end tests of the `symdom` command-line harness: happy paths,
deterministic reruns, overrides, and config error reporting."""

import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from symdom import cli, koszul
from symdom.cli import FIELDS, main, normalize_config, summary_path_for
from symdom.domains import DomainSpec
from symdom.kernels import cache_key, gram_block, load_basis, save_basis

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


def test_zero_pivot_cache_file_is_rebuilt(tmp_path, capsys):
    # finite and upper triangular, but singular: a triangular solve with it
    # would fail, so it must count as a miss
    out1 = str(tmp_path / "a.csv")
    out2 = str(tmp_path / "b.csv")
    cache = tmp_path / "cache"
    cfg = write_cfg(tmp_path, "cfg.json", invariance_cfg(out1, D_list=[4]))
    args = ["invariance", "--config", cfg, "--cache-dir", str(cache)]
    assert main(args) == 0
    basis = load_basis(DomainSpec.ball(2), 2.0, 4, str(cache))
    # ball2 weight classes are single monomials: one (3, 1, 1) stack at degree 2
    (good,) = basis.factors[2]
    bad = good.copy()
    bad[1, 0, 0] = 0.0
    factors = basis.factors[:2] + ((bad,),) + basis.factors[3:]
    save_basis(dataclasses.replace(basis, factors=factors), str(cache))
    assert main(args + ["--out", out2]) == 0
    assert "Traceback" not in capsys.readouterr().err
    assert Path(out1).read_bytes() == Path(out2).read_bytes()
    rebuilt = load_basis(DomainSpec.ball(2), 2.0, 4, str(cache))
    assert np.array_equal(rebuilt.factors[2][0], good)


def test_cache_file_for_another_key_is_rebuilt(tmp_path, capsys):
    # a lambda 2 basis under the lambda 3 key's name: its header disagrees
    # with the key, which is a miss like any other bad file, not a guard
    cache = tmp_path / "cache"
    spec = {
        "domain": {"kind": "ball", "n": 2},
        "lambda": 2.0,
        "tuple": {"kind": "model", "D": 4},
        "generators": [Z1_JSON],
        "points": [[0.0, 0.5], [0.5, 0.0]],
    }
    cfg = write_cfg(tmp_path, "cfg.json", spec)
    out = [str(tmp_path / f"{name}.csv") for name in ("lam2", "cached", "fresh")]
    assert main(["spectrum", "--config", cfg, "--cache-dir", str(cache), "--out", out[0]]) == 0
    (written,) = cache.iterdir()
    dom = DomainSpec.ball(2)
    assert written.name == f"basis-{cache_key(dom, 2.0, 4)}.npz"
    os.replace(written, cache / f"basis-{cache_key(dom, 3.0, 4)}.npz")
    args = ["spectrum", "--config", cfg, "--lambda", "3.0"]
    assert main(args + ["--cache-dir", str(cache), "--out", out[1]]) == 0
    assert "Traceback" not in capsys.readouterr().err
    assert main(args + ["--out", out[2]]) == 0
    assert Path(out[1]).read_bytes() == Path(out[2]).read_bytes()
    assert load_basis(dom, 3.0, 4, str(cache)) is not None


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


def test_calculus_ball_default_radius_keeps_the_joint_spectrum_inside(tmp_path, capsys):
    # each component's eigenvalues reach spectral_radius, so on the ball the
    # joint spectral radius can reach it times sqrt(n): at the old default
    # 0.6, ball4's tuples reached 1.0038 at seed 15 and the run exited 3
    out = str(tmp_path / "calc.csv")
    cfg = {"domain": {"kind": "ball", "n": 4}, "level": 1, "out": out}
    assert main(["calculus", "--config", write_cfg(tmp_path, "cfg.json", cfg), "--seed", "15"]) == 0
    assert "error" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "domain, radius",
    [
        ({"kind": "ball", "n": 1}, 0.6),
        ({"kind": "ball", "n": 2}, 0.6),
        ({"kind": "ball", "n": 3}, 0.6 * math.sqrt(2 / 3)),
        ({"kind": "ball", "n": 4}, 0.6 * math.sqrt(0.5)),
        ({"kind": "polydisc", "n": 2}, 0.6),
        ({"kind": "polydisc", "n": 4}, 0.6),
    ],
)
def test_calculus_default_spectral_radius(domain, radius):
    cfg = normalize_config({"domain": domain}, "calculus")
    assert cfg["spectral_radius"] == radius
    joint = math.sqrt(domain["n"]) if domain["kind"] == "ball" else 1.0
    assert cfg["spectral_radius"] * joint < 1.0


@pytest.mark.parametrize(
    "n, radius", [(2, 0.9), (2, 0.9999999999), (2, 1 / math.sqrt(2)), (3, 0.6), (4, 0.5)]
)
def test_calculus_ball_radius_from_one_over_sqrt_n_is_config_error(tmp_path, capsys, n, radius):
    cfg = {"domain": {"kind": "ball", "n": n}, "spectral_radius": radius}
    assert main(["calculus", "--config", write_cfg(tmp_path, "cfg.json", cfg)]) == 2
    err = capsys.readouterr().err
    assert "config error at 'spectral_radius'" in err and f"1/sqrt({n})" in err
    assert "Traceback" not in err
    # the polydisc bounds each coordinate on its own: any radius below 1 runs
    cfg["domain"]["kind"] = "polydisc"
    assert normalize_config(cfg, "calculus")["spectral_radius"] == radius


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


@pytest.mark.parametrize(
    "command, cfg, field",
    [
        ("calculus", {"domain": {"kind": "ball", "n": 2}, "z0_list": [[1.0, 0]]}, "z0_list[0]"),
        (
            "calculus",
            {"domain": {"kind": "ball", "n": 2}, "z0_list": [[0.3, 0], [0.6, 0.8]]},
            "z0_list[1]",
        ),
        ("calculus", {"domain": {"kind": "polydisc", "n": 2}, "z0_list": [[0, "1j"]]}, "z0_list[0]"),
        ("invariance", invariance_cfg(None, z0=[1.0, 0.0]), "z0"),
    ],
)
def test_moebius_base_point_on_the_boundary_is_a_config_error(
    tmp_path, capsys, monkeypatch, command, cfg, field
):
    # calculus's z0_list is checked as invariance's z0: at config time, before
    # the quadrature rule (or anything else) is built
    monkeypatch.setattr(cli, "shilov_quadrature", lambda *a: pytest.fail("rule built"))
    assert main([command, "--config", write_cfg(tmp_path, "cfg.json", cfg)]) == 2
    err = capsys.readouterr().err
    assert f"config error at '{field}': Moebius parameter must be interior" in err
    assert "Traceback" not in err


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


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_invariance_builds_one_model_per_degree(tmp_path, monkeypatch, jobs):
    # two families at D [4, 6]: each D's basis and model are built once and
    # read by both families
    built = {"basis": [], "model": []}
    basis_of, model_of = cli.cached_truncated_basis, cli.quotient_model

    def counted_basis(dom, lam, d_trunc, **kwargs):
        built["basis"].append(d_trunc)
        return basis_of(dom, lam, d_trunc, **kwargs)

    def counted_model(basis, generators):
        built["model"].append(basis.max_degree)
        return model_of(basis, generators)

    monkeypatch.setattr(cli, "cached_truncated_basis", counted_basis)
    monkeypatch.setattr(cli, "quotient_model", counted_model)
    out = str(tmp_path / "inv.csv")
    cfg = write_cfg(tmp_path, "cfg.json", invariance_cfg(out, z0=[0.3, 0.1]))
    assert main(["invariance", "--config", cfg, "--jobs", jobs]) == 0
    assert sorted(built["basis"]) == sorted(built["model"]) == [4, 6]
    body = read_csv(out)[1:]
    # family-major rows: the coordinates at D 4 and 6, then the Moebius symbols
    assert [(r[2], r[3][0]) for r in body] == [
        (str(d), name) for name in "zm" for d in (4, 6) for _ in range(3)
    ]


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


@pytest.mark.parametrize("command, make_cfg", [("kernel", kernel_cfg), ("invariance", invariance_cfg)])
@pytest.mark.parametrize("by_flag", [False, True], ids=["config", "flag"])
def test_repeated_degree_is_a_config_error(tmp_path, capsys, command, make_cfg, by_flag):
    # a repeated degree would write its rows twice and compare it with itself
    out = str(tmp_path / "x.csv")
    cfg = write_cfg(tmp_path, "cfg.json", make_cfg(out, D_list=[4] if by_flag else [4, 6, 6]))
    flag = ["--D", "4,6,6"] if by_flag else []
    assert main([command, "--config", cfg, *flag]) == 2
    assert "config error at 'D_list': duplicate degree 6" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("key, entries, message", [
    ("families", ["coordinates", "coordinates"], "duplicate family coordinates"),
    ("families", ["mobius", "coordinates", "mobius"], "duplicate family mobius"),
    ("p_values", [2, 2.0], "duplicate p 2.0"),
    ("p_values", [3.0, "Infinity", 1.5, "Infinity"], "duplicate p inf"),
])
def test_repeated_family_or_p_is_a_config_error(tmp_path, capsys, key, entries, message):
    # a repeated family or p would compute every cell again and write its rows twice
    out = str(tmp_path / "x.csv")
    text = json.dumps(invariance_cfg(out, **{key: entries})).replace('"Infinity"', "Infinity")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert main(["invariance", "--config", str(cfg)]) == 2
    assert f"config error at '{key}': {message}" in capsys.readouterr().err
    assert not os.path.exists(out)


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


@pytest.mark.parametrize("domain", [{"kind": "ball", "n": 2}, {"kind": "polydisc", "n": 2}])
def test_calculus_huge_level_is_a_prompt_config_error(tmp_path, capsys, domain):
    # the node cap is decided on the level itself, before 2**level is formed
    cfg = write_cfg(tmp_path, "cfg.json", {"domain": domain, "level": 10**9})
    start = time.perf_counter()
    assert main(["calculus", "--config", cfg]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "config error at 'level'" in err and "rule too large at this level" in err


@pytest.mark.parametrize("n", [22, 24])
def test_calculus_torus_past_its_entry_cap_is_a_prompt_config_error(tmp_path, capsys, n):
    # 2^n nodes of n coordinates at level 1: 1.5 GB at n 22, 6.4 GB at n 24
    cfg = write_cfg(tmp_path, "cfg.json", {"domain": {"kind": "polydisc", "n": n}, "level": 1})
    start = time.perf_counter()
    assert main(["calculus", "--config", cfg]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "config error at 'level'" in err and "rule too large at this level" in err


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
        # 100000**4 grid points, past the 2**24 cap, before any array is made
        (
            "spectrum",
            {
                "domain": {"kind": "matrixball", "n": 2, "r": 2},
                "tuple": {"kind": "diagonal", "entries": [[0.2, 0.3, 0.1, 0.1]]},
                "grid": {"start": 0, "stop": 0.5, "steps": 100000},
            },
            "grid.steps",
        ),
        # 401-digit integers: past the floating-point range, never an OverflowError
        ("kernel", kernel_cfg(None, **{"lambda": 10**400}), "lambda"),
        ("invariance", invariance_cfg(None, z0=[10**400, 0.0]), "z0[0]"),
    ],
)
def test_numeric_fields_out_of_range_are_config_errors(tmp_path, capsys, command, cfg, field):
    cfg = write_cfg(tmp_path, "cfg.json", cfg)
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert f"config error at '{field}'" in err
    assert "Traceback" not in err


def test_integer_past_the_digit_limit_is_a_config_error(tmp_path, capsys):
    # json refuses integer literals of more than 4300 digits with a ValueError
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(kernel_cfg(None)).replace("2.0", "1" + "0" * 5000, 1))
    assert main(["kernel", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "config syntax error" in err
    assert "Traceback" not in err


def test_complex_entries_keep_the_string_form(tmp_path):
    out = str(tmp_path / "spec.csv")
    cfg = {
        "domain": POLY2, "tuple": {"kind": "diagonal", "entries": [["0.2+0.1j", [0.3, 0.0]]]},
        "points": [["0.2 + 0.1j", 0.3]], "out": out,
    }
    assert main(["spectrum", "--config", write_cfg(tmp_path, "cfg.json", cfg)]) == 0
    (test,) = [r for r in read_csv(out)[1:] if r[1] == "point_test"]
    assert test[3] != "Regular"


def test_input_too_large_for_memory_is_an_error_exit(tmp_path, capsys):
    # a 10**9 x 10**9 random tuple: numpy refuses the allocation outright
    cfg = write_cfg(tmp_path, "cfg.json", {"domain": BALL1, "tuple_size": 10**9})
    assert main(["calculus", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory") and err.count("\n") == 1
    assert "Traceback" not in err


MB22_Z11 = {
    "domain": {"kind": "matrixball", "n": 2, "r": 2},
    "generators": [{"nvars": 4, "terms": {"1,0,0,0": 1.0}}],
}


@pytest.mark.parametrize(
    "command, cfg",
    [
        ("kernel", kernel_cfg(None, **{"lambda": 100000})),
        ("kernel", kernel_cfg(None, **{"lambda": 100000.5})),
        ("invariance", invariance_cfg(None, **{"lambda": 1e300})),
        ("spectrum", {**MB22_Z11, "lambda": 1e300, "tuple": {"kind": "model", "D": 6}, "points": [[0, 0, 0, 0]]}),
        ("invariance", invariance_cfg(None, permissive={"c": 1e200})),
        ("invariance", invariance_cfg(None, permissive={"c": 1e120})),
    ],
    ids=[
        "kernel-integral-weight", "kernel-weight", "series", "spectrum-series", "commutator",
        "commutator-norm",
    ],
)
def test_finite_inputs_past_the_float_range_are_guard_exits(tmp_path, capsys, command, cfg):
    # a value that overflows to inf or NaN exits 3 with one line, and
    # writes no CSV of inf or nan cells
    out = str(tmp_path / "out.csv")
    assert main([command, "--config", write_cfg(tmp_path, "cfg.json", cfg), "--out", out]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: NonFiniteValue: ") and err.count("\n") == 1
    assert not os.path.exists(out)


def diagonal_spectrum_cfg(n, **scan):
    tup = {"kind": "diagonal", "entries": [[0.1] * n]}
    return {"domain": {"kind": "ball", "n": n}, "tuple": tup, **scan}


@pytest.mark.parametrize(
    "cfg",
    [
        # one grid point in 33 coordinates, past the 32 dimensions np.meshgrid supports
        diagonal_spectrum_cfg(33, grid={"start": 0.0, "stop": 0.5, "steps": 1}),
        # 2**63 and 2**64 sign patterns: np.arange raised TypeError and ValueError
        diagonal_spectrum_cfg(63, points=[[0.0] * 63]),
        diagonal_spectrum_cfg(64, points=[[0.0] * 64]),
        # 2**22 sign patterns alone took 1.6 GB
        diagonal_spectrum_cfg(22, points=[[0.0] * 22]),
    ],
    ids=["grid-ball33", "points-ball63", "points-ball64", "points-ball22"],
)
def test_koszul_complex_too_large_for_memory_is_an_error_exit(tmp_path, capsys, monkeypatch, cfg):
    # refused before the sign group, any subset list or any boundary is built
    for name in ("_sign_symmetries", "_subsets", "_assemble", "_stages"):
        monkeypatch.setattr(koszul, name, lambda *args, name=name: pytest.fail(f"{name} reached"))
    out = str(tmp_path / "spec.csv")
    assert main(["spectrum", "--config", write_cfg(tmp_path, "cfg.json", dict(cfg, out=out))]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: Koszul boundaries of") and err.count("\n") == 1
    assert not os.path.exists(out)


def test_invariance_accepts_infinite_p(tmp_path):
    # p = inf is the operator norm; JSON spells it Infinity
    out = str(tmp_path / "inv.csv")
    cfg = write_cfg(
        tmp_path, "cfg.json",
        invariance_cfg(out, D_list=[3], p_values=[float("inf")], families=["coordinates"]),
    )
    assert main(["invariance", "--config", cfg]) == 0
    assert {r[5] for r in read_csv(out)[1:]} == {"inf"}


def loaded_after(code):
    """The modules ``code`` leaves loaded in a fresh interpreter."""
    code += "; import json, sys; print(json.dumps(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    return set(json.loads(done.stdout.splitlines()[-1]))


def scipy_modules(loaded):
    return sorted(m for m in loaded if m.split(".")[0] == "scipy")


def test_import_loads_no_scipy():
    assert scipy_modules(loaded_after("import symdom.cli")) == []


# numpy.random loads secrets, hmac and hashlib, and hashlib loads OpenSSL;
# symdom draws from sampling.Stream and names cache files with zlib.  Under
# numpy 1.x, `import numpy` itself imports numpy.random, so these checks
# fail there whatever symdom does.
OPENSSL_PATH = {"numpy.random", "secrets", "hashlib", "_hashlib"}


def test_import_loads_no_thread_pool_or_hashlib():
    # concurrent.futures (with logging) serves only --jobs
    loaded = loaded_after("import symdom.cli")
    assert {"concurrent.futures", "numpy.random", "hashlib", "_hashlib"} & loaded == set()


def test_import_decodes_no_ziggurat_table():
    # the normal tables wait for the first normal draw
    code = "import symdom.cli, symdom.sampling as s; assert s._tables.cache_info().currsize == 0"
    assert "symdom.ziggurat" not in loaded_after(code)


def test_seeded_runs_load_no_numpy_random_or_openssl(tmp_path):
    # kernel point pairs, joint-eigenvalue combinations, calculus tuples and
    # the Moebius denominator samples all come from sampling.Stream
    mb22 = {"kind": "matrixball", "n": 2, "r": 2}
    configs = {
        "kernel": kernel_cfg(None),
        "spectrum": {
            "domain": mb22, "lambda": 2.5, "tuple": {"kind": "model", "D": 3},
            "generators": [{"nvars": 4, "terms": {"1,0,0,0": 1.0}}],
            "grid": {"start": -0.5, "stop": 0.5, "steps": 2},
        },
        "calculus": {"domain": BALL2, "level": 1, "num_tuples": 2},
        "invariance": invariance_cfg(
            None, D_list=[3, 4], families=["mobius"], z0=[0.3, 0.1]
        ),
    }
    for command, cfg in configs.items():
        out = str(tmp_path / f"{command}.csv")
        path = write_cfg(tmp_path, f"{command}.json", dict(cfg, out=out))
        code = f"from symdom.cli import main; assert main([{command!r}, '--config', {path!r}]) == 0"
        assert OPENSSL_PATH & loaded_after(code) == set(), command
        assert len(read_csv(out)) > 1


def test_cached_invariance_loads_no_openssl(tmp_path):
    # the cache key is a zlib checksum, so neither the run that writes the
    # cache nor the one that reads it loads hashlib
    out = str(tmp_path / "inv.csv")
    cfg = write_cfg(
        tmp_path, "cfg.json",
        invariance_cfg(out, D_list=[3, 4], families=["coordinates"]),
    )
    args = ["invariance", "--config", cfg, "--cache-dir", str(tmp_path / "cache")]
    code = f"from symdom.cli import main; assert main({args!r}) == 0"
    for _ in ("cold", "warm"):
        assert {"hashlib", "_hashlib"} & loaded_after(code) == set()
    assert len(list((tmp_path / "cache").glob("basis-*.npz"))) == 2


def test_warm_cache_coordinate_invariance_loads_no_scipy_linalg_or_sparse(tmp_path):
    # the first process builds the bases and fills the cache, the second
    # reads them; the kernel and operator layers need numpy alone
    out = str(tmp_path / "inv.csv")
    cfg = write_cfg(
        tmp_path, "cfg.json",
        invariance_cfg(
            out, domain={"kind": "matrixball", "n": 2, "r": 2}, D_list=[4, 5],
            generators=[{"nvars": 4, "terms": {"1,0,0,0": 1.0}}],
            families=["coordinates"], **{"lambda": 2.5},
        ),
    )
    args = ["invariance", "--config", cfg, "--cache-dir", str(tmp_path / "cache")]
    code = f"from symdom.cli import main; assert main({args!r}) == 0"
    # numpy.ma too, where numpy itself does not import it (numpy 1.x does)
    masked = {"numpy.ma"} & loaded_after("import numpy")
    cold_loaded = loaded_after(code)
    assert scipy_modules(cold_loaded) == []
    assert {"numpy.ma"} & cold_loaded == masked
    cold = read_csv(out)
    warm_loaded = loaded_after(code)
    assert scipy_modules(warm_loaded) == []
    assert {"numpy.ma"} & warm_loaded == masked
    assert read_csv(out) == cold


def test_kernel_run_loads_no_scipy(tmp_path):
    # series blocks, partial sums and Gram blocks of the matrix ball in numpy
    out = str(tmp_path / "kernel.csv")
    cfg = write_cfg(
        tmp_path, "cfg.json",
        kernel_cfg(out, domain={"kind": "matrixball", "n": 2, "r": 2}, D_list=[6],
                   gram_degree=3, **{"lambda": 2.5}),
    )
    code = f"from symdom.cli import main; assert main(['kernel', '--config', {cfg!r}]) == 0"
    assert scipy_modules(loaded_after(code)) == []
    assert {r[2] for r in read_csv(out)[1:]} == {"partial_sum_error", "gram_min_eig"}


def test_graded_spectrum_run_loads_no_scipy(tmp_path):
    # a graded model and a diagonal tuple triangularize by a basis permutation
    mb22 = {"kind": "matrixball", "n": 2, "r": 2}
    configs = {
        "model": {
            "domain": mb22, "lambda": 2.5, "tuple": {"kind": "model", "D": 3},
            "generators": [{"nvars": 4, "terms": {"1,0,0,0": 1.0}}],
            "grid": {"start": -0.5, "stop": 0.5, "steps": 2},
        },
        "diagonal": {
            "domain": {"kind": "polydisc", "n": 2},
            "tuple": {"kind": "diagonal", "entries": [[0.2, 0.3], [-0.4, 0.1], [0.2, 0.3]]},
            "points": [[0.2, 0.3], [0.9, 0.9]],
        },
    }
    eigenvalues = {}
    for name, cfg in configs.items():
        out = str(tmp_path / f"{name}.csv")
        path = write_cfg(tmp_path, f"{name}.json", dict(cfg, out=out))
        code = f"from symdom.cli import main; assert main(['spectrum', '--config', {path!r}]) == 0"
        assert scipy_modules(loaded_after(code)) == []
        eigenvalues[name] = [r[2] for r in read_csv(out)[1:] if r[1] == "joint_eigenvalue"]
    assert set(eigenvalues["model"]) == {"0.0+0.0j 0.0+0.0j 0.0+0.0j 0.0+0.0j"}
    assert sorted(eigenvalues["diagonal"]) == [
        "-0.4+0.0j 0.1+0.0j", "0.2+0.0j 0.3+0.0j", "0.2+0.0j 0.3+0.0j"
    ]


def test_filtration_spectrum_run_reports_exact_zeros(tmp_path):
    # modulo the inhomogeneous z1^2 + z2 the compressed tuple is nilpotent
    # and stored with its structural zeros, so it peels with no Schur form
    out = str(tmp_path / "spec.csv")
    cfg = write_cfg(
        tmp_path,
        "cfg.json",
        {
            "domain": BALL2, "lambda": 2.0, "tuple": {"kind": "model", "D": 6},
            "generators": [{"nvars": 2, "terms": {"2,0": 1.0, "0,1": 1.0}}],
            "grid": {"start": -0.5, "stop": 0.5, "steps": 3}, "out": out,
        },
    )
    code = f"from symdom.cli import main; assert main(['spectrum', '--config', {cfg!r}]) == 0"
    assert scipy_modules(loaded_after(code)) == []
    body = read_csv(out)[1:]
    assert [r[2] for r in body if r[1] == "joint_eigenvalue"] == ["0.0+0.0j 0.0+0.0j"] * 7
    verdicts = {r[2]: r[3] for r in body if r[1] == "point_test"}
    assert len(verdicts) == 9 and verdicts.pop("0.0+0.0j 0.0+0.0j") == "Singular"
    assert set(verdicts.values()) == {"Regular"}


def test_sphere_calculus_runs_without_scipy_stats(tmp_path):
    # the sphere rule reads scipy's direction-number table from its file and
    # takes the normal quantile in numpy; the guard's Schur basis is numpy's
    out = str(tmp_path / "calc.csv")
    cfg = write_cfg(
        tmp_path, "cfg.json", {"domain": BALL2, "level": 1, "num_tuples": 1, "out": out}
    )
    code = f"from symdom.cli import main; assert main(['calculus', '--config', {cfg!r}]) == 0"
    assert scipy_modules(loaded_after(code)) == []
    assert {r[6] for r in read_csv(out)[1:] if r[1] == "integral_vs_series"} == {"4000"}


@pytest.mark.parametrize(
    "domain, level, nodes",
    [({"kind": "ball", "n": 3}, 1, "4000"), ({"kind": "polydisc", "n": 2}, 3, "64")],
    ids=["ball3", "polydisc2"],
)
def test_calculus_loads_no_scipy(tmp_path, domain, level, nodes):
    out = str(tmp_path / "calc.csv")
    cfg = write_cfg(
        tmp_path, "cfg.json", {"domain": domain, "level": level, "num_tuples": 1, "out": out}
    )
    code = f"from symdom.cli import main; assert main(['calculus', '--config', {cfg!r}]) == 0"
    assert scipy_modules(loaded_after(code)) == []
    assert {r[6] for r in read_csv(out)[1:] if r[1] == "integral_vs_series"} == {nodes}


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
POLY2 = {"kind": "polydisc", "n": 2}
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
        # a misspelled key is reported, never ignored in favour of the default
        ("invariance", invariance_cfg(None, p_value=[1.0]), "p_value"),
        ("invariance", invariance_cfg(None, familes=["coordinates"]), "familes"),
        ("spectrum", {"domain": BALL2, "lambda": 2.0, "tuple": {"d": 3}, "points": [[0.1, 0.1]]}, "tuple.d"),
        ("spectrum", {"domain": BALL2, "tuple": DIAGONAL, "grid": {"step": 9}}, "grid.step"),
        ("kernel", kernel_cfg(None, domain={"kind": "ball", "n": 2, "r": 1}), "domain.r"),
        ("kernel", kernel_cfg(None, generators=[Z1_JSON]), "generators"),
        # a polynomial's nvars is an integer, never a boolean or a float
        (
            "invariance",
            invariance_cfg(None, domain=BALL1, generators=[{"nvars": True, "terms": {"1": 1.0}}]),
            "generators[0].nvars",
        ),
        ("invariance", invariance_cfg(None, generators=[dict(Z1_JSON, nvars=2.0)]), "generators[0].nvars"),
        ("calculus", {"domain": BALL1, "polys": [{"terms": {"1": 1.0}, "var": 1}]}, "polys[0].var"),
        # a complex entry is a JSON number, "re+imj" or [re, im] of JSON numbers
        ("spectrum", {"domain": POLY2, "tuple": DIAGONAL, "points": [[True, 0.0]]}, "points[0][0]"),
        (
            "spectrum",
            {"domain": POLY2, "tuple": {"kind": "diagonal", "entries": [[0.2, ["0.2", 0.0]]]},
             "points": [[0.1, 0.1]]},
            "tuple.entries[0][1]",
        ),
        (
            "spectrum",
            {"domain": POLY2, "tuple": {"kind": "diagonal", "entries": [[0.2, [0.2, False]]]},
             "points": [[0.1, 0.1]]},
            "tuple.entries[0][1]",
        ),
    ],
)
def test_config_fields_of_the_wrong_type_are_config_errors(tmp_path, capsys, command, cfg, field):
    cfg = write_cfg(tmp_path, "cfg.json", cfg)
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert f"config error at '{field}'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command, cfg, field",
    [
        # every term zero: the zero polynomial generates nothing
        ("invariance", invariance_cfg(None, generators=[{"terms": {"1,0": 0.0}}]), "generators[0]"),
        ("calculus", {"domain": {"kind": "matrixball", "n": 2, "r": 2}}, "domain"),
        # past the sphere rule's node limit
        ("calculus", {"domain": BALL2, "level": 7}, "level"),
        (
            "spectrum",
            {"domain": BALL2, "lambda": 2.0, "tuple": {"kind": "model", "D": 1},
             "generators": [{"terms": {"2,0": 1.0}}], "points": [[0.1, 0.1]]},
            "tuple.D",
        ),
        # 2n past the rows of the Sobol direction-number table
        (
            "calculus",
            {"domain": {"kind": "ball", "n": 10601}, "level": 1, "num_tuples": 1, "tuple_size": 1},
            "domain",
        ),
    ],
)
def test_inputs_the_library_rejects_are_config_errors(tmp_path, capsys, command, cfg, field):
    cfg = write_cfg(tmp_path, "cfg.json", cfg)
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert f"config error at '{field}'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "cfg, gap",
    [
        # the commutator of the unshifted entries would overflow: 1e200 * 1e200
        (
            {"domain": BALL2, "tuple": {"kind": "diagonal", "entries": [[1e200, 1e200]]},
             "points": [[1e200, 0.2]]},
            1e200,
        ),
        # the commutator of the shifted tuple would overflow: (S - 1e200)(S - 1e200)
        (
            {"domain": BALL2, "lambda": 2.0, "tuple": {"kind": "model", "D": 4},
             "generators": [Z1_JSON], "points": [[1e200, 1e200]]},
            None,
        ),
    ],
)
def test_spectrum_huge_finite_inputs_are_answered(tmp_path, capsys, cfg, gap):
    out = str(tmp_path / "spec.csv")
    cfg = write_cfg(tmp_path, "cfg.json", dict(cfg, out=out))
    assert main(["spectrum", "--config", cfg]) == 0
    assert "Traceback" not in capsys.readouterr().err
    (test,) = [r for r in read_csv(out)[1:] if r[1] == "point_test"]
    assert test[3] == "Regular"
    got = float(test[4])
    assert np.isfinite(got) and got > 1e199
    if gap is not None:
        assert got == gap


def test_spectrum_shift_past_the_float_range_is_a_guard_error(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        "cfg.json",
        {"domain": BALL2, "tuple": {"kind": "diagonal", "entries": [[1e308, 0.1]]},
         "points": [[-1e308, 0.2]]},
    )
    assert main(["spectrum", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert "float range" in err
    assert "Traceback" not in err


def test_duplicate_keys_are_config_errors(tmp_path, capsys):
    # json.loads alone keeps the last "lambda" and runs with it
    path = tmp_path / "cfg.json"
    path.write_text(
        '{"domain": {"kind": "ball", "n": 2}, "lambda": 0.0, "D_list": [2], "lambda": 2.0}'
    )
    assert main(["kernel", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "config error at 'lambda': duplicate key" in err
    assert "Traceback" not in err
    path.write_text('{"domain": {"kind": "ball", "n": 2, "n": 3}, "lambda": 2.0, "D_list": [2]}')
    assert main(["kernel", "--config", str(path)]) == 2
    assert "config error at 'n': duplicate key" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["0", "-5"])
def test_jobs_below_one_is_a_config_error(tmp_path, capsys, jobs):
    out = str(tmp_path / "inv.csv")
    cfg = write_cfg(tmp_path, "cfg.json", invariance_cfg(out))
    assert main(["invariance", "--config", cfg, "--jobs", jobs]) == 2
    err = capsys.readouterr().err
    assert "config error at '--jobs'" in err
    assert "Traceback" not in err
    assert not os.path.exists(out)


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_example_config_is_valid():
    # the README's example invariance.json cannot drift from the key tables
    readme = README.read_text(encoding="utf-8")
    block = readme.split("Example `invariance.json`:", 1)[1].split("```json", 1)[1]
    cfg = json.loads(block.split("```", 1)[0])
    normalized = normalize_config(cfg, "invariance")
    assert normalized["p_values"] == [3.0]
    assert normalized["families"] == ["coordinates", "mobius"]


def test_readme_schema_lists_every_key():
    notes = README.read_text(encoding="utf-8").split("Schema notes.", 1)[1].split("\nValues:", 1)[0]
    bullets = notes.split("\n- ")[1:]
    common = next(b for b in bullets if b.startswith("Every subcommand"))
    for command, table in FIELDS.items():
        text = common + next(b for b in bullets if b.startswith(f"`{command}`"))
        nested = [k for field in table.values() if field.kind == "table" for k in field.of]
        missing = [k for k in [*table, *nested] if f"`{k}`" not in text]
        assert not missing, (command, missing)


def test_normalize_config_fills_every_table_key():
    cfg = normalize_config({"domain": BALL1, "level": 2}, "calculus")
    assert set(cfg) == set(FIELDS["calculus"])
    assert (cfg["level"], cfg["tuple_size"], cfg["num_tuples"]) == (2, 6, 3)
    assert cfg["out"] is None


def test_polys_keep_their_term_order_and_generators_are_sorted():
    # f(T) sums a polynomial's terms in the order given, and the order moves
    # the last digits of the calculus residuals; generators are held by degree
    terms = {"2,1": 0.5, "0,0": -0.25, "1,0": 1.5}
    cfg = normalize_config({"domain": {"kind": "polydisc", "n": 2}, "polys": [{"terms": terms}]}, "calculus")
    assert list(cfg["polys"][0]["terms"]) == ["2,1", "0,0", "1,0"]
    cfg = normalize_config(invariance_cfg(None, generators=[{"terms": terms}], D_list=[4]), "invariance")
    assert list(cfg["generators"][0]["terms"]) == ["0,0", "1,0", "2,1"]
