"""Acceptance suite: ten end-to-end checks at their stated tolerances.

Each test prints exactly one summary line, `criterion N: PASS ...` or
`criterion N: FAIL`, in addition to the pytest verdict.  Criteria with a
runtime budget assert the measured wall time as part of the check.
"""

import itertools
import time
from contextlib import contextmanager

import numpy as np

from symdom.calculus import (
    composition_residual,
    integral_calculus,
    mobius_rational_components,
    series_calculus,
    shilov_quadrature,
)
from symdom.domains import DomainSpec, flatten_point, mobius
from symdom.kernels import (
    closed_form_norm,
    gram_block,
    kernel_eval,
    multi_indices,
    series_partial_sum,
    truncated_basis,
)
from symdom.koszul import (
    boundary_square_defect,
    hausdorff_distance,
    joint_eigenvalues,
    koszul_boundaries,
    taylor_point_test,
)
from symdom.operators import (
    compress,
    cross_commutator,
    essential_normality_profile,
    permissive_transform,
    quotient_model,
)
from symdom.polynomials import Polynomial
from symdom.sampling import random_commuting_tuple, random_point

BALL1 = DomainSpec.ball(1)
BALL2 = DomainSpec.ball(2)
POLY2 = DomainSpec.polydisc(2)
MB22 = DomainSpec.matrix_ball(2, 2)

Z1 = Polynomial.coordinate(0, 2)
Z2 = Polynomial.coordinate(1, 2)

NOISE_FLOOR = 1e-10


@contextmanager
def criterion(num: int):
    stamp = time.perf_counter()
    info = {"detail": ""}
    try:
        yield info
    except BaseException:
        print(f"criterion {num}: FAIL")
        raise
    elapsed = time.perf_counter() - stamp
    print(f"criterion {num}: PASS ({info['detail']} in {elapsed:.1f}s)")


def random_poly(nvars, degree, rng):
    terms = {}
    for d in range(degree + 1):
        for alpha in multi_indices(nvars, d):
            terms[alpha] = complex(rng.standard_normal(), rng.standard_normal())
    return Polynomial(nvars, terms)


def test_criterion_01_kernel_partial_sums_degree_25():
    # |degree-25 partial sum - closed form| <= 1e-8, 100 pairs per case, < 30 s
    with criterion(1) as info:
        start = time.perf_counter()
        rng = np.random.default_rng(101)
        worst = 0.0
        for dom in (BALL2, POLY2):
            for lam in (1.0, 3.0):
                for _ in range(100):
                    z = random_point(dom, rng, max_norm=0.6)
                    w = random_point(dom, rng, max_norm=0.6)
                    err = abs(
                        series_partial_sum(dom, lam, z, w, 25) - kernel_eval(dom, lam, z, w)
                    )
                    worst = max(worst, err)
        elapsed = time.perf_counter() - start
        assert worst <= 1e-8
        assert elapsed < 30.0
        info["detail"] = f"max |partial-closed| {worst:.2e}"


def test_criterion_02_gram_blocks_match_norm_oracle():
    # diagonal Gram = closed-form norms, rel 1e-10; matrix-ball blocks PD, < 60 s
    with criterion(2) as info:
        start = time.perf_counter()
        worst = 0.0
        for kind in ("ball", "polydisc"):
            for n in (1, 2, 3):
                dom = DomainSpec.ball(n) if kind == "ball" else DomainSpec.polydisc(n)
                for lam in (1.0, 3.0):
                    for d in range(11):
                        got = gram_block(dom, lam, d).gram
                        want = np.diag(
                            [closed_form_norm(dom, lam, a) for a in multi_indices(n, d)]
                        )
                        worst = max(worst, np.abs(got - want).max() / want.max())
        min_eig = np.inf
        for d in range(9):
            block = gram_block(MB22, 4.0, d).gram
            assert np.abs(block - block.conj().T).max() <= 1e-12
            min_eig = min(min_eig, np.linalg.eigvalsh(block).min())
        elapsed = time.perf_counter() - start
        assert worst <= 1e-10
        assert min_eig > 0
        assert elapsed < 60.0
        info["detail"] = f"gram rel dev {worst:.2e}, matrix-ball min eig {min_eig:.2e}"


def test_criterion_03_product_compression_identity():
    # S_fg = S_f S_g on the degree window, 1e-12, 20 pairs x 3 submodule specs
    with criterion(3) as info:
        rng = np.random.default_rng(103)
        basis = truncated_basis(BALL2, 3.0, 10)
        worst = 0.0
        for gens in ([Z1], [Z1 * Z2], [Z1 * Z1 + Z2]):
            model = quotient_model(basis, gens)
            labels = model.degree_labels
            for _ in range(20):
                f = random_poly(2, 3, rng)
                g = random_poly(2, 3, rng)
                window = labels <= 10 - f.degree() - g.degree()
                diff = (compress(model, f * g) - compress(model, f) @ compress(model, g))[
                    :, window
                ]
                worst = max(worst, np.abs(diff).max())
        assert worst <= 1e-12
        info["detail"] = f"max window defect {worst:.2e}"


def test_criterion_04_permissive_scaling_is_quadratic():
    # commutators of c T + d scale by exactly c^2, 1e-13, 20 random (c, d)
    with criterion(4) as info:
        rng = np.random.default_rng(104)
        basis = truncated_basis(BALL2, 2.0, 6)
        mats = quotient_model(basis, [Z1]).tuple_mats
        base = [[cross_commutator(a, b) for b in mats] for a in mats]
        worst = 0.0
        for _ in range(20):
            c = rng.uniform(0.1, 1.0)
            shift = random_point(BALL2, rng, max_norm=0.85)
            moved = permissive_transform(mats, c, shift, BALL2)
            for i, a in enumerate(moved):
                for j, b in enumerate(moved):
                    diff = np.abs(cross_commutator(a, b) - c**2 * base[i][j]).max()
                    worst = max(worst, diff)
        assert worst <= 1e-13
        info["detail"] = f"max scaling defect {worst:.2e}"


def test_criterion_05_integral_formula_suites():
    # quadrature calculus vs direct evaluation: disc 1e-9 at 1024 nodes,
    # Polydisc(2) 1e-8 at 256^2 nodes, Ball(2) 1e-3 with >= 2e5 QMC nodes; < 2 min
    with criterion(5) as info:
        start = time.perf_counter()
        rng = np.random.default_rng(105)
        suites = [
            (BALL1, 10, 1024, 6, 6, 0.7, 3, 3, 1e-9),
            (POLY2, 8, 256**2, 4, 3, 0.6, 2, 2, 1e-8),
            (BALL2, 4, 256_000, 4, 3, 0.5, 2, 2, 1e-3),
        ]
        details = []
        for dom, level, want_nodes, h, deg, radius, n_tuples, n_polys, tol in suites:
            quad = shilov_quadrature(dom, level)
            assert len(quad.nodes) == want_nodes
            worst = 0.0
            for _ in range(n_tuples):
                mats = random_commuting_tuple(dom.dim, h, rng, spectral_radius=radius)
                for _ in range(n_polys):
                    f = random_poly(dom.dim, deg, rng)
                    got = integral_calculus(mats, [f], quad, dom)[0].value
                    want = series_calculus(mats, f)
                    rel = np.abs(got - want).max() / max(1.0, np.abs(want).max())
                    worst = max(worst, rel)
            assert worst <= tol
            details.append(f"{dom.label()} {worst:.1e}")
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0
        info["detail"] = "rel err " + ", ".join(details)


def test_criterion_06_composition_law_and_spectral_mapping():
    # g_{-z0}(g_{z0}(T)) = T to 1e-8; Moebius spectral mapping to 1e-8
    with criterion(6) as info:
        rng = np.random.default_rng(106)
        worst_comp = 0.0
        for _ in range(5):
            t = random_commuting_tuple(1, 6, rng, spectral_radius=0.7)
            z0 = np.array([complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.2, 0.2))])
            if abs(z0[0]) >= 0.7:
                z0 = 0.9 * z0
            worst_comp = max(worst_comp, composition_residual(t, z0, BALL1))
        for _ in range(5):
            mats = random_commuting_tuple(2, 4, rng, spectral_radius=0.6)
            z0 = random_point(POLY2, rng, max_norm=0.7)
            worst_comp = max(worst_comp, composition_residual(mats, z0, POLY2))
        worst_map = 0.0
        for dom in (BALL2, POLY2):
            pts = np.array([random_point(dom, rng, max_norm=0.55) for _ in range(4)])
            s = rng.standard_normal((4, 4)) + 3 * np.eye(4)
            sinv = np.linalg.inv(s)
            mats = [s @ np.diag(pts[:, i]) @ sinv for i in range(2)]
            z0 = random_point(dom, rng, max_norm=0.5)
            comps = mobius_rational_components(dom, z0)
            from symdom.calculus import mobius_of_tuple

            got = joint_eigenvalues(mobius_of_tuple(mats, z0, dom))
            want = np.array(
                [[c.p.eval_point(p) / c.q.eval_point(p) for c in comps] for p in pts]
            )
            worst_map = max(worst_map, hausdorff_distance(got, want))
        assert worst_comp <= 1e-8
        assert worst_map <= 1e-8
        info["detail"] = f"composition {worst_comp:.2e}, spectral map {worst_map:.2e}"


def test_criterion_07_point_tests_match_eigenvalue_oracle():
    # 50 random commuting tuples: Singular at all joint eigenvalues, Regular at
    # 20 far points each; boundary squares vanish to 1e-12
    with criterion(7) as info:
        rng = np.random.default_rng(107)
        worst_square = 0.0
        checked = 0
        for trial in range(50):
            n = 1 + trial % 3
            h = 3 + trial % 4
            mats = random_commuting_tuple(n, h, rng, spectral_radius=0.7)
            worst_square = max(worst_square, boundary_square_defect(koszul_boundaries(mats)))
            eigs = joint_eigenvalues(mats)
            for row in eigs:
                assert not taylor_point_test(mats, row).regular
                checked += 1
            regular = 0
            while regular < 20:
                w = 0.9 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
                if np.min(np.linalg.norm(eigs - w, axis=1)) < 0.1:
                    continue
                assert taylor_point_test(mats, w).regular
                regular += 1
                checked += 1
        assert worst_square <= 1e-12
        info["detail"] = f"{checked} point tests, max boundary square {worst_square:.1e}"


def test_criterion_08_quotient_point_spectrum_surrogate():
    # quotient of the z1 submodule: Singular at (0,0), Regular at (0.5,0.5)
    with criterion(8) as info:
        for d_trunc in (6, 10, 14):
            basis = truncated_basis(BALL2, 1.0, d_trunc)
            mats = list(quotient_model(basis, [Z1]).tuple_mats)
            assert not taylor_point_test(mats, np.zeros(2)).regular
            assert taylor_point_test(mats, np.array([0.5, 0.5])).regular
        info["detail"] = "D in {6, 10, 14}"


def test_criterion_09_windowed_schatten_stabilization():
    # Ball(2), lam=3, both submodule specs, z0=(0.4, 0), p=3: windowed norms
    # finite at D in {8,12,16,20}, <= 5% change from D=16 to 20; z0=0 control
    # makes the two families equal to 1e-12; < 5 min
    with criterion(9) as info:
        start = time.perf_counter()
        degrees = [8, 12, 16, 20]
        coords = [Z1, Z2]
        mob = mobius_rational_components(BALL2, np.array([0.4, 0.0]))
        worst_rel = 0.0
        for gens in ([Z1], [Z1 * Z2]):
            models = [quotient_model(truncated_basis(BALL2, 3.0, d), gens) for d in degrees]
            for family, symbols in (("coordinates", coords), ("mobius", mob)):
                rows = [
                    r
                    for model in models
                    for r in essential_normality_profile(model, symbols, [3.0], family=family)
                ]
                per_cell: dict[tuple, dict[int, float]] = {}
                for r in rows:
                    assert np.isfinite(r.schatten_windowed)
                    assert np.isfinite(r.schatten_full)
                    per_cell.setdefault((r.symbol_i, r.symbol_j), {})[
                        r.max_degree
                    ] = r.schatten_windowed
                for cell in per_cell.values():
                    prev, last = cell[16], cell[20]
                    rel = abs(last - prev) / prev if prev > NOISE_FLOOR else 0.0
                    assert rel <= 0.05
                    worst_rel = max(worst_rel, rel)
        mob0 = mobius_rational_components(BALL2, np.zeros(2))
        for gens, d in itertools.product(([Z1], [Z1 * Z2]), (8, 12)):
            model = quotient_model(truncated_basis(BALL2, 3.0, d), gens)
            a = essential_normality_profile(model, coords, [3.0], family="coordinates")
            b = essential_normality_profile(model, mob0, [3.0], family="mobius")
            for ra, rb in zip(a, b):
                assert abs(ra.schatten_full - rb.schatten_full) <= 1e-12
                assert abs(ra.schatten_windowed - rb.schatten_windowed) <= 1e-12
        elapsed = time.perf_counter() - start
        assert elapsed < 300.0
        info["detail"] = f"max rel change {worst_rel:.2%}"


def test_criterion_10_mobius_anchors_and_ball_identity():
    # g(0)=z0 and g(-z0)=0 to 1e-12, 1000 draws per family; the ball norm
    # identity 1-|g(-z)|^2 = (1-|z0|^2)(1-|z|^2)/|1-<z,z0>|^2 to 1e-12
    with criterion(10) as info:
        rng = np.random.default_rng(110)
        worst_anchor = 0.0
        for dom in (BALL2, POLY2, MB22):
            for _ in range(1000):
                z0 = random_point(dom, rng, max_norm=0.9)
                g = mobius(dom, z0)
                zero = np.zeros_like(flatten_point(dom, z0)).reshape(
                    np.asarray(z0).shape
                )
                worst_anchor = max(
                    worst_anchor,
                    np.abs(flatten_point(dom, g(zero)) - flatten_point(dom, z0)).max(),
                    np.abs(flatten_point(dom, g(-np.asarray(z0)))).max(),
                )
        worst_identity = 0.0
        for _ in range(1000):
            z0 = random_point(BALL2, rng, max_norm=0.9)
            z = random_point(BALL2, rng, max_norm=0.9)
            g = mobius(BALL2, z0)
            lhs = 1.0 - np.linalg.norm(g(-z)) ** 2
            rhs = (
                (1.0 - np.linalg.norm(z0) ** 2)
                * (1.0 - np.linalg.norm(z) ** 2)
                / abs(1.0 - np.vdot(z0, z)) ** 2
            )
            worst_identity = max(worst_identity, abs(lhs - rhs))
        assert worst_anchor <= 1e-12
        assert worst_identity <= 1e-12
        info["detail"] = (
            f"anchor defect {worst_anchor:.1e}, identity defect {worst_identity:.1e}"
        )
