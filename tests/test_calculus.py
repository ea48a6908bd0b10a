"""Shilov-boundary quadrature, kernel powers of tuples, integral and series
calculus, Moebius transforms of tuples, and the composition law."""

import math

import numpy as np
import pytest

from symdom.calculus import (
    _szegoe_batch,
    composition_residual,
    delta_power_tuple,
    integral_calculus,
    mobius_of_tuple,
    mobius_rational_components,
    series_calculus,
    shilov_quadrature,
)
from symdom.domains import DomainSpec, hermitian_sqrt
from symdom.errors import (
    QuadratureUnderResolved,
    SpectrumTouchesBoundary,
    ValidationError,
)
from symdom.kernels import kernel_eval
from symdom.koszul import hausdorff_distance, joint_eigenvalues
from symdom.operators import permissive_transform
from symdom.polynomials import Polynomial
from symdom.sampling import random_commuting_tuple, random_point

BALL1 = DomainSpec.ball(1)
BALL2 = DomainSpec.ball(2)
POLY2 = DomainSpec.polydisc(2)
POLY3 = DomainSpec.polydisc(3)
MB22 = DomainSpec.matrix_ball(2, 2)


def jordan_like_disc_matrix():
    # commuting "tuple" of length one: spectral radius 0.7, nontrivial nilpotent part
    t = 0.7 * np.eye(6)
    for k in range(5):
        t[k, k + 1] = 0.4
    return t


def diag_tuple(points):
    pts = np.asarray(points, dtype=complex)
    return [np.diag(pts[:, i]) for i in range(pts.shape[1])]


# ---------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------

def test_circle_level3_nodes():
    quad = shilov_quadrature(BALL1, 3)
    nodes = np.array([z[0] for z in quad.nodes])
    assert nodes.size == 8
    assert np.abs(np.abs(nodes) - 1.0).max() < 1e-14
    assert np.abs(np.array(quad.weights) - 0.125).max() < 1e-15
    want = np.exp(2j * np.pi * np.arange(8) / 8)
    assert hausdorff_distance(nodes[:, None], want[:, None]) < 1e-12


def test_torus_weights_and_nodes():
    quad = shilov_quadrature(POLY2, 3)
    weights = np.array(quad.weights)
    assert abs(weights.sum() - 1.0) < 1e-14
    assert weights.min() > 0
    for z in quad.nodes:
        assert np.abs(np.abs(np.asarray(z)) - 1.0).max() < 1e-14


def test_sphere_quadrature_measure():
    quad = shilov_quadrature(BALL2, 2)
    weights = np.array(quad.weights)
    nodes = np.array([np.asarray(z) for z in quad.nodes])
    count = len(quad.nodes)
    assert count == 16_000
    assert abs(weights.sum() - 1.0) < 1e-12
    assert np.abs(np.linalg.norm(nodes, axis=1) - 1.0).max() < 1e-12
    # mean of w_1 over the uniform sphere measure is 0
    assert abs(weights @ nodes[:, 0]) <= 3.0 / np.sqrt(count)


@pytest.mark.parametrize(
    "dom, level", [(BALL1, 10), (POLY2, 8), (POLY3, 4)], ids=["ball1", "polydisc2", "polydisc3"]
)
def test_torus_estimate_rule_is_lower_level(dom, level):
    quad = shilov_quadrature(dom, level)
    lower = shilov_quadrature(dom, level - 1)
    assert np.array_equal(quad.nodes[quad.estimate], lower.nodes)


def test_sphere_estimate_rule_is_first_half():
    quad = shilov_quadrature(BALL2, 2)
    assert np.array_equal(quad.estimate, np.arange(8000))


@pytest.mark.parametrize("dom", [BALL1, POLY2], ids=["ball1", "polydisc2"])
def test_level_one_uses_one_node_estimate(dom, rng):
    quad = shilov_quadrature(dom, 1)
    assert quad.node_count == 2**dom.dim
    assert quad.estimate.tolist() == [0]
    mats = random_commuting_tuple(dom.dim, 4, rng, spectral_radius=0.5)
    polys = [Polynomial.constant(dom.dim, 1.0), Polynomial.coordinate(0, dom.dim)]
    for res in integral_calculus(mats, polys, quad, dom):
        assert np.isfinite(res.est_error) and res.est_error > 0
        assert res.node_count == 2**dom.dim and res.level == 1


def test_quadrature_rejects_matrixball_and_bad_level():
    with pytest.raises(ValidationError):
        shilov_quadrature(MB22, 3)
    with pytest.raises(ValidationError):
        shilov_quadrature(BALL1, 0)


# ---------------------------------------------------------------------
# kernel powers of tuples
# ---------------------------------------------------------------------

def test_delta_power_zero_tuple():
    zeros = [np.zeros((3, 3)), np.zeros((3, 3))]
    for lam in (0.5, 2.0, 3.0):
        w = [0.6, -0.8]
        out = delta_power_tuple(zeros, w, lam, BALL2)
        assert np.abs(out - np.eye(3)).max() < 1e-14


def test_delta_power_scalar_frozen():
    out = delta_power_tuple([np.array([[0.5]])], [1.0], 1.0, BALL1)
    assert abs(out[0, 0] - 2.0) < 1e-12


def test_delta_power_matches_pointwise_kernel(rng):
    cases = [
        (BALL2, 1.5),
        (POLY2, 2.0),
        (MB22, 3.0),
    ]
    for dom, lam in cases:
        pts = [random_point(dom, rng, max_norm=0.6) for _ in range(4)]
        flat = np.array([np.asarray(p, dtype=complex).reshape(-1) for p in pts])
        mats = diag_tuple(flat)
        w = random_point(dom, rng, max_norm=0.95)
        out = delta_power_tuple(mats, w, lam, dom)
        want = np.diag([kernel_eval(dom, lam, p, w) for p in pts])
        assert np.abs(out - want).max() < 1e-10


def test_delta_power_similarity_oracle(rng):
    # non-normal commuting pair: conjugated diagonal tuple
    pts = np.array([random_point(BALL2, rng, max_norm=0.5) for _ in range(5)])
    s = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)) + 3 * np.eye(5)
    sinv = np.linalg.inv(s)
    mats = [s @ np.diag(pts[:, i]) @ sinv for i in range(2)]
    w = random_point(BALL2, rng, max_norm=0.9)
    lam = 2.5
    got = delta_power_tuple(mats, w, lam, BALL2)
    want = s @ np.diag([kernel_eval(BALL2, lam, p, w) for p in pts]) @ sinv
    assert np.abs(got - want).max() < 1e-10


def test_delta_power_multiplicative(rng):
    for dom in (BALL2, POLY2, MB22):
        pts = np.array([random_point(dom, rng, max_norm=0.5) for _ in range(3)])
        flat = pts.reshape(3, -1)
        mats = diag_tuple(flat)
        w = random_point(dom, rng, max_norm=0.9)
        a = delta_power_tuple(mats, w, 1.25, dom)
        b = delta_power_tuple(mats, w, 2.0, dom)
        both = delta_power_tuple(mats, w, 3.25, dom)
        assert np.abs(a @ b - both).max() < 1e-10


def test_delta_power_finite_rank_terminates():
    # negative integer exponents are polynomials in the tuple: exact match with
    # the expanded series on nilpotent input, no tail needed
    t = np.zeros((3, 3))
    t[0, 1] = 0.5
    t[1, 2] = 0.5
    out = delta_power_tuple([t], [1.0], -2.0, BALL1)
    # (1 - t)^2
    want = np.eye(3) - 2 * t + t @ t
    assert np.abs(out - want).max() < 1e-13


def test_delta_power_boundary_guard():
    with pytest.raises(SpectrumTouchesBoundary):
        delta_power_tuple([np.array([[1.0]])], [1.0], 1.0, BALL1)


# ---------------------------------------------------------------------
# integral and series calculus
# ---------------------------------------------------------------------

def test_integral_constant_and_coordinates():
    t = jordan_like_disc_matrix()
    quad = shilov_quadrature(BALL1, 10)
    one = integral_calculus([t], [Polynomial.constant(1, 1.0)], quad, BALL1)[0]
    assert np.abs(one.value - np.eye(6)).max() < 1e-9
    z = integral_calculus([t], [Polynomial.coordinate(0, 1)], quad, BALL1)[0]
    assert np.abs(z.value - t).max() < 1e-9


def test_integral_disc_cubic_frozen():
    t = jordan_like_disc_matrix()
    quad = shilov_quadrature(BALL1, 10)
    assert len(quad.nodes) == 1024
    f = Polynomial(1, {(3,): 1.0, (1,): -2.0})
    got = integral_calculus([t], [f], quad, BALL1)[0]
    want = np.linalg.matrix_power(t, 3) - 2 * t
    rel = np.abs(got.value - want).max() / np.abs(want).max()
    assert rel < 1e-9
    assert got.node_count == 1024


def test_integral_polydisc_coordinates(rng):
    mats = diag_tuple([random_point(POLY2, rng, max_norm=0.6) for _ in range(4)])
    quad = shilov_quadrature(POLY2, 6)
    for i in range(2):
        out = integral_calculus(mats, [Polynomial.coordinate(i, 2)], quad, POLY2)[0]
        assert np.abs(out.value - mats[i]).max() < 1e-9


def test_integral_homomorphism(rng):
    t = jordan_like_disc_matrix()
    quad = shilov_quadrature(BALL1, 10)

    def rand_poly():
        return Polynomial(
            1, {(d,): complex(rng.standard_normal(), rng.standard_normal()) for d in range(4)}
        )

    for _ in range(3):
        f, g = rand_poly(), rand_poly()
        lhs = integral_calculus([t], [f * g], quad, BALL1)[0].value
        rhs = integral_calculus([t], [f], quad, BALL1)[0].value @ integral_calculus(
            [t], [g], quad, BALL1
        )[0].value
        assert np.abs(lhs - rhs).max() < 1e-8 * max(1.0, np.abs(lhs).max())


def test_integral_underresolved_guard():
    t = jordan_like_disc_matrix()
    quad = shilov_quadrature(BALL1, 2)
    with pytest.raises(QuadratureUnderResolved):
        integral_calculus(
            [t], [Polynomial(1, {(3,): 1.0})], quad, BALL1, tol=1e-12
        )


def test_integral_underresolved_guard_checks_every_polynomial():
    t = 0.3 * np.eye(3)
    quad = shilov_quadrature(BALL1, 3)
    good, bad = Polynomial.constant(1, 1.0), Polynomial(1, {(7,): 1.0})
    est_good, est_bad = (r.est_error for r in integral_calculus([t], [good, bad], quad, BALL1))
    assert est_good < est_bad
    tol = np.sqrt(est_good * est_bad)
    assert integral_calculus([t], [good], quad, BALL1, tol=tol)[0].est_error == est_good
    for polys in ([good, bad], [bad, good]):
        with pytest.raises(QuadratureUnderResolved):
            integral_calculus([t], polys, quad, BALL1, tol=tol)


def _one_polynomial_route(dom, mats, f, nodes, weights):
    # the route taken before the kernel was shared: one polynomial, one rule
    kernel = _szegoe_batch(dom, mats, nodes)
    values = sum(c * np.prod(nodes ** np.array(alpha), axis=1) for alpha, c in f.terms.items())
    return np.einsum("n,nij->ij", weights * values, kernel)


@pytest.mark.parametrize(
    "dom, level", [(BALL1, 4), (POLY2, 7), (BALL2, 2)], ids=["ball1", "polydisc2", "ball2"]
)
def test_batched_polynomials_match_one_at_a_time(dom, level, rng):
    quad = shilov_quadrature(dom, level)
    if dom.kind == "ball" and dom.dim >= 2:
        half = quad.nodes[: quad.node_count // 2]
        rough_nodes, rough_weights = half, np.full(half.shape[0], 1.0 / half.shape[0])
    else:
        lower = shilov_quadrature(dom, level - 1)
        rough_nodes, rough_weights = lower.nodes, lower.weights
    constant, first, cubic = (0,) * dom.dim, (1,) + (0,) * (dom.dim - 1), (3,) * dom.dim
    polys = [
        Polynomial(dom.dim, {alpha: complex(*rng.standard_normal(2)) for alpha in alphas})
        for alphas in ([constant], [first], [cubic, constant])
    ]
    for _ in range(2):
        mats = random_commuting_tuple(dom.dim, 4, rng, spectral_radius=0.6)
        results = integral_calculus(mats, polys, quad, dom)
        assert len(results) == len(polys)
        for f, res in zip(polys, results):
            full = _one_polynomial_route(dom, mats, f, quad.nodes, quad.weights)
            rough = _one_polynomial_route(dom, mats, f, rough_nodes, rough_weights)
            scale = max(1.0, np.linalg.norm(full, 2))
            est = np.linalg.norm(full - rough, 2) / scale
            assert np.linalg.norm(res.value - full, 2) <= 1e-12 * scale
            assert abs(res.est_error - est) <= 1e-12 * max(1.0, est)


def test_integral_calculus_of_no_polynomials():
    quad = shilov_quadrature(BALL1, 3)
    assert integral_calculus([jordan_like_disc_matrix()], [], quad, BALL1) == []


def test_series_calculus_reference(rng):
    t = jordan_like_disc_matrix()
    assert np.abs(series_calculus([t], Polynomial.zero(1))).max() == 0.0
    f = Polynomial(1, {(3,): 1.0, (1,): -2.0})
    assert np.abs(series_calculus([t], f) - (np.linalg.matrix_power(t, 3) - 2 * t)).max() < 1e-12
    # homogeneous degree 2 on a pair expands to monomial products
    mats = diag_tuple([random_point(BALL2, rng, max_norm=0.5) for _ in range(3)])
    g = Polynomial(2, {(1, 1): 2.0, (2, 0): 1.0})
    want = 2.0 * mats[0] @ mats[1] + mats[0] @ mats[0]
    assert np.abs(series_calculus(mats, g) - want).max() < 1e-13


def test_series_matches_integral_on_disc_suite(rng):
    quad = shilov_quadrature(BALL1, 10)
    for _ in range(3):
        t = 0.6 * jordan_like_disc_matrix() / 0.7
        f = Polynomial(
            1, {(d,): complex(rng.standard_normal(), rng.standard_normal()) for d in range(4)}
        )
        a = series_calculus([t], f)
        b = integral_calculus([t], [f], quad, BALL1)[0].value
        assert np.abs(a - b).max() < 1e-9 * max(1.0, np.abs(a).max())


# ---------------------------------------------------------------------
# Moebius transforms of tuples
# ---------------------------------------------------------------------

def test_mobius_origin_is_involution(rng):
    for dom in (BALL1, BALL2, POLY2):
        mats = diag_tuple([random_point(dom, rng, max_norm=0.6) for _ in range(3)])
        zero = np.zeros(dom.dim)
        once = mobius_of_tuple(mats, zero, dom)
        twice = mobius_of_tuple(once, zero, dom)
        for a, b in zip(twice, mats):
            assert np.abs(a - b).max() < 1e-13


def test_mobius_disc_frozen_2x2():
    # anchor normalization g(0)=z0, g(-z0)=0 gives (z0+t)(1+z0 t)^(-1) on the disc
    t = np.array([[0.3, 1.0], [0.0, 0.3]], dtype=complex)
    out = mobius_of_tuple([t], [0.5], BALL1)[0]
    want = (0.5 * np.eye(2) + t) @ np.linalg.inv(np.eye(2) + 0.5 * t)
    assert np.abs(out - want).max() < 1e-12


def test_mobius_diagonal_is_pointwise(rng):
    for dom in (BALL2, POLY2):
        pts = np.array([random_point(dom, rng, max_norm=0.6) for _ in range(4)])
        mats = diag_tuple(pts)
        z0 = random_point(dom, rng, max_norm=0.5)
        comps = mobius_rational_components(dom, z0)
        out = mobius_of_tuple(mats, z0, dom)
        for i, comp in enumerate(comps):
            want = np.diag(
                [comp.p.eval_point(p) / comp.q.eval_point(p) for p in pts]
            )
            assert np.abs(out[i] - want).max() < 1e-11


def test_mobius_spectral_mapping(rng):
    for dom in (BALL2, POLY2):
        mats = []
        pts = np.array([random_point(dom, rng, max_norm=0.55) for _ in range(4)])
        s = rng.standard_normal((4, 4)) + 3 * np.eye(4)
        sinv = np.linalg.inv(s)
        mats = [s @ np.diag(pts[:, i]) @ sinv for i in range(2)]
        z0 = random_point(dom, rng, max_norm=0.5)
        comps = mobius_rational_components(dom, z0)
        got = joint_eigenvalues(mobius_of_tuple(mats, z0, dom))
        want = np.array(
            [[c.p.eval_point(p) / c.q.eval_point(p) for c in comps] for p in pts]
        )
        assert hausdorff_distance(got, want) < 1e-8


def ball_mobius_components(n, z0):
    """The ball's components in closed form: shared denominator 1 + <w, z0>,
    numerators z0_i q + sqrt(1 - |z0|^2) (sqrt(I - z0* z0) w)_i."""
    coords = [Polynomial.coordinate(i, n) for i in range(n)]
    q = Polynomial.constant(n, 1.0)
    for j in range(n):
        q = q + np.conj(z0[j]) * coords[j]
    s = math.sqrt(max(0.0, 1.0 - float(np.vdot(z0, z0).real)))
    z0m = z0.reshape(1, n)
    root = hermitian_sqrt(np.eye(n, dtype=complex) - z0m.conj().T @ z0m)
    out = []
    for i in range(n):
        p = z0[i] * q
        for j in range(n):
            p = p + s * root[j, i] * coords[j]
        out.append((p, q))
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_ball_mobius_is_the_one_row_matrix_ball_formula(rng, n):
    dom = DomainSpec.ball(n)
    for _ in range(20):
        z0 = random_point(dom, rng, max_norm=0.95)
        comps = mobius_rational_components(dom, z0)
        assert [c.name for c in comps] == [f"mobius{i + 1}" for i in range(n)]
        for comp, (p, q) in zip(comps, ball_mobius_components(n, z0)):
            assert comp.q.terms == q.terms
            assert comp.p.terms.keys() == p.terms.keys()
            assert all(abs(comp.p.terms[a] - c) <= 1e-15 for a, c in p.terms.items())


def test_composition_residuals(rng):
    assert composition_residual([0.5 * np.eye(2)], np.zeros(1), BALL1) < 1e-13
    for _ in range(3):
        t = 0.7 * jordan_like_disc_matrix() / 0.7
        z0 = [complex(rng.uniform(-0.7, 0.7), 0.0)]
        assert composition_residual([t], z0, BALL1) < 1e-8
    for _ in range(3):
        mats = diag_tuple([random_point(POLY2, rng, max_norm=0.7) for _ in range(4)])
        z0 = random_point(POLY2, rng, max_norm=0.7)
        assert composition_residual(mats, z0, POLY2) < 1e-8


def test_calculus_accepts_permissive_transforms(rng):
    t = np.zeros((4, 4))
    t[0, 1] = t[1, 2] = t[2, 3] = 0.5
    mats = [t, t @ t]
    moved = permissive_transform(mats, 0.5, np.array([0.3, -0.2]), POLY2)
    w = random_point(POLY2, rng, max_norm=0.9)
    out = delta_power_tuple(moved, w, 2.0, POLY2)
    assert np.isfinite(out).all()
    res = composition_residual(moved, np.array([0.2, 0.1]), POLY2)
    assert res < 1e-8
