"""Jordan-triple geometry: invariants, triple products, Bergman operators,
quasi-inverses, generic polynomials, and Moebius maps."""

import math

import numpy as np
import pytest

from symdom.domains import (
    DomainSpec,
    bergman_apply,
    bergman_matrix,
    flatten_point,
    generic_poly,
    generic_poly_terms,
    mobius,
    quasi_inverse,
    spectral_norm,
    triple_product,
    triple_product_bergman_apply,
)
from symdom.errors import PointOutsideDomain, SingularBergmanOperator, ValidationError
from symdom.kernels import kernel_eval
from symdom.sampling import random_point

ALL_SPECS = [
    DomainSpec.ball(1),
    DomainSpec.ball(2),
    DomainSpec.ball(3),
    DomainSpec.ball(4),
    DomainSpec.polydisc(1),
    DomainSpec.polydisc(2),
    DomainSpec.polydisc(3),
    DomainSpec.matrix_ball(1, 1),
    DomainSpec.matrix_ball(1, 3),
    DomainSpec.matrix_ball(2, 2),
    DomainSpec.matrix_ball(2, 3),
    DomainSpec.matrix_ball(3, 3),
]


# ---------------------------------------------------------------------
# numerical invariants of the three families
# ---------------------------------------------------------------------

def test_invariant_equations_hold_exactly():
    for dom in ALL_SPECS:
        r, a, b = dom.rank, dom.char_a, dom.char_b
        assert dom.dim == r + (a * r * (r - 1)) // 2 + b * r
        assert dom.genus == 2 + a * (r - 1) + b


def test_family_invariants_frozen():
    for n in (1, 2, 3, 4):
        dom = DomainSpec.ball(n)
        assert (dom.rank, dom.char_a, dom.char_b, dom.genus) == (1, 2, n - 1, n + 1)
        assert dom.dim == n
    for n in (1, 2, 3):
        dom = DomainSpec.polydisc(n)
        assert (dom.rank, dom.char_a, dom.char_b, dom.genus) == (n, 0, 0, 2)
        assert dom.dim == n
    for r, c in ((1, 1), (1, 3), (2, 2), (2, 3), (3, 3)):
        dom = DomainSpec.matrix_ball(r, c)
        assert (dom.rank, dom.char_a, dom.char_b, dom.genus) == (r, 2, c - r, r + c)
        assert dom.dim == r * c


def test_weight_conventions():
    assert DomainSpec.ball(3).hardy_weight == 3.0
    assert DomainSpec.polydisc(3).hardy_weight == 1.0
    assert DomainSpec.matrix_ball(2, 2).hardy_weight == 2.0
    assert DomainSpec.ball(5).drury_arveson_weight == 1.0
    assert DomainSpec.matrix_ball(2, 2).drury_arveson_weight == 2.0


def test_genus_power_is_bergman_kernel(rng):
    # Delta^{-N} against the classical closed forms of each family
    for _ in range(20):
        ball = DomainSpec.ball(2)
        z, w = random_point(ball, rng), random_point(ball, rng)
        direct = (1 - np.vdot(w, z)) ** (-3.0)
        assert abs(kernel_eval(ball, float(ball.genus), z, w) - direct) < 1e-12 * abs(direct)

        poly = DomainSpec.polydisc(2)
        z, w = random_point(poly, rng), random_point(poly, rng)
        direct = np.prod((1 - z * np.conj(w)) ** (-2.0))
        assert abs(kernel_eval(poly, float(poly.genus), z, w) - direct) < 1e-12 * abs(direct)

        mb = DomainSpec.matrix_ball(2, 2)
        z, w = random_point(mb, rng), random_point(mb, rng)
        zm, wm = z.reshape(2, 2), w.reshape(2, 2)
        direct = np.linalg.det(np.eye(2) - zm @ wm.conj().T) ** (-4.0)
        assert abs(kernel_eval(mb, float(mb.genus), z, w) - direct) < 1e-12 * abs(direct)


# ---------------------------------------------------------------------
# triple product
# ---------------------------------------------------------------------

def test_triple_product_polydisc_ones():
    dom = DomainSpec.polydisc(2)
    out = triple_product(dom, [1.0, 1.0], [1.0, 1.0], [1.0, 1.0])
    assert np.allclose(out, [1.0, 1.0], atol=0)


def test_triple_product_ball_orthogonal_vanishes():
    dom = DomainSpec.ball(2)
    out = triple_product(dom, [1.0, 0.0], [0.0, 1.0], [1.0, 0.0])
    assert np.allclose(out, [0.0, 0.0], atol=0)


def test_triple_product_matrixball_identity():
    dom = DomainSpec.matrix_ball(2, 2)
    eye = np.eye(2).ravel()
    assert np.allclose(triple_product(dom, eye, eye, eye), eye, atol=0)


# ---------------------------------------------------------------------
# Bergman operator
# ---------------------------------------------------------------------

def test_bergman_at_origin_is_identity(any_domain, rng):
    zero = np.zeros(any_domain.dim)
    w = random_point(any_domain, rng)
    assert np.allclose(bergman_apply(any_domain, zero, zero, w), flatten_point(any_domain, w), atol=0)
    assert np.allclose(bergman_matrix(any_domain, zero, zero), np.eye(any_domain.dim), atol=0)


def test_bergman_polydisc_scalar_frozen():
    dom = DomainSpec.polydisc(1)
    out = bergman_apply(dom, [0.5], [0.5], [1.0])
    assert abs(out[0] - 9.0 / 16.0) < 1e-16


def test_bergman_two_routes_agree(rng):
    dom = DomainSpec.matrix_ball(2, 2)
    for _ in range(50):
        u, v, w = (random_point(dom, rng) for _ in range(3))
        direct = bergman_apply(dom, u, v, w)
        via_triple = triple_product_bergman_apply(dom, u, v, w)
        assert np.abs(direct - via_triple).max() < 1e-13


def test_bergman_matrix_matches_apply(any_domain, rng):
    u, v, w = (random_point(any_domain, rng) for _ in range(3))
    mat = bergman_matrix(any_domain, u, v)
    assert np.abs(mat @ flatten_point(any_domain, w) - bergman_apply(any_domain, u, v, w)).max() < 1e-14


def test_bergman_self_pair_positive_definite(any_domain, rng):
    for _ in range(10):
        z = random_point(any_domain, rng)
        mat = bergman_matrix(any_domain, z, z)
        assert np.abs(mat - mat.conj().T).max() < 1e-14
        assert np.linalg.eigvalsh((mat + mat.conj().T) / 2).min() > 0


# ---------------------------------------------------------------------
# quasi-inverse
# ---------------------------------------------------------------------

def test_quasi_inverse_at_zero_parameter(any_domain, rng):
    z = random_point(any_domain, rng)
    out = quasi_inverse(any_domain, z, np.zeros(any_domain.dim))
    assert np.abs(out - flatten_point(any_domain, z)).max() == 0.0


def test_quasi_inverse_scalar_frozen():
    dom = DomainSpec.polydisc(1)
    assert abs(quasi_inverse(dom, [0.5], [0.5])[0] - 2.0 / 3.0) < 1e-15


def test_quasi_inverse_ball_closed_form(rng):
    dom = DomainSpec.ball(2)
    for _ in range(25):
        z, xi = random_point(dom, rng), random_point(dom, rng)
        closed = z / (1 - np.vdot(xi, z))
        assert np.abs(quasi_inverse(dom, z, xi) - closed).max() < 1e-12


def test_quasi_inverse_matrixball_closed_form(rng):
    dom = DomainSpec.matrix_ball(2, 2)
    for _ in range(25):
        z, xi = random_point(dom, rng), random_point(dom, rng)
        zm, xm = z.reshape(2, 2), xi.reshape(2, 2)
        closed = np.linalg.solve(np.eye(2) - zm @ xm.conj().T, zm).ravel()
        assert np.abs(quasi_inverse(dom, z, xi) - closed).max() < 1e-12


def test_quasi_inverse_singular_pair_raises():
    dom = DomainSpec.matrix_ball(2, 2)
    eye = np.eye(2).ravel()
    with pytest.raises(SingularBergmanOperator):
        quasi_inverse(dom, eye, eye)


# ---------------------------------------------------------------------
# generic polynomial
# ---------------------------------------------------------------------

def test_generic_poly_normalized_at_origin(any_domain):
    zero = np.zeros(any_domain.dim)
    assert generic_poly(any_domain, zero, zero) == 1.0


def test_generic_poly_ball_frozen():
    dom = DomainSpec.ball(2)
    assert abs(generic_poly(dom, [0.5, 0.0], [0.5, 0.0]) - 0.75) < 1e-16


def test_generic_poly_conjugate_symmetry(any_domain, rng):
    for _ in range(30):
        z, w = random_point(any_domain, rng), random_point(any_domain, rng)
        assert abs(generic_poly(any_domain, z, w) - np.conj(generic_poly(any_domain, w, z))) < 1e-14


def test_generic_poly_nonvanishing_inside(any_domain, rng):
    # 10^3 pairs with spectral-norm product < 1
    for _ in range(1000):
        z = random_point(any_domain, rng, max_norm=0.95)
        w = random_point(any_domain, rng, max_norm=0.95)
        if spectral_norm(any_domain, z) * spectral_norm(any_domain, w) < 1:
            assert generic_poly(any_domain, z, w) != 0


@pytest.mark.parametrize(
    "dom",
    [
        DomainSpec.ball(1),
        DomainSpec.ball(2),
        DomainSpec.ball(3),
        DomainSpec.polydisc(2),
        DomainSpec.matrix_ball(1, 3),
        DomainSpec.matrix_ball(2, 2),
        DomainSpec.matrix_ball(2, 3),
        DomainSpec.matrix_ball(3, 3),
        DomainSpec.matrix_ball(3, 4),
    ],
    ids=lambda dom: dom.label(),
)
def test_generic_poly_terms_evaluate_to_generic_poly(dom, rng):
    terms = generic_poly_terms(dom)
    for alpha, beta in terms:
        assert sum(alpha) == sum(beta)
    for _ in range(20):
        z, w = random_point(dom, rng), random_point(dom, rng)
        zf, wbar = flatten_point(dom, z), np.conj(flatten_point(dom, w))
        value = sum(
            coeff * np.prod(zf ** np.array(alpha)) * np.prod(wbar ** np.array(beta))
            for (alpha, beta), coeff in terms.items()
        )
        assert abs(value - generic_poly(dom, z, w)) < 1e-13


@pytest.mark.parametrize("r, c", [(1, 3), (2, 2), (2, 3), (3, 3), (3, 4)])
def test_generic_poly_terms_are_the_cauchy_binet_terms(r, c):
    # one term per (S, T, sigma, tau): |S| = |T| = k, two permutations of k
    dom = DomainSpec.matrix_ball(r, c)
    terms = generic_poly_terms(dom)
    count = sum(math.comb(r, k) * math.comb(c, k) * math.factorial(k) ** 2 for k in range(r + 1))
    assert len(terms) == count
    assert set(terms.values()) <= {1.0, -1.0}


def test_generic_poly_terms_are_one_read_only_table():
    dom = DomainSpec.matrix_ball(2, 3)
    terms = generic_poly_terms(dom)
    assert generic_poly_terms(DomainSpec.matrix_ball(2, 3)) is terms
    key = next(iter(terms))
    with pytest.raises(TypeError):
        terms[key] = 2.0
    with pytest.raises(TypeError):
        del terms[key]
    assert terms[((0,) * 6, (0,) * 6)] == 1.0


# ---------------------------------------------------------------------
# spectral norm
# ---------------------------------------------------------------------

def test_spectral_norm_values():
    assert spectral_norm(DomainSpec.ball(2), [0.0, 0.0]) == 0.0
    assert spectral_norm(DomainSpec.polydisc(3), [0.1, -0.9, 0.3j]) == 0.9
    dom = DomainSpec.matrix_ball(2, 2)
    assert abs(spectral_norm(dom, np.diag([0.3, 0.8]).ravel()) - 0.8) < 1e-15
    assert abs(spectral_norm(DomainSpec.ball(2), [0.3, 0.4]) - 0.5) < 1e-15


# ---------------------------------------------------------------------
# Moebius transformations
# ---------------------------------------------------------------------

def test_mobius_anchor_points(any_domain, rng):
    for _ in range(25):
        z0 = random_point(any_domain, rng, max_norm=0.8)
        g = mobius(any_domain, z0)
        assert np.abs(g(np.zeros(any_domain.dim)) - flatten_point(any_domain, z0)).max() < 1e-12
        assert np.abs(g(-z0)).max() < 1e-12


def test_mobius_ball_norm_identity(rng):
    # 1 - |g_{z0}(z)|^2 = (1-|z0|^2)(1-|z|^2)/|1-<z,z0>|^2, paired so the
    # anchor normalization g(0)=z0, g(-z0)=0 is respected
    dom = DomainSpec.ball(2)
    for _ in range(200):
        z0 = random_point(dom, rng, max_norm=0.8)
        z = random_point(dom, rng, max_norm=0.8)
        g = mobius(dom, z0)
        lhs = 1 - np.linalg.norm(g(-z)) ** 2
        rhs = (1 - np.linalg.norm(z0) ** 2) * (1 - np.linalg.norm(z) ** 2) / abs(
            1 - np.vdot(z0, z)
        ) ** 2
        assert abs(lhs - rhs) < 1e-12


def test_mobius_inverse_composition(any_domain, rng):
    for _ in range(20):
        z0 = random_point(any_domain, rng, max_norm=0.7)
        w = random_point(any_domain, rng, max_norm=0.7)
        g = mobius(any_domain, z0)
        assert np.abs(g.inverse()(g(w)) - flatten_point(any_domain, w)).max() < 1e-10


def test_mobius_inverse_is_opposite_parameter(any_domain, rng):
    z0 = random_point(any_domain, rng, max_norm=0.6)
    w = random_point(any_domain, rng, max_norm=0.6)
    g_inv = mobius(any_domain, -flatten_point(any_domain, z0))
    assert np.abs(mobius(any_domain, z0).inverse()(w) - g_inv(w)).max() < 1e-12


def test_mobius_preserves_open_domain(any_domain, rng):
    for _ in range(50):
        z0 = random_point(any_domain, rng, max_norm=0.85)
        w = random_point(any_domain, rng, max_norm=0.85)
        image = mobius(any_domain, z0)(w)
        assert spectral_norm(any_domain, image) < 1.0


# rank <= 2: Delta's factors stay near 1 at spectral norms <= 0.5, so the
# principal powers below multiply without wrapping an argument
MOBIUS_RULE_DOMAINS = [
    DomainSpec.ball(1),
    DomainSpec.ball(3),
    DomainSpec.polydisc(2),
    DomainSpec.matrix_ball(1, 3),
    DomainSpec.matrix_ball(2, 2),
    DomainSpec.matrix_ball(2, 3),
]


@pytest.mark.parametrize("dom", MOBIUS_RULE_DOMAINS, ids=lambda dom: dom.label())
def test_mobius_transformation_rule(dom, rng):
    # Delta(g_a z, g_a w) = Delta(a, a) Delta(z, w) / (Delta(z, -a) conj Delta(w, -a))
    for _ in range(20):
        a, z, w = (random_point(dom, rng, max_norm=0.8) for _ in range(3))
        g = mobius(dom, a)
        minus_a = -flatten_point(dom, a)
        lhs = generic_poly(dom, g(z), g(w))
        rhs = (
            generic_poly(dom, a, a)
            * generic_poly(dom, z, w)
            / (generic_poly(dom, z, minus_a) * np.conj(generic_poly(dom, w, minus_a)))
        )
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


@pytest.mark.parametrize("lam", [1.5, 2.5, 3.0])
@pytest.mark.parametrize("dom", MOBIUS_RULE_DOMAINS, ids=lambda dom: dom.label())
def test_mobius_kernel_power_rule(dom, lam, rng):
    # K(g_a z, g_a w) = Delta(a, a)^-lam K(z, w) Delta(z, -a)^lam conj(Delta(w, -a))^lam
    # with K = Delta^-lam, every power principal
    for _ in range(20):
        a, z, w = (random_point(dom, rng, max_norm=0.5) for _ in range(3))
        g = mobius(dom, a)
        minus_a = -flatten_point(dom, a)
        lhs = kernel_eval(dom, lam, g(z), g(w))
        rhs = (
            kernel_eval(dom, lam, a, a)
            * kernel_eval(dom, lam, z, w)
            / (kernel_eval(dom, lam, z, minus_a) * np.conj(kernel_eval(dom, lam, w, minus_a)))
        )
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


def test_mobius_rejects_boundary_parameter():
    dom = DomainSpec.ball(2)
    with pytest.raises(PointOutsideDomain):
        mobius(dom, [1.0, 0.0])


# ---------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------

def test_domain_json_roundtrip():
    for dom in ALL_SPECS:
        assert DomainSpec.from_json(dom.to_json()) == dom
    assert DomainSpec.ball(2).to_json() == {"kind": "ball", "n": 2}
    assert DomainSpec.matrix_ball(2, 3).to_json() == {"kind": "matrixball", "n": 3, "r": 2}


def test_domain_json_rejects_unknown_kind():
    with pytest.raises(ValidationError):
        DomainSpec.from_json({"kind": "halfplane", "n": 2})

