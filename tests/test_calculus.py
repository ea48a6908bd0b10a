"""Shilov-boundary quadrature, kernel powers of tuples, integral and series
calculus, Moebius transforms of tuples, and the composition law."""

import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from symdom import calculus, koszul
from symdom.calculus import (
    _CHUNK,
    _delta_expansion,
    _delta_factors,
    _direction_numbers,
    _gray_tables,
    _ndtri,
    _quadrature_sum,
    _SOBOL_BITS,
    _sobol_chunk,
    _szegoe_batch,
    composition_residual,
    delta_power_tuple,
    integral_calculus,
    mobius_of_tuple,
    mobius_rational_components,
    series_calculus,
    shilov_quadrature,
)
from symdom.domains import DomainSpec, as_matrix, generic_poly, hermitian_sqrt, mobius
from symdom.errors import (
    QuadratureUnderResolved,
    SpectrumTouchesBoundary,
    ValidationError,
)
from symdom.kernels import kernel_eval, truncated_basis
from symdom.koszul import hausdorff_distance, joint_eigenvalues
from symdom.operators import permissive_transform, quotient_model
from symdom.polynomials import Polynomial
from symdom.sampling import random_commuting_tuple, random_point

BALL1 = DomainSpec.ball(1)
BALL2 = DomainSpec.ball(2)
BALL3 = DomainSpec.ball(3)
BALL5 = DomainSpec.ball(5)
POLY2 = DomainSpec.polydisc(2)
POLY3 = DomainSpec.polydisc(3)
MB22 = DomainSpec.matrix_ball(2, 2)
MB23 = DomainSpec.matrix_ball(2, 3)


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


@pytest.mark.parametrize("n, level", [(1, 1), (1, 10), (2, 1), (2, 6), (3, 4), (5, 2)])
def test_torus_nodes_are_the_meshgrid_product(n, level):
    dom = DomainSpec.polydisc(n) if n > 1 else BALL1
    quad = shilov_quadrature(dom, level)
    axes = np.exp(1j * (2.0 * np.pi * np.arange(2**level) / 2**level))
    grids = np.meshgrid(*([axes] * n), indexing="ij")
    want = np.column_stack([g.reshape(-1) for g in grids])
    assert quad.nodes.tobytes() == want.tobytes() and quad.nodes.shape == want.shape
    lower = np.arange(want.shape[0]).reshape((2**level,) * n)[(slice(None, None, 2),) * n]
    assert np.array_equal(quad.estimate, lower.reshape(-1))


@pytest.mark.parametrize("n, level", [(6, 4), (8, 3), (12, 2), (22, 1), (23, 1), (24, 1), (25, 1)])
def test_torus_rule_caps_its_entries(n, level, monkeypatch):
    # 2^(level n) nodes of n coordinates past 2^26 entries, refused before
    # any array is built (at n 24 it would be 6.4 GB)
    monkeypatch.setattr(np, "empty", lambda *a, **k: pytest.fail("nodes allocated"))
    with pytest.raises(ValidationError, match="torus rule too large at this level"):
        shilov_quadrature(DomainSpec.polydisc(n), level)


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


def sobol_integers(d, count, start=0):
    # points start + 1..count from the chunk generator, with the 30-bit
    # direction numbers of every bit the Gray codes of 1..count reach
    rows = _direction_numbers(d)[: count.bit_length()]
    return _sobol_chunk(_gray_tables(rows), start, count)


def sobol_points(d, count):
    # the generator's 30-bit integers scaled as scipy scales them
    return sobol_integers(d, count) * 2.0**-_SOBOL_BITS


def scipy_sobol(d, count):
    from scipy.stats import qmc  # the reference route only; the package never imports it

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # counts that are not powers of two
        sampler = qmc.Sobol(d=d, scramble=False)
        sampler.fast_forward(1)
        return sampler.random(count)


@pytest.mark.parametrize("d", range(2, 11))
def test_sobol_stream_is_scipy_unscrambled(d):
    # 1023/1024/1025 and 4095/4096/4097 straddle 2^k; 1000 and 3000 are not powers of two
    for count in (1, 2, 3, 1000, 1023, 1024, 1025, 3000, 4095, 4096, 4097):
        assert sobol_integers(d, count).dtype == np.uint32
        want = scipy_sobol(d, count)
        assert np.array_equal(sobol_points(d, count), want)
        # a chunk that starts anywhere is its run of the stream
        for start in {0, count // 3, count - 1}:
            got = sobol_integers(d, count, start) * 2.0**-_SOBOL_BITS
            assert np.array_equal(got, want[start:])


def test_sobol_table_rows_are_the_np_load_route(monkeypatch):
    got = {d: _direction_numbers(d) for d in (2, 4, 6, 20)}

    def load_rows(f, d):
        table = np.load(f)
        return table.shape[0], table[:d].copy()

    monkeypatch.setattr(calculus, "_leading_rows", load_rows)
    for d, directions in got.items():
        assert directions.shape == (_SOBOL_BITS, d)
        assert np.array_equal(directions, _direction_numbers(d))


def test_sobol_table_is_never_held_whole():
    # the Fortran-ordered 21201 x 18 int64 table is 3 MB; it is read a
    # 170 kB column at a time (the read peaks at 0.7 MB with the zip's
    # buffers), and the direction numbers keep 480 bytes
    _direction_numbers(4)
    tracemalloc.start()
    try:
        _direction_numbers(4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1024 * 1024, peak


def test_sphere_nodes_are_the_scipy_route():
    from scipy.special import ndtri

    quad = shilov_quadrature(BALL2, 3)
    gauss = ndtri(np.clip(scipy_sobol(4, 64_000), 1e-12, 1.0 - 1e-12))
    norms = np.linalg.norm(gauss, axis=1)
    assert norms[0] == 0.0  # the first point is all 0.5; the rule pins it to an axis
    gauss[0, 0] = norms[0] = 1.0
    gauss /= norms[:, None]
    assert np.array_equal(quad.nodes, gauss[:, 0::2] + 1j * gauss[:, 1::2])


def every_point_sphere_nodes(dom, level):
    # the route before the quantile table: ``_ndtri`` on every clipped
    # Sobol' coordinate, then the rule's pin and normalization
    count = 4**level * calculus.SPHERE_BASE_NODES
    gauss = sobol_points(2 * dom.dim, count)
    np.clip(gauss, 1e-12, 1.0 - 1e-12, out=gauss)
    _ndtri(gauss)
    norms = np.linalg.norm(gauss, axis=1)
    degenerate = norms < 1e-300
    gauss[degenerate, 0] = 1.0
    norms[degenerate] = 1.0
    gauss /= norms[:, None]
    return gauss.view(complex)


@pytest.mark.parametrize(
    "dom, level",
    [(BALL2, level) for level in (1, 2, 3, 4)]
    + [(BALL3, level) for level in (1, 2, 3)]
    + [(BALL5, level) for level in (1, 2)],
    ids=lambda v: v.label() if isinstance(v, DomainSpec) else f"level{v}",
)
def test_sphere_nodes_gather_the_quantile_of_every_point(dom, level):
    # 4, 6 and 10 Sobol' dimensions; the bits of the grid table run from 12
    # (4000 nodes) to 18 (256 000)
    got = shilov_quadrature(dom, level).nodes
    want = every_point_sphere_nodes(dom, level)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def port_ndtri(p):
    out = np.array(p, dtype=float)
    _ndtri(out)
    return out


def test_ndtri_port_is_scipy_bit_for_bit(rng):
    from scipy.special import ndtri  # the reference route only

    grid = np.clip(np.arange(1, 2**20) / 2**20, 1e-12, 1.0 - 1e-12)
    uniform = np.clip(rng.random(10**6), 1e-12, 1.0 - 1e-12)
    tails = np.logspace(-12, np.log10(0.2), 100_001)
    for p in (grid, uniform, tails, 1.0 - tails, np.array([1e-12, 0.5, 1.0 - 1e-12])):
        assert np.array_equal(port_ndtri(p), ndtri(p))
    # the centre and both tails, on either side of the branch point exp(-2)
    edge = np.exp(-2.0)
    near = np.array([np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0)])
    for p in (near, 1.0 - near):
        assert np.array_equal(port_ndtri(p), ndtri(p))
    assert port_ndtri([0.5])[0] == 0.0 and not np.signbit(port_ndtri([0.5])[0])


@pytest.mark.parametrize(
    "dom, level",
    [(BALL2, level) for level in (1, 2, 3, 4)]
    + [(BALL3, level) for level in (1, 2, 3, 4)]
    + [(BALL1, 1), (BALL1, 10), (POLY2, 1), (POLY2, 6), (POLY3, 4)],
    ids=lambda v: v.label() if isinstance(v, DomainSpec) else f"level{v}",
)
def test_chunks_of_any_size_concatenate_to_the_rule(dom, level):
    # runs of 1 (the first 5000), 7, 2047, 2048 and every node, so that
    # chunks start off the multiples of 2048 and end past the estimate rule
    quad = shilov_quadrature(dom, level)
    nodes, estimate = quad.nodes, quad.estimate
    assert nodes.shape == (quad.node_count, dom.dim) and len(quad) == quad.node_count
    assert estimate.size == quad.estimate_count
    for size in (1, 7, 2047, _CHUNK, quad.node_count):
        chunks = list(itertools.islice(quad.chunks(size), 5000))
        starts = [start for start, _, _ in chunks]
        assert starts == list(range(0, quad.node_count, size))[:5000]
        got = np.concatenate([part for _, part, _ in chunks])
        assert got.tobytes() == nodes[: got.shape[0]].tobytes()
        local = [np.arange(start, start + len(part))[where] for start, part, where in chunks]
        assert np.array_equal(np.concatenate(local), estimate[estimate < got.shape[0]])


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


def _dense_szegoe_batch(dom, mats, nodes):
    # Delta(T, node)^{-n/r} in the original basis from one dense LAPACK
    # inverse per node, shape (N, h, h)
    exponent = round(dom.hardy_weight)
    eye = np.eye(mats[0].shape[0], dtype=complex)
    if dom.kind == "ball":
        inv = np.linalg.inv(eye - np.einsum("nk,kij->nij", np.conj(nodes), np.stack(mats)))
        out = inv
        for _ in range(exponent - 1):
            out = out @ inv
        return out
    out = eye
    for k, t in enumerate(mats):
        out = out @ np.linalg.inv(eye - np.conj(nodes[:, k])[:, None, None] * t)
    return out


def _one_polynomial_route(dom, mats, f, nodes, weights):
    # the route taken before the kernel was shared: one polynomial, one rule
    kernel = _dense_szegoe_batch(dom, mats, nodes)
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


def _scaled_into_ball(mats, dom, radius):
    # the tuple times the factor that puts its joint spectral radius at ``radius``
    eigs = joint_eigenvalues(mats)
    top = max(np.linalg.norm(mu) if dom.kind == "ball" else np.abs(mu).max() for mu in eigs)
    return [radius / top * m for m in mats]


def _oracle_tuples(rng):
    j = jordan_like_disc_matrix()
    k = 0.8 * j
    nilpotent = _nilpotent_quotient_model()
    return [
        ("ball1-jordan", BALL1, 6, [j]),
        ("ball2-jordan-square", BALL2, 1, [k, k @ k]),
        ("ball2-repeated-diagonal", BALL2, 1,
         diag_tuple([[0.3, 0.2j], [0.3, 0.2j], [-0.5, 0.1], [0.3, 0.2j], [0.0, -0.6]])),
        ("ball2-random-0.7", BALL2, 1,
         _scaled_into_ball(random_commuting_tuple(2, 5, rng), BALL2, 0.7)),
        ("ball2-random-0.95", BALL2, 1,
         _scaled_into_ball(random_commuting_tuple(2, 5, rng), BALL2, 0.95)),
        ("ball2-nilpotent-quotient", BALL2, 1, [0.3 * m for m in nilpotent]),
        ("ball3-random", BALL3, 1,
         _scaled_into_ball(random_commuting_tuple(3, 4, rng), BALL3, 0.8)),
        ("polydisc2-random", POLY2, 5,
         _scaled_into_ball(random_commuting_tuple(2, 5, rng), POLY2, 0.8)),
    ]


def test_schur_basis_kernel_matches_dense_inverses(rng):
    # the quadrature sums in the tuple's Schur basis against one dense
    # inverse per node in the original basis; the sphere rules span several
    # chunks and the quotient model is nilpotent but not zero
    assert shilov_quadrature(BALL2, 1).node_count > _CHUNK
    for name, dom, level, mats in _oracle_tuples(rng):
        if name == "ball2-nilpotent-quotient":
            assert mats[0].shape[0] == 17
            assert np.abs(joint_eigenvalues(mats)).max() < 1e-6
            # S_1 S_2 vanishes exactly (z1 z2 lies in the submodule); the squares do not
            assert min(np.linalg.norm(m @ m, 2) for m in mats) > 0.0
        quad = shilov_quadrature(dom, level)
        polys = [Polynomial.constant(dom.dim, 1.0), Polynomial.coordinate(0, dom.dim),
                 Polynomial.monomial((2,) + (1,) * (dom.dim - 1), 0.5)]
        draw = koszul._joint_eigenvalues_and_draw(mats)[1]
        full, rough = _quadrature_sum(dom, draw, polys, quad)
        kernel = _dense_szegoe_batch(dom, mats, quad.nodes)
        values = np.array([f.eval_batch(quad.nodes) for f in polys])
        want_full = np.einsum("pn,nij->pij", quad.weights * values, kernel)
        want_rough = np.einsum(
            "pn,nij->pij", values[:, quad.estimate], kernel[quad.estimate]
        ) / quad.estimate.size
        for got, want in zip([*full, *rough], [*want_full, *want_rough]):
            gap = np.linalg.norm(got - want, 2) / np.linalg.norm(want, 2)
            assert gap <= 1e-12, (name, gap)


@pytest.mark.parametrize(
    "dom, level", [(BALL1, 6), (BALL2, 1), (BALL3, 1), (POLY2, 4)],
    ids=["ball1", "ball2", "ball3", "polydisc2"],
)
def test_szegoe_batch_keeps_the_lower_part(dom, level, rng):
    # a dense tuple, far from triangular: the unpivoted LU is exact all the same
    mats = [0.4 * t / np.linalg.norm(t, 2) for t in random_commuting_tuple(dom.dim, 5, rng)]
    nodes = shilov_quadrature(dom, level).nodes
    work = np.empty((3, 25, nodes.shape[0]), dtype=complex)
    factors = _delta_factors(dom, mats)
    got = np.moveaxis(_szegoe_batch(factors, round(dom.hardy_weight), nodes, work), 2, 0)
    want = _dense_szegoe_batch(dom, mats, nodes)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def _nilpotent_quotient_model():
    # the 17 x 17 model of ball2 modulo z1 z2: nilpotent, far from triangular
    return list(quotient_model(truncated_basis(BALL2, 2.0, 8), [
        Polynomial.monomial((1, 1), 1.0)
    ]).tuple_mats)


def _szegoe_tuple_pairs(dom, rng):
    # two tuples of each size, h = 1, 5 and 17, in the Schur basis the sums
    # use, each with its Delta factors
    s1, s2 = _nilpotent_quotient_model()
    nilpotent = [s1, s2, s1 @ s1, s2 @ s2][: dom.dim]
    for mats in (
        _scaled_into_ball(random_commuting_tuple(dom.dim, 1, rng), dom, 0.7),
        _scaled_into_ball(random_commuting_tuple(dom.dim, 1, rng), dom, 0.7),
        _scaled_into_ball(random_commuting_tuple(dom.dim, 5, rng), dom, 0.7),
        _scaled_into_ball(random_commuting_tuple(dom.dim, 5, rng), dom, 0.7),
        [0.3 * m for m in nilpotent],
        [0.2 * m for m in nilpotent],
    ):
        rotated = koszul._joint_eigenvalues_and_draw(mats)[1][1]
        yield rotated, _delta_factors(dom, rotated)


@pytest.mark.parametrize(
    "dom, level",
    [(BALL2, 1), (BALL3, 1), (DomainSpec.ball(4), 1), (POLY2, 6), (POLY3, 4)],
    ids=["ball2", "ball3", "ball4", "polydisc2", "polydisc3"],
)
def test_szegoe_batch_matches_dense_inverse_powers(dom, level, rng):
    # _CHUNK + 1000 nodes: one full chunk and a short one, as _quadrature_sum
    # runs them, through one work array per size that starts as NaN and
    # serves two tuples in a row; ball4 solves four times per node, and
    # polydisc3 multiplies three disc factors before its one LU
    nodes = shilov_quadrature(dom, level).nodes[: _CHUNK + 1000]
    assert nodes.shape[0] == _CHUNK + 1000
    power = round(dom.hardy_weight)
    works = {}
    sizes = []
    for rotated, factors in _szegoe_tuple_pairs(dom, rng):
        h = rotated[0].shape[0]
        sizes.append(h)

        def chunked(work):
            return np.concatenate([
                _szegoe_batch(factors, power, nodes[start:start + _CHUNK], work).copy()
                for start in range(0, nodes.shape[0], _CHUNK)
            ], axis=2)

        fresh = np.full((3, h * h, _CHUNK), np.nan, dtype=complex)
        got = chunked(works.setdefault(h, fresh.copy()))
        assert np.array_equal(got, chunked(fresh))  # the reused work carries no state
        want = np.moveaxis(_dense_szegoe_batch(dom, rotated, nodes), 0, 2)
        gap = np.abs(got - want).max() / np.abs(want).max()
        assert gap <= 1e-13, (h, gap)
        # one batch over all nodes, in a work array of their width
        wide = np.empty((3, h * h, nodes.shape[0]), dtype=complex)
        alone = _szegoe_batch(factors, power, nodes, wide)
        assert np.abs(alone - want).max() <= 1e-13 * np.abs(want).max()
    assert sizes == [1, 1, 5, 5, 17, 17]


@pytest.mark.parametrize("dom", [BALL3, POLY3, MB22, MB23], ids=lambda d: d.label())
def test_delta_factors_are_triangular_with_delta_of_the_eigenvalues(dom, rng):
    # T_k = p_k(U) for one upper-triangular seed U commute, stay upper
    # triangular and have the joint eigenvalues lambda_i = (p_k(U_ii))_k, so
    # the product of the Delta factors, Delta(T, w), is upper triangular
    # with diagonal Delta(lambda_i, w)
    h = 6
    seed = np.triu(rng.standard_normal((h, h)) + 1j * rng.standard_normal((h, h))) / 3
    powers = [np.eye(h), seed, seed @ seed]
    coeffs = (rng.standard_normal((dom.dim, 3)) + 1j * rng.standard_normal((dom.dim, 3))) / 3
    mats = [sum(c * p for c, p in zip(row, powers)) for row in coeffs]
    factors = _delta_factors(dom, mats)
    for _ in range(3):
        w = rng.standard_normal(dom.dim) + 1j * rng.standard_normal(dom.dim)
        delta = np.eye(h)
        for picks, blocks in factors:
            assert blocks.shape == (h, h, len(picks))
            monomials = [np.prod(np.conj(w)[pick]) for pick in picks]
            delta = delta @ (np.eye(h) + blocks @ np.array(monomials))
        assert np.abs(np.tril(delta, -1)).max() <= 1e-13
        for i in range(h):
            want = generic_poly(dom, [m[i, i] for m in mats], w)
            assert abs(delta[i, i] - want) <= 1e-13 * max(1.0, abs(want)), (i, want)


def test_polydisc_delta_factors_grow_linearly_in_n(rng):
    # the polydisc's own table has 2^n - 1 terms; its kernels take one
    # single-term disc factor per coordinate instead, -T_k times conj(w_k)
    dom = DomainSpec.polydisc(20)
    mats = random_commuting_tuple(dom.dim, 2, rng)
    factors = _delta_factors(dom, mats)
    assert [picks for picks, _ in factors] == [[[k]] for k in range(dom.dim)]
    for (_, blocks), t in zip(factors, mats):
        assert np.array_equal(blocks[:, :, 0], -t)


def test_sphere_rule_peak_memory_is_near_what_it_keeps(rng):
    # the level-4 ball2 rule keeps its quantile table and two small XOR
    # tables; its 256 000 nodes, 8 MB as complex, are made 2048 at a time
    # inside the sums, so the integral's traced peak stays under the table,
    # the three (h^2, 2048) work buffers and 1 MB
    quad = shilov_quadrature(BALL2, 4)
    assert quad.quantiles.nbytes == 2**18 * 8
    assert sum(table.nbytes for table in quad.gray) <= 64 * 1024
    mats = _scaled_into_ball(random_commuting_tuple(2, 5, rng), BALL2, 0.8)
    polys = [Polynomial.constant(2, 1.0), Polynomial.coordinate(0, 2)]
    integral_calculus(mats, polys, shilov_quadrature(BALL2, 1), BALL2)  # first-call imports
    tracemalloc.start()
    try:
        integral_calculus(mats, polys, quad, BALL2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    work = 3 * 5 * 5 * _CHUNK * 16
    assert peak <= quad.quantiles.nbytes + work + 2**20, (peak, quad.quantiles.nbytes + work)


def test_integral_calculus_checks_the_quadrature_domain_first():
    # a ball1 tuple outside the disc, with a ball2 rule: the input fault wins
    quad = shilov_quadrature(BALL2, 1)
    with pytest.raises(ValidationError, match="different domain"):
        integral_calculus([np.array([[1.2]])], [Polynomial.constant(1, 1.0)], quad, BALL1)
    with pytest.raises(SpectrumTouchesBoundary):
        integral_calculus(
            [np.array([[1.2]])], [Polynomial.constant(1, 1.0)], shilov_quadrature(BALL1, 3), BALL1
        )


def test_integral_calculus_reuses_the_guards_first_draw(monkeypatch, rng):
    # the spectrum guard triangularizes twice; the quadrature takes its
    # Schur basis from the first of those draws and draws none of its own
    calls = []
    schur = koszul._simultaneous_schur

    def counted(*args):
        calls.append(args)
        return schur(*args)

    mats = _scaled_into_ball(random_commuting_tuple(2, 5, rng), BALL2, 0.8)
    quad = shilov_quadrature(BALL2, 1)
    monkeypatch.setattr(koszul, "_simultaneous_schur", counted)
    integral_calculus(mats, [Polynomial.coordinate(0, 2)], quad, BALL2)
    assert len(calls) == 2


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


@pytest.mark.parametrize("dom", [BALL2, BALL3, MB22, MB23], ids=DomainSpec.label)
def test_mobius_symbols_are_the_quasi_inverse_route(dom, rng):
    # p/q from the expansion of Delta against g(w) = z0 + B(z0, z0)^{1/2} w^{-z0}
    for _ in range(10):
        z0 = random_point(dom, rng, max_norm=0.9)
        comps = mobius_rational_components(dom, z0)
        g = mobius(dom, z0)
        pts = np.array([random_point(dom, rng, max_norm=0.9) for _ in range(8)])
        got = np.column_stack([c.p.eval_batch(pts) / c.q.eval_batch(pts) for c in comps])
        want = np.array([g(w) for w in pts])
        assert np.abs(got - want).max() <= 1e-12


@pytest.mark.parametrize("dom", [BALL2, BALL3, MB22, MB23], ids=DomainSpec.label)
def test_delta_expansion_is_jacobis_formula(dom, rng):
    # d det A = tr(adj A dA) with A = I - w u*: the gradient of Delta(w, u)
    # in conj(u) is -adj(A) w = -det(A) A^{-1} w
    r = dom.rows
    for _ in range(10):
        u = random_point(dom, rng, max_norm=0.9)
        delta, grad = _delta_expansion(dom, u)
        for _ in range(8):
            w = random_point(dom, rng, max_norm=0.9)
            a = np.eye(r) - as_matrix(dom, w) @ as_matrix(dom, u).conj().T
            want = -np.linalg.det(a) * np.linalg.solve(a, as_matrix(dom, w))
            got = np.array([g.eval_point(w) for g in grad])
            assert abs(delta.eval_point(w) - generic_poly(dom, w, u)) <= 1e-12
            assert np.abs(got - want.reshape(-1)).max() <= 1e-12


def test_mobius_symbols_expand_delta_once(monkeypatch, rng):
    calls = []
    terms = calculus.generic_poly_terms

    def counted(dom):
        calls.append(dom)
        return terms(dom)

    monkeypatch.setattr(calculus, "generic_poly_terms", counted)
    for dom in (BALL2, MB22, MB23):
        mobius_rational_components(dom, random_point(dom, rng, max_norm=0.9))
    assert calls == [BALL2, MB22, MB23]


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
