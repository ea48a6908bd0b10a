"""Koszul complexes, Taylor regularity point tests, the joint-eigenvalue
oracle, and spectral mapping for commuting matrix tuples."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from symdom.domains import DomainSpec
from symdom.errors import ConsensusFailure, ValidationError
from symdom.kernels import truncated_basis
from symdom import koszul
from symdom.koszul import (
    CONSENSUS_TOL,
    KoszulComplex,
    NotCommuting,
    _as_tuple,
    _assemble,
    _match_rows,
    _peel,
    _scale,
    _sign_symmetries,
    _simultaneous_schur,
    _support,
    boundary_square_defect,
    check_commuting,
    creation_matrices,
    hausdorff_distance,
    joint_eigenvalues,
    koszul_boundaries,
    polynomial_map_tuple,
    regularity_report,
    spectral_mapping_check,
    taylor_point_test,
    taylor_point_tests,
)
from symdom.operators import quotient_model
from symdom.polynomials import Polynomial
from symdom.sampling import random_commuting_tuple


def commuting_pair_from_one_matrix(h, rng):
    a = rng.standard_normal((h, h)) + 1j * rng.standard_normal((h, h))
    b = 0.5 * a @ a + 0.3 * a + 0.1 * np.eye(h)
    return [a, b]


def real_commuting_tuple(n, h, rng):
    """n real quadratic polynomials in one real matrix."""
    a = rng.standard_normal((h, h)) / np.sqrt(h)
    return [c0 * np.eye(h) + c1 * a + c2 * a @ a for c0, c1, c2 in rng.standard_normal((n, 3))]


def kron_boundaries(mats):
    """Reference assembly of the boundaries: D_k = sum_i Theta_i (x) T_i by np.kron."""
    n = len(mats)
    return [
        sum(np.kron(theta, t) for theta, t in zip(creation_matrices(n, k), mats))
        for k in range(n)
    ]


# ---------------------------------------------------------------------
# creation operators
# ---------------------------------------------------------------------

def test_single_creation_operator_frozen():
    (theta,) = creation_matrices(1, 0)
    assert np.array_equal(theta, np.array([[1.0]]))
    with pytest.raises(ValidationError):
        creation_matrices(1, 1)


def test_creation_operators_square_to_zero():
    for k in range(2):
        for inner, outer in zip(creation_matrices(3, k), creation_matrices(3, k + 1)):
            assert np.abs(outer @ inner).max() == 0.0


def test_creation_operators_anticommute():
    for k in range(2):
        inner, outer = creation_matrices(3, k), creation_matrices(3, k + 1)
        for i in range(3):
            for j in range(i + 1, 3):
                anti = outer[i] @ inner[j] + outer[j] @ inner[i]
                assert np.abs(anti).max() == 0.0


def test_creation_stage_shapes():
    from math import comb

    for n in (2, 3):
        for k in range(n):
            for theta in creation_matrices(n, k):
                assert theta.shape == (comb(n, k + 1), comb(n, k))


# ---------------------------------------------------------------------
# complex construction
# ---------------------------------------------------------------------

def test_one_variable_complex_is_the_matrix():
    t = np.array([[1.0, 2.0], [0.0, 3.0]])
    cx = koszul_boundaries([t])
    assert cx.n == 1 and cx.h == 2
    assert len(cx.boundaries) == 1
    assert np.abs(cx.boundaries[0] - t).max() < 1e-14


def test_one_variable_regularity_is_invertibility():
    assert regularity_report(koszul_boundaries([np.array([[1.0, 1.0], [0.0, 1.0]])])).regular
    assert not regularity_report(koszul_boundaries([np.array([[0.0, 1.0], [0.0, 0.0]])])).regular


def test_boundary_square_vanishes(rng):
    for _ in range(5):
        cx = koszul_boundaries(commuting_pair_from_one_matrix(5, rng))
        scale = max(np.linalg.norm(b, 2) for b in cx.boundaries)
        assert boundary_square_defect(cx) <= 1e-12 * max(1.0, scale**2)
    triple = random_commuting_tuple(3, 4, rng)
    assert boundary_square_defect(koszul_boundaries(triple)) <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_block_placed_boundaries_equal_kron_sum(n, rng):
    for mats in (real_commuting_tuple(n, 3, rng), random_commuting_tuple(n, 3, rng)):
        cx = koszul_boundaries(mats)
        for got, want in zip(cx.boundaries, kron_boundaries(mats), strict=True):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)


def test_boundaries_take_the_field_of_the_tuple(rng):
    real = real_commuting_tuple(2, 3, rng)
    assert koszul_boundaries(real).boundaries[0].dtype == np.float64
    # complex storage with imaginary parts exactly zero is still a real tuple
    assert koszul_boundaries([m + 0j for m in real]).boundaries[0].dtype == np.float64
    assert koszul_boundaries([real[0] + 1e-300j, real[1]]).boundaries[0].dtype == np.complex128


def test_noncommuting_tuple_rejected(rng):
    a = rng.standard_normal((4, 4))
    b = rng.standard_normal((4, 4))
    with pytest.raises(NotCommuting):
        koszul_boundaries([a, b])


@pytest.mark.parametrize(
    "bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(np.inf, 1.0)]
)
def test_non_finite_tuple_is_a_validation_error(bad, rng):
    # refused before any norm or factorization: no warning, no LinAlgError
    mats = random_commuting_tuple(2, 4, rng)
    mats[1] = mats[1].copy()
    mats[1][2, 0] = bad
    for run in (
        lambda: joint_eigenvalues(mats),
        lambda: taylor_point_tests(mats, [np.zeros(2), np.array([0.3, -0.1])]),
        lambda: check_commuting(mats),
    ):
        with pytest.raises(ValidationError, match="NaN or infinite"):
            run()
    with pytest.raises(ValidationError, match="NaN or infinite"):
        joint_eigenvalues([np.diag([1.0, bad])])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_complex_size_guard_counts_every_boundary_entry(n, rng, monkeypatch):
    mats = random_commuting_tuple(n, 3, rng)
    points = [np.zeros(n)]
    entries = sum(d.size for d in koszul_boundaries(mats).boundaries)
    monkeypatch.setattr(koszul, "MAX_BOUNDARY_ENTRIES", entries)
    koszul_boundaries(mats)
    taylor_point_tests(mats, points)
    # one entry fewer: refused before the sign group or any subset list
    monkeypatch.setattr(koszul, "MAX_BOUNDARY_ENTRIES", entries - 1)
    monkeypatch.setattr(koszul, "_sign_symmetries", lambda mats: pytest.fail("signs built"))
    monkeypatch.setattr(koszul, "_subsets", lambda n, k: pytest.fail("subsets built"))
    for run in (lambda: koszul_boundaries(mats), lambda: taylor_point_tests(mats, points)):
        with pytest.raises(MemoryError, match=f"{entries} entries for a {n}-tuple on C"):
            run()


# ---------------------------------------------------------------------
# regularity point tests
# ---------------------------------------------------------------------

def test_zero_tuple_singular_only_at_zero():
    zeros = [np.zeros((3, 3)), np.zeros((3, 3))]
    assert not taylor_point_test(zeros, np.zeros(2)).regular
    assert taylor_point_test(zeros, np.array([0.4, -0.2])).regular
    assert taylor_point_test(zeros, np.array([0.0, 1e-3])).regular


def test_diagonal_pair_point_membership():
    d1 = np.diag([0.0, 0.5, -0.3])
    d2 = np.diag([0.0, 0.2, 0.6])
    # joint spectrum = {(0,0), (0.5,0.2), (-0.3,0.6)}
    assert not taylor_point_test([d1, d2], np.zeros(2)).regular
    assert not taylor_point_test([d1, d2], np.array([0.5, 0.2])).regular
    assert taylor_point_test([d1, d2], np.array([0.5, 0.6])).regular
    assert taylor_point_test([d1, d2], np.array([2.0, 2.0])).regular


def test_points_beyond_spectral_radii_are_regular(rng):
    mats = commuting_pair_from_one_matrix(4, rng)
    radii = [max(np.abs(np.linalg.eigvals(m))) for m in mats]
    w = np.array([radii[0] + 0.5, radii[1] + 0.5])
    report = taylor_point_test(mats, w)
    assert report.regular
    assert report.min_stage_gap > 0


def test_truncated_pair_singular_only_at_origin():
    basis = truncated_basis(DomainSpec.ball(2), 1.0, 6)
    model = quotient_model(basis, [Polynomial.coordinate(0, 2)])
    mats = list(model.tuple_mats)
    assert not taylor_point_test(mats, np.zeros(2)).regular
    for w in ([0.5, 0.5], [0.3, 0.0], [0.0, 0.4], [-0.2, 0.1]):
        assert taylor_point_test(mats, np.array(w, dtype=complex)).regular


def test_report_fields_consistent():
    d1 = np.diag([0.3, 0.7])
    d2 = np.diag([0.1, 0.4])
    report = taylor_point_test([d1, d2], np.array([5.0, 5.0]))
    assert report.regular
    assert len(report.ranks) == 2
    assert len(report.defects) == 3


def test_real_path_matches_complex_route_on_mb22_quotient():
    # the spectrum-mb22 model: real tuple, real grid points
    basis = truncated_basis(DomainSpec.matrix_ball(2, 2), 2.5, 6)
    mats = list(quotient_model(basis, [Polynomial.coordinate(0, 4)]).tuple_mats)
    assert koszul_boundaries(mats).boundaries[0].dtype == np.float64
    h = mats[0].shape[0]
    points = [np.array(w, dtype=complex) for w in itertools.product([-0.5, 0.5], repeat=4)]
    for w, got in zip(points, taylor_point_tests(mats, points), strict=True):
        shifted = [m.astype(complex) - wi * np.eye(h) for m, wi in zip(mats, w)]
        want = regularity_report(KoszulComplex(4, h, tuple(kron_boundaries(shifted))))
        assert want.regular and got.regular
        assert got.ranks == want.ranks
        assert abs(got.min_stage_gap - want.min_stage_gap) <= 1e-12 * want.min_stage_gap


def test_stage_gap_closed_form_on_ball2_modulo_z1():
    # S_{z1} = 0 on the quotient, so off V = {z1 = 0} the gap is |w_1|, at a
    # real and at a complex point; on V it falls with the truncation degree
    on_v = []
    for d_trunc in (4, 8, 12):
        basis = truncated_basis(DomainSpec.ball(2), 2.0, d_trunc)
        model = quotient_model(basis, [Polynomial.coordinate(0, 2)])
        real, cplx, on = taylor_point_tests(model.tuple_mats, [[0.5, 0], [0.5j, 0], [0, 0.5]])
        for report in (real, cplx):
            assert report.regular
            assert abs(report.min_stage_gap - 0.5) <= 1e-12
        on_v.append(on.min_stage_gap)
    assert on_v[0] > on_v[1] > on_v[2] > 0


def test_point_tests_guard_no_looser_than_per_point_check(rng):
    h = 4
    eye = np.eye(h)
    x, y = rng.standard_normal((2, h, h))
    # commutator 1e-9: below the guard against the unshifted scale of about
    # 100, above it at the shift (100, 100), whose scale is 1
    eps = np.sqrt(1e-9 / np.linalg.norm(x @ y - y @ x, 2))
    near = [100 * eye + eps * x, 100 * eye + eps * y]
    cases = [
        ([x, y], [[0.0, 0.0], [0.3, -0.2j], [5.0, 5.0]]),
        ([x + 1j * y, y], [[0.0, 0.0], [1.0, 2.0]]),
        (near, [[0.0, 0.0], [100.0, 100.0], [100.0 + 1j, 100.0]]),
    ]
    raised = []
    for mats, points in cases:
        for w in points:
            try:
                check_commuting([m - wi * eye for m, wi in zip(mats, w)])
                per_point = False
            except NotCommuting:
                per_point = True
            raised.append(per_point)
            if per_point:
                with pytest.raises(NotCommuting):
                    taylor_point_tests(mats, [w])
            else:
                taylor_point_tests(mats, [w])
        with pytest.raises(NotCommuting):
            taylor_point_tests(mats, points)
    assert raised == [True] * 5 + [False, True, True]


# ---------------------------------------------------------------------
# sign symmetries: one report per orbit
# ---------------------------------------------------------------------

def symmetry_gamma(mats, eps):
    """The diagonal of a +-1 matrix Gamma with Gamma T_k Gamma = eps_k T_k,
    propagated entry by entry from gamma = 1 at each unreached index; None
    when an entry contradicts it."""
    h = mats[0].shape[0]
    entries = [(a, b, e) for m, e in zip(mats, eps) for a, b in zip(*np.nonzero(m))]
    gamma = [0] * h
    for root in range(h):
        if gamma[root]:
            continue
        gamma[root] = 1
        changed = True
        while changed:
            changed = False
            for a, b, e in entries:
                for x, y in ((a, b), (b, a)):
                    if gamma[x] and not gamma[y]:
                        gamma[y] = e * gamma[x]
                        changed = True
    if any(gamma[a] * gamma[b] != e for a, b, e in entries):
        return None
    return np.array(gamma, dtype=float)


def brute_force_symmetries(mats):
    """Every eps in {+-1}^n that some Gamma realizes, each Gamma checked."""
    out = set()
    for eps in itertools.product([1, -1], repeat=len(mats)):
        gamma = symmetry_gamma(mats, eps)
        if gamma is None:
            continue
        for m, e in zip(mats, eps):
            assert np.array_equal(gamma[:, None] * m * gamma[None, :], e * m)
        out.add(eps)
    return out


def orbit_count(points, group):
    """Orbits of the points under w -> eps * w, by value (0.0 == -0.0)."""
    reps = []
    for w in points:
        if not any(np.array_equal(np.array(eps) * w, r) for r in reps for eps in group):
            reps.append(w)
    return len(reps)


Z = Polynomial.coordinate
AXIS = [-0.5, 0.0, 0.5]
SYMMETRY_CASES = {
    # (domain, weight, D, generators, grid points, |G|)
    "ball2/z1": (DomainSpec.ball(2), 2.0, 6, [Z(0, 2)],
                 list(itertools.product([-0.5, -0.0, 0.0, 0.5], [-0.5j, 0.0, 0.5j])), 4),
    "polydisc2/z1z2": (DomainSpec.polydisc(2), 1.0, 5, [Z(0, 2) * Z(1, 2)],
                       list(itertools.product(AXIS, repeat=2)), 4),
    "ball3/z1z2": (DomainSpec.ball(3), 3.0, 5, [Z(0, 3) * Z(1, 3)],
                   list(itertools.product(AXIS, repeat=3)), 8),
    "mb22/z11": (DomainSpec.matrix_ball(2, 2), 2.5, 6, [Z(0, 4)],
                 [(0.0,) * 4] + list(itertools.product([-0.5, 0.5], repeat=4)), 16),
    "mb22/z11+z22": (DomainSpec.matrix_ball(2, 2), 2.5, 5, [Z(0, 4) + Z(3, 4)],
                     [(0.0,) * 4] + list(itertools.product([-0.5, 0.5], repeat=4)), 4),
}


@pytest.mark.parametrize("case", SYMMETRY_CASES)
def test_point_tests_once_per_orbit_match_per_point_reports(case, monkeypatch):
    dom, lam, d_trunc, gens, grid, size = SYMMETRY_CASES[case]
    mats = list(quotient_model(truncated_basis(dom, lam, d_trunc), gens).tuple_mats)
    group = brute_force_symmetries(mats)
    assert len(group) == size
    assert {tuple(eps) for eps in _sign_symmetries(mats).astype(int).tolist()} == group
    points = [np.array(w) for w in grid]

    calls = []

    def counting_report(shifted):
        calls.append(shifted)
        return point_report(shifted)

    point_report = koszul._point_report
    monkeypatch.setattr(koszul, "_point_report", counting_report)
    got = taylor_point_tests(mats, points)
    monkeypatch.undo()
    assert len(calls) == orbit_count(points, group) < len(points)

    h = mats[0].shape[0]
    for w, report in zip(points, got, strict=True):
        want = regularity_report(_assemble([m - wi * np.eye(h) for m, wi in zip(mats, w)]))
        assert (report.regular, report.ranks, report.defects) == (
            want.regular, want.ranks, want.defects
        )
        assert abs(report.min_stage_gap - want.min_stage_gap) <= 1e-12 * want.min_stage_gap


def mb22_z11_tuple(d_trunc):
    """The spectrum-mb22 model: MB(2,2)/z11 at weight 2.5, real."""
    basis = truncated_basis(DomainSpec.matrix_ball(2, 2), 2.5, d_trunc)
    return list(quotient_model(basis, [Z(0, 4)]).tuple_mats)


def test_point_tests_bit_identical_to_assembled_complex():
    # one boundary at a time, the same matrices through the same SVDs
    mats = mb22_z11_tuple(6)
    h = mats[0].shape[0]

    def full_route(w):
        return regularity_report(koszul_boundaries([m - wi * np.eye(h) for m, wi in zip(mats, w)]))

    grid = [np.array(w) for w in itertools.product([-0.5, 0.5], repeat=4)]
    assert len(_sign_symmetries(mats)) == 16  # the grid is one orbit, reported at grid[0]
    assert taylor_point_tests(mats, grid) == [full_route(grid[0])] * 16
    asymmetric = [
        np.array([0.1, -0.3, 0.45, 0.2]),
        np.array([0.0, 0.25, -0.5, 0.7]),
        np.array([0.2 + 0.1j, -0.3j, 0.4, 0.05 - 0.2j]),
        np.zeros(4),  # the truncated model's only joint eigenvalue
    ]
    got = taylor_point_tests(mats, asymmetric)
    assert [r.regular for r in got] == [True, True, True, False]
    for w, report in zip(asymmetric, got, strict=True):
        assert report == full_route(w)
        assert report == taylor_point_test(mats, w)


def test_point_tests_hold_one_boundary_at_a_time():
    # holding every stage at once took 2.75x the largest boundary
    mats = mb22_z11_tuple(6)
    h = mats[0].shape[0]
    largest = max(math.comb(4, k) * math.comb(4, k + 1) for k in range(4)) * h * h * 8
    points = [np.array([0.1, -0.3, 0.45, 0.2]), np.array([0.5, 0.5, 0.5, 0.5])]
    taylor_point_tests(mats, points)  # the subset lists are cached
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        taylor_point_tests(mats, points)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 2 * largest, (peak, largest)


def test_sign_symmetries_hand_cases(rng):
    def signs(mats):
        return {tuple(e) for e in _sign_symmetries(mats).astype(int).tolist()}

    h = 5
    # a nonzero diagonal in every component pins every sign
    assert signs([np.diag([0.0, 1.0, 2.0, 0.0, 3.0]), np.diag([1.0, 0.0, 0.0, 0.0, 0.0])]) == {(1, 1)}
    # the zero tuple allows every sign
    assert signs([np.zeros((h, h))] * 3) == set(itertools.product([1, -1], repeat=3))
    # a generic dense commuting pair allows none
    a, b = commuting_pair_from_one_matrix(h, rng)
    assert signs([a, b]) == {(1, 1)}
    # the shift J and J^2: J^2 closes a cycle with two J steps, so only J flips
    shift = np.eye(h, k=-1)
    assert signs([shift, shift @ shift]) == {(1, 1), (-1, 1)}
    assert signs([shift, shift @ shift]) == brute_force_symmetries([shift, shift @ shift])
    # one diagonal entry of T_2 pins eps_2 only
    assert signs([shift, np.diag([0, 0, 1.0, 0, 0])]) == {(1, 1), (-1, 1)}


# ---------------------------------------------------------------------
# joint eigenvalues
# ---------------------------------------------------------------------

def test_joint_eigenvalues_diagonal():
    d1 = np.diag([1.0, 2.0, 3.0])
    d2 = np.diag([4.0, 5.0, 6.0])
    got = joint_eigenvalues([d1, d2])
    want = np.array([[1, 4], [2, 5], [3, 6]], dtype=complex)
    assert hausdorff_distance(got, want) < 1e-10


def test_joint_eigenvalues_single_matrix(rng):
    a = rng.standard_normal((5, 5))
    got = joint_eigenvalues([a])
    want = np.linalg.eigvals(a)[:, None]
    assert hausdorff_distance(got, want) < 1e-8


def test_joint_eigenvalues_power_pair(rng):
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    got = joint_eigenvalues([a, a @ a])
    mus = np.linalg.eigvals(a)
    want = np.column_stack([mus, mus**2])
    assert hausdorff_distance(got, want) < 1e-8


def test_joint_eigenvalues_deterministic(rng):
    mats = random_commuting_tuple(2, 6, rng)
    first = joint_eigenvalues(mats, seed=7)
    second = joint_eigenvalues(mats, seed=7)
    assert np.array_equal(first, second)


# ---------------------------------------------------------------------
# triangularization: the peel, then a Schur form of the core
# ---------------------------------------------------------------------

def schur_route(mats, rng, scale):
    """The oracle: the Schur basis of one random combination of the whole
    tuple, drawn as ``_simultaneous_schur`` draws, with no peel."""
    import scipy.linalg

    for _ in range(8):
        coeffs = rng.standard_normal(len(mats)) + 1j * rng.standard_normal(len(mats))
        _, z = scipy.linalg.schur(sum(c * m for c, m in zip(coeffs, mats)), output="complex")
        rotated = [z.conj().T @ m @ z for m in mats]
        if max(np.linalg.norm(np.tril(r, -1), 2) for r in rotated) <= 1e-7 * scale:
            return z, rotated
    raise AssertionError("the oracle found no triangularization")


def oracle_joint_eigenvalues(mats, monkeypatch, seed=0):
    with monkeypatch.context() as patch:
        patch.setattr(koszul, "_simultaneous_schur", schur_route)
        return joint_eigenvalues(mats, seed=seed)


def model_tuple(dom, lam, d_trunc, gens):
    return _as_tuple(quotient_model(truncated_basis(dom, lam, d_trunc), gens).tuple_mats)


GRADED_CASES = {
    "ball2/z1": (DomainSpec.ball(2), 2.0, [Z(0, 2)]),
    "polydisc2/z1z2": (DomainSpec.polydisc(2), 1.0, [Z(0, 2) * Z(1, 2)]),
    "mb22/z11": (DomainSpec.matrix_ball(2, 2), 2.5, [Z(0, 4)]),
}


@pytest.mark.parametrize("d_trunc", [3, 4, 5, 6])
@pytest.mark.parametrize("case", GRADED_CASES)
def test_graded_model_triangularizes_by_permutation(case, d_trunc, monkeypatch):
    dom, lam, gens = GRADED_CASES[case]
    mats = model_tuple(dom, lam, d_trunc, gens)
    h = mats[0].shape[0]
    order, core = _peel(_support(mats))
    assert sorted(order.tolist()) == list(range(h))
    assert core.start == core.stop
    z, rotated = _simultaneous_schur(mats, np.random.default_rng(0), _scale(mats))
    assert np.array_equal(z, np.eye(h)[:, order])
    for m, r in zip(mats, rotated):
        assert np.array_equal(r, m[np.ix_(order, order)])
        assert not np.tril(r, -1).any()
    got = joint_eigenvalues(mats)
    want = oracle_joint_eigenvalues(mats, monkeypatch)
    assert np.array_equal(got, want)
    assert not np.signbit(got.real).any() and not np.signbit(got.imag).any()


def test_triangular_guard_takes_no_2_norm_on_a_peeled_model(monkeypatch):
    # a graded model peels to an exactly triangular tuple: Frobenius norms only
    mats = mb22_z11_tuple(6)
    scale = _scale(mats)
    orders = []
    norm = np.linalg.norm

    def recording_norm(x, ord=None, *args, **kwargs):
        orders.append(ord)
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", recording_norm)
    _simultaneous_schur(mats, np.random.default_rng(0), scale)
    monkeypatch.undo()
    assert orders == [None] * len(mats)


@pytest.mark.parametrize("h", [3, 8, 30])
def test_triangular_guard_verdicts_match_the_2_norm(h, rng):
    # a strict lower part a * (subdiagonal) has 2-norm a and Frobenius norm
    # a sqrt(h - 1): past the bound in Frobenius norm while a is not
    bound = 1e-7 * 3.0
    sub = np.diag(np.ones(h - 1), -1)
    upper = np.triu(rng.standard_normal((h, h)) + 1j * rng.standard_normal((h, h)))
    for a in (0.0, 0.5, 0.9, 0.999, 1.001, 1.1, 10.0):
        for tup in ([upper + a * bound * sub], [upper.real, upper + 1j * a * bound * sub]):
            lower = [np.tril(r, -1) for r in tup]
            want = max(np.linalg.norm(m, 2) for m in lower) <= bound
            assert koszul._triangular(tup, bound) == want == (a <= 1.0)
            if a * math.sqrt(h - 1) > 1.0 >= a:
                assert max(np.linalg.norm(m) for m in lower) > bound


FILTRATION_DOMAINS = {
    "ball2": (DomainSpec.ball(2), 2.0),
    "polydisc2": (DomainSpec.polydisc(2), 2.0),
    "mb22": (DomainSpec.matrix_ball(2, 2), 2.5),
}
FILTRATION_GENERATORS = {
    "z1^2+z2": lambda n: Z(0, n) * Z(0, n) + Z(1, n),
    "z1+z2^2": lambda n: Z(0, n) + Z(1, n) * Z(1, n),
    "z1z2+0.5z1": lambda n: Z(0, n) * Z(1, n) + 0.5 * Z(0, n),
}


@pytest.mark.parametrize("d_trunc", [3, 4, 6, 8])
@pytest.mark.parametrize("gen", FILTRATION_GENERATORS)
@pytest.mark.parametrize("case", FILTRATION_DOMAINS)
def test_filtration_model_has_the_exact_spectrum_zero(case, gen, d_trunc):
    # S_i takes each label only into higher labels, so the stored tuple is
    # strictly lower triangular in label order: the peel leaves no core and
    # the nilpotent tuple's joint spectrum is exactly {0}
    dom, lam = FILTRATION_DOMAINS[case]
    model = quotient_model(truncated_basis(dom, lam, d_trunc), [FILTRATION_GENERATORS[gen](dom.dim)])
    labels = model.degree_labels
    mats = _as_tuple(model.tuple_mats)
    for m in mats:
        assert not m[labels[:, None] <= labels[None, :]].any()
    core = _peel(_support(mats))[1]
    assert core.start == core.stop
    eigs = joint_eigenvalues(mats)
    assert eigs.shape == (labels.size, dom.dim) and not eigs.any()


def test_diagonal_tuple_returns_its_entries_exactly(rng, monkeypatch):
    entries = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
    entries[3] = entries[1]  # a repeated joint eigenvalue
    mats = [np.diag(entries[:, i]) for i in range(3)]
    assert _peel(_support(mats))[1] == slice(0, 0)
    got = joint_eigenvalues(mats)
    assert {tuple(row) for row in got.tolist()} == {tuple(row) for row in entries.tolist()}
    assert got.shape == entries.shape
    assert hausdorff_distance(got, oracle_joint_eigenvalues(mats, monkeypatch)) <= CONSENSUS_TOL


def test_dense_tuple_gets_the_whole_schur_basis(rng):
    # the unitary factor of the combination's eigenvectors, drawn from the
    # same combination as the oracle's Schur form: a Schur basis to rounding
    for mats in (random_commuting_tuple(3, 6, rng), real_commuting_tuple(2, 5, rng)):
        mats = _as_tuple(mats)
        h = mats[0].shape[0]
        assert _peel(_support(mats))[1] == slice(0, h)
        scale = _scale(mats)
        z, rotated = _simultaneous_schur(mats, np.random.default_rng(3), scale)
        _, want_rotated = schur_route(mats, np.random.default_rng(3), scale)
        assert np.linalg.norm(z.conj().T @ z - np.eye(h), 2) <= 1e-14
        for r in rotated:
            assert np.linalg.norm(np.tril(r, -1), 2) <= 1e-12 * scale
        eigs = np.column_stack([np.diag(r) for r in rotated])
        want = np.column_stack([np.diag(r) for r in want_rotated])
        assert _match_rows(eigs, want) <= 1e-13 * scale


def unitary(h, rng):
    return np.linalg.qr(rng.standard_normal((h, h)) + 1j * rng.standard_normal((h, h)))[0]


def conditioned_matrix(h, cond, rng):
    """A diagonalizable matrix whose eigenvector matrix has condition ``cond``."""
    s = unitary(h, rng) @ np.diag(np.logspace(0, -np.log10(cond), h)) @ unitary(h, rng)
    return s @ np.diag(rng.standard_normal(h) + 1j * rng.standard_normal(h)) @ np.linalg.inv(s)


def mixed_jordan_block(k, rng):
    """A k x k Jordan block in a random unitary basis, so that nothing peels."""
    u = unitary(k, rng)
    lam = rng.standard_normal() + 1j * rng.standard_normal()
    return u @ (lam * np.eye(k) + np.eye(k, k=1)) @ u.conj().T


def eig_qr_families(rng):
    """(name, tuple, bound on the eigenvalue gap to the Schur route over the
    scale, 0 where both routes give exact zeros, or None where both raise
    ConsensusFailure)."""
    for h in (2, 5, 13, 40):
        for n in (1, 2, 3):
            yield "random", random_commuting_tuple(n, h, rng), 1e-13
    for h in (3, 6):
        t = random_commuting_tuple(2, h, rng)
        u = unitary(2 * h, rng)
        # T + T: every joint eigenvalue repeats
        yield "mixed T+T", [u @ np.kron(np.eye(2), m) @ u.conj().T for m in t], 1e-13
    for h in (4, 6):
        yield "real", real_commuting_tuple(2, h, rng), 1e-13
    for _ in range(3):
        a = mixed_jordan_block(2, rng)
        yield "jordan 2", [a, a @ a], 1e-7
    for k in (3, 4):
        a = mixed_jordan_block(k, rng)
        yield f"jordan {k}", [a, a @ a], None
    for cond, bound in ((1e2, 1e-13), (1e4, 1e-11), (1e12, None)):
        yield f"condition {cond:.0e}", [conditioned_matrix(6, cond, rng)], bound
    # filtration models modulo an inhomogeneous generator store their
    # structural zeros, so the tuple peels to an empty core and both routes
    # report the exact spectrum {0}
    gen = Polynomial(2, {(2, 0): 1.0, (0, 1): 1.0})  # z1^2 + z2
    for d_trunc in (3, 4, 6):
        mats = model_tuple(DomainSpec.ball(2), 2.0, d_trunc, [gen])
        yield f"ball2/(z1^2 + z2) D {d_trunc}", mats, 0.0


def scipy_schur_joint_eigenvalues(mats, monkeypatch):
    """The peel with scipy's Schur form of every core."""
    import scipy.linalg

    with monkeypatch.context() as patch:
        patch.setattr(
            koszul, "_schur_basis", lambda a: scipy.linalg.schur(a, output="complex")[1]
        )
        return joint_eigenvalues(mats)


def test_eig_qr_route_fails_where_the_schur_route_fails(monkeypatch):
    # both routes pass or both raise, and where they pass their eigenvalues
    # agree within the family's bound
    for name, mats, bound in eig_qr_families(np.random.default_rng(11)):
        mats = _as_tuple(mats)
        scale = _scale(mats)
        if bound is None:
            with pytest.raises(ConsensusFailure):
                joint_eigenvalues(mats)
            with pytest.raises(ConsensusFailure):
                scipy_schur_joint_eigenvalues(mats, monkeypatch)
            continue
        got = joint_eigenvalues(mats)
        want = scipy_schur_joint_eigenvalues(mats, monkeypatch)
        assert _match_rows(got, want) <= bound * scale, name
        assert bound > 0 or not got.any(), name


def test_joint_eigenvalues_carry_their_first_draw(rng):
    # the sorted eigenvalues are the diagonal of the returned draw, which is
    # the draw seed 0 makes first, for dense and graded tuples alike
    for mats in (
        _as_tuple(random_commuting_tuple(3, 6, rng)),
        model_tuple(DomainSpec.ball(2), 2.0, 4, [Z(0, 2)]),
    ):
        eigs, (z, rotated) = koszul._joint_eigenvalues_and_draw(mats)
        assert np.array_equal(eigs, joint_eigenvalues(mats))
        want_z, want_rotated = _simultaneous_schur(mats, np.random.default_rng(0), _scale(mats))
        assert np.array_equal(z, want_z)
        for r, want in zip(rotated, want_rotated, strict=True):
            assert np.array_equal(r, want)
        diag = np.column_stack([np.diag(r) for r in rotated])
        assert diag.shape == eigs.shape and _match_rows(diag, eigs) == 0.0


def test_direct_sum_peels_the_graded_summand(rng, monkeypatch):
    graded = model_tuple(DomainSpec.ball(2), 2.0, 4, [Z(0, 2)])
    dense = random_commuting_tuple(2, 5, rng)
    g, h = graded[0].shape[0], graded[0].shape[0] + 5
    perm = rng.permutation(h)
    mats = []
    for a, b in zip(graded, dense):
        block = np.zeros((h, h), dtype=complex)
        block[:g, :g], block[g:, g:] = a, b
        mats.append(block[np.ix_(perm, perm)])
    order, core = _peel(_support(mats))
    assert sorted(order[core].tolist()) == sorted(np.flatnonzero(perm >= g).tolist())
    scale = _scale(mats)
    _, rotated = _simultaneous_schur(mats, np.random.default_rng(0), scale)
    assert max(np.linalg.norm(np.tril(r, -1), 2) for r in rotated) <= 1e-7 * scale
    got = joint_eigenvalues(mats)
    assert _match_rows(got, oracle_joint_eigenvalues(mats, monkeypatch)) <= CONSENSUS_TOL


def loop_match_rows(a, b):
    """The greedy matching one norm at a time."""
    remaining = list(range(b.shape[0]))
    worst = 0.0
    for row in a:
        dists = [np.linalg.norm(row - b[j]) for j in remaining]
        pick = int(np.argmin(dists))
        worst = max(worst, float(dists[pick]))
        remaining.pop(pick)
    return worst


def test_match_rows_is_the_greedy_loop(rng):
    # row 0 ties between b[0] and b[1]; the smaller index wins, which leaves
    # b[1] = -1 for row 2 at distance 6 (b[0] would leave distance 4)
    a = np.array([[0.0], [2.0], [5.0]], dtype=complex)
    b = np.array([[1.0], [-1.0], [2.0]], dtype=complex)
    assert _match_rows(a, b) == loop_match_rows(a, b) == 6.0
    for _ in range(20):
        a = rng.standard_normal((7, 3)) + 1j * rng.standard_normal((7, 3))
        b = a[rng.permutation(7)] + 1e-3 * rng.standard_normal((7, 3))
        # one distance matrix sums each norm in another order: a few ulps
        for c in (b, a[::-1]):
            want = loop_match_rows(a, c)
            assert abs(_match_rows(a, c) - want) <= 4 * np.finfo(float).eps * max(want, 1.0)


def test_schur_basis_takes_eigenvectors_unless_they_are_dependent(rng):
    import scipy.linalg

    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    assert np.array_equal(koszul._schur_basis(a), np.linalg.qr(np.linalg.eig(a)[1])[0])
    for k in (3, 4):
        # a Jordan block's eigenvectors are numerically dependent (at k = 2
        # only about as far as sqrt(eps)): its Schur form is scipy's
        jordan = mixed_jordan_block(k, rng)
        sv = np.linalg.svd(np.linalg.eig(jordan)[1], compute_uv=False)
        assert sv[-1] <= koszul.RANK_TOL * sv[0]
        want = scipy.linalg.schur(jordan, output="complex")[1]
        assert np.array_equal(koszul._schur_basis(jordan), want)


def test_calculus_is_unchanged_on_dense_tuples(monkeypatch):
    # the calculus-ball2 tuples: dense, so the core is the whole tuple, whose
    # Schur basis differs from the oracle's by rounding and phases only
    from symdom.calculus import integral_calculus, shilov_quadrature
    from symdom.cli import _default_polys

    dom = DomainSpec.ball(2)
    quad = shilov_quadrature(dom, 1)
    polys = _default_polys(2)
    rng = np.random.default_rng(0)
    for _ in range(3):
        mats = random_commuting_tuple(2, 5, rng, spectral_radius=0.6)
        got = integral_calculus(mats, polys, quad, dom)
        with monkeypatch.context() as patch:
            patch.setattr(koszul, "_simultaneous_schur", schur_route)
            want = integral_calculus(mats, polys, quad, dom)
        for res, ref in zip(got, want, strict=True):
            assert np.linalg.norm(res.value - ref.value, 2) <= 1e-12 * np.linalg.norm(ref.value, 2)
            assert abs(res.est_error - ref.est_error) <= 1e-12


# ---------------------------------------------------------------------
# spectral mapping
# ---------------------------------------------------------------------

def test_spectral_mapping_identity_and_constant(rng):
    mats = random_commuting_tuple(2, 4, rng)
    ident = [Polynomial.coordinate(0, 2), Polynomial.coordinate(1, 2)]
    assert spectral_mapping_check(mats, ident) < 1e-10
    const = [Polynomial.constant(2, 2.5 + 1j)]
    assert spectral_mapping_check(mats, const) < 1e-10
    mapped = polynomial_map_tuple(mats, const)
    assert np.abs(mapped[0] - (2.5 + 1j) * np.eye(4)).max() < 1e-14


def test_spectral_mapping_symmetric_functions(rng):
    mats = commuting_pair_from_one_matrix(5, rng)
    z1 = Polynomial.coordinate(0, 2)
    z2 = Polynomial.coordinate(1, 2)
    assert spectral_mapping_check(mats, [z1 + z2, z1 * z2]) <= 1e-8


def test_hausdorff_distance_basic():
    a = np.array([[0.0 + 0j], [1.0 + 0j]])
    b = np.array([[0.0 + 0j], [1.5 + 0j]])
    assert abs(hausdorff_distance(a, b) - 0.5) < 1e-15
    assert hausdorff_distance(a, a) == 0.0


# ---------------------------------------------------------------------
# surrogate spectrum properties
# ---------------------------------------------------------------------

def test_point_tests_match_joint_eigenvalues(rng):
    # singular exactly on the joint-eigenvalue set, regular off it
    for _ in range(5):
        mats = random_commuting_tuple(2, 5, rng)
        eigs = joint_eigenvalues(mats)
        for row in eigs:
            assert not taylor_point_test(mats, row).regular
        count = 0
        while count < 5:
            w = 0.9 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
            if np.min(np.linalg.norm(eigs - w, axis=1)) < 0.1:
                continue
            assert taylor_point_test(mats, w).regular
            count += 1


def test_regularity_basis_independent(rng):
    # unitary change of exterior-algebra coordinates at every stage
    from math import comb

    for mats, w in [
        (random_commuting_tuple(2, 4, rng), np.array([0.05, -0.03])),
        ([np.diag([0.0, 0.2]), np.diag([0.0, -0.1])], np.zeros(2)),
    ]:
        cx = koszul_boundaries([m - wi * np.eye(m.shape[0]) for m, wi in zip(mats, w)])
        h, n = cx.h, cx.n
        stages = []
        for k in range(n + 1):
            q, _ = np.linalg.qr(
                rng.standard_normal((comb(n, k), comb(n, k)))
                + 1j * rng.standard_normal((comb(n, k), comb(n, k)))
            )
            stages.append(np.kron(np.eye(h), q))
        rotated = KoszulComplex(
            n,
            h,
            tuple(
                stages[k + 1] @ cx.boundaries[k] @ stages[k].conj().T
                for k in range(n)
            ),
        )
        assert regularity_report(rotated).regular == regularity_report(cx).regular


def test_singular_points_inside_spectral_polydisc(rng):
    mats = random_commuting_tuple(2, 5, rng)
    radii = [max(np.abs(np.linalg.eigvals(m))) for m in mats]
    for row in joint_eigenvalues(mats):
        assert not taylor_point_test(mats, row).regular
        assert all(abs(row[i]) <= radii[i] + 1e-8 for i in range(2))
