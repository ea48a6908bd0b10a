"""Kernel coefficient blocks, Gram blocks and closed-form norms, truncated
orthonormal bases, kernel evaluation, and the disk cache."""

import dataclasses
import functools
import math

import numpy as np
import pytest
import scipy.linalg
from scipy.sparse.csgraph import connected_components

from symdom import kernels

from symdom.domains import DomainSpec, generic_poly_terms
from symdom.errors import (
    BranchCutError,
    NonFiniteValue,
    NotAModuleWeight,
    ValidationError,
)
from symdom.kernels import (
    cache_key,
    cached_truncated_basis,
    closed_form_norm,
    gram_block,
    gram_blocks,
    kernel_eval,
    kernel_series,
    load_basis,
    multi_indices,
    save_basis,
    series_partial_sum,
    truncated_basis,
)
from symdom.sampling import random_point
from symdom.wallach import finite_rank_membership, pochhammer

BALL1 = DomainSpec.ball(1)
BALL2 = DomainSpec.ball(2)
POLY2 = DomainSpec.polydisc(2)
MB22 = DomainSpec.matrix_ball(2, 2)


# ---------------------------------------------------------------------
# monomial ordering
# ---------------------------------------------------------------------

def test_multi_indices_graded_lex():
    assert multi_indices(2, 2) == ((2, 0), (1, 1), (0, 2))
    assert multi_indices(3, 1) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert multi_indices(1, 4) == ((4,),)
    assert multi_indices(3, 0) == ((0, 0, 0),)
    idx = multi_indices(3, 5)
    assert len(idx) == math.comb(5 + 2, 2)
    assert list(idx) == sorted(idx, reverse=True)
    assert all(type(a) is int for alpha in idx for a in alpha)
    for n, d in ((0, 2), (2, -1)):
        with pytest.raises(ValidationError):
            multi_indices(n, d)


def tuple_multi_indices(n, d):
    """The graded-lex recursion on tuples: the first exponent runs from d
    down to 0, each followed by every (n - 1)-variable index of the rest."""
    if n == 1:
        return ((d,),)
    return tuple(
        (first,) + rest
        for first in range(d, -1, -1)
        for rest in tuple_multi_indices(n - 1, d - first)
    )


# ---------------------------------------------------------------------
# series blocks
# ---------------------------------------------------------------------

def test_degree_zero_block_is_one(any_domain):
    block = kernel_series(any_domain, 1.7, 0)[0]
    assert block.coeffs.shape == (1, 1)
    assert block.coeffs[0, 0] == 1.0


def test_disc_hardy_blocks_are_ones():
    for block in kernel_series(BALL1, 1.0, 25):
        assert abs(block.coeffs[0, 0] - 1.0) < 1e-13


def test_ball2_szegoe_degree_two_frozen():
    # (1 - <z,w>)^{-1}: degree-2 block is diag(1, 2, 1) on (z1^2, z1 z2, z2^2)
    block = kernel_series(BALL2, 1.0, 2)[2]
    assert np.abs(block.coeffs - np.diag([1.0, 2.0, 1.0])).max() < 1e-14


def test_polydisc_blocks_diagonal_frozen():
    blocks = kernel_series(POLY2, 1.0, 4)
    for block in blocks:
        size = block.coeffs.shape[0]
        assert np.abs(block.coeffs - np.eye(size)).max() < 1e-13
    block = kernel_series(POLY2, 2.0, 3)[3]
    # coefficient of z^alpha conj(w)^alpha is prod (alpha_i + 1)
    want = np.diag([float(np.prod([a + 1 for a in alpha])) for alpha in multi_indices(2, 3)])
    assert np.abs(block.coeffs - want).max() < 1e-12


def test_ball_blocks_match_pochhammer_multinomials():
    # (1-<z,w>)^{-lam} = sum_k (lam)_k <z,w>^k / k!
    lam = 2.3
    for d in range(9):
        rising = np.prod([lam + j for j in range(d)]) if d else 1.0
        alphas = multi_indices(2, d)
        want = np.diag(
            [rising / d_factorial(alpha) for alpha in alphas]
        )
        got = kernel_series(BALL2, lam, 8)[d].coeffs
        assert np.abs(got - want).max() < 1e-10 * max(1.0, np.abs(want).max())


def d_factorial(alpha):
    # |alpha|! / alpha! reciprocal helper: coefficient denominator per monomial
    return np.prod([math.factorial(a) for a in alpha]) * 1.0


def test_finite_rank_series_terminates():
    # lam = -k: Delta^k is a polynomial, blocks vanish beyond the bound
    for dom, lam in ((BALL1, -3.0), (MB22, -2.0), (POLY2, -1.0)):
        assert finite_rank_membership(lam, float(dom.char_a), dom.rank)
        bound = dom.rank * round(-lam)  # Delta^k has z-degree r k
        blocks = kernel_series(dom, lam, bound + 4)
        for block in blocks[bound + 1 :]:
            assert np.abs(block.coeffs).max() < 1e-12
        assert any(np.abs(b.coeffs).max() > 1e-10 for b in blocks[: bound + 1])


def test_matrixball_series_beyond_degree_24(rng):
    blocks = kernel_series(MB22, 2.5, 30)
    assert len(blocks) == 31
    # torus-weight class stacks: well under 1 % of the top block is stored
    size = len(multi_indices(4, 30))
    assert sum(stack.size for stack in blocks[-1].stacks) < 0.01 * size**2
    for _ in range(5):
        z = random_point(MB22, rng, max_norm=0.6)
        w = random_point(MB22, rng, max_norm=0.6)
        err = abs(series_partial_sum(MB22, 2.5, z, w, 30) - kernel_eval(MB22, 2.5, z, w))
        assert err <= 1e-8


def test_shorter_series_is_a_prefix_of_the_longest_built(monkeypatch):
    lam = 1.75  # a weight no other test builds
    fresh = kernels._build_series(MB22, lam, 6)
    builds = []
    build = kernels._build_series

    def counting_build(dom, lam, max_degree):
        builds.append(max_degree)
        return build(dom, lam, max_degree)

    monkeypatch.setattr(kernels, "_build_series", counting_build)
    longest = kernel_series(MB22, lam, 10)
    prefix = kernel_series(MB22, lam, 6)
    assert builds == [10]
    assert len(prefix) == 7
    assert all(a is b for a, b in zip(prefix, longest))
    for got, want in zip(prefix, fresh, strict=True):
        for a, b in zip(got.stacks, want.stacks, strict=True):
            assert np.array_equal(a, b)
    # a longer request builds again, and serves every shorter one after it
    assert len(kernel_series(MB22, lam, 12)) == 13
    assert kernel_series(MB22, lam, 10)[10] is not longest[10]
    assert builds == [10, 12]


def test_failed_series_build_keeps_the_longest_built(monkeypatch):
    lam = 1.625  # a weight no other test builds
    longest = kernel_series(MB22, lam, 8)
    builds = []

    def failing_build(dom, lam, max_degree):
        builds.append(max_degree)
        raise MemoryError

    monkeypatch.setattr(kernels, "_build_series", failing_build)
    with pytest.raises(MemoryError):
        kernel_series(MB22, lam, 14)
    # shorter requests are still served from the series built before
    assert kernel_series(MB22, lam, 8)[8] is longest[8]
    assert len(kernel_series(MB22, lam, 3)) == 4
    assert builds == [14]
    monkeypatch.undo()
    assert len(kernel_series(MB22, lam, 14)) == 15


CLASS_CASES = [
    (BALL1, 10),
    (BALL2, 8),
    (DomainSpec.ball(3), 8),
    (POLY2, 8),
    (DomainSpec.polydisc(3), 6),
    (DomainSpec.matrix_ball(1, 3), 8),
    (MB22, 8),
    (DomainSpec.matrix_ball(2, 3), 6),
    (DomainSpec.matrix_ball(3, 3), 4),
]


@functools.lru_cache(maxsize=None)
def dense_series(dom, lam, D):
    """C_0 .. C_D by the power recurrence on dense arrays, with positions
    looked up in dicts: the reference route for the class stacks."""
    pos = [{a: i for i, a in enumerate(multi_indices(dom.dim, d))} for d in range(D + 1)]
    raw = [np.ones((1, 1))]
    for d in range(1, D + 1):
        acc = np.zeros((len(pos[d]), len(pos[d])))
        for (alpha, beta), coeff in generic_poly_terms(dom).items():
            j = sum(alpha)
            if not 0 < j <= d:
                continue
            rows = [pos[d][tuple(a + g for a, g in zip(m, alpha))] for m in pos[d - j]]
            cols = [pos[d][tuple(a + g for a, g in zip(m, beta))] for m in pos[d - j]]
            acc[np.ix_(rows, cols)] += ((1.0 - lam) * j - d) / d * float(coeff) * raw[d - j]
        raw.append(acc)
    return tuple((c + c.T) / 2.0 for c in raw)


def case_id(v):
    return v.label() if isinstance(v, DomainSpec) else str(v)


def dict_shift_positions(n, d, gamma):
    target = {alpha: i for i, alpha in enumerate(multi_indices(n, d + sum(gamma)))}
    return [target[tuple(a + g for a, g in zip(alpha, gamma))] for alpha in multi_indices(n, d)]


@pytest.mark.parametrize("dom, D", CLASS_CASES, ids=case_id)
def test_class_stacks_are_the_dense_recurrence(dom, D):
    for block, want in zip(kernel_series(dom, 2.5, D), dense_series(dom, 2.5, D)):
        assert all(not stack.flags.writeable for stack in block.stacks)
        assert np.abs(block.coeffs - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("dom, D", CLASS_CASES, ids=case_id)
def test_shift_positions_are_the_dict_lookups(dom, D):
    # every gamma of the series recurrence and of the coordinate multipliers
    n = dom.dim
    gammas = {g for terms in kernels._delta_blocks(dom).values() for a, b, _ in terms for g in (a, b)}
    gammas |= set(multi_indices(n, 1))
    for gamma in gammas:
        for d in range(D - sum(gamma) + 1):
            assert kernels._shift_positions(n, d, gamma).tolist() == dict_shift_positions(n, d, gamma)


def bincount_series(dom, lam, D):
    """The class stacks of C_0 .. C_D with every term's moved entries
    concatenated into one ``np.bincount`` per degree: the reference for the
    term-by-term sums of the series recurrence, bit for bit."""
    n, delta = dom.dim, kernels._delta_blocks(dom)
    entries = [kernels._class_entries(dom, d) for d in range(D + 1)]
    raw = [np.ones(1)]
    for d in range(1, D + 1):
        where = kernels._class_slots(dom, d)
        sizes = np.array([idx.shape[1] for idx in kernels._weight_classes(dom, d)])
        offsets = entries[d][2]
        dest, vals = [], []
        for j, terms in delta.items():
            if j > d:
                continue
            rows, cols, _ = entries[d - j]
            for alpha, beta, coeff in terms:
                stack, cls, a = where[kernels._shift_positions(n, d - j, alpha)[rows]].T
                b = where[kernels._shift_positions(n, d - j, beta)[cols], 2]
                dest.append(offsets[stack] + (cls * sizes[stack] + a) * sizes[stack] + b)
                vals.append(((((1.0 - lam) * j - d) / d) * coeff) * raw[d - j])
        raw.append(np.bincount(np.concatenate(dest), weights=np.concatenate(vals), minlength=offsets[-1]))
    out = []
    for d, flat in enumerate(raw):
        bounds = entries[d][2]
        stacks = [flat[lo:hi].reshape(idx.shape + idx.shape[1:]) for idx, lo, hi in
                  zip(kernels._weight_classes(dom, d), bounds[:-1], bounds[1:])]
        out.append([(m + m.transpose(0, 2, 1)) / 2.0 for m in stacks])
    return out


@pytest.mark.parametrize("dom, lam, D", [
    (DomainSpec.ball(3), 3.0, 12),
    (POLY2, 2.0, 14),
    (MB22, 2.5, 14),
    (DomainSpec.matrix_ball(2, 3), 3.0, 8),
    (MB22, 0.5, 10),
], ids=case_id)
def test_series_sums_term_by_term_as_bincount(dom, lam, D):
    got = kernels._build_series(dom, lam, D)
    for block, want in zip(got, bincount_series(dom, lam, D), strict=True):
        assert len(block.stacks) == len(want)
        for stack, ref in zip(block.stacks, want):
            assert stack.tobytes() == ref.tobytes()


def test_shift_positions_beyond_an_int64_power_key():
    # ball n 40 at degree 3: a (d + 1)**n key would need 4**40 > 2**63
    n = 40
    for gamma in ((1,) + (0,) * 39, (0,) * 39 + (1,), (0,) * 20 + (2,) + (0,) * 19, (1,) + (0,) * 38 + (1,)):
        for d in range(4 - sum(gamma)):
            assert kernels._shift_positions(n, d, gamma).tolist() == dict_shift_positions(n, d, gamma)


# ---------------------------------------------------------------------
# Gram blocks and closed norms
# ---------------------------------------------------------------------

def test_gram_degree_zero(any_domain):
    lam = any_domain.drury_arveson_weight + 0.5
    assert gram_block(any_domain, lam, 0).gram[0, 0] == 1.0


def test_gram_frozen_norms():
    ball = gram_block(BALL2, 1.0, 2)
    # basis order (z1^2, z1 z2, z2^2); ||z1 z2||^2 = 1/2
    assert abs(ball.gram[1, 1] - 0.5) < 1e-14
    poly = gram_block(POLY2, 2.0, 1)
    assert abs(poly.gram[0, 0] - 0.5) < 1e-14


def test_closed_form_norm_values():
    assert closed_form_norm(BALL2, 1.0, (0, 0)) == 1.0
    assert abs(closed_form_norm(BALL2, 1.0, (2, 1)) - 2.0 / 6.0) < 1e-15
    for k in range(8):
        assert abs(closed_form_norm(BALL1, 2.0, (k,)) - 1.0 / (k + 1)) < 1e-14


def test_gram_matches_closed_forms_distinguished_weights():
    # diagonal entries to rel 1e-10, off-diagonal below 1e-12, degrees <= 10
    for dom in (BALL2, DomainSpec.ball(3), POLY2, DomainSpec.polydisc(3)):
        weights = {
            dom.drury_arveson_weight,
            dom.hardy_weight,
            float(dom.genus),
            float(dom.genus) + 1.0,
        }
        for lam in sorted(weights):
            for d in range(11):
                gram = gram_block(dom, lam, d).gram
                oracle = np.array(
                    [closed_form_norm(dom, lam, alpha) for alpha in multi_indices(dom.dim, d)]
                )
                assert np.abs(np.diag(gram) - oracle).max() <= 1e-10 * oracle.max()
                off = gram - np.diag(np.diag(gram))
                assert np.abs(off).max() <= 1e-12


def test_gram_matrixball_positive_definite():
    for block in gram_blocks(MB22, 2.5, 8):
        gram = block.gram
        assert np.abs(gram - gram.conj().T).max() < 1e-12
        assert np.linalg.eigvalsh((gram + gram.conj().T) / 2).min() > 0


def test_gram_rejects_discrete_weight():
    with pytest.raises(NotAModuleWeight):
        gram_blocks(BALL2, 0.0, 3)
    with pytest.raises(NotAModuleWeight):
        gram_blocks(MB22, 1.0, 3)


# ---------------------------------------------------------------------
# kernel evaluation
# ---------------------------------------------------------------------

def test_kernel_eval_at_origin(any_domain):
    zero = np.zeros(any_domain.dim)
    assert kernel_eval(any_domain, 1.3, zero, zero) == 1.0


def test_kernel_eval_disc_frozen():
    assert abs(kernel_eval(BALL1, 1.0, [0.5], [0.5]) - 4.0 / 3.0) < 1e-15


def test_kernel_eval_branch_guard():
    # Delta = (1-3)(1-0) = -2: fractional power has no principal value
    with pytest.raises(BranchCutError):
        kernel_eval(MB22, 2.5, np.array([3.0, 0, 0, 0.0]), np.array([1.0, 0, 0, 1.0]))


@pytest.mark.parametrize("lam", [100000.0, 100000.5])
def test_kernel_eval_overflow_is_a_guard(lam):
    # |Delta| = 0.82 at this pair: Delta^(-lam) is past the float range on
    # both the integral and the principal-branch route
    z, w = np.array([0.3, 0.0]), np.array([0.6, 0.0])
    assert abs(kernel_eval(BALL2, 1000.5, z, w)) < math.inf
    with pytest.raises(NonFiniteValue, match="overflows at lambda"):
        kernel_eval(BALL2, lam, z, w)


def test_series_overflow_is_a_guard():
    # (lam)_2 / 2 = 5e599 for lam = 1e300: C_2 is the first block past the float range
    assert np.isfinite(kernel_series(BALL2, 1e300, 1)[1].coeffs).all()
    with pytest.raises(NonFiniteValue, match="C_2 overflows"):
        kernel_series(BALL2, 1e300, 4)


def test_partial_sums_converge_to_kernel(rng):
    for dom, lam in ((BALL2, 1.0), (BALL2, 3.0), (POLY2, 1.0), (POLY2, 3.0)):
        for _ in range(20):
            z = random_point(dom, rng, max_norm=0.6)
            w = random_point(dom, rng, max_norm=0.6)
            err = abs(series_partial_sum(dom, lam, z, w, 25) - kernel_eval(dom, lam, z, w))
            assert err <= 1e-8


def test_partial_sums_converge_matrixball(rng):
    blocks = kernel_series(MB22, 2.5, 25)
    zs = np.stack([random_point(MB22, rng, max_norm=0.6) for _ in range(100)])
    ws = np.stack([random_point(MB22, rng, max_norm=0.6) for _ in range(100)])
    totals = np.zeros(100, dtype=complex)
    for block in blocks:
        alphas = np.array(multi_indices(4, block.degree))
        mz = np.prod(zs[:, None, :] ** alphas[None, :, :], axis=2)
        mw = np.prod(ws[:, None, :] ** alphas[None, :, :], axis=2)
        totals += np.sum(mz * (block.coeffs @ np.conj(mw).T).T, axis=1)
    closed = np.array([kernel_eval(MB22, 2.5, z, w) for z, w in zip(zs, ws)])
    assert np.abs(totals - closed).max() <= 1e-8


# ---------------------------------------------------------------------
# truncated orthonormal basis
# ---------------------------------------------------------------------

@pytest.mark.parametrize(
    "dom, lam, D",
    [
        (DomainSpec.ball(3), 2.5, 8),
        (POLY2, 2.5, 8),
        (DomainSpec.matrix_ball(1, 3), 2.5, 8),
        (MB22, 2.5, 10),
        (MB22, 1.05, 10),
        (DomainSpec.matrix_ball(2, 3), 3.5, 6),
    ],
    ids=lambda v: v.label() if isinstance(v, DomainSpec) else str(v),
)
def test_basis_is_reverse_cholesky_per_component(dom, lam, D, monkeypatch):
    # one factorization per connected component of each C_d, and no inverse;
    # a batched call factors every (s, s) slice of its (k, s, s) stack
    factored = []
    cholesky = np.linalg.cholesky

    def counting_cholesky(a):
        factored.extend([a.shape[-2:]] * math.prod(a.shape[:-2]))
        return cholesky(a)

    def forbidden(*args, **kwargs):
        raise AssertionError("the basis path takes no inverse")

    monkeypatch.setattr(np.linalg, "cholesky", counting_cholesky)
    for name in ("inv", "solve"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    for name in ("inv", "cho_factor", "cho_solve", "solve_triangular"):
        monkeypatch.setattr(scipy.linalg, name, forbidden)
    kernels._truncated_basis_cached.cache_clear()
    basis = truncated_basis(dom, lam, D)
    monkeypatch.undo()

    series = kernel_series(dom, lam, D)
    components = [connected_components(b.coeffs, directed=False)[0] for b in series]
    assert len(factored) == sum(components)
    assert sum(shape[0] for shape in factored) == basis.dim
    if dom == MB22:
        # torus weights of MB(2,2): (row sums, column sums), (d + 1)^2 of them
        assert components == [(d + 1) ** 2 for d in range(D + 1)]
    for block, change in zip(series, basis.change):
        coeffs = block.coeffs
        assert np.array_equal(change, np.triu(change))
        assert np.all(np.diag(change) > 0)
        assert np.abs(change @ change.T - coeffs).max() <= 1e-12 * np.abs(coeffs).max()


def test_basis_dimensions_and_labels():
    basis = truncated_basis(BALL2, 3.0, 4)
    assert basis.dim == sum(math.comb(d + 1, 1) for d in range(5))
    labels = basis.degree_labels()
    assert labels[0] == 0 and labels[-1] == 4
    assert np.all(np.diff(labels) >= 0)


def test_basis_monomial_norm_matches_closed_form():
    # monomial_norm reports the squared norm
    basis = truncated_basis(BALL2, 1.0, 5)
    for alpha in ((0, 0), (1, 0), (2, 1), (3, 2)):
        assert abs(basis.monomial_norm(alpha) - closed_form_norm(BALL2, 1.0, alpha)) < 1e-13


BAD_MULTI_INDICES = [(2.5, 0), (1,), (-1, 2), (0, 1, 0), ("x", 0), (float("nan"), 0), 3]


@pytest.mark.parametrize("alpha", BAD_MULTI_INDICES + [(4, 0)], ids=repr)
def test_monomial_norm_checks_its_multi_index(alpha):
    basis = truncated_basis(BALL2, 3.0, 3)
    with pytest.raises(ValidationError):
        basis.monomial_norm(alpha)


@pytest.mark.parametrize("alpha", BAD_MULTI_INDICES, ids=repr)
def test_closed_form_norm_checks_its_multi_index(alpha):
    with pytest.raises(ValidationError):
        closed_form_norm(BALL2, 3.0, alpha)


def test_integral_multi_index_entries_are_accepted():
    basis = truncated_basis(BALL2, 3.0, 3)
    for alpha in ((2.0, 1), np.array([2, 1]), (np.int64(2), np.int64(1))):
        assert basis.monomial_norm(alpha) == basis.monomial_norm((2, 1))
        assert closed_form_norm(BALL2, 3.0, alpha) == closed_form_norm(BALL2, 3.0, (2, 1))


def test_basis_reproduces_kernel_partial_sum(rng):
    basis = truncated_basis(POLY2, 2.0, 12)
    z = random_point(POLY2, rng, max_norm=0.5)
    w = random_point(POLY2, rng, max_norm=0.5)
    direct = series_partial_sum(POLY2, 2.0, z, w, 12)
    assert abs(basis.kernel_partial_sum(z, w) - direct) < 1e-12


def test_basis_change_is_triangular():
    basis = truncated_basis(BALL2, 2.0, 5)
    for mat in basis.change:
        assert np.abs(np.tril(mat, -1)).max() == 0.0


def test_basis_coordinate_roundtrip(rng):
    from symdom.polynomials import Polynomial

    basis = truncated_basis(BALL2, 2.5, 6)
    terms = {
        alpha: complex(rng.standard_normal(), rng.standard_normal())
        for d in range(7)
        for alpha in multi_indices(2, d)
    }
    poly = Polynomial(2, terms)
    back = basis.from_coords(basis.to_coords(poly))
    assert max(abs(back.terms[a] - c) for a, c in terms.items()) < 1e-10


@pytest.mark.parametrize("dom, D", CLASS_CASES, ids=case_id)
def test_weight_classes_are_the_components_of_the_series_blocks(dom, D):
    # read off the multi-indices, the torus-weight classes are exactly the
    # connected components of C_d's sparsity pattern
    for d, coeffs in enumerate(dense_series(dom, 2.5, D)):
        count, labels = connected_components(coeffs != 0, directed=False)
        components = sorted(tuple(np.flatnonzero(labels == k)) for k in range(count))
        classes = [cls for stack in kernels._weight_classes(dom, d) for cls in stack]
        assert all(np.array_equal(cls, np.sort(cls)) for cls in classes)
        assert sorted(tuple(cls) for cls in classes) == components


def unique_weight_classes(dom, d):
    """The class table built with ``np.unique`` on the weight rows: labels in
    lexicographic order of the weights, stacks by size in the order the
    classes first reach each size."""
    alpha = np.array(multi_indices(dom.dim, d), dtype=np.int64).reshape(-1, dom.dim)
    if dom.kind == "polydisc":
        weight = alpha
    else:
        grid = alpha.reshape(-1, dom.rows, dom.cols)
        weight = np.hstack([grid.sum(axis=2), grid.sum(axis=1)])
    _, label = np.unique(weight, axis=0, return_inverse=True)
    label = label.reshape(-1)
    order = np.argsort(label, kind="stable")
    counts = np.bincount(label)
    starts = np.cumsum(counts) - counts
    _, first = np.unique(counts, return_index=True)
    return [order[starts[counts == s][:, None] + np.arange(s)] for s in counts[np.sort(first)]]


@pytest.mark.parametrize(
    "dom, D",
    [
        (DomainSpec.ball(3), 12),
        (POLY2, 12),
        (MB22, 12),
        (DomainSpec.matrix_ball(2, 3), 12),
        # 4**40 exceeds int64: the weight key is re-ranked between digits
        (DomainSpec.polydisc(40), 3),
    ],
    ids=case_id,
)
def test_index_tables_are_the_unique_and_tuple_constructions(dom, D):
    for d in range(D + 1):
        alphas = kernels._alpha_array(dom.dim, d)
        want = np.array(tuple_multi_indices(dom.dim, d), dtype=np.int64).reshape(-1, dom.dim)
        assert alphas.dtype == want.dtype and np.array_equal(alphas, want)
        got, want = kernels._weight_classes(dom, d), unique_weight_classes(dom, d)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)


BASIS_CASES = [
    (BALL2, 2.0, 8),
    (POLY2, 2.0, 8),
    (DomainSpec.matrix_ball(1, 3), 2.5, 8),
    (MB22, 2.5, 8),
    (DomainSpec.matrix_ball(2, 3), 3.5, 5),
]


@pytest.mark.parametrize(
    "dom, lam, D", BASIS_CASES,
    ids=lambda v: v.label() if isinstance(v, DomainSpec) else str(v),
)
def test_class_solves_are_the_dense_triangular_solve(dom, lam, D, rng):
    from symdom.polynomials import Polynomial

    basis = truncated_basis(dom, lam, D)
    terms = {
        alpha: complex(rng.standard_normal(), rng.standard_normal())
        for d in range(D + 1)
        for alpha in multi_indices(dom.dim, d)
    }
    want = np.concatenate([
        scipy.linalg.solve_triangular(
            basis.change[d], np.array([terms[a] for a in multi_indices(dom.dim, d)])
        )
        for d in range(D + 1)
    ])
    got = basis.to_coords(Polynomial(dom.dim, terms))
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    for d in range(D + 1):
        eye = np.eye(basis.degree_sizes[d])
        norms = np.sum(scipy.linalg.solve_triangular(basis.change[d], eye) ** 2, axis=0)
        got = [basis.monomial_norm(alpha) for alpha in multi_indices(dom.dim, d)]
        assert np.abs(got - norms).max() <= 1e-12 * norms.max()


def test_matrixball_basis_beyond_degree_24_is_stored_by_class(rng):
    basis = truncated_basis(MB22, 2.5, 24)
    assert all(not u.flags.writeable for f in basis.factors for u in f)
    # torus-weight class stacks: well under 1 % of the dense entries stored
    stored = sum(u.size for f in basis.factors for u in f)
    assert stored < 0.01 * sum(size**2 for size in basis.degree_sizes)
    z = random_point(MB22, rng, max_norm=0.6)
    w = random_point(MB22, rng, max_norm=0.6)
    direct = series_partial_sum(MB22, 2.5, z, w, 24)
    assert abs(basis.kernel_partial_sum(z, w) - direct) <= 1e-12 * abs(direct)


def partitions(d, parts, top=None):
    """Partitions of d into at most ``parts`` parts, each at most ``top``."""
    if d == 0:
        yield ()
    elif parts > 0:
        for first in range(min(d, top or d), 0, -1):
            for rest in partitions(d - first, parts - 1, first):
                yield (first,) + rest


def weyl_dim(m, n):
    """Dimension of the irreducible GL_n module of highest weight m."""
    m = tuple(m) + (0,) * (n - len(m))
    num = math.prod(m[i] - m[j] + j - i for i in range(n) for j in range(i + 1, n))
    return num // math.prod(j - i for i in range(n) for j in range(i + 1, n))


@pytest.mark.parametrize(
    "dom, lam, D",
    [
        (DomainSpec.matrix_ball(1, 3), 2.5, 8),
        (MB22, 2.5, 6),
        (DomainSpec.matrix_ball(2, 3), 3.5, 8),
        (DomainSpec.matrix_ball(3, 3), 3.5, 4),
    ],
    ids=case_id,
)
def test_factor_spectrum_is_faraut_koranyi(dom, lam, D):
    # Delta(z, w)^{-lam} = sum_m (lam)_m K_m with K_m the Fischer kernel of
    # P_m, the GL_r x GL_c module of the partition m (Faraut-Koranyi), and
    # the Fischer Gram of monomials is diag(alpha!): so U^T diag(alpha!) U
    # has the eigenvalue (lam)_m with multiplicity dim P_m, for |m| = d
    basis = truncated_basis(dom, lam, D)
    for d in range(D + 1):
        fischer = np.array(
            [math.prod(map(math.factorial, a)) for a in multi_indices(dom.dim, d)], dtype=float
        )
        got = np.sort(np.concatenate([
            np.linalg.eigvalsh(u.transpose(0, 2, 1) @ (fischer[idx][:, :, None] * u)).ravel()
            for idx, u in zip(kernels._weight_classes(dom, d), basis.factors[d])
        ]))
        want = np.sort([
            pochhammer(lam, m, dom.char_a)
            for m in partitions(d, dom.rank)
            for _ in range(weyl_dim(m, dom.rows) * weyl_dim(m, dom.cols))
        ])
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-12 * want)


# ---------------------------------------------------------------------
# disk cache
# ---------------------------------------------------------------------

def test_cache_roundtrip(tmp_path):
    basis = truncated_basis(BALL2, 3.0, 6)
    path = save_basis(basis, str(tmp_path))
    assert path.startswith(str(tmp_path))
    loaded = load_basis(BALL2, 3.0, 6, str(tmp_path))
    assert loaded is not None
    for a, b in zip(basis.factors, loaded.factors):
        assert len(a) == len(b)
        assert all(np.array_equal(u, v) and not v.flags.writeable for u, v in zip(a, b))


def test_cache_miss_returns_none(tmp_path):
    assert load_basis(BALL2, 2.0, 9, str(tmp_path)) is None


def with_factor(basis, d, stacks):
    """``basis`` with the class stacks of its degree-d factor replaced."""
    factors = basis.factors[:d] + (tuple(stacks),) + basis.factors[d + 1:]
    return dataclasses.replace(basis, factors=factors)


def test_cache_rejects_invalid_change_matrices(tmp_path):
    # MB(2,2) at degree 2: stack 1 holds classes of two monomials, so it has
    # an entry below the diagonal to corrupt
    basis = truncated_basis(MB22, 3.0, 4)
    stacks = list(basis.factors[2])
    good = stacks[1]
    assert good.shape[1:] == (2, 2)
    lower = good.copy()
    lower[0, 1, 0] = 0.5
    nonfinite = good.copy()
    nonfinite[0, 0, 1] = np.nan
    infinite = good.copy()  # unlike NaN, equal to itself in the triangle test
    infinite[0, 0, 1] = np.inf
    # the reverse Cholesky factor has a strictly positive diagonal; a zero
    # pivot would end in a singular triangular solve
    zero_pivot = good.copy()
    zero_pivot[0, 1, 1] = 0.0
    negative_pivot = good.copy()
    negative_pivot[0, 1, 1] = -negative_pivot[0, 1, 1]
    bad_factors = [
        stacks[:1] + [bad] + stacks[2:]
        for bad in (lower, nonfinite, infinite, good[:-1], zero_pivot, negative_pivot)
    ]
    # a member of another dtype (np.isfinite cannot take strings)
    bad_factors.append([u.astype(str) for u in stacks])
    for bad in bad_factors:
        save_basis(with_factor(basis, 2, bad), str(tmp_path))
        assert load_basis(MB22, 3.0, 4, str(tmp_path)) is None
    rebuilt = cached_truncated_basis(MB22, 3.0, 4, cache_dir=str(tmp_path))
    assert np.array_equal(rebuilt.factors[2][1], good)
    assert load_basis(MB22, 3.0, 4, str(tmp_path)) is not None


def test_cached_builder_hits_disk(tmp_path):
    first = cached_truncated_basis(POLY2, 2.0, 5, cache_dir=str(tmp_path))
    second = cached_truncated_basis(POLY2, 2.0, 5, cache_dir=str(tmp_path))
    for a, b in zip(first.change, second.change):
        assert np.array_equal(a, b)


def test_cache_key_distinguishes_parameters():
    keys = {
        cache_key(BALL2, 3.0, 6),
        cache_key(BALL2, 3.0, 7),
        cache_key(BALL2, 2.0, 6),
        cache_key(POLY2, 3.0, 6),
    }
    assert len(keys) == 4


def test_cache_env_var_used(tmp_path, monkeypatch):
    from symdom.kernels import CACHE_ENV_VAR, resolve_cache_dir

    monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path))
    assert resolve_cache_dir(None) == str(tmp_path)
    assert resolve_cache_dir("/elsewhere") == "/elsewhere"
