"""Truncated multipliers, submodules and quotient compressions, rational
compressions, cross-commutators, Schatten norms, and the profile harness."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from symdom import blocksparse, koszul, operators
from symdom.calculus import mobius_rational_components
from symdom.domains import DomainSpec
from symdom.errors import (
    DenominatorVanishes,
    NotCommuting,
    NotPermissive,
    NumericallySingular,
    ValidationError,
)
from symdom.kernels import _shift_positions, multi_indices, truncated_basis
from symdom.operators import (
    INVARIANCE_TOL,
    SPAN_RANK_TOL,
    _check_tuple,
    _dense_block,
    _mult_block,
    _pair_norm,
    _shift_block,
    compress,
    compress_rational,
    cross_commutator,
    essential_normality_profile,
    mult_op,
    permissive_transform,
    quotient_model,
    schatten_norm,
)
from symdom.polynomials import Polynomial
from symdom.sampling import random_point

BALL1 = DomainSpec.ball(1)
BALL2 = DomainSpec.ball(2)
POLY2 = DomainSpec.polydisc(2)

Z1 = Polynomial.coordinate(0, 2)
Z2 = Polynomial.coordinate(1, 2)


def ladder(dom, lam, gens, symbols, p_values, degrees, **kwargs):
    """The profile rows over a ladder of truncation degrees, one model per D."""
    return [
        row
        for d_trunc in degrees
        for row in essential_normality_profile(
            quotient_model(truncated_basis(dom, lam, d_trunc), gens), symbols, p_values, **kwargs
        )
    ]


def windowed_submatrix(mat, labels, max_label):
    """The rows and columns of ``mat`` whose labels are at most max_label."""
    keep = np.flatnonzero(labels <= max_label)
    return mat[np.ix_(keep, keep)]


def random_poly(nvars, degree, rng):
    terms = {}
    for d in range(degree + 1):
        for alpha in multi_indices(nvars, d):
            terms[alpha] = complex(rng.standard_normal(), rng.standard_normal())
    return Polynomial(nvars, terms)


# ---------------------------------------------------------------------
# truncated multiplication operators
# ---------------------------------------------------------------------

def test_mult_by_one_is_identity():
    basis = truncated_basis(BALL2, 2.0, 5)
    assert np.abs(mult_op(basis, Polynomial.constant(2, 1.0)) - np.eye(basis.dim)).max() < 1e-13


def test_disc_hardy_shift_exact():
    basis = truncated_basis(BALL1, 1.0, 4)
    shift = mult_op(basis, Polynomial.coordinate(0, 1))
    want = np.zeros((5, 5))
    for k in range(4):
        want[k + 1, k] = 1.0
    assert np.abs(shift - want).max() < 1e-13


def test_ball2_coordinate_multiplier_contraction():
    # Drury-Arveson weight: each coordinate multiplier has norm exactly <= 1
    for d_trunc in (4, 8):
        basis = truncated_basis(BALL2, 1.0, d_trunc)
        for i in range(2):
            op = mult_op(basis, Polynomial.coordinate(i, 2))
            assert np.linalg.norm(op, 2) <= 1.0 + 1e-12


@pytest.mark.parametrize(
    "dom, lam, d_trunc",
    [
        (BALL2, 2.0, 8),
        (POLY2, 2.0, 8),
        (DomainSpec.matrix_ball(1, 3), 2.5, 8),
        (DomainSpec.matrix_ball(2, 2), 2.5, 8),
        (DomainSpec.matrix_ball(2, 3), 3.5, 5),
    ],
    ids=lambda v: v.label() if isinstance(v, DomainSpec) else str(v),
)
def test_shift_blocks_are_the_dense_triangular_solve(dom, lam, d_trunc):
    # per torus-weight class against U_{d+g}^{-1} scatter(U_d) on the full block
    basis = truncated_basis(dom, lam, d_trunc)
    n = dom.dim
    gammas = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    gammas.append(tuple(int(j in (0, n - 1)) for j in range(n)))  # z_1 z_n
    for gamma in gammas:
        g = sum(gamma)
        for d in range(d_trunc - g + 1):
            scattered = np.zeros((basis.degree_sizes[d + g], basis.degree_sizes[d]))
            scattered[_shift_positions(n, d, gamma)] = basis.change[d]
            want = scipy.linalg.solve_triangular(basis.change[d + g], scattered)
            got = _dense_block(basis, _shift_block(basis, gamma, d), d, g)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_mult_top_degree_truncation():
    # z^D raises only the constant into range; everything else truncates away
    basis = truncated_basis(BALL1, 1.0, 3)
    op = mult_op(basis, Polynomial.monomial((3,), 1.0))
    want = np.zeros((4, 4))
    want[3, 0] = 1.0
    assert np.abs(op - want).max() < 1e-13


# ---------------------------------------------------------------------
# submodules
# ---------------------------------------------------------------------

def test_submodule_codimensions_frozen():
    basis3 = truncated_basis(BALL2, 1.0, 3)
    # complement spanned by z2^k, k <= 3
    assert quotient_model(basis3, [Z1]).dim_quotient == 4

    basis4 = truncated_basis(BALL2, 1.0, 4)
    # monomials z1^j, z2^k
    assert quotient_model(basis4, [Z1 * Z2]).dim_quotient == 9


def test_submodule_rejects_zero_generators():
    basis = truncated_basis(BALL2, 1.0, 3)
    for gens in ([Polynomial.zero(2)], [Z1, Polynomial.zero(2)]):
        with pytest.raises(ValidationError):
            quotient_model(basis, gens)


def test_submodule_invariance_under_truncated_multipliers():
    basis = truncated_basis(BALL2, 3.0, 8)
    for gens in ([Z1], [Z1 * Z2], [Z1 * Z1 + Z2]):
        proj = np.eye(basis.dim) - quotient_model(basis, gens).projector()
        for op in (mult_op(basis, Z1), mult_op(basis, Z2)):
            defect = np.linalg.norm((np.eye(basis.dim) - proj) @ op @ proj, 2)
            assert defect <= 1e-12 * max(1.0, np.linalg.norm(op, 2))


@pytest.mark.parametrize(
    "dom, lam, gens",
    [
        (BALL2, 2.0, [Z1]),
        (BALL2, 1.5, [Z2 + Z1 * Z1]),
        (DomainSpec.matrix_ball(2, 2), 2.5, [Polynomial.coordinate(0, 4)]),
    ],
    ids=["ball2-graded", "ball2-filtration", "matrixball22-graded"],
)
def test_invariance_guard_fires_on_a_truncated_span(dom, lam, gens, monkeypatch):
    # a rank cutoff this coarse drops directions of M^(D), so the kept
    # complement is no longer co-invariant: ||Q^H T - S Q^H|| is of order 1
    basis = truncated_basis(dom, lam, 5)
    monkeypatch.setattr(operators, "SPAN_RANK_TOL", 0.6)
    with pytest.raises(NumericallySingular, match="not invariant"):
        quotient_model(basis, gens)


def test_passing_graded_defect_takes_no_svd(monkeypatch):
    # ||X||_2 <= ||X||_F, so an invariance or commutator defect whose
    # Frobenius norm is at most its tolerance passes without its 2-norm or
    # the scale; the only SVDs left are the generator groups'
    basis = truncated_basis(DomainSpec.matrix_ball(2, 2), 2.5, 20)
    svd, norm, group_svds = np.linalg.svd, np.linalg.norm, operators._group_svds
    svds, norms, groups = [], [], []

    def counted_svd(*args, **kwargs):
        svds.append(1)
        return svd(*args, **kwargs)

    def counted_norm(x, ord=None, *args, **kwargs):
        if ord in (2, -2):
            norms.append(1)
        return norm(x, ord, *args, **kwargs)

    def counted_group_svds(*args):
        out = group_svds(*args)
        groups.append(len(out[1]))
        return out

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    monkeypatch.setattr(np.linalg, "norm", counted_norm)
    monkeypatch.setattr(operators, "_group_svds", counted_group_svds)
    model = quotient_model(basis, [Polynomial.coordinate(0, 4)])
    assert model.dim_quotient == math.comb(23, 3)
    assert norms == [] and len(svds) == sum(groups) > 0


def graded_complement_blocks(basis, gens):
    """The dense complement blocks Q_0 .. Q_D of homogeneous generators,
    assembled from the class frames of ``_complement`` (a padded column
    reads index nq)."""
    frames, _, labels = operators._complement(basis, gens)
    starts = np.searchsorted(labels, np.arange(basis.max_degree + 2))
    out = []
    for d, classes in enumerate(frames):
        q = np.zeros((basis.degree_sizes[d], starts[-1] + 1), dtype=complex)
        for pos, cols, frame in classes:
            q[pos[:, :, None], cols[:, None, :]] = frame
        out.append(q[:, starts[d]:starts[d + 1]])
    return out


@pytest.mark.parametrize(
    "dom, lam, gens",
    [
        (BALL2, 2.0, [Z1]),
        (POLY2, 2.5, [Z1 + Z2]),
        (DomainSpec.matrix_ball(2, 2), 2.5, [Polynomial.coordinate(0, 4)]),
        (DomainSpec.matrix_ball(2, 2), 2.5, [
            Polynomial.coordinate(0, 4) + 0.5j * Polynomial.coordinate(3, 4)
        ]),
    ],
    ids=["ball2-z1", "polydisc2-sum", "matrixball22-z11", "matrixball22-complex-sum"],
)
def test_failing_graded_defect_is_the_dense_defect(dom, lam, gens, monkeypatch):
    # a coarse rank cutoff breaks co-invariance; the guard's message carries
    # max_i ||Q^H T_i - S_i Q^H||_2 with S_i = Q^H T_i Q, here taken on dense
    # matrices (T_i shifts the degree and Q is block-diagonal by degree, so
    # the dense norm is the largest of the per-degree ones)
    basis = truncated_basis(dom, lam, 5)
    monkeypatch.setattr(operators, "SPAN_RANK_TOL", 0.6)
    blocks = graded_complement_blocks(basis, gens)
    q = np.zeros((basis.dim, sum(b.shape[1] for b in blocks)), dtype=complex)
    col = 0
    for d, b in enumerate(blocks):
        q[basis.block_slice(d), col:col + b.shape[1]] = b
        col += b.shape[1]
    defect = 0.0
    for i in range(dom.dim):
        t = q.conj().T @ mult_op(basis, Polynomial.coordinate(i, dom.dim))
        defect = max(defect, np.linalg.norm(t - t @ q @ q.conj().T, 2))
    with pytest.raises(NumericallySingular, match=f"not invariant, defect {defect:.2e}"):
        quotient_model(basis, gens)


@pytest.mark.parametrize("scale", [0.0, 1.0, 7.5])
def test_invariance_guard_takes_the_scale_only_when_it_decides(scale, monkeypatch):
    calls = []

    def fake_scale(basis):
        calls.append(basis)
        return scale

    monkeypatch.setattr(operators, "_multiplier_scale", fake_scale)
    bound = INVARIANCE_TOL * max(1.0, scale)
    basis = truncated_basis(BALL1, 1.0, 1)
    for defect in (0.0, 0.5 * INVARIANCE_TOL, INVARIANCE_TOL, 3 * INVARIANCE_TOL, 8 * INVARIANCE_TOL):
        # one defect entry: its Frobenius norm and its 2-norm are both the defect
        piece = (np.array([1]), np.array([0]), np.array([[defect]]))
        calls.clear()
        if defect > bound:
            with pytest.raises(NumericallySingular, match=f"not invariant, defect {defect:.2e}"):
                _check_tuple(basis, 2, [()], [[piece]])
        else:
            _check_tuple(basis, 2, [()], [[piece]])
        assert calls == ([] if defect <= INVARIANCE_TOL else [basis])


# ---------------------------------------------------------------------
# quotient models
# ---------------------------------------------------------------------

def test_quotient_z1_compressions():
    basis = truncated_basis(BALL2, 3.0, 10)
    model = quotient_model(basis, [Z1])
    s1, s2 = model.tuple_mats
    assert np.abs(s1).max() < 1e-12
    # weighted shift on {z2^k}: |S2[k+1,k]| = ||z2^(k+1)||/||z2^k||, phases free
    lam = 3.0
    mags = np.abs(s2)
    for k in range(10):
        want = np.sqrt((k + 1) / (lam + k))
        assert abs(mags[k + 1, k] - want) < 1e-12
        mags[k + 1, k] = 0.0
    assert mags.max() < 1e-12


def test_quotient_tuple_commutes():
    basis = truncated_basis(BALL2, 2.0, 8)
    for gens in ([Z1], [Z1 * Z2]):
        model = quotient_model(basis, gens)
        mats = model.tuple_mats
        scale = max(np.linalg.norm(m, 2) for m in mats) ** 2
        for i in range(2):
            for j in range(2):
                comm = mats[i] @ mats[j] - mats[j] @ mats[i]
                assert np.linalg.norm(comm, 2) <= 1e-10 * max(1.0, scale)


def test_quotient_projector_properties():
    basis = truncated_basis(BALL2, 2.0, 6)
    model = quotient_model(basis, [Z1 * Z2])
    proj = model.projector()
    assert np.abs(proj @ proj - proj).max() < 1e-12
    assert np.abs(proj - proj.conj().T).max() < 1e-12


def test_whole_space_quotient_is_empty():
    basis = truncated_basis(BALL2, 2.0, 4)
    model = quotient_model(basis, [Polynomial.constant(2, 1.0)])
    assert model.dim_quotient == 0


# (domain, weight, degree) triples for the graded-path checks
GRADED_CASES = [
    (BALL2, 2.0, 7),
    (POLY2, 2.0, 6),
    (DomainSpec.matrix_ball(2, 2), 2.5, 4),
]


def graded_generator_sets(n):
    z1, z2 = Polynomial.coordinate(0, n), Polynomial.coordinate(1, n)
    return [[z1], [z1 * z2], [z1 * z1, z1 * z2], [z1, z1 * 2.0], [Polynomial.constant(n, 1.0)]]


def column_degrees(basis, vec):
    return {
        d for d in range(basis.max_degree + 1) if np.any(vec[basis.block_slice(d)] != 0)
    }


@pytest.mark.parametrize("dom, lam, d_trunc", GRADED_CASES, ids=lambda v: getattr(v, "kind", None))
def test_graded_path_matches_filtration_path(dom, lam, d_trunc, rng):
    # homogeneous generators against the dense filtration route
    # (``prefix_svd_complement``): every quotient column lies in the one
    # degree of its label, and the cells are those of the dense sandwich
    # Q^H P_D M_z P_D Q on the reference's Q, which differs from the
    # model's by a unitary inside each label
    basis = truncated_basis(dom, lam, d_trunc)
    n = dom.dim
    symbols = [Polynomial.coordinate(0, n), Polynomial.coordinate(1, n)]
    for gens in graded_generator_sets(n):
        model = quotient_model(basis, gens)
        ref, labels = prefix_svd_complement(basis, gens)
        assert np.array_equal(model.degree_labels, labels)
        assert np.abs(model.projector() - ref @ ref.conj().T).max() < 1e-12
        for k, label in enumerate(model.degree_labels):
            assert column_degrees(basis, model.quotient_onb[:, k]) == {label}
        f = random_poly(n, 2, rng)
        q = model.quotient_onb
        dense = q.conj().T @ mult_op(basis, f) @ q
        assert np.abs(compress(model, f) - dense).max(initial=0.0) < 1e-12
        rows = essential_normality_profile(model, symbols, [2.0, 3.0])
        mats = [ref.conj().T @ mult_op(basis, z) @ ref for z in symbols]
        reference = [
            (schatten_norm(c, p), schatten_norm(windowed_submatrix(c, labels, d_trunc - 2), p))
            for c in (cross_commutator(mats[a], mats[b]) for a, b in ((0, 0), (0, 1), (1, 1)))
            for p in (2.0, 3.0)
        ]
        for row, (full, windowed) in zip(rows, reference, strict=True):
            assert row.dim_quotient == labels.size
            assert abs(row.schatten_full - full) < 1e-10
            assert abs(row.schatten_windowed - windowed) < 1e-10


@pytest.mark.parametrize("dom, lam, d_trunc", GRADED_CASES, ids=lambda v: getattr(v, "kind", None))
def test_mult_op_is_dense_block_assembly(dom, lam, d_trunc, rng):
    basis = truncated_basis(dom, lam, d_trunc)
    f = random_poly(dom.dim, 3, rng)
    want = np.zeros((basis.dim, basis.dim), dtype=complex)
    for k, part in f.homogeneous_parts().items():
        for d in range(d_trunc - k + 1):
            want[basis.block_slice(d + k), basis.block_slice(d)] = _dense_block(
                basis, _mult_block(basis, part, d), d, k
            )
    assert np.array_equal(mult_op(basis, f), want)


def stored_bytes(entries):
    """The bytes of block entries: their stacks and their index arrays."""
    return sum(rows.nbytes + cols.nbytes + stack.nbytes for rows, cols, stack in entries)


def test_stored_blocks_are_a_small_share_of_their_dense_forms():
    # MB(2,2) modulo z11 at D 16 (dim 4845, dim_quotient 969): Q is kept as
    # class frames and each S_i as group-pair blocks, every one 1 x 1 here.
    # With their index arrays they hold under 5 % of the bytes of the dense
    # forms stored before, float64 Q_d per degree (4.1 MB) and S_i(d) per
    # degree shift (2.6 MB), and the dense matrices assemble from them entry
    # for entry, no entry twice
    basis = truncated_basis(DomainSpec.matrix_ball(2, 2), 2.5, 16)
    model = quotient_model(basis, [Polynomial.coordinate(0, 4)])
    nq = model.dim_quotient
    assert (basis.dim, nq) == (4845, 969)
    widths = np.diff(model.label_starts)
    dense_q = 8 * int(np.sum(np.array(basis.degree_sizes) * widths))
    dense_s = 4 * 8 * int(np.sum(widths[1:] * widths[:-1]))
    assert (dense_q, dense_s) == (4_131_816, 2_604_672)
    assert stored_bytes(model.frames) < 0.05 * dense_q
    assert stored_bytes(e for s in model.tuple_stacks for e in s) < 0.05 * dense_s
    assert all(stack.shape[1:] == (1, 1) for s in model.tuple_stacks for _, _, stack in s)

    def dense(entries, height):
        out = np.zeros((height, nq), dtype=complex)
        seen = np.zeros((height, nq), dtype=int)
        for rows, cols, stack in entries:
            for r, c, block in zip(rows, cols, stack):
                out[np.ix_(r, c)] = block
                seen[np.ix_(r, c)] += 1
        assert seen.max() == 1
        return out

    q = dense(model.frames, basis.dim)
    assert np.array_equal(model.quotient_onb, q)
    assert np.array_equal(model.projector(), q @ q.conj().T)
    for s, entries in zip(model.tuple_mats, model.tuple_stacks, strict=True):
        assert np.array_equal(s, dense(entries, nq))


@pytest.mark.parametrize("dom, lam, d_trunc", GRADED_CASES, ids=lambda v: getattr(v, "kind", None))
def test_blockwise_multiplier_norm_is_dense_norm(dom, lam, d_trunc):
    basis = truncated_basis(dom, lam, d_trunc)
    for i in range(dom.dim):
        dense = np.linalg.norm(mult_op(basis, Polynomial.coordinate(i, dom.dim)), 2)
        gamma = tuple(int(j == i) for j in range(dom.dim))
        blocks = [_shift_block(basis, gamma, d) for d in range(d_trunc)]
        # the largest class-pair block norm is the dense norm
        assert abs(max(map(_pair_norm, blocks)) - dense) <= 1e-12 * dense


def reference_span_projector(basis, gens):
    """Projector onto span{trunc(f z^alpha)}: coordinates of every truncated
    product, orthonormalized by one SVD with the span rank rule."""
    cols = []
    for f in gens:
        for d in range(basis.max_degree + 1):
            for alpha in multi_indices(basis.dom.dim, d):
                product = f * Polynomial.monomial(alpha)
                kept = {a: c for a, c in product.terms.items() if sum(a) <= basis.max_degree}
                if kept:
                    cols.append(basis.to_coords(Polynomial(product.nvars, kept)))
    u, s, _ = np.linalg.svd(np.column_stack(cols), full_matrices=False)
    u = u[:, s > SPAN_RANK_TOL * s[0]]
    return u @ u.conj().T


@pytest.mark.parametrize("dom, lam, d_trunc", GRADED_CASES, ids=lambda v: getattr(v, "kind", None))
def test_multiplier_ranges_span_the_truncated_products(dom, lam, d_trunc):
    basis = truncated_basis(dom, lam, d_trunc)
    z1, z2 = Polynomial.coordinate(0, dom.dim), Polynomial.coordinate(1, dom.dim)
    eye = np.eye(basis.dim)
    for gens in ([z1], [z1 * z2], [z1 * z1, z1 * z2], [z1 * z1 + z2]):
        want = reference_span_projector(basis, gens)
        assert np.abs(quotient_model(basis, gens).projector() - (eye - want)).max() < 1e-12


@pytest.mark.parametrize("dom, lam, d_trunc", GRADED_CASES, ids=lambda v: getattr(v, "kind", None))
def test_no_generators_is_the_whole_space(dom, lam, d_trunc):
    basis = truncated_basis(dom, lam, d_trunc)
    model = quotient_model(basis, ())
    assert model.dim_quotient == basis.dim
    assert np.array_equal(model.projector(), np.eye(basis.dim))
    assert np.array_equal(model.degree_labels, basis.degree_labels())
    coords = [Polynomial.coordinate(i, dom.dim) for i in range(dom.dim)]
    for s, f in zip(model.tuple_mats, coords, strict=True):
        assert np.abs(s - mult_op(basis, f)).max() < 1e-13


def test_no_path_takes_the_dense_commutator_check(monkeypatch):
    # the build checks commuting from the cell blocks, Frobenius norm first,
    # for homogeneous and inhomogeneous generators alike
    def dense_check(mats):
        raise AssertionError("dense commutator check")

    monkeypatch.setattr(koszul, "check_commuting", dense_check)
    monkeypatch.setattr(koszul, "_commutator_norm", dense_check)
    basis = truncated_basis(BALL2, 2.0, 6)
    for gens in ([Z1], [Z1 * Z2], [], [Z1 * Z1 + Z2]):
        quotient_model(basis, gens)


def per_degree_oracle(basis, gens, tol=SPAN_RANK_TOL):
    """The per-degree route to the complement of homogeneous generators: one
    full SVD of each degree's generator columns, the rank counted against
    ``tol`` times that degree's largest singular value.  Returns the dense
    complement Q, its degree labels and the dense compressed tuple
    Q^H T_i Q."""
    svds = []
    for d, size in enumerate(basis.degree_sizes):
        cols = [
            _dense_block(basis, _mult_block(basis, f, d - f.degree()), d - f.degree(), f.degree())
            for f in gens
            if f.degree() <= d
        ]
        if cols:
            u, s, _ = np.linalg.svd(np.hstack(cols), full_matrices=True)
        else:
            u, s = np.eye(size), np.zeros(0)
        svds.append((u, s))
    blocks = [u[:, int(np.sum(s > tol * s.max(initial=0.0))):] for u, s in svds]
    q = np.zeros((basis.dim, sum(b.shape[1] for b in blocks)), dtype=complex)
    col = 0
    for d, b in enumerate(blocks):
        q[basis.block_slice(d), col:col + b.shape[1]] = b
        col += b.shape[1]
    labels = np.repeat(np.arange(len(blocks)), [b.shape[1] for b in blocks])
    coords = [Polynomial.coordinate(i, basis.dom.dim) for i in range(basis.dom.dim)]
    return q, labels, [q.conj().T @ mult_op(basis, f) @ q for f in coords]


def oracle_generator_sets(dom):
    """z11, z12, det z (a 2 x 2 minor, or z1 z2 where there is none), the
    pair (z11, z22) and the sum z11 + z22, which joins torus-weight classes;
    on the ball and polydisc z11 and z22 read z1 and z2."""
    z = [Polynomial.coordinate(i, dom.dim) for i in range(dom.dim)]
    if dom.kind == "matrixball" and dom.rows == 2:
        a, b, c = z[0], z[dom.cols + 1], z[0] * z[dom.cols + 1] - z[1] * z[dom.cols]
    else:
        a, b, c = z[0], z[-1], z[0] * z[1]
    return {"z11": [a], "z12": [z[1]], "det": [c], "pair": [a, b], "sum": [a + b]}


ORACLE_CASES = [
    (BALL2, 2.0, 10),
    (POLY2, 2.0, 10),
    (DomainSpec.matrix_ball(1, 3), 2.5, 8),
    (DomainSpec.matrix_ball(2, 2), 2.5, 7),
    (DomainSpec.matrix_ball(2, 3), 3.5, 4),
]


@pytest.mark.parametrize("dom, lam, d_trunc", ORACLE_CASES, ids=lambda v: getattr(v, "kind", None))
def test_class_group_complement_is_the_per_degree_route(dom, lam, d_trunc):
    basis = truncated_basis(dom, lam, d_trunc)
    coords = [Polynomial.coordinate(i, dom.dim) for i in range(dom.dim)]
    ps = [1.5, 2.0, np.inf]
    for name, gens in oracle_generator_sets(dom).items():
        model = quotient_model(basis, gens)
        q, labels, tuple_oracle = per_degree_oracle(basis, gens)
        assert np.array_equal(model.degree_labels, labels), name
        qm = model.quotient_onb
        assert np.abs(model.projector() - q @ q.conj().T).max() < 1e-12, name
        for s, want in zip(model.tuple_mats, tuple_oracle, strict=True):
            ambient = q @ want @ q.conj().T
            assert np.abs(qm @ s @ qm.conj().T - ambient).max(initial=0.0) < 1e-12, name
        rows = essential_normality_profile(model, coords, ps)
        pairs = [(i, j) for i in range(dom.dim) for j in range(i, dom.dim)]
        for row, ((i, j), p) in zip(rows, itertools.product(pairs, ps), strict=True):
            comm = cross_commutator(tuple_oracle[i], tuple_oracle[j])
            windowed = windowed_submatrix(comm, labels, d_trunc - 2)
            for got, want in (
                (row.schatten_full, schatten_norm(comm, p)),
                (row.schatten_windowed, schatten_norm(windowed, p)),
            ):
                assert abs(got - want) <= 1e-12 * want or max(got, want) < 1e-13, name


@pytest.mark.parametrize("tol", [SPAN_RANK_TOL, 0.05, 0.3, 0.6])
def test_group_ranks_count_against_the_largest_singular_value_of_its_degree(tol, monkeypatch):
    # a coarse tolerance puts the cutoff among the singular values: each
    # group's rank must still follow the one cutoff over every group of its
    # degree, the rank rule of one SVD of that degree's columns
    dom = DomainSpec.matrix_ball(2, 2)
    basis = truncated_basis(dom, 2.5, 6)
    monkeypatch.setattr(operators, "SPAN_RANK_TOL", tol)
    for name, gens in oracle_generator_sets(dom).items():
        _, labels, _ = per_degree_oracle(basis, gens, tol)
        assert np.array_equal(operators._complement(basis, gens)[2], labels), name


def test_sum_generator_joins_weight_classes(monkeypatch):
    # z11 + z22 carries a monomial into two torus-weight classes, so groups of
    # several classes share one SVD and their quotient columns lie on several
    # classes; a monomial generator keeps one class each
    dom = DomainSpec.matrix_ball(2, 2)
    basis = truncated_basis(dom, 2.5, 4)
    gens = oracle_generator_sets(dom)
    group_svds, seen = operators._group_svds, []

    def recorded(*args):
        free, stacks = group_svds(*args)
        seen.append([pos for _, pos, *_ in stacks])
        return free, stacks

    monkeypatch.setattr(operators, "_group_svds", recorded)
    for name, joined in (("z11", False), ("sum", True)):
        seen.clear()
        model = quotient_model(basis, gens[name])
        for d, stacks in enumerate(seen):
            cls = operators._class_ids(dom, d)
            most = max((len(set(cls[row - basis.offset(d)])) for pos in stacks for row in pos), default=1)
            assert (most > 1) == (joined and d > 0), (name, d)
        classes = np.zeros(model.dim_quotient, dtype=int)  # the frames on each quotient column
        for _, cols, stack in model.frames:
            np.add.at(classes, cols.ravel(), 1)
        assert (classes.max() > 1) == joined, name


def test_empty_complement_degrees():
    # ball2 modulo (z1, z2): every degree >= 1 lies in the submodule
    basis = truncated_basis(BALL2, 2.0, 4)
    gens = [Z1, Z2]
    model = quotient_model(basis, gens)
    # Q is the constant alone, and S_i sends it into the submodule: no block
    ((rows, cols, stack),) = model.frames
    assert rows.tolist() == [[0]] and cols.tolist() == [[0]] and stack.tolist() == [[[1.0]]]
    assert model.tuple_stacks == ((), ())
    q, labels, tuple_oracle = per_degree_oracle(basis, gens)
    assert np.array_equal(model.degree_labels, labels)
    for s, want in zip(model.tuple_mats, tuple_oracle, strict=True):
        assert s.shape == (1, 1) and np.array_equal(s, want)
    rows = essential_normality_profile(model, [Z1, Z2], [1.0, 2.0, np.inf])
    assert rows and all(r.schatten_full == 0.0 == r.schatten_windowed for r in rows)


def test_graded_tuple_is_stored_as_shift_blocks():
    # MB(2,2) modulo z11 at D 20: each torus class meets the quotient in at
    # most one dimension, so S_i is a weighted shift on the class lattice:
    # one 1 x 1 block per column at most, from label d to label d + 1,
    # against the 4 sum_d nq_{d+1} nq_d entries of dense degree-shift
    # blocks.  An inhomogeneous generator's S_i is stored the same way, by
    # pairs of cells, each from a lower label into a higher one
    basis = truncated_basis(DomainSpec.matrix_ball(2, 2), 2.5, 20)
    model = quotient_model(basis, [Polynomial.coordinate(0, 4)])
    nq = [math.comb(d + 2, 2) for d in range(21)]
    assert model.dim_quotient == sum(nq) == 1771
    labels = model.degree_labels
    for stacks in model.tuple_stacks:
        ((rows, cols, stack),) = stacks
        assert stack.shape[1:] == (1, 1)
        assert np.array_equal(labels[rows[:, 0]], labels[cols[:, 0]] + 1)
        assert len(set(cols[:, 0].tolist())) == len(cols) <= sum(nq[:20])
    z11, z12 = Polynomial.coordinate(0, 4), Polynomial.coordinate(1, 4)
    model = quotient_model(truncated_basis(DomainSpec.matrix_ball(2, 2), 2.5, 5), [z11 + z12 * z12])
    labels = model.degree_labels
    for stacks, mat in zip(model.tuple_stacks, model.tuple_mats, strict=True):
        seen = np.zeros(mat.shape, dtype=int)
        blocks = [b for rows, cols, stack in stacks for b in zip(rows, cols, stack)]
        assert blocks
        for r, c, block in blocks:
            assert len(set(labels[r])) == 1 == len(set(labels[c])) and labels[r[0]] > labels[c[0]]
            assert np.array_equal(block, mat[np.ix_(r, c)])
            seen[np.ix_(r, c)] += 1
        assert seen.max() == 1 and not mat[seen == 0].any()


@pytest.mark.parametrize(
    "dom, lam, d_trunc",
    [(DomainSpec.matrix_ball(2, 2), 2.5, 16), (DomainSpec.ball(3), 3.0, 40)],
    ids=["matrixball22-z11", "ball3-z1"],
)
def test_graded_path_forms_no_dense_multiplier(dom, lam, d_trunc, monkeypatch):
    # the multipliers stay class-pair blocks: no dense block is assembled,
    # and the build's transient memory (tracemalloc's peak over what the
    # model keeps) stays below a quarter of one size_D x size_(D-1) float64
    # array, the dense T_i(D - 1) (about 4.6 times it at the dense route)
    basis = truncated_basis(dom, lam, d_trunc)
    monkeypatch.setattr(operators, "_dense_block", lambda *args: pytest.fail("dense block"))
    tracemalloc.start()
    try:
        model = quotient_model(basis, [Polynomial.coordinate(0, dom.dim)])
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    sizes = basis.degree_sizes
    assert model.dim_quotient == math.comb(d_trunc + dom.dim - 1, dom.dim - 1)
    assert peak - kept < 0.25 * sizes[-1] * sizes[-2] * 8


def test_coordinate_profile_never_reads_the_dense_tuple(monkeypatch):
    def dense(self):
        raise AssertionError("dense tuple read on the blockwise route")

    monkeypatch.setattr(operators.QuotientModel, "tuple_mats", property(dense))
    dom = DomainSpec.matrix_ball(2, 2)
    z = [Polynomial.coordinate(i, 4) for i in range(4)]
    symbols = z + [z[1] * 0.5 + Polynomial.constant(4, 0.2j)]
    for gens in ([z[0]], [z[0] + z[3]], [], [z[0] + z[1] * z[1]]):
        rows = ladder(dom, 2.5, gens, symbols, [2.0, 3.0], [3, 5])
        assert rows
    with pytest.raises(AssertionError, match="dense tuple"):
        quotient_model(truncated_basis(dom, 2.5, 3), [z[0]]).tuple_mats


def random_label_tuple(rng, sizes, n, shift):
    """n random strictly lower block-triangular operators on the sum of
    spaces of the given sizes, with their total size: as block entries, one
    per label block (only l = k + 1 when ``shift``), and as dense
    matrices."""
    starts = np.concatenate([[0], np.cumsum(sizes)])
    tuple_blocks, mats = [], []
    for _ in range(n):
        blocks = {
            (l, k): rng.standard_normal((sizes[l], sizes[k]))
            + 1j * rng.standard_normal((sizes[l], sizes[k]))
            for l in range(len(sizes))
            for k in range(l)
            if l == k + 1 or not shift
        }
        mat = np.zeros((starts[-1], starts[-1]), dtype=complex)
        for (l, k), b in blocks.items():
            mat[starts[l]:starts[l + 1], starts[k]:starts[k + 1]] = b
        spans = [np.arange(starts[l], starts[l + 1])[None] for l in range(len(sizes))]
        tuple_blocks.append(blocksparse._by_shape(
            (spans[l], spans[k], b[None]) for (l, k), b in blocks.items()
        ))
        mats.append(mat)
    return starts[-1], tuple_blocks, mats


@pytest.mark.parametrize("sizes", [[1, 2, 3, 4], [3, 0, 2, 5, 1], [2, 3, 3, 2, 4, 1]])
def test_blockwise_commutator_guard_is_dense_guard(sizes, monkeypatch, rng):
    # these commutators exceed the Frobenius bound, so the guard takes the
    # 2-norms, and the value it judges is the dense guard's
    for n, shift in itertools.product((2, 3), (True, False)):
        nq, tuple_blocks, mats = random_label_tuple(rng, sizes, n, shift)
        with pytest.raises(NotCommuting):  # no invariance pieces, so no basis is read
            _check_tuple(None, nq, tuple_blocks, [[]] * n)
        with pytest.raises(NotCommuting):
            koszul.check_commuting(mats)
        judged = []
        monkeypatch.setattr(koszul, "_guard_commuting", judged.append)
        _check_tuple(None, nq, tuple_blocks, [[]] * n)
        monkeypatch.undo()
        dense = koszul._commutator_norm(mats) / koszul._scale(mats)
        assert len(judged) == 1 and judged[0] > 0
        assert abs(judged[0] - dense) <= 1e-12 * dense


def test_inhomogeneous_generator_takes_filtration_path(rng):
    basis = truncated_basis(BALL2, 3.0, 8)
    gens = [Z1 * Z1 + Z2]
    model = quotient_model(basis, gens)
    want = np.eye(basis.dim) - reference_span_projector(basis, gens)
    assert np.abs(model.projector() - want).max() < 1e-12
    q = model.quotient_onb
    for i, s in enumerate(model.tuple_mats):
        t = mult_op(basis, Polynomial.coordinate(i, basis.dom.dim))
        assert np.abs(q.conj().T @ t @ q - s).max() < 1e-12
    supports = [column_degrees(basis, q[:, k]) for k in range(model.dim_quotient)]
    assert all(max(sup) == label for sup, label in zip(supports, model.degree_labels))
    assert any(len(sup) > 1 for sup in supports)
    # Q is stored as class frames: the positions of one torus class of one
    # degree d against columns labelled d or higher, entry for entry, no
    # entry twice
    seen = np.zeros(q.shape, dtype=int)
    offsets = [basis.offset(d) for d in range(basis.max_degree + 2)]
    for rows, cols, stack in model.frames:
        for r, c, block in zip(rows, cols, stack):
            d = np.searchsorted(offsets, r[0], side="right") - 1
            assert r[-1] < offsets[d + 1] and model.degree_labels[c].min() >= d
            assert len(set(operators._class_ids(basis.dom, d)[r - offsets[d]])) == 1
            assert np.array_equal(q[np.ix_(r, c)], block)
            seen[np.ix_(r, c)] += 1
    assert seen.max() == 1 and not q[seen == 0].any()
    f = random_poly(2, 3, rng)
    assert np.abs(compress(model, f) - q.conj().T @ mult_op(basis, f) @ q).max() < 1e-12


@pytest.mark.parametrize("graded", [True, False], ids=["homogeneous", "inhomogeneous"])
def test_generators_are_checked_before_either_path(graded, monkeypatch):
    basis = truncated_basis(BALL2, 2.0, 3)
    w1, w2 = Polynomial.coordinate(0, 3), Polynomial.coordinate(1, 3)
    quartic = Z1 * Z1 * Z1 * Z1
    cases = {
        "variable count mismatch": [w1 * w2] if graded else [w1 * w2 + w1],
        # every generator's lowest degree exceeds D = 3
        "empty span at this degree": (
            [quartic, quartic * Z2] if graded else [quartic + quartic * Z2]
        ),
    }
    with monkeypatch.context() as patch:
        patch.setattr(operators, "_complement", lambda *args: pytest.fail("build reached"))
        for message, gens in cases.items():
            assert all(len(g.homogeneous_parts()) == 1 for g in gens) == graded
            with pytest.raises(ValidationError, match=message):
                quotient_model(basis, gens)
    # the lowest degree decides: one term of degree <= D gives a span
    gens = [quartic, Z2] if graded else [quartic + Z2]
    assert quotient_model(basis, gens).dim_quotient < basis.dim


def prefix_svd_complement(basis, gens):
    """The filtration-adapted complement by the dense route: the columns of
    every P_D M_f P_D, one full SVD of each degree prefix of them for its
    null space (the rank counted against ``SPAN_RANK_TOL`` times that
    prefix's largest singular value), projected off the lower labels and
    orthonormalized by a second SVD.  Returns Q and its labels."""
    cols = np.hstack([
        mult_op(basis, f)[:, : basis.offset(basis.max_degree - min(f.homogeneous_parts()) + 1)]
        for f in gens
    ])
    chosen, labels = np.zeros((basis.dim, 0), dtype=complex), []
    for k in range(basis.max_degree + 1):
        rows = basis.offset(k + 1)
        _, sv, vh = np.linalg.svd(cols[:rows].conj().T, full_matrices=True)
        null = vh[int(np.sum(sv > SPAN_RANK_TOL * sv.max(initial=0.0))):].conj().T
        new = null.shape[1] - chosen.shape[1]
        if new > 0:
            prev = chosen[:rows]
            u = np.linalg.svd(null - prev @ (prev.conj().T @ null), full_matrices=False)[0]
            fresh = np.zeros((basis.dim, new), dtype=complex)
            fresh[:rows] = u[:, :new]
            chosen, labels = np.hstack([chosen, fresh]), labels + [k] * new
    return chosen, np.asarray(labels, dtype=int)


FILTRATION_CASES = [
    (BALL2, 2.0, 10),
    (POLY2, 2.0, 10),
    (DomainSpec.matrix_ball(2, 2), 2.5, 6),
    (DomainSpec.matrix_ball(2, 3), 3.5, 4),
]
FILTRATION_IDS = ["ball2", "polydisc2", "matrixball22", "matrixball23"]


def filtration_generator_sets(n):
    """Inhomogeneous generators in z1 and z2 (z11 and z12 on a matrix ball):
    one term of each degree either way round, a product plus a lower term,
    a pair with one homogeneous generator, and a complex coefficient."""
    z1, z2 = Polynomial.coordinate(0, n), Polynomial.coordinate(1, n)
    return {
        "z1^2+z2": [z1 * z1 + z2],
        "z1+z2^2": [z1 + z2 * z2],
        "z1z2+0.5z1": [z1 * z2 + z1 * 0.5],
        "pair": [z1 * z2, z1 * z1 + z2],
        "complex": [z1 + z2 * z2 * (0.3 + 0.1j)],
    }


def prefix_generator_sets(dom):
    """The inhomogeneous sets of ``filtration_generator_sets``, and on ball2
    z1 and (z1, z2), on MB(2,2) the sum z11 + z22, which joins classes."""
    sets = filtration_generator_sets(dom.dim)
    z = [Polynomial.coordinate(i, dom.dim) for i in range(dom.dim)]
    if dom == BALL2:
        sets.update({"z1": [z[0]], "z1,z2": [z[0], z[1]]})
    if dom == DomainSpec.matrix_ball(2, 2):
        sets["z11+z22"] = [z[0] + z[3]]
    return sets


@pytest.mark.parametrize("dom, lam, d_trunc", FILTRATION_CASES, ids=FILTRATION_IDS)
def test_filtration_complement_is_the_prefix_svd_route(dom, lam, d_trunc, monkeypatch):
    basis = truncated_basis(dom, lam, d_trunc)
    norm = np.linalg.norm
    for name, gens in prefix_generator_sets(dom).items():
        q, labels = prefix_svd_complement(basis, gens)
        calls = []

        def counted_norm(x, ord=None, *args, **kwargs):
            if ord in (2, -2):
                calls.append(2)
            return norm(x, ord, *args, **kwargs)

        # no dense multiplier or degree block, and no 2-norm in the guards:
        # their Frobenius norms settle them
        with monkeypatch.context() as patch:
            for dense in ("mult_op", "_dense_block"):
                patch.setattr(operators, dense, lambda *args: pytest.fail("dense multiplier"))
            patch.setattr(np.linalg, "norm", counted_norm)
            model = quotient_model(basis, gens)
        assert not calls, name
        # each block of S_i carries one cell into a cell of a higher label
        for rows, cols, _ in model.tuple_stacks[0]:
            assert (model.degree_labels[rows].min(axis=1) > model.degree_labels[cols].max(axis=1)).all()
        assert np.array_equal(model.degree_labels, labels), name
        qm = model.quotient_onb
        for k in range(d_trunc + 1):
            a, b = qm[:, model.degree_labels <= k], q[:, labels <= k]
            assert np.abs(a @ a.conj().T - b @ b.conj().T).max(initial=0.0) < 1e-12, (name, k)


@pytest.mark.parametrize("dom, lam, d_trunc", FILTRATION_CASES, ids=FILTRATION_IDS)
def test_lower_degree_complement_is_a_label_prefix(dom, lam, d_trunc):
    # each degree's SVDs see only the sources and the groups that reach it,
    # the same at every D, so a lower D's complement is the top one's label
    # prefix, bit for bit, and the top one vanishes below those rows; so
    # for homogeneous generators too
    z1, z2 = Polynomial.coordinate(0, dom.dim), Polynomial.coordinate(1, dom.dim)
    sets = {**filtration_generator_sets(dom.dim), "z1": [z1], "z1,z2": [z1, z2]}
    for name, gens in sets.items():
        top = quotient_model(truncated_basis(dom, lam, d_trunc), gens)
        for lower in range(2, d_trunc):
            basis = truncated_basis(dom, lam, lower)
            model = quotient_model(basis, gens)
            keep = top.degree_labels <= lower
            assert np.array_equal(model.degree_labels, top.degree_labels[keep]), (name, lower)
            assert np.array_equal(model.quotient_onb, top.quotient_onb[: basis.dim, keep])
            assert not top.quotient_onb[basis.dim:, keep].any()


@pytest.mark.parametrize(
    "dom, lam, d_trunc, weights",
    [(BALL2, 1.5, 16, (2, 1)), (DomainSpec.matrix_ball(2, 2), 2.5, 7, (2, 1, 2, 1))],
    ids=["ball2-z1-z2^2", "matrixball22-z11-z12^2"],
)
def test_quotient_columns_are_weight_vectors_of_the_generators_circle(dom, lam, d_trunc, weights):
    # z1 - z2^2 and z11 - z12^2 are weight vectors of the circle acting on
    # the coordinates with these weights; the lambda inner product and P_D
    # commute with it, and every quotient column lies in the classes of one
    # group, so each is a weight vector too, of degrees up to its label
    z = [Polynomial.coordinate(i, dom.dim) for i in range(dom.dim)]
    model = quotient_model(truncated_basis(dom, lam, d_trunc), [z[0] - z[1] * z[1]])
    alphas = np.vstack([np.array(multi_indices(dom.dim, d)) for d in range(d_trunc + 1)])
    weight = alphas @ np.array(weights)
    q = model.quotient_onb
    mixed = 0
    for k in range(model.dim_quotient):
        support = np.flatnonzero(q[:, k])
        assert len(set(weight[support].tolist())) == 1, k
        mixed += len(set(alphas[support].sum(axis=1).tolist())) > 1
    assert mixed > 0  # some columns still span several degrees


def windowed_trace(model, i, window=2):
    """tr [S_i*, S_i] on the quotient columns labelled <= D - window."""
    s = model.tuple_mats[i]
    comm = s.conj().T @ s - s @ s.conj().T
    top = model.basis.max_degree - window
    return float(np.trace(windowed_submatrix(comm, model.degree_labels, top)).real)


def test_curve_traces_converge_to_the_area_of_the_variety():
    # on a curve V the self-commutators of the compressed tuple are trace
    # class, and tr [S_f*, S_f] is the area of f(V), counted with
    # multiplicity, over pi (Helton-Howe, Berger-Shaw; Guo-Wang on quotients
    # of the ball).  The parabola z1 = z2^2 meets the ball over the disc
    # |z2|^2 < r^2, r^4 + r^2 = 1, so S_z2 tends to r^2 = (sqrt 5 - 1) / 2
    # and S_z1, covering its disc twice, to 2 r^4 = 3 - sqrt 5.  The windowed
    # traces at D 32 and 40, extrapolated to first order in 1/D, miss these
    # by 9e-5 and 2e-5 at lambda 1.5
    traces = {
        d_trunc: [windowed_trace(model, i) for i in range(2)]
        for d_trunc in (32, 40)
        for model in [quotient_model(truncated_basis(BALL2, 1.5, d_trunc), [Z1 - Z2 * Z2])]
    }
    for i, area in enumerate((3 - math.sqrt(5), (math.sqrt(5) - 1) / 2)):
        limit = (40 * traces[40][i] - 32 * traces[32][i]) / 8
        assert abs(limit - area) < 5e-4, (i, limit)
    # on the disc V = {z1 = 0} the windowed trace of [S2*, S2] is
    # (D - w + 1) / (lambda + D - w), which tends to the disc's area over pi
    for lam in (1.5, 2.0, 3.0):
        for d_trunc in (10, 24):
            model = quotient_model(truncated_basis(BALL2, lam, d_trunc), [Z1])
            assert abs(windowed_trace(model, 1) - (d_trunc - 1) / (lam + d_trunc - 2)) < 1e-13


# ---------------------------------------------------------------------
# compressions
# ---------------------------------------------------------------------

def test_compress_one_is_identity():
    basis = truncated_basis(BALL2, 3.0, 6)
    model = quotient_model(basis, [Z1])
    out = compress(model, Polynomial.constant(2, 1.0))
    assert np.abs(out - np.eye(model.dim_quotient)).max() == 0.0


def test_compress_generator_is_zero():
    basis = truncated_basis(BALL2, 3.0, 6)
    model = quotient_model(basis, [Z1])
    assert np.abs(compress(model, Z1)).max() < 1e-12


def test_product_identity_on_every_column(rng):
    # multipliers raise the degree, so P_D M_f P_D M_g P_D = P_D M_fg P_D,
    # and M^(D) is invariant, so S_fg = S_f S_g on the whole quotient, for
    # the label-block compressions and for the dense sandwiches alike
    mb22 = DomainSpec.matrix_ball(2, 2)
    z11, z12 = Polynomial.coordinate(0, 4), Polynomial.coordinate(1, 4)
    cases = [
        (truncated_basis(BALL2, 3.0, 10), [[Z1], [Z1 * Z2], [Z1 * Z1 + Z2]]),
        (truncated_basis(mb22, 2.5, 6), [[z11], [z11 + z12 * z12]]),
    ]
    for basis, generator_sets in cases:
        n = basis.dom.dim
        for gens in generator_sets:
            model = quotient_model(basis, gens)
            q = model.quotient_onb
            for _ in range(3):
                f = random_poly(n, 2, rng)
                g = random_poly(n, 3, rng)
                lhs = compress(model, f * g)
                dense = [q.conj().T @ mult_op(basis, h) @ q for h in (f, g, f * g)]
                for rhs in (compress(model, f) @ compress(model, g), dense[0] @ dense[1], dense[2]):
                    assert np.abs(lhs - rhs).max() <= 1e-12


def test_compress_rational_trivial_cases(rng):
    basis = truncated_basis(BALL1, 1.0, 8)
    model = quotient_model(basis, ())
    q = Polynomial.constant(1, 1.0) + Polynomial.coordinate(0, 1) * (-0.5)
    same = compress_rational(model, q, q)
    assert np.abs(same - np.eye(model.dim_quotient)).max() < 1e-10
    p = random_poly(1, 3, rng)
    via_rational = compress_rational(model, p, Polynomial.constant(1, 1.0))
    assert np.array_equal(via_rational, compress(model, p))


def test_compress_rational_mobius_contraction():
    # disc automorphism symbols compress to contractions with spectrum {-z0};
    # the internal denominator solve stays well conditioned up to |z0| = 0.7
    basis = truncated_basis(BALL1, 1.0, 10)
    model = quotient_model(basis, ())
    z = Polynomial.coordinate(0, 1)
    for z0 in (0.3, 0.5, 0.7):
        p = z + Polynomial.constant(1, -z0)
        q = Polynomial.constant(1, 1.0) + z * (-np.conj(z0))
        s = compress_rational(model, p, q)
        assert np.linalg.norm(s, 2) <= 1.0 + 1e-10
        eigs = np.linalg.eigvals(s)
        assert np.abs(eigs - (-z0)).max() < 1e-8


def test_denominator_samples_are_drawn_once_per_domain(monkeypatch):
    draws = []

    def counting(dom, count, rng):
        draws.append(dom)
        return closed_domain_samples(dom, count, rng)

    closed_domain_samples = operators.closed_domain_samples
    monkeypatch.setattr(operators, "closed_domain_samples", counting)
    operators._denominator_samples.cache_clear()
    model = quotient_model(truncated_basis(BALL1, 1.0, 6), ())
    z = Polynomial.coordinate(0, 1)
    q = Polynomial.constant(1, 1.0) + z * (-0.3)
    compress_rational(model, z, q)
    compress_rational(model, z + Polynomial.constant(1, -0.3), q)
    assert draws == [BALL1]
    pts = operators._denominator_samples(BALL1)
    assert pts.shape == (operators.DENOMINATOR_SAMPLES, 1) and not pts.flags.writeable
    operators._denominator_samples.cache_clear()


@pytest.mark.parametrize("dom, lam, d_trunc", FILTRATION_CASES, ids=FILTRATION_IDS)
def test_compress_rational_is_the_inverse_route(dom, lam, d_trunc):
    # the oracle S_p inv(S_q) from dense sandwiches, on filtration models by
    # inhomogeneous generators and on a graded model
    basis = truncated_basis(dom, lam, d_trunc)
    z0 = [0.2, -0.1j, 0.1, 0.0, 0.15, 0.05][: dom.dim]
    sets = filtration_generator_sets(dom.dim)
    for gens in (sets["z1^2+z2"], sets["complex"], [Polynomial.coordinate(0, dom.dim)]):
        model = quotient_model(basis, gens)
        q = model.quotient_onb
        for s in mobius_rational_components(dom, z0):
            sp, sq = (q.conj().T @ mult_op(basis, h) @ q for h in (s.p, s.q))
            want = sp @ np.linalg.inv(sq)
            assert np.abs(compress_rational(model, s.p, s.q) - want).max() <= 1e-12


def test_mobius_profile_guards_each_denominator_once_per_model(monkeypatch):
    # MB(2,2)/z11 on the graded path: the four Moebius components share one
    # denominator, whose |q| sample check and condition SVD run once per D,
    # and no dense multiplier or dense degree block is formed
    dom = DomainSpec.matrix_ball(2, 2)
    symbols = mobius_rational_components(dom, [0.2, 0.1, 0.0, 0.3])
    assert len({id(s.q) for s in symbols}) == 1
    evaluations, conditions = [], []
    eval_batch, svd = Polynomial.eval_batch, np.linalg.svd

    def counted_eval(self, points):
        evaluations.append(len(points))
        return eval_batch(self, points)

    def counted_svd(a, *args, **kwargs):
        if kwargs.get("compute_uv") is False:  # no Schatten SVD at p = 2
            conditions.append(a.shape)
        return svd(a, *args, **kwargs)

    for name in ("mult_op", "_dense_block"):
        monkeypatch.setattr(operators, name, lambda *args: pytest.fail("dense route"))
    monkeypatch.setattr(Polynomial, "eval_batch", counted_eval)
    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    rows = ladder(dom, 2.5, [Polynomial.coordinate(0, 4)], symbols, [2.0], [4, 6])
    monkeypatch.undo()
    assert len(rows) == 2 * 10
    nq = [35, 84]  # sum over d <= D of (d + 1)(d + 2) / 2
    assert evaluations == [operators.DENOMINATOR_SAMPLES] * 2
    assert conditions == [(n, n) for n in nq]


def test_compress_rational_vanishing_denominator():
    basis = truncated_basis(BALL1, 1.0, 6)
    model = quotient_model(basis, ())
    q = Polynomial.constant(1, 1.0) + Polynomial.coordinate(0, 1) * (-1.0)
    with pytest.raises(DenominatorVanishes):
        compress_rational(model, Polynomial.constant(1, 1.0), q)


# ---------------------------------------------------------------------
# cross-commutators and Schatten norms
# ---------------------------------------------------------------------

def test_cross_commutator_hermitian_vanishes(rng):
    herm = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    herm = herm + herm.conj().T
    assert np.abs(cross_commutator(herm, herm)).max() < 1e-13


def test_disc_truncation_commutator_structure():
    # [S, S*] on the degree-D Hardy truncation: defect -1 at the bottom and a
    # +1 truncation artifact at top degree; everything else zero
    for d_trunc in (6, 10):
        basis = truncated_basis(BALL1, 1.0, d_trunc)
        shift = mult_op(basis, Polynomial.coordinate(0, 1))
        comm = cross_commutator(shift, shift)
        diag = np.diag(comm).real
        assert abs(abs(diag[0]) - 1.0) < 1e-12
        assert abs(abs(diag[-1]) - 1.0) < 1e-12
        assert diag[0] == -diag[-1]
        assert np.abs(comm - np.diag(diag)).max() < 1e-12
        assert np.abs(diag[1:-1]).max() < 1e-12
        assert abs(schatten_norm(comm, 1.0) - 2.0) < 1e-12


def test_commutator_scaling_is_quadratic(rng):
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    for _ in range(20):
        c = rng.uniform(0.1, 1.0)
        d = complex(rng.standard_normal(), rng.standard_normal()) * 0.3
        scaled = cross_commutator(c * a + d * np.eye(6), c * a + d * np.eye(6))
        assert np.abs(scaled - c**2 * cross_commutator(a, a)).max() < 1e-13


def test_schatten_norm_values(rng):
    assert schatten_norm(np.zeros((4, 4)), 2.0) == 0.0
    u = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    rank_one = np.outer(u, np.conj(v))
    want = np.linalg.norm(u) * np.linalg.norm(v)
    for p in (1.0, 2.0, 3.0, np.inf):
        assert abs(schatten_norm(rank_one, p) - want) < 1e-12 * want
    assert abs(schatten_norm(np.diag([3.0, 4.0]), 2.0) - 5.0) < 1e-14


def test_schatten_two_is_the_svd_route(rng):
    # p = 2 takes the Frobenius norm, no SVD: it must agree with the singular values
    def by_svd(x):
        return float(np.sum(np.linalg.svd(x, compute_uv=False) ** 2) ** 0.5)

    mats = [
        rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for shape in [(7, 7), (5, 9), (30, 30)]
    ]
    basis = truncated_basis(DomainSpec.matrix_ball(2, 2), 2.5, 5)
    s = quotient_model(basis, [Polynomial.coordinate(0, 4)]).tuple_mats
    mats += [cross_commutator(a, b) for a in s for b in s]
    for x in mats:
        assert abs(schatten_norm(x, 2.0) - by_svd(x)) <= 1e-12 * by_svd(x)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, np.inf])
def test_schatten_norm_rejects_non_finite_entries(bad, p):
    # an inf entry read nan (inf at p 2), a NaN one an SVD that did not converge
    x = np.eye(3)
    x[1, 2] = bad
    with pytest.raises(ValidationError, match="NaN or infinite entry"):
        schatten_norm(x, p)


def test_schatten_norm_rejects_p_below_one():
    for p in (0.5, np.nan):
        with pytest.raises(ValidationError, match="p >= 1"):
            schatten_norm(np.eye(3), p)
        with pytest.raises(ValidationError, match="p >= 1"):
            ladder(BALL2, 2.0, [Z1], [Z1, Z2], [2.0, p], [4])


def test_schatten_norm_at_large_p_is_the_top_singular_value():
    # sum(sv**p) underflows past p of a few hundred; scaled by the largest
    # singular value it tends to it, as the p-norms do
    x = np.diag([0.3, 0.2])
    for p in (600.0, 1000.0, 1e300):
        assert schatten_norm(x, p) == 0.3 == schatten_norm(x, np.inf)
    assert schatten_norm(np.zeros((2, 2)), 1000.0) == 0.0


def test_schatten_adjoint_symmetry(rng):
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    b = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    for p in (1.0, 2.0, 4.0):
        assert abs(
            schatten_norm(cross_commutator(a, b), p) - schatten_norm(cross_commutator(b, a), p)
        ) < 1e-11


def test_commutator_algebra_identities(rng):
    # [UV, W] = U[V, W] + [U, W]V and [U^-m, V] = U^-m [V, U^m] U^-m
    def comm(x, y):
        return x @ y - y @ x

    for _ in range(10):
        u = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)) + 3 * np.eye(5)
        v = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        w = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        lhs = comm(u @ v, w)
        rhs = u @ comm(v, w) + comm(u, w) @ v
        assert np.abs(lhs - rhs).max() < 1e-12 * max(1.0, np.abs(lhs).max())
        m = 2
        u_m = np.linalg.matrix_power(u, m)
        u_minus = np.linalg.inv(u_m)
        lhs = comm(u_minus, v)
        rhs = u_minus @ comm(v, u_m) @ u_minus
        assert np.abs(lhs - rhs).max() < 1e-11 * max(1.0, np.abs(lhs).max())


def test_normal_tuple_has_commuting_compressions(rng):
    # diagonal (normal, commuting) tuples: every polynomial cross-commutator vanishes
    d1 = np.diag(rng.standard_normal(6) + 1j * rng.standard_normal(6))
    d2 = np.diag(rng.standard_normal(6) + 1j * rng.standard_normal(6))
    for _ in range(5):
        h = random_poly(2, 3, rng)
        q = random_poly(2, 3, rng)
        assert np.abs(cross_commutator(h.eval_tuple([d1, d2]), q.eval_tuple([d1, d2]))).max() < 1e-9


# ---------------------------------------------------------------------
# permissive transforms
# ---------------------------------------------------------------------

def test_permissive_identity_transform():
    basis = truncated_basis(BALL2, 2.0, 5)
    mats = quotient_model(basis, [Z1]).tuple_mats
    out = permissive_transform(mats, 1.0, np.zeros(2), BALL2)
    for a, b in zip(out, mats):
        assert np.array_equal(a, b)


def test_permissive_accepts_nilpotent_any_scale(rng):
    basis = truncated_basis(BALL2, 2.0, 5)
    mats = quotient_model(basis, [Z1]).tuple_mats
    for c in (0.25, 0.5, 1.0):
        shift = random_point(BALL2, rng, max_norm=0.9)
        permissive_transform(mats, c, shift, BALL2)


def test_permissive_rejects_exterior_spectrum():
    mats = [np.diag([0.8, 0.1]), np.diag([0.0, 0.0])]
    with pytest.raises(NotPermissive):
        permissive_transform(mats, 1.0, np.array([0.5, 0.0]), BALL2)


def test_permissive_transform_of_a_real_tuple_is_complex():
    out = permissive_transform([np.zeros((2, 2)), np.zeros((2, 2))], 0.5, [0.1, 0.0], BALL2)
    assert all(m.dtype == complex for m in out)
    assert np.array_equal(out[0], 0.1 * np.eye(2))


def test_permissive_rejects_an_empty_tuple():
    with pytest.raises(ValidationError, match="empty operator tuple"):
        permissive_transform([], 1.0, np.zeros(0), BALL2)


def test_permissive_rejects_components_of_unequal_size():
    with pytest.raises(ValidationError, match="square, same size"):
        permissive_transform([np.eye(2), np.eye(3)], 1.0, np.zeros(2), BALL2)


def test_permissive_rejects_non_square_components():
    with pytest.raises(ValidationError, match="square, same size"):
        permissive_transform([np.ones((2, 3)), np.ones((2, 3))], 1.0, np.zeros(2), BALL2)


def test_permissive_rejects_non_finite_entries():
    with pytest.raises(ValidationError, match="NaN or infinite entry"):
        permissive_transform([np.diag([np.nan, 0.0]), np.eye(2)], 1.0, np.zeros(2), BALL2)


# ---------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------

BLOCKWISE_CASES = [
    (BALL2, 2.0, 7),
    (POLY2, 2.0, 6),
    (DomainSpec.matrix_ball(1, 3), 2.5, 5),
    (DomainSpec.matrix_ball(2, 2), 2.5, 5),
    (DomainSpec.matrix_ball(2, 3), 3.5, 4),
]
SCHATTEN_PS = [1.0, 1.5, 2.0, 3.0, np.inf]


@pytest.mark.parametrize("dom, lam, d_trunc", BLOCKWISE_CASES, ids=lambda v: getattr(v, "kind", None))
def test_blockwise_profile_is_the_dense_route(dom, lam, d_trunc, monkeypatch):
    n = dom.dim
    basis = truncated_basis(dom, lam, d_trunc)
    z = [Polynomial.coordinate(i, n) for i in range(n)]
    permissive = [zi * 0.7 + Polynomial.constant(n, 0.1 - 0.05j * i) for i, zi in enumerate(z)]
    # degree 2: a square, a product of two coordinates and an inhomogeneous sum
    quadratic = [z[0] * z[0] - 0.5j * z[1], z[0] * z[n - 1] + Polynomial.constant(n, 0.2), z[1] * z[1]]

    def no_dense(*args):
        raise AssertionError("dense route on the blockwise path")

    for gens in ([z[0] * z[1]], [z[0] * z[0], z[1] * z[1]]):
        model = quotient_model(basis, gens)
        q = model.quotient_onb
        for symbols in (z, permissive, quadratic):
            dense = [q.conj().T @ mult_op(basis, f) @ q for f in symbols]
            for f, want in zip(symbols, dense):
                assert np.abs(compress(model, f) - want).max() < 1e-12
            for name in ("mult_op", "_dense_block"):
                monkeypatch.setattr(operators, name, no_dense)
            rows = essential_normality_profile(quotient_model(basis, gens), symbols, SCHATTEN_PS)
            monkeypatch.undo()
            pairs = [(i, j) for i in range(len(symbols)) for j in range(i, len(symbols))]
            assert len(rows) == len(pairs) * len(SCHATTEN_PS)
            window = max(f.degree() for f in symbols) + 1
            for row, ((i, j), p) in zip(rows, itertools.product(pairs, SCHATTEN_PS)):
                comm = cross_commutator(dense[i], dense[j])
                windowed = windowed_submatrix(comm, model.degree_labels, d_trunc - window)
                for got, want in (
                    (row.schatten_full, schatten_norm(comm, p)),
                    (row.schatten_windowed, schatten_norm(windowed, p)),
                ):
                    # on the polydisc [S_1, S_2*] vanishes in exact arithmetic:
                    # cells at rounding level carry no digits to compare
                    assert abs(got - want) <= 1e-12 * want or max(got, want) < 1e-13


@pytest.mark.parametrize(
    "p_values, per_matrix", [([2.0], 0), ([2.0, 3.0, np.inf], 1), ([1.0, np.inf, 1.0], 1)]
)
def test_profile_takes_singular_values_once_per_matrix(p_values, per_matrix, monkeypatch):
    d_trunc, gens = 6, [Z1 * Z2]
    basis = truncated_basis(BALL2, 2.0, d_trunc)
    model = quotient_model(basis, gens)  # nonempty in every degree
    calls = []
    svd = np.linalg.svd

    def counted_svd(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    # one batched SVD per shape of connected block, shared by the window.
    # The quotient is spanned by 1, z1^j and z2^k, and S_1, S_2 shift them,
    # so the commutators of the coordinates and of their squares, products
    # of the stored blocks, have 1 x 1 blocks only, and the window keeps or
    # drops each block whole
    for symbols in ([Z1, Z2], [Z1 * Z1, Z2 * Z2]):
        essential_normality_profile(model, symbols, p_values)
        assert len(calls) == 3 * per_matrix
        assert all(len(shape) == 3 for shape in calls)
        calls.clear()
    # Moebius symbols fill every lower label block: one block, its SVD and
    # its window's cut, and one condition SVD of the denominator the two share
    mobius = mobius_rational_components(BALL2, [0.3, 0.1])
    essential_normality_profile(model, mobius, p_values)
    assert len(calls) == 3 * 2 * per_matrix + 1


def test_connected_blocks_and_their_window(rng):
    # entries on 8 rows and columns, labels 0 0 1 1 2 3 3 4: rows {0, 1} to
    # columns {2, 3} and {6}, row 4 to columns {0, 1}, rows {2, 3} to
    # column 4, rows {5, 6} to columns {5, 6}, and row 7 to column 7 twice.
    # Column 6 joins the first and the fourth, so the connected blocks are
    # rows {0, 1, 5, 6} x columns {2, 3, 5, 6}, {4} x {0, 1}, {2, 3} x {4}
    # and {7} x {7}, the last the sum of its two entries.  A window ending
    # at label 1 cuts the first to {0, 1} x {2, 3} and drops the others,
    # as the dense window does
    pattern = [
        ([0, 1], [2, 3]), ([0, 1], [6]), ([4], [0, 1]), ([2, 3], [4]), ([5, 6], [5, 6]),
        ([7], [7]), ([7], [7]),
    ]
    entries = [
        (np.array([r]), np.array([c]), rng.standard_normal((1, len(r), len(c))))
        for r, c in pattern
    ]
    dense = np.zeros((8, 8))
    for rows, cols, stack in entries:
        dense[np.ix_(rows[0], cols[0])] += stack[0]
    blocks = blocksparse._connected_blocks(entries, 8)
    assert sorted((r.tolist(), c.tolist()) for r, c, _ in blocks) == [
        ([[0, 1, 5, 6]], [[2, 3, 5, 6]]), ([[2, 3]], [[4]]), ([[4]], [[0, 1]]), ([[7]], [[7]]),
    ]
    for rows, cols, stack in blocks:
        assert np.array_equal(stack[0], dense[np.ix_(rows[0], cols[0])])
    labels = np.array([0, 0, 1, 1, 2, 3, 3, 4])
    for top in (-1, 0, 1, 2, 3, 4):
        full, windowed = blocksparse._block_spectra(blocks, labels, top, SCHATTEN_PS)
        window = windowed_submatrix(dense, labels, top)
        for p in SCHATTEN_PS:
            for got, want in (
                (blocksparse._spectra_norm(full, p), schatten_norm(dense, p)),
                (blocksparse._spectra_norm(windowed, p), schatten_norm(window, p)),
            ):
                assert abs(got - want) <= 1e-12 * want, (top, p)


def test_profile_rejects_symbols_in_other_variables():
    z1 = Polynomial.coordinate(0, 3)
    for symbols in ([z1], [z1 * z1]):
        with pytest.raises(ValidationError, match="symbol in 3 variables"):
            ladder(BALL2, 2.0, [Z1], symbols, [2.0], [4])


def test_profile_constant_symbol_vanishes():
    rows = ladder(BALL2, 2.0, [Z1], [Polynomial.constant(2, 1.0)], [2.0], [4, 6])
    assert rows
    for row in rows:
        assert row.schatten_full == 0.0
        assert row.schatten_windowed == 0.0


def test_profile_disc_full_module_frozen():
    rows = ladder(BALL1, 1.0, [], [Polynomial.coordinate(0, 1)], [1.0], [6, 10])
    for row in rows:
        assert abs(row.schatten_full - 2.0) < 1e-12
        assert abs(row.schatten_windowed - 1.0) < 1e-12


def test_profile_regression_anchor():
    rows = ladder(BALL2, 3.0, [Z1], [Z1, Z2], [3.0], [8])
    cells = {(r.symbol_i, r.symbol_j): r for r in rows}
    assert cells[("z2", "z2")].dim_quotient == 9
    assert abs(cells[("z2", "z2")].schatten_windowed - 0.35071399842643397) < 1e-9
    assert cells[("z1", "z1")].schatten_full < 1e-12

