"""Matrix-ball quotients by the 2 x 2 minors against their closed form.

The 2 x 2 minors of an r x c matrix cut out the matrices of rank <= 1, the
cone z = x y^T over the Segre embedding; on MB(2,2) that ideal is (det).
In the Faraut-Koranyi decomposition the ideal is the sum of the P_m with
m_2 >= 1, so the quotient is the sum of the P_(k,0,...), and P_(k,0,...)
is Sym^k(C^r) x Sym^k(C^c).  The monomials x^a y^b, |a| = |b| = k, are an
orthogonal basis of it with ||x^a y^b||^2 = a! b! / (k! (lam)_k), and
S_ij = P M_{z_ij} P is the weighted shift x^a y^b -> x^(a + e_i) y^(b + e_j)
with weight squared (a_i + 1)(b_j + 1) / ((k + 1)(lam + k)).  So every cell
of ``essential_normality_profile`` has an independent route that needs no
kernel series, basis, complement or SVD of generator columns.
"""

import itertools
import math

import numpy as np
import pytest

from symdom.domains import DomainSpec
from symdom.kernels import multi_indices, truncated_basis
from symdom.operators import essential_normality_profile, quotient_model
from symdom.polynomials import Polynomial

P_VALUES = [1.0, 1.5, 2.0, 3.0, np.inf]


def segre_tuple(rows, cols, lam, max_degree):
    """The closed-form S_ij, in the coordinates' order on MB(rows, cols)
    (row by row), in the orthonormal basis x^a y^b / ||x^a y^b||,
    |a| = |b| = k <= D, and the degree k of each basis vector."""
    basis = [
        (a, b) for k in range(max_degree + 1) for a in multi_indices(rows, k) for b in multi_indices(cols, k)
    ]
    index = {ab: n for n, ab in enumerate(basis)}

    def up(alpha, i):
        return tuple(x + (m == i) for m, x in enumerate(alpha))

    mats = []
    for i, j in itertools.product(range(rows), range(cols)):
        s = np.zeros((len(basis), len(basis)))
        for (a, b), col in index.items():
            k = sum(a)
            if k < max_degree:  # degree D maps past the truncation
                s[index[up(a, i), up(b, j)], col] = math.sqrt((a[i] + 1) * (b[j] + 1) / ((k + 1) * (lam + k)))
        mats.append(s)
    return mats, np.array([sum(a) for a, _ in basis])


def minors(rows, cols):
    """The 2 x 2 minors of the coordinate matrix of MB(rows, cols)."""
    z = [Polynomial.coordinate(i, rows * cols) for i in range(rows * cols)]
    return [
        z[i * cols + j] * z[k * cols + l] - z[i * cols + l] * z[k * cols + j]
        for i, k in itertools.combinations(range(rows), 2)
        for j, l in itertools.combinations(range(cols), 2)
    ]


def schatten(sv, p):
    return float(sv.max(initial=0.0) if np.isinf(p) else np.sum(sv**p) ** (1.0 / p))


def assert_segre_cells(rows, cols, lam, d_trunc):
    """Every coordinate cell of MB(rows, cols) modulo its 2 x 2 minors,
    full and windowed, within 1e-12 relative of the closed form, and the
    quotient's dimension sum_k C(k + rows - 1, k) C(k + cols - 1, k)."""
    dom = DomainSpec.matrix_ball(rows, cols)
    z = [Polynomial.coordinate(i, dom.dim) for i in range(dom.dim)]
    mats, labels = segre_tuple(rows, cols, lam, d_trunc)
    model = quotient_model(truncated_basis(dom, lam, d_trunc), minors(rows, cols))
    assert model.dim_quotient == len(labels) == sum(
        math.comb(k + rows - 1, k) * math.comb(k + cols - 1, k) for k in range(d_trunc + 1)
    )
    rows_out = essential_normality_profile(model, z, P_VALUES)
    keep = np.flatnonzero(labels <= d_trunc - 2)
    cells = []
    for a, b in itertools.combinations_with_replacement(range(dom.dim), 2):
        comm = mats[a] @ mats[b].T - mats[b].T @ mats[a]
        full = np.linalg.svd(comm, compute_uv=False)
        windowed = np.linalg.svd(comm[np.ix_(keep, keep)], compute_uv=False)
        cells += [(schatten(full, p), schatten(windowed, p)) for p in P_VALUES]
    assert len(rows_out) == len(cells)
    for row, want in zip(rows_out, cells):
        for got, ref in zip((row.schatten_full, row.schatten_windowed), want):
            assert abs(got - ref) <= 1e-12 * ref, (d_trunc, row.symbol_i, row.symbol_j, row.p)


@pytest.mark.parametrize("lam", [1.501, 2.5, 4.0])
def test_det_quotient_is_the_segre_weighted_shift(lam):
    for d_trunc in (4, 8, 12):
        assert_segre_cells(2, 2, lam, d_trunc)


@pytest.mark.parametrize("lam", [1.5, 3.0, 5.0])
def test_mb23_minor_quotient_is_the_segre_weighted_shift(lam):
    # three minors with linear syzygies: several homogeneous generators
    # whose degree-2 columns are dependent, ranked by one cutoff per degree
    for d_trunc in (4, 6):
        assert_segre_cells(2, 3, lam, d_trunc)
